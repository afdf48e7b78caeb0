#include "opt/pareto.h"

#include <algorithm>

#include "base/error.h"

namespace mhs::opt {

namespace {

/// True when row `a` knocks row `b` off the front: `a` is no worse in
/// every objective, and better in one or an exact duplicate that comes
/// first.
bool removes(const std::vector<double>& a, const std::vector<double>& b,
             bool a_first) {
  bool better = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) return false;
    better = better || a[k] < b[k];
  }
  return better || a_first;
}

}  // namespace

std::vector<std::size_t> pareto(
    const std::vector<std::vector<double>>& points) {
  for (const std::vector<double>& p : points) {
    MHS_CHECK(p.size() == points.front().size(),
              "Pareto points must have the same number of objectives");
  }
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool kept = true;
    for (std::size_t j = 0; j < points.size() && kept; ++j) {
      if (j != i) kept = !removes(points[j], points[i], j < i);
    }
    if (kept) front.push_back(i);
  }
  return front;
}

double hypervolume(const std::vector<std::vector<double>>& points,
                   double ref1, double ref2) {
  for (const std::vector<double>& p : points) {
    MHS_CHECK(p.size() == 2, "hypervolume needs 2-objective points");
  }
  // On a 2-objective front no two points share objective 1.
  std::vector<std::size_t> front = pareto(points);
  std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
    return points[a][0] < points[b][0];
  });
  double volume = 0.0;
  double prev1 = ref1;
  // Sweep right-to-left in objective 1; each point adds a rectangle.
  for (auto it = front.rbegin(); it != front.rend(); ++it) {
    const std::vector<double>& p = points[*it];
    MHS_CHECK(p[0] <= ref1 && p[1] <= ref2,
              "reference point does not bound the front");
    volume += (prev1 - p[0]) * (ref2 - p[1]);
    prev1 = p[0];
  }
  return volume;
}

}  // namespace mhs::opt
