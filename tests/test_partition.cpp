// Unit tests for mhs::partition — cost model and partitioning algorithms.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "apps/workloads.h"
#include "base/rng.h"
#include "ir/task_graph_gen.h"
#include "partition/algorithms.h"
#include "partition/cost_model.h"

namespace {
// Heap allocations made by this thread while counting is on.
thread_local bool t_count_allocations = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

// Counting replacements of the global allocation functions, so a test can
// assert that a code path never touches the heap. Sanitizer builds keep
// their own allocator; the test that reads the count skips there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCountsAllocations = false;
#else
constexpr bool kCountsAllocations = true;
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (t_count_allocations) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace mhs::partition {
namespace {

/// Allocations the calling thread makes during `fn`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  t_allocations = 0;
  t_count_allocations = true;
  fn();
  t_count_allocations = false;
  return t_allocations;
}

CostModel make_model(const ir::TaskGraph& g) {
  return CostModel(g, hw::default_library());
}

TEST(CostModel, AllSwLatencyIsSerialSum) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  const Mapping all_sw(g.num_tasks(), false);
  // One CPU, zero SW-SW comm: latency equals the serial sum of sw cycles.
  EXPECT_NEAR(model.schedule_latency(all_sw, true, true),
              g.total_sw_cycles(), 1e-9);
}

TEST(CostModel, AllHwExploitsParallelism) {
  Rng rng(8);
  ir::TaskGraphGenConfig cfg;
  cfg.shape = ir::GraphShape::kForkJoin;
  cfg.num_tasks = 8;
  const ir::TaskGraph g = ir::generate_task_graph(cfg, rng);
  const CostModel model = make_model(g);
  const Mapping all_hw(g.num_tasks(), true);
  double hw_serial_sum = 0.0;
  for (const ir::TaskId t : g.task_ids()) {
    hw_serial_sum += g.task(t).costs.hw_cycles;
  }
  // Concurrent HW beats summing the branches.
  EXPECT_LT(model.schedule_latency(all_hw, true, false), hw_serial_sum);
  // Disabling concurrency serializes hardware too.
  EXPECT_NEAR(model.schedule_latency(all_hw, false, false), hw_serial_sum,
              1e-6);
}

TEST(CostModel, CommunicationPricedOnlyAcrossBoundary) {
  ir::TaskGraph g("two");
  const ir::TaskId a = g.add_task("a", {100, 10, 500, 40, 0, 0});
  const ir::TaskId b = g.add_task("b", {100, 10, 500, 40, 0, 0});
  g.add_edge(a, b, 400);
  const CostModel model = make_model(g);
  Objective obj;

  Mapping same(2, false);
  EXPECT_DOUBLE_EQ(model.evaluate(same, obj).cross_comm_cycles, 0.0);

  Mapping split = {false, true};
  const Metrics m = model.evaluate(split, obj);
  EXPECT_GT(m.cross_comm_cycles, 0.0);
  // 24 overhead + 400/4 bytes-per-cycle.
  EXPECT_DOUBLE_EQ(m.cross_comm_cycles, 124.0);
}

TEST(CostModel, LatencyAccountsForCrossEdges) {
  ir::TaskGraph g("chain");
  const ir::TaskId a = g.add_task("a", {100, 10, 500, 40, 0, 0});
  const ir::TaskId b = g.add_task("b", {100, 10, 500, 40, 0, 0});
  g.add_edge(a, b, 400);
  const CostModel model = make_model(g);
  const Mapping split = {false, true};
  const double with_comm = model.schedule_latency(split, true, true);
  const double without_comm = model.schedule_latency(split, true, false);
  EXPECT_DOUBLE_EQ(with_comm - without_comm, 124.0);
}

TEST(CostModel, AreaUsesSharing) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  Mapping two(g.num_tasks(), false);
  two[1] = two[2] = true;  // both DCTs in HW
  Mapping one(g.num_tasks(), false);
  one[1] = true;
  const double area2 = model.hardware_area(two);
  const double area1 = model.hardware_area(one);
  // Sharing: adding an identical-class task costs less than doubling.
  EXPECT_LT(area2, 2.0 * area1);
  EXPECT_GT(area2, area1);
}

TEST(CostModel, ModifiabilityPenaltyTracksHwMapping) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  Objective obj;
  Mapping entropy_hw(g.num_tasks(), false);
  entropy_hw[6] = true;  // entropy_code: modifiability 0.9
  Mapping dct_hw(g.num_tasks(), false);
  dct_hw[1] = true;  // dct_luma: modifiability 0.1
  EXPECT_GT(model.evaluate(entropy_hw, obj).modifiability_penalty / 0.9,
            0.0);
  EXPECT_GT(model.evaluate(entropy_hw, obj).modifiability_penalty,
            model.evaluate(dct_hw, obj).modifiability_penalty * 0.2);
}

TEST(CostModel, EnergyPenalizesConstraintViolations) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  const Mapping all_sw(g.num_tasks(), false);
  Objective relaxed;
  Objective strict = relaxed;
  strict.latency_target = 1000.0;  // far below the all-SW latency
  EXPECT_GT(model.evaluate(all_sw, strict).energy,
            model.evaluate(all_sw, relaxed).energy);
}

TEST(CostModel, WarmEvaluationAllocatesNothing) {
  if (!kCountsAllocations) GTEST_SKIP() << "sanitizer allocator in use";
  Rng rng(21);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = 24;
  const ir::TaskGraph g = ir::generate_task_graph(cfg, rng);
  CostModel model = make_model(g);
  Mapping mapping(g.num_tasks(), false);
  for (std::size_t t = 0; t < mapping.size(); t += 3) mapping[t] = true;
  std::vector<Objective> objectives(4);
  objectives[1].consider_concurrency = false;
  objectives[2].consider_communication = false;
  objectives[3].consider_concurrency = false;
  objectives[3].consider_communication = false;
  double sink = 0.0;
  const auto evaluate_all = [&] {
    for (const Objective& o : objectives) {
      sink += model.evaluate(mapping, o).energy;
      sink += model.hardware_area(mapping);
    }
  };

  evaluate_all();  // sizes this thread's scratch
  EXPECT_EQ(allocations_during(evaluate_all), 0u);

  // A constructed walk flips and scores without touching the heap.
  std::vector<CostModel::Walk> walks;
  for (const Objective& o : objectives) walks.emplace_back(model, o, mapping);
  const auto walk_all = [&] {
    for (CostModel::Walk& walk : walks) {
      for (std::size_t t = 0; t < mapping.size(); ++t) {
        walk.flip(t);
        sink += walk.score().energy;
        if (t % 2 == 0) walk.flip(t);
      }
    }
  };
  EXPECT_EQ(allocations_during(walk_all), 0u);

  EvalCache cache;
  model.set_cache(&cache);
  evaluate_all();  // misses insert their keys
  const std::size_t hits = cache.stats().hits;
  EXPECT_EQ(allocations_during(evaluate_all), 0u);
  EXPECT_GT(cache.stats().hits, hits);
  EXPECT_GT(sink, 0.0);
}

TEST(Algorithms, BaselinesAreExtremes) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  Objective obj;
  const PartitionResult sw = run(Strategy::kAllSw, model, obj);
  const PartitionResult hw = run(Strategy::kAllHw, model, obj);
  EXPECT_EQ(sw.metrics.tasks_in_hw, 0u);
  EXPECT_EQ(hw.metrics.tasks_in_hw, g.num_tasks());
  EXPECT_LT(hw.metrics.latency_cycles, sw.metrics.latency_cycles);
  EXPECT_GT(hw.metrics.hw_area, sw.metrics.hw_area);
}

TEST(Algorithms, HotSpotMeetsTargetWithPartialHw) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  Objective obj;
  const double all_sw =
      run(Strategy::kAllSw, model, obj).metrics.latency_cycles;
  obj.latency_target = all_sw * 0.5;
  const PartitionResult r = run(Strategy::kHotSpot, model, obj);
  EXPECT_LE(r.metrics.latency_cycles, obj.latency_target);
  EXPECT_GT(r.metrics.tasks_in_hw, 0u);
  EXPECT_LT(r.metrics.tasks_in_hw, g.num_tasks());
}

TEST(Algorithms, UnloadKeepsTargetWhileCuttingArea) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  Objective obj;
  const double all_sw =
      run(Strategy::kAllSw, model, obj).metrics.latency_cycles;
  obj.latency_target = all_sw * 0.5;
  const PartitionResult all_hw = run(Strategy::kAllHw, model, obj);
  const PartitionResult r = run(Strategy::kUnload, model, obj);
  EXPECT_LE(r.metrics.latency_cycles, obj.latency_target);
  EXPECT_LT(r.metrics.hw_area, all_hw.metrics.hw_area);
}

TEST(Algorithms, HotSpotRequiresTarget) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  Objective no_target;
  EXPECT_THROW(run(Strategy::kHotSpot, model, no_target), PreconditionError);
  EXPECT_THROW(run(Strategy::kUnload, model, no_target), PreconditionError);
}

TEST(Algorithms, KlImprovesOnAllSwEnergy) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  Objective obj;
  obj.area_weight = 0.02;
  const double sw_energy = run(Strategy::kAllSw, model, obj).metrics.energy;
  const PartitionResult r = run(Strategy::kKl, model, obj);
  EXPECT_LE(r.metrics.energy, sw_energy);
  EXPECT_GT(r.evaluations, g.num_tasks());
}

TEST(Algorithms, AnnealedFindsLowEnergyPartition) {
  Rng rng(12);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = 14;
  const ir::TaskGraph g = ir::generate_task_graph(cfg, rng);
  const CostModel model = make_model(g);
  Objective obj;
  obj.area_weight = 0.02;
  opt::AnnealConfig anneal_cfg;
  anneal_cfg.rounds = 60;
  anneal_cfg.moves_per_round = 48;
  PartitionOptions sa_options;
  sa_options.anneal = anneal_cfg;
  const PartitionResult sa =
      run(Strategy::kAnnealed, model, obj, sa_options);
  const double sw_energy = run(Strategy::kAllSw, model, obj).metrics.energy;
  const double hw_energy = run(Strategy::kAllHw, model, obj).metrics.energy;
  EXPECT_LE(sa.metrics.energy, std::min(sw_energy, hw_energy) + 1e-9);
}

TEST(Algorithms, GclpRespondsToTargetPressure) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const CostModel model = make_model(g);
  Objective loose;
  loose.latency_target = g.total_sw_cycles() * 2.0;  // easily met
  Objective tight;
  tight.latency_target = g.total_sw_cycles() * 0.25;
  const PartitionResult relaxed = run(Strategy::kGclp, model, loose);
  const PartitionResult pressed = run(Strategy::kGclp, model, tight);
  EXPECT_GE(pressed.metrics.tasks_in_hw, relaxed.metrics.tasks_in_hw);
  EXPECT_LE(pressed.metrics.latency_cycles,
            relaxed.metrics.latency_cycles);
}

TEST(Algorithms, MappingSizesAlwaysMatchGraph) {
  Rng rng(77);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = 9;
  const ir::TaskGraph g = ir::generate_task_graph(cfg, rng);
  const CostModel model = make_model(g);
  Objective obj;
  obj.latency_target = g.total_sw_cycles() * 0.6;
  for (const PartitionResult& r :
       {run(Strategy::kAllSw, model, obj), run(Strategy::kAllHw, model, obj),
        run(Strategy::kHotSpot, model, obj), run(Strategy::kUnload, model, obj),
        run(Strategy::kKl, model, obj), run(Strategy::kGclp, model, obj)}) {
    EXPECT_EQ(r.mapping.size(), g.num_tasks()) << r.algorithm;
    // Metrics were computed from the returned mapping.
    EXPECT_EQ(model.evaluate(r.mapping, obj).energy, r.metrics.energy)
        << r.algorithm;
  }
}

TEST(Ablation, CommBlindObjectiveYieldsWorseTrueLatency) {
  // A communication-heavy pipeline: ignoring the communication factor
  // during optimization scatters tasks across the boundary.
  Rng rng(5);
  ir::TaskGraphGenConfig cfg;
  cfg.shape = ir::GraphShape::kPipeline;
  cfg.num_tasks = 10;
  cfg.mean_edge_bytes = 3000.0;  // heavy traffic
  const ir::TaskGraph g = ir::generate_task_graph(cfg, rng);
  const CostModel model = make_model(g);

  Objective full;
  full.area_weight = 0.01;
  Objective blind = full;
  blind.consider_communication = false;

  const PartitionResult with_comm = run(Strategy::kKl, model, full);
  const PartitionResult no_comm = run(Strategy::kKl, model, blind);
  // Score both under the FULL model.
  const Metrics m_with = model.evaluate(with_comm.mapping, full);
  const Metrics m_blind = model.evaluate(no_comm.mapping, full);
  EXPECT_LE(m_with.latency_cycles, m_blind.latency_cycles * 1.001);
}

}  // namespace
}  // namespace mhs::partition
