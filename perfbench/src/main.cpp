// mhsbench — the repository benchmark driver.
//
//   mhsbench --workload flow|explore|serve --seed N --seconds S
//            --trace 0|1 [--out DIR]
//
// --trace 0 runs the workload untraced and prints every end-to-end
// metric; --trace 1 replays the workload's layer calls with a span
// around each, prints every per-layer metric, and writes a Chrome trace
// to DIR. Either way the last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status is 0 whenever that line was printed (correctness is in
// the line), 2 on a usage error. The same result, with each metric's
// sample count and the machine, is written to DIR/result-<workload>-
// <seed>-trace<0|1>.json.
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "mhsbench: " << why
            << "\nusage: mhsbench --workload flow|explore|serve --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  mhsbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value != "0";
      } else if (flag == "--out") {
        args.out_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "flow" && args.workload != "explore" &&
      args.workload != "serve") {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  std::cout << "machine: " << mhsbench::machine_json() << "\n"
            << "workload: " << args.workload << "  seed: " << args.seed
            << "  seconds: " << args.seconds
            << "  trace: " << (args.trace ? 1 : 0) << std::endl;
  mhsbench::Result result;
  if (args.trace) {
    result = mhsbench::trace_workload(args);
  } else if (args.workload == "flow") {
    result = mhsbench::run_flow(args);
  } else if (args.workload == "explore") {
    result = mhsbench::run_explore(args);
  } else {
    result = mhsbench::run_serve(args);
  }
  mhsbench::print_result(result);
  const std::string path = args.out_dir + "/result-" + args.workload + "-" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (!mhsbench::write_file(path, mhsbench::result_json(result, true))) {
    std::cerr << "mhsbench: cannot write " << path << "\n";
  }
  return 0;
}
