// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <batch-discrete|online-sharded|batch-disk>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics; --trace 1 the per-layer ones
// (and writes the span log to perfbench-out/trace-<workload>-<seed>.json).
// See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "util.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, pb::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_start = pb::NowS();
  pb::Args args;
  pb::Workload wl;
  if (!ParseArgs(argc, argv, &args) || !pb::FindWorkload(args.workload, &wl)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <batch-discrete|online-sharded|"
                 "batch-disk> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::filesystem::create_directories(pb::kOutDir);
  const pb::CpuTicks ticks0 = pb::ReadCpuTicks();
  pb::RunResult r = args.trace ? pb::RunTraced(wl, args, t_start)
                               : pb::RunUntraced(wl, args, t_start);
  std::fprintf(stderr, "host steal: %.1f%% of the CPU time run\n",
               100 * pb::StealShare(ticks0, pb::ReadCpuTicks()));
  for (const std::string& f : r.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::string line = std::string("{\"correct\": ") +
                     (r.check_failures.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": " + r.metrics.Json() + "}";
  std::ofstream(pb::kOutDir + "/result-" + wl.name + "-" +
                std::to_string(args.seed) + (args.trace ? "-trace" : "") + ".json")
      << line << "\n";
  std::printf("%s\n", line.c_str());
  return 0;
}
