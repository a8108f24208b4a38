// The end-to-end benchmark binary:
//
//   e2ebench --workload <bulk_report|portal_mix|sharded_aggregate>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints a human-readable report, then one JSON object as the last line of
// standard output. Exit codes: 0 = measured, 1 = a wrong answer or a broken
// trace, 2 = usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: e2ebench --workload <bulk_report|portal_mix|"
               "sharded_aggregate> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nimble::e2ebench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  // Inputs are generated here, before any timed set-up.
  std::unique_ptr<Workload> workload;
  if (options.workload == "bulk_report") {
    workload = MakeBulkReport(options.seed);
  } else if (options.workload == "portal_mix") {
    workload = MakePortalMix(options.seed);
  } else if (options.workload == "sharded_aggregate") {
    workload = MakeShardedAggregate(options.seed);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  return RunBenchmark(*workload, options);
}
