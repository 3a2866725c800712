// End-to-end benchmark of the lakehouse: one workload per invocation.
//
//   lakebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Prints a provenance line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  lakebench::RunOptions options;
  options.out_dir = ".";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || options.seconds < 1) {
    std::fprintf(stderr,
                 "usage: lakebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  auto outcome = lakebench::RunWorkload(options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "lakebench: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  dl::Json stamp = lakebench::Provenance(options.seed);
  stamp.Set("workload", options.workload);
  stamp.Set("trace", options.trace);
  stamp.Set("seconds", options.seconds);
  stamp.Set("run", std::move(outcome->info));
  std::printf("provenance %s\n", stamp.Dump().c_str());
  std::printf("%s\n",
              lakebench::ResultLine(outcome->checks, outcome->metrics).c_str());
  return 0;
}
