#ifndef LAKEBENCH_WORKLOADS_H_
#define LAKEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "util/json.h"

namespace lakebench {

struct RunOptions {
  // local-jpeg-epochs, s3-raw-shuffle or ingest-commit-query
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;      // sizes the measured phase (see README)
  bool trace = false;    // false: end-to-end metrics; true: per-layer metrics
  std::string out_dir;   // where the traced run writes its spans
};

struct RunOutcome {
  Checks checks;
  std::vector<Metric> metrics;
  dl::Json info = dl::Json::MakeObject();  // sample counts, sizes, workers
};

/// Runs one workload end to end. Unknown names and setup failures come
/// back as an error status; operation and check failures are counted in
/// the outcome's Checks.
dl::Result<RunOutcome> RunWorkload(const RunOptions& options);

}  // namespace lakebench

#endif  // LAKEBENCH_WORKLOADS_H_
