#ifndef LAKEBENCH_REPORT_H_
#define LAKEBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace lakebench {

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Online CPUs of this process (sched_getaffinity), at least 1.
int Nproc();
/// Threads of this process right now (/proc/self/status).
int ThreadCount();
/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Machine and build stamp: nproc, CPU SIMD flags, compiler, build type,
/// source revision (LAKEBENCH_SOURCE_REV, set by run.py) and the seed.
dl::Json Provenance(uint64_t seed);

/// Pass/fail tally of the workload's operations and output checks.
class Checks {
 public:
  /// Counts one operation; a false `ok` counts it failed and logs `what`.
  void Op(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The result line the benchmark ends with:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
std::string ResultLine(const Checks& checks,
                       const std::vector<Metric>& metrics);

}  // namespace lakebench

#endif  // LAKEBENCH_REPORT_H_
