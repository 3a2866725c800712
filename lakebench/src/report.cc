#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>

namespace lakebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0 : Sum(values) / static_cast<double>(values.size());
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string CpuSimdFlags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::set<std::string> flags;
    for (std::string flag; words >> flag;) flags.insert(flag);
    std::string out;
    for (const char* want : {"sse4_2", "avx", "avx2", "avx512f", "avx512bw",
                             "avx512vl", "sha_ni", "bmi2"}) {
      if (flags.count(want) == 0) continue;
      if (!out.empty()) out += " ";
      out += want;
    }
    return out;
  }
  return "unknown";
}

}  // namespace

dl::Json Provenance(uint64_t seed) {
  dl::Json p = dl::Json::MakeObject();
  p.Set("nproc", Nproc());
  p.Set("cpu_flags", CpuSimdFlags());
#ifdef __clang__
  p.Set("compiler", std::string("clang ") + __VERSION__);
#else
  p.Set("compiler", std::string("gcc ") + __VERSION__);
#endif
#ifdef LAKEBENCH_BUILD_TYPE
  p.Set("build_type", std::string(LAKEBENCH_BUILD_TYPE));
#endif
  const char* rev = std::getenv("LAKEBENCH_SOURCE_REV");
  p.Set("source_rev", std::string(rev != nullptr && *rev ? rev : "unknown"));
  p.Set("seed", seed);
  return p;
}

void Checks::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::string ResultLine(const Checks& checks,
                       const std::vector<Metric>& metrics) {
  dl::Json m = dl::Json::MakeObject();
  for (const Metric& metric : metrics) {
    dl::Json v = dl::Json::MakeObject();
    v.Set("value", metric.value);
    v.Set("unit", metric.unit);
    m.Set(metric.name, std::move(v));
  }
  dl::Json doc = dl::Json::MakeObject();
  doc.Set("correct", checks.failed() == 0 && checks.attempted() > 0);
  doc.Set("attempted", checks.attempted());
  doc.Set("failed", checks.failed());
  doc.Set("metrics", std::move(m));
  return doc.Dump();
}

}  // namespace lakebench
