#ifndef LAKEBENCH_SPANS_H_
#define LAKEBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace lakebench {

/// One timed interval around a call into a layer's public API.
struct Span {
  std::string name;    // "<layer>.<call>", e.g. "storage.get"
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t id = 0;
  int64_t parent = -1;  // id of the enclosing span, -1 for a root
  uint64_t trace = 0;   // the epoch or round the span belongs to
  int64_t micros() const { return end_us - start_us; }
};

/// In-memory span store of the traced run, written out when the run ends.
/// Used from one thread; storage reads timed on loader workers are added
/// afterwards from CountingStore's samples. A disabled log records nothing
/// and ScopedSpan on it costs one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Reserves an id for a span that will be closed later.
  int64_t NewId() { return next_id_++; }
  /// Records a finished span under a previously reserved id.
  void Close(int64_t id, std::string name, int64_t start_us, int64_t end_us,
             int64_t parent, uint64_t trace);
  /// Records a finished span and returns its id.
  int64_t Add(std::string name, int64_t start_us, int64_t end_us,
              int64_t parent, uint64_t trace);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self time (µs) of every span named `name`: its duration minus the part
  /// of it that its children cover.
  std::vector<double> SelfTimes(const std::string& name) const;

  /// Writes {"spans": [{name,start_us,end_us,id,parent,trace,self_us}]}.
  dl::Status WriteJson(const std::string& path) const;

 private:
  int64_t SelfMicros(size_t index,
                     const std::vector<std::vector<size_t>>& children) const;
  std::vector<std::vector<size_t>> ChildIndex() const;

  bool enabled_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: open on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int64_t parent, uint64_t trace);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  const char* name_;
  int64_t parent_;
  uint64_t trace_;
  int64_t id_ = -1;
  int64_t start_us_ = 0;
};

}  // namespace lakebench

#endif  // LAKEBENCH_SPANS_H_
