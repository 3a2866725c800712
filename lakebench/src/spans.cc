#include "spans.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "util/clock.h"
#include "util/json.h"

namespace lakebench {

void SpanLog::Close(int64_t id, std::string name, int64_t start_us,
                    int64_t end_us, int64_t parent, uint64_t trace) {
  if (!enabled_) return;
  spans_.push_back({std::move(name), start_us, end_us, id, parent, trace});
}

int64_t SpanLog::Add(std::string name, int64_t start_us, int64_t end_us,
                     int64_t parent, uint64_t trace) {
  if (!enabled_) return -1;
  int64_t id = NewId();
  Close(id, std::move(name), start_us, end_us, parent, trace);
  return id;
}

std::vector<std::vector<size_t>> SpanLog::ChildIndex() const {
  std::unordered_map<int64_t, size_t> by_id;
  for (size_t i = 0; i < spans_.size(); ++i) by_id[spans_[i].id] = i;
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = by_id.find(spans_[i].parent);
    if (it != by_id.end()) children[it->second].push_back(i);
  }
  return children;
}

int64_t SpanLog::SelfMicros(
    size_t index, const std::vector<std::vector<size_t>>& children) const {
  const Span& span = spans_[index];
  // Children may overlap (concurrent reads under one epoch): subtract the
  // union of their intervals, clipped to the parent.
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t c : children[index]) {
    int64_t a = std::max(spans_[c].start_us, span.start_us);
    int64_t b = std::min(spans_[c].end_us, span.end_us);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0, cur_a = 0, cur_b = -1;
  for (auto [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return span.micros() - covered;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.micros()));
  }
  return out;
}

std::vector<double> SpanLog::SelfTimes(const std::string& name) const {
  auto children = ChildIndex();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(static_cast<double>(SelfMicros(i, children)));
    }
  }
  return out;
}

dl::Status SpanLog::WriteJson(const std::string& path) const {
  auto children = ChildIndex();
  dl::Json arr = dl::Json::MakeArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    dl::Json j = dl::Json::MakeObject();
    j.Set("name", s.name);
    j.Set("start_us", s.start_us);
    j.Set("end_us", s.end_us);
    j.Set("id", s.id);
    j.Set("parent", s.parent);
    j.Set("trace", s.trace);
    j.Set("self_us", SelfMicros(i, children));
    arr.Append(std::move(j));
  }
  dl::Json doc = dl::Json::MakeObject();
  doc.Set("spans", std::move(arr));
  std::ofstream out(path, std::ios::trunc);
  if (!out) return dl::Status::IOError("cannot open " + path);
  out << doc.Dump() << "\n";
  out.close();
  if (!out) return dl::Status::IOError("short write to " + path);
  return dl::Status::OK();
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, int64_t parent,
                       uint64_t trace)
    : log_(log), name_(name), parent_(parent), trace_(trace) {
  if (log_.enabled()) {
    id_ = log_.NewId();
    start_us_ = dl::NowMicros();
  }
}

ScopedSpan::~ScopedSpan() {
  if (log_.enabled()) {
    log_.Close(id_, name_, start_us_, dl::NowMicros(), parent_, trace_);
  }
}

}  // namespace lakebench
