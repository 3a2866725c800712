// RetryingStore: absorbs transient faults from the wrapped provider with
// capped exponential backoff and deterministic jitter (see DESIGN.md §6,
// "Storage decorator chain & error taxonomy").

#include <algorithm>
#include <utility>

#include "obs/export.h"
#include "storage/storage.h"
#include "util/clock.h"

namespace dl::storage {

RetryingStore::RetryingStore(StoragePtr base, RetryPolicy policy,
                             SleepFn sleep)
    : ForwardingStore(std::move(base)),
      policy_(policy),
      sleep_(sleep ? std::move(sleep) : [](int64_t us) { SleepMicros(us); }),
      rng_(policy.seed) {
  if (policy_.max_attempts < 1) policy_.max_attempts = 1;
  // Per-instance label, as LruCacheStore does: registry counters live
  // forever, so a shared label would aggregate across stores.
  static std::atomic<uint64_t> next_id{0};
  obs::Labels labels = {{"store", "retry#" + std::to_string(next_id++) +
                                      "(" + base_->name() + ")"}};
  auto& registry = obs::MetricsRegistry::Global();
  retries_attempted_ =
      registry.GetCounter("storage.retries_attempted", labels);
  retries_exhausted_ =
      registry.GetCounter("storage.retries_exhausted", labels);
}

int64_t RetryPolicy::BackoffMicros(int retry, double u) const {
  double backoff = static_cast<double>(initial_backoff_us);
  for (int i = 1; i < retry; ++i) backoff *= multiplier;
  backoff = std::min(backoff, static_cast<double>(max_backoff_us));
  double jittered = backoff * (1.0 - jitter + 2.0 * jitter * u);
  return std::max<int64_t>(0, static_cast<int64_t>(jittered));
}

int64_t RetryingStore::NextBackoffMicros(int retry) {
  double u;
  {
    MutexLock lock(rng_mu_);
    u = rng_.NextDouble();
  }
  return policy_.BackoffMicros(retry, u);
}

template <typename Op>
auto RetryingStore::WithRetry(const char* op_name, std::string_view key,
                              Op&& op) -> decltype(op()) {
  auto result = op();
  int attempt = 1;
  while (!StatusOf(result).ok() && StatusOf(result).IsRetryable()) {
    if (attempt >= policy_.max_attempts) {
      retries_exhausted_->Increment();
      // The retry budget ran dry on a retryable fault: that is an
      // operational event, not just a counter tick. Label it with the op
      // and key so /tracez and EventsJsonl name the failing object.
      obs::RecordErrorEvent(
          obs::TraceRecorder::Global(), "storage.retry_exhausted",
          std::string("op=") + op_name + " key=" + std::string(key) +
              " attempts=" + std::to_string(attempt) + " " +
              StatusOf(result).ToString());
      break;
    }
    retries_attempted_->Increment();
    sleep_(NextBackoffMicros(attempt));
    result = op();
    ++attempt;
  }
  return result;
}

Result<Slice> RetryingStore::Get(std::string_view key) {
  return WithRetry("get", key, [&] { return base_->Get(key); });
}

Result<Slice> RetryingStore::GetRange(std::string_view key,
                                           uint64_t offset, uint64_t length) {
  return WithRetry("get_range", key,
                   [&] { return base_->GetRange(key, offset, length); });
}

Status RetryingStore::Put(std::string_view key, ByteView value) {
  return WithRetry("put", key, [&] { return base_->Put(key, value); });
}

Status RetryingStore::PutDurable(std::string_view key, ByteView value) {
  return WithRetry("put_durable", key,
                   [&] { return base_->PutDurable(key, value); });
}

Status RetryingStore::Delete(std::string_view key) {
  return WithRetry("delete", key, [&] { return base_->Delete(key); });
}

Result<bool> RetryingStore::Exists(std::string_view key) {
  return WithRetry("exists", key, [&] { return base_->Exists(key); });
}

Result<uint64_t> RetryingStore::SizeOf(std::string_view key) {
  return WithRetry("size_of", key, [&] { return base_->SizeOf(key); });
}

Result<std::vector<std::string>> RetryingStore::ListPrefix(
    std::string_view prefix) {
  return WithRetry("list_prefix", prefix,
                   [&] { return base_->ListPrefix(prefix); });
}

}  // namespace dl::storage
