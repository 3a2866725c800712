#include "counting_store.h"

#include "util/clock.h"

namespace lakebench {

CountingStore::CountingStore(dl::storage::StoragePtr base)
    : base_(std::move(base)) {}

dl::Result<dl::Slice> CountingStore::CountRead(int64_t start_us,
                                               dl::Result<dl::Slice> result) {
  gets_.fetch_add(1, std::memory_order_relaxed);
  uint64_t bytes = result.ok() ? result->size() : 0;
  get_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (start_us >= 0) {
    int64_t end_us = dl::NowMicros();
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back({start_us, end_us, bytes});
  }
  return result;
}

dl::Result<dl::Slice> CountingStore::Get(std::string_view key) {
  int64_t start = timing_.load() ? dl::NowMicros() : -1;
  return CountRead(start, base_->Get(key));
}

dl::Result<dl::Slice> CountingStore::GetRange(std::string_view key,
                                              uint64_t offset,
                                              uint64_t length) {
  int64_t start = timing_.load() ? dl::NowMicros() : -1;
  return CountRead(start, base_->GetRange(key, offset, length));
}

dl::Status CountingStore::Put(std::string_view key, dl::ByteView value) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  put_bytes_.fetch_add(value.size(), std::memory_order_relaxed);
  return base_->Put(key, value);
}

dl::Status CountingStore::PutDurable(std::string_view key,
                                     dl::ByteView value) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  durable_puts_.fetch_add(1, std::memory_order_relaxed);
  put_bytes_.fetch_add(value.size(), std::memory_order_relaxed);
  return base_->PutDurable(key, value);
}

StoreCounts CountingStore::counts() const {
  return {gets_.load(), get_bytes_.load(), puts_.load(), durable_puts_.load(),
          put_bytes_.load()};
}

std::vector<GetSample> CountingStore::TakeGetSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GetSample> out;
  out.swap(samples_);
  return out;
}

}  // namespace lakebench
