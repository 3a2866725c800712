#ifndef LAKEBENCH_COUNTING_STORE_H_
#define LAKEBENCH_COUNTING_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "storage/storage.h"

namespace lakebench {

/// One timed read, kept only while timing is on.
struct GetSample {
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint64_t bytes = 0;
};

/// Totals a CountingStore has seen; plain values so phases can subtract.
struct StoreCounts {
  uint64_t gets = 0;  // Get + GetRange
  uint64_t get_bytes = 0;
  uint64_t puts = 0;  // Put + PutDurable
  uint64_t durable_puts = 0;
  uint64_t put_bytes = 0;

  StoreCounts operator-(const StoreCounts& o) const {
    return {gets - o.gets, get_bytes - o.get_bytes, puts - o.puts,
            durable_puts - o.durable_puts, put_bytes - o.put_bytes};
  }
};

/// The benchmark's own storage decorator. It forwards every virtual of
/// StorageProvider unchanged (durable puts stay durable, invalidations reach
/// the caches below) and counts operations and bytes itself, so the numbers
/// do not depend on StorageStats or registry names. With timing on it also
/// records each read's interval for the traced run.
class CountingStore : public dl::storage::StorageProvider {
 public:
  explicit CountingStore(dl::storage::StoragePtr base);

  dl::Result<dl::Slice> Get(std::string_view key) override;
  dl::Result<dl::Slice> GetRange(std::string_view key, uint64_t offset,
                                 uint64_t length) override;
  dl::Status Put(std::string_view key, dl::ByteView value) override;
  dl::Status PutDurable(std::string_view key, dl::ByteView value) override;
  bool atomic_durable_puts() const override {
    return base_->atomic_durable_puts();
  }
  void Invalidate(std::string_view key) override { base_->Invalidate(key); }
  dl::Status Delete(std::string_view key) override {
    return base_->Delete(key);
  }
  dl::Result<bool> Exists(std::string_view key) override {
    return base_->Exists(key);
  }
  dl::Result<uint64_t> SizeOf(std::string_view key) override {
    return base_->SizeOf(key);
  }
  dl::Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override {
    return base_->ListPrefix(prefix);
  }
  std::string name() const override { return base_->name(); }

  StoreCounts counts() const;

  /// Starts (true) or stops recording per-read intervals.
  void set_timing(bool on) { timing_.store(on); }
  /// Returns and clears the recorded read intervals.
  std::vector<GetSample> TakeGetSamples();

 private:
  dl::Result<dl::Slice> CountRead(int64_t start_us,
                                  dl::Result<dl::Slice> result);

  dl::storage::StoragePtr base_;
  std::atomic<uint64_t> gets_{0};
  std::atomic<uint64_t> get_bytes_{0};
  std::atomic<uint64_t> puts_{0};
  std::atomic<uint64_t> durable_puts_{0};
  std::atomic<uint64_t> put_bytes_{0};
  std::atomic<bool> timing_{false};
  std::mutex mu_;  // guards samples_
  std::vector<GetSample> samples_;
};

}  // namespace lakebench

#endif  // LAKEBENCH_COUNTING_STORE_H_
