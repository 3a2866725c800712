#ifndef DEEPLAKE_SIM_NETWORK_MODEL_H_
#define DEEPLAKE_SIM_NETWORK_MODEL_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "storage/storage.h"
#include "util/thread_pool.h"

namespace dl::sim {

/// Latency/bandwidth model of a storage backend's network path. The
/// simulated store sleeps according to this model, so prefetch-depth and
/// request-count effects behave like they do against real object storage
/// (see DESIGN.md substitutions: S3/GCS/MinIO).
struct NetworkModel {
  std::string label = "local";
  /// Time to first byte per request (connection + server latency).
  int64_t first_byte_latency_us = 0;
  /// Per-stream sustained throughput.
  double bandwidth_bytes_per_sec = 2.0e9;
  /// Link throughput that every request in flight shares (the client's
  /// NIC); 0 = uncapped.
  double aggregate_bandwidth_bytes_per_sec = 0;
  /// Cap on concurrently served requests (connection pool size).
  int max_concurrent_requests = 64;
  /// Extra fixed cost on writes (e.g. replication ack).
  int64_t put_overhead_us = 0;
  /// Divide all sleeps by this to speed up benches while preserving ratios.
  double time_scale = 1.0;

  /// Duration of a `bytes` transfer admitted while `in_flight` requests,
  /// itself included, are being served: it streams at min(per-stream
  /// bandwidth, link bandwidth / in_flight) for its whole length.
  int64_t TransferMicros(uint64_t bytes, int in_flight = 1) const {
    double rate = bandwidth_bytes_per_sec;
    if (aggregate_bandwidth_bytes_per_sec > 0) {
      rate = std::min(rate, aggregate_bandwidth_bytes_per_sec /
                                std::max(in_flight, 1));
    }
    double us = first_byte_latency_us + static_cast<double>(bytes) / rate * 1e6;
    return static_cast<int64_t>(us / time_scale);
  }

  // ---- Named profiles (values representative of the paper's setups). ----

  /// Local NVMe filesystem: negligible latency, multi-GB/s.
  static NetworkModel LocalFs();
  /// AWS S3, client in the same region: ~12ms TTFB, ~95MB/s per stream,
  /// high request concurrency, a 10 Gbit/s client link.
  static NetworkModel S3SameRegion();
  /// Object store in another region/cloud (the paper's Fig. 10 us-east ->
  /// us-central link): higher TTFB, lower per-stream bandwidth, the same
  /// 10 Gbit/s client link.
  static NetworkModel S3CrossRegion();
  /// MinIO on another machine in a LAN: low latency but a small connection
  /// pool and modest per-stream bandwidth — the paper observes both Deep
  /// Lake and WebDataset stream slower from MinIO than from S3 (Fig. 8).
  static NetworkModel MinioLan();
};

/// Wraps any provider and injects the model's delays: data operations pay
/// a transfer, metadata operations (Exists/SizeOf/ListPrefix) one
/// zero-byte round trip, and Delete is free.
class SimulatedObjectStore : public storage::ForwardingStore {
 public:
  SimulatedObjectStore(storage::StoragePtr base, NetworkModel model);

  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                              uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  std::string name() const override {
    return "sim:" + model_.label + "(" + base_->name() + ")";
  }

  const NetworkModel& model() const { return model_; }

 private:
  /// Metadata round trip: latency only.
  Status Admit(storage::FaultOp op) override;

  /// Sleeps for the modeled duration of a `bytes`-sized transfer while
  /// holding a concurrency slot.
  void SimulateTransfer(uint64_t bytes, int64_t extra_us = 0);

  NetworkModel model_;
  Semaphore slots_;
  std::atomic<int> in_flight_{0};  // transfers holding a slot right now
  // Registry instruments (family `sim.net.*`, labeled {net=<label>}):
  // connection-pool queueing and service time, the knobs Fig. 8 varies.
  obs::Gauge* inflight_gauge_;
  obs::Histogram* queue_hist_;
  obs::Histogram* transfer_hist_;
};

}  // namespace dl::sim

#endif  // DEEPLAKE_SIM_NETWORK_MODEL_H_
