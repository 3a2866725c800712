#ifndef DEEPLAKE_SIM_NETWORK_MODEL_H_
#define DEEPLAKE_SIM_NETWORK_MODEL_H_

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
  /// Cap on concurrently served requests (connection pool size).
  int max_concurrent_requests = 64;
  /// Extra fixed cost on writes (e.g. replication ack).
  int64_t put_overhead_us = 0;
  /// Divide all sleeps by this to speed up benches while preserving ratios.
  double time_scale = 1.0;

  int64_t TransferMicros(uint64_t bytes) const {
    double us = first_byte_latency_us +
                static_cast<double>(bytes) / bandwidth_bytes_per_sec * 1e6;
    return static_cast<int64_t>(us / time_scale);
  }

  // ---- Named profiles (values representative of the paper's setups). ----

  /// Local NVMe filesystem: negligible latency, multi-GB/s.
  static NetworkModel LocalFs();
  /// AWS S3, client in the same region: ~12ms TTFB, ~95MB/s per stream,
  /// high request concurrency.
  static NetworkModel S3SameRegion();
  /// Object store in another region/cloud (the paper's Fig. 10 us-east ->
  /// us-central link): higher TTFB, lower per-stream bandwidth.
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
  // Registry instruments (family `sim.net.*`, labeled {net=<label>}):
  // connection-pool queueing and service time, the knobs Fig. 8 varies.
  obs::Gauge* inflight_gauge_;
  obs::Histogram* queue_hist_;
  obs::Histogram* transfer_hist_;
};

}  // namespace dl::sim

#endif  // DEEPLAKE_SIM_NETWORK_MODEL_H_
