#include "sim/network_model.h"

#include "util/clock.h"
#include "util/macros.h"

namespace dl::sim {

NetworkModel NetworkModel::LocalFs() {
  NetworkModel m;
  m.label = "local";
  m.first_byte_latency_us = 40;
  m.bandwidth_bytes_per_sec = 2.0e9;
  m.max_concurrent_requests = 128;
  m.put_overhead_us = 0;
  return m;
}

NetworkModel NetworkModel::S3SameRegion() {
  NetworkModel m;
  m.label = "s3";
  m.first_byte_latency_us = 12000;
  m.bandwidth_bytes_per_sec = 95.0e6;
  m.aggregate_bandwidth_bytes_per_sec = 1.25e9;  // 10 Gbit/s
  m.max_concurrent_requests = 64;
  m.put_overhead_us = 4000;
  return m;
}

NetworkModel NetworkModel::S3CrossRegion() {
  NetworkModel m;
  m.label = "s3-xregion";
  m.first_byte_latency_us = 38000;
  m.bandwidth_bytes_per_sec = 45.0e6;
  m.aggregate_bandwidth_bytes_per_sec = 1.25e9;  // 10 Gbit/s
  m.max_concurrent_requests = 64;
  m.put_overhead_us = 9000;
  return m;
}

NetworkModel NetworkModel::MinioLan() {
  NetworkModel m;
  m.label = "minio";
  m.first_byte_latency_us = 2500;
  // A single-machine MinIO serves far less aggregate bandwidth than S3's
  // fleet — the reason the paper sees both Deep Lake and WebDataset slow
  // down against it (Fig. 8).
  m.bandwidth_bytes_per_sec = 30.0e6;
  // The small connection pool is what hurts heavily-parallel streaming
  // loaders on MinIO relative to S3 (paper Fig. 8 observation).
  m.max_concurrent_requests = 4;
  m.put_overhead_us = 1500;
  return m;
}

SimulatedObjectStore::SimulatedObjectStore(storage::StoragePtr base,
                                           NetworkModel model)
    : ForwardingStore(std::move(base)),
      model_(std::move(model)),
      slots_(model_.max_concurrent_requests) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Labels labels = {{"net", model_.label}};
  inflight_gauge_ = registry.GetGauge("sim.net.inflight", labels);
  queue_hist_ = registry.GetHistogram("sim.net.queue_us", labels);
  transfer_hist_ = registry.GetHistogram("sim.net.transfer_us", labels);
}

void SimulatedObjectStore::SimulateTransfer(uint64_t bytes,
                                            int64_t extra_us) {
  // Queueing vs. service time, published separately: a saturated
  // connection pool shows up as queue_us growth at flat transfer_us — the
  // MinIO-vs-S3 signature of paper Fig. 8.
  int64_t wait_start = NowMicros();
  slots_.Acquire();
  queue_hist_->ObserveSinceMicros(wait_start);
  inflight_gauge_->Add(1);
  int in_flight = in_flight_.fetch_add(1) + 1;
  int64_t us = model_.TransferMicros(bytes, in_flight) +
               static_cast<int64_t>(extra_us / model_.time_scale);
  SleepMicros(us);
  transfer_hist_->Observe(static_cast<double>(us));
  in_flight_.fetch_sub(1);
  inflight_gauge_->Sub(1);
  slots_.Release();
}

Status SimulatedObjectStore::Admit(storage::FaultOp op) {
  if ((op & (storage::kFaultExists | storage::kFaultSizeOf |
             storage::kFaultList)) != 0) {
    SimulateTransfer(0);
  }
  return Status::OK();
}

Result<Slice> SimulatedObjectStore::Get(std::string_view key) {
  DL_ASSIGN_OR_RETURN(Slice buf, base_->Get(key));
  SimulateTransfer(buf.size());
  return buf;
}

Result<Slice> SimulatedObjectStore::GetRange(std::string_view key,
                                                  uint64_t offset,
                                                  uint64_t length) {
  DL_ASSIGN_OR_RETURN(Slice buf, base_->GetRange(key, offset, length));
  SimulateTransfer(buf.size());
  return buf;
}

Status SimulatedObjectStore::Put(std::string_view key, ByteView value) {
  SimulateTransfer(value.size(), model_.put_overhead_us);
  return base_->Put(key, value);
}

Status SimulatedObjectStore::PutDurable(std::string_view key,
                                        ByteView value) {
  SimulateTransfer(value.size(), model_.put_overhead_us);
  return base_->PutDurable(key, value);
}

}  // namespace dl::sim
