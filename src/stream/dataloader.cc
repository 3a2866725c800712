#include "stream/dataloader.h"

#include <algorithm>
#include <numeric>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/macros.h"

namespace dl::stream {

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

Result<tsf::Sample> Batch::Stacked(const std::string& column) const {
  auto it = columns.find(column);
  if (it == columns.end()) {
    return Status::NotFound("batch: no column '" + column + "'");
  }
  const std::vector<tsf::Sample>& samples = it->second;
  if (samples.empty()) {
    return Status::FailedPrecondition("batch: empty column");
  }
  const tsf::TensorShape& shape0 = samples[0].shape;
  for (const auto& s : samples) {
    if (!(s.shape == shape0) || s.dtype != samples[0].dtype) {
      return Status::FailedPrecondition(
          "batch: column '" + column +
          "' is ragged; stack requires uniform shapes (apply a resize "
          "transform)");
    }
  }
  std::vector<uint64_t> out_dims;
  out_dims.push_back(samples.size());
  for (uint64_t d : shape0.dims()) out_dims.push_back(d);
  tsf::TensorShape out_shape(std::move(out_dims));
  if (samples.size() == 1) {
    // A batch of one aliases the sample's buffer — zero copy.
    return tsf::Sample(samples[0].dtype, std::move(out_shape),
                       samples[0].data);
  }
  ByteBuffer staging;
  staging.reserve(samples.size() * samples[0].data.size());
  for (const auto& s : samples) {
    staging.insert(staging.end(), s.data.begin(), s.data.end());
  }
  // Collation is the one copy the batch-major layout forces; account for it
  // so loader.bytes_copied stays an honest end-to-end figure.
  internal::AddBytesCopied(staging.size());
  return tsf::Sample(samples[0].dtype, std::move(out_shape),
                     Slice(std::move(staging)));
}

// ---------------------------------------------------------------------------
// Dataloader
// ---------------------------------------------------------------------------

Dataloader::Dataloader(std::shared_ptr<tsf::Dataset> dataset,
                       DataloaderOptions options)
    : dataset_(std::move(dataset)), options_(std::move(options)) {
  std::vector<uint64_t> order(dataset_->NumRows());
  std::iota(order.begin(), order.end(), uint64_t{0});
  Start(order);
}

Dataloader::Dataloader(std::shared_ptr<tsf::Dataset> dataset,
                       const tql::DatasetView& view,
                       DataloaderOptions options)
    : dataset_(std::move(dataset)), options_(std::move(options)) {
  Start(view.indices());
}

Dataloader::~Dataloader() {
  {
    MutexLock lock(mu_);
    abort_ = true;
  }
  gate_cv_.NotifyAll();
  ready_cv_.NotifyAll();
  pool_.reset();  // joins workers
  // Rows decoded but never delivered would otherwise leave the queue-depth
  // gauge stuck above zero for the next epoch's loader.
  MutexLock lock(mu_);
  queued_gauge_->Sub(static_cast<double>(undelivered_));
}

void Dataloader::PlanEpoch(const std::vector<uint64_t>& order) {
  // Pick the finest-chunked tensor as the primary alignment target: its
  // chunk boundaries dominate fetch cost.
  const tsf::ChunkEncoder* primary = nullptr;
  for (const auto& [name, tensor] : columns_) {
    const tsf::ChunkEncoder& enc = tensor->chunk_encoder();
    if (primary == nullptr || enc.num_chunks() > primary->num_chunks()) {
      primary = &enc;
    }
  }
  size_t current_ordinal = SIZE_MAX;
  for (uint64_t row : order) {
    size_t ordinal = SIZE_MAX;
    if (primary != nullptr) {
      auto loc = primary->Find(row);
      if (loc.ok()) ordinal = loc->chunk_ordinal;
    }
    // A new unit starts when the primary chunk changes: all rows served by
    // one chunk share one fetch, even when a sparse view skips between
    // them. (The sparse-view penalty of §4.5 remains — the full chunk is
    // fetched however few of its rows the view selects.)
    if (units_.empty() || ordinal != current_ordinal) units_.emplace_back();
    current_ordinal = ordinal;
    units_.back().rows.push_back(row);
  }
  // Visit units in shuffled order for shuffled streams (chunk-level
  // shuffle); the reservoir adds sample-level randomness (§3.5).
  if (options_.shuffle) {
    Rng rng(options_.seed ^ 0x5eed);
    for (size_t i = units_.size(); i > 1; --i) {
      std::swap(units_[i - 1], units_[rng.Uniform(i)]);
    }
  }
  uint64_t first = 0;
  for (Unit& unit : units_) {
    unit.first = first;
    first += unit.rows.size();
  }

  const uint64_t batch = options_.batch_size;
  delivered_rows_ = batch == 0            ? 0
                    : options_.drop_last ? order.size() / batch * batch
                                         : order.size();
  // The ramp (rather than waiting for a full reservoir) keeps the first
  // batch as fast as the first unit.
  const size_t cap =
      options_.shuffle ? std::max<size_t>(1, options_.shuffle_buffer_rows) : 1;
  Rng rng(options_.seed);
  std::vector<uint64_t> reservoir;
  uint64_t admitted = 0;
  size_t unit = 0;
  slot_of_.assign(order.size(), kNotDelivered);
  for (uint64_t d = 0; d < delivered_rows_; ++d) {
    while (reservoir.size() < std::min<uint64_t>(cap, d + 1) &&
           admitted < order.size()) {
      reservoir.push_back(admitted++);
    }
    size_t pick = rng.Uniform(reservoir.size());
    std::swap(reservoir[pick], reservoir.back());
    slot_of_[reservoir.back()] = d;
    reservoir.pop_back();
    if ((d + 1) % batch == 0 || d + 1 == delivered_rows_) {
      // The batch is whole once the units holding positions
      // [0, admitted) are done.
      while (units_[unit].first + units_[unit].rows.size() < admitted) ++unit;
      units_needed_.push_back(unit + 1);
    }
  }
}

void Dataloader::Start(const std::vector<uint64_t>& order) {
  auto& registry = obs::MetricsRegistry::Global();
  fetch_hist_ = registry.GetHistogram("loader.fetch_us");
  decode_hist_ = registry.GetHistogram("loader.decode_us");
  transform_hist_ = registry.GetHistogram("loader.transform_us");
  stall_hist_ = registry.GetHistogram("loader.stall_us");
  rows_counter_ = registry.GetCounter("loader.rows");
  bytes_copied_counter_ = registry.GetCounter("loader.bytes_copied");
  queued_gauge_ = registry.GetGauge("loader.queued_rows");
  copied_watermark_ = TotalBytesCopied();
  for (const auto& name : options_.tensors.empty() ? dataset_->TensorNames()
                                                   : options_.tensors) {
    auto tensor = dataset_->GetTensor(name);
    if (!tensor.ok()) {
      // Reported by the first Next(), like any worker error.
      MutexLock lock(mu_);
      first_error_ = tensor.status();
      return;
    }
    columns_.emplace_back(name, *tensor);
  }
  PlanEpoch(order);
  const size_t prefetch = std::max<size_t>(1, options_.prefetch_units);
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  for (size_t pos = 0; pos < units_.size(); ++pos) {
    pool_->Submit([this, pos, prefetch] {
      {
        MutexLock lock(mu_);
        while (!abort_ && first_error_.ok() &&
               !(next_batch_ < units_needed_.size() &&
                 pos + 1 < units_needed_[next_batch_] + prefetch)) {
          gate_cv_.Wait(mu_);
        }
        if (abort_ || !first_error_.ok()) return;
      }
      ProcessUnit(units_[pos]);
    });
  }
}

void Dataloader::ProcessUnit(const Unit& unit) {
  // Worker threads adopt the job's trace context for the unit's duration:
  // every span below (loader.fetch → storage.op) inherits its trace id.
  obs::ContextScope context_scope(options_.context);
  Status status;
  // Per-stage timing, accumulated locally and merged into stats_ once at
  // unit end (workers never contend on the mutex per sample). Each op also
  // lands in a registry histogram and, when tracing is on, a span.
  int64_t fetch_us = 0, decode_us = 0, transform_us = 0;
  auto timed = [](obs::Histogram* hist, int64_t* acc, const char* span_name,
                  auto&& fn) {
    obs::ScopedSpan span(span_name, "loader");
    int64_t t0 = NowMicros();
    auto r = fn();
    int64_t dt = NowMicros() - t0;
    *acc += dt;
    hist->Observe(static_cast<double>(dt));
    return r;
  };
  // Moves a finished row into its slot of batch `delivery / batch_size`,
  // so consumption overlaps decoding from the first sample.
  auto place = [&](uint64_t delivery, Row row) {
    const uint64_t b = delivery / options_.batch_size;
    const uint64_t rows = BatchRows(b);
    bool full = false;
    {
      MutexLock lock(mu_);
      Batch& batch = pending_[b];
      for (auto& [name, sample] : row) {
        std::vector<tsf::Sample>& column = batch.columns[name];
        column.resize(rows);
        column[delivery % options_.batch_size] = std::move(sample);
      }
      full = ++batch.size == rows;
      ++undelivered_;
      // Under the lock, so the consumer's Sub never precedes this Add.
      queued_gauge_->Add(1);
    }
    if (full) ready_cv_.NotifyAll();
  };
  // Runs one storage read. A retryable failure that reaches the loader has
  // outlived any storage::RetryingStore in the chain and poisons the epoch;
  // it lands on the error-event timeline labeled with the op and key
  // (`describe` is only invoked on failure — the hot path never builds the
  // label string).
  auto fetch = [&](const char* op, auto&& describe, auto&& read) {
    auto r = timed(fetch_hist_, &fetch_us, "loader.fetch", read);
    if (!r.ok() && r.status().IsRetryable()) {
      obs::RecordErrorEvent(
          obs::TraceRecorder::Global(), "loader.fetch_failed",
          "op=" + std::string(op) + " key=" + describe() + " " +
              r.status().ToString());
    }
    return r;
  };
  // Per-unit, per-tensor chunk cache: each chunk is fetched and parsed
  // once even when it serves many rows.
  std::map<std::string, std::map<uint64_t, std::shared_ptr<tsf::Chunk>>>
      cache;
  for (size_t i = 0; i < unit.rows.size(); ++i) {
    const uint64_t delivery = slot_of_[unit.first + i];
    if (delivery == kNotDelivered) continue;  // past the last batch
    const uint64_t row_idx = unit.rows[i];
    Row row;
    for (const auto& [name, t] : columns_) {
      if (row_idx >= t->NumSamples()) {
        row[name] = tsf::Sample::EmptyOf(t->meta().dtype);
        continue;
      }
      auto loc = t->chunk_encoder().Find(row_idx);
      if (t->tile_encoder().IsTiled(row_idx) || !loc.ok()) {
        // Tiled samples and the buffered (unflushed) tail are served
        // through the tensor, which fetches and decodes in one call; the
        // whole cost is attributed to fetch (see DataloaderStats doc).
        auto s = fetch("read", [&] {
          return name + "[" + std::to_string(row_idx) + "]";
        }, [&] { return t->Read(row_idx); });
        if (!s.ok()) {
          status = s.status();
          break;
        }
        row[name] = std::move(s).value();
        continue;
      }
      auto& tensor_cache = cache[name];
      auto it = tensor_cache.find(loc->chunk_id);
      if (it == tensor_cache.end()) {
        auto bytes = fetch("chunk_get", [&] {
          return t->ChunkKey(loc->chunk_id);
        }, [&] { return t->store()->Get(t->ChunkKey(loc->chunk_id)); });
        if (!bytes.ok()) {
          status = bytes.status();
          break;
        }
        auto chunk = timed(decode_hist_, &decode_us, "loader.decode",
                           [&] { return tsf::Chunk::Parse(
                               std::move(bytes).value(),
                               /*verify_checksum=*/false); });
        if (!chunk.ok()) {
          status = chunk.status();
          break;
        }
        it = tensor_cache
                 .emplace(loc->chunk_id, std::make_shared<tsf::Chunk>(
                                             std::move(chunk).value()))
                 .first;
      }
      auto s = timed(decode_hist_, &decode_us, "loader.decode",
                     [&] { return it->second->ReadSample(loc->local_index); });
      if (!s.ok()) {
        status = s.status();
        break;
      }
      row[name] = std::move(s).value();
    }
    if (!status.ok()) break;
    if (options_.transform) {
      status = timed(transform_hist_, &transform_us, "loader.transform",
                     [&] { return options_.transform(row); });
      if (!status.ok()) break;
    }
    place(delivery, std::move(row));
  }

  {
    MutexLock lock(mu_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    ++stats_.units;
    stats_.fetch_micros += fetch_us;
    stats_.decode_micros += decode_us;
    stats_.transform_micros += transform_us;
  }
  if (!status.ok()) ready_cv_.NotifyAll();
}

Result<bool> Dataloader::Next(Batch* out) {
  // The consumer adopts the job's context too: loader.next / loader.stall
  // spans join the same trace as the worker-side fetches.
  obs::ContextScope context_scope(options_.context);
  obs::ScopedSpan next_span("loader.next", "loader");
  *out = Batch{};
  int64_t wait_start = NowMicros();
  bool stalled = false;

  // The one delivery loop: batch next_batch_ is handed out once workers
  // have filled its every slot.
  MutexLock lock(mu_);
  auto ready = pending_.end();
  while (true) {
    if (!first_error_.ok()) return first_error_;
    if (next_batch_ == units_needed_.size()) break;  // end of stream
    ready = pending_.find(next_batch_);
    if (ready != pending_.end() &&
        ready->second.size == BatchRows(next_batch_)) {
      break;
    }
    stalled = true;
    ready_cv_.Wait(mu_);
  }
  if (stalled) {
    int64_t stall = NowMicros() - wait_start;
    stats_.stall_micros += stall;
    stall_hist_->Observe(static_cast<double>(stall));
    // The consumer-starved interval the paper's utilization plots hinge
    // on: visible as a gap-filling span on the consumer thread's track.
    auto& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) {
      recorder.Record("loader.stall", "loader", wait_start, stall);
    }
  }

  // Fold the copy-accounting delta since the last Next() into the epoch
  // stats (covers worker-side copies too: the global counter is atomic).
  uint64_t copied_now = TotalBytesCopied();
  if (copied_now > copied_watermark_) {
    uint64_t delta = copied_now - copied_watermark_;
    copied_watermark_ = copied_now;
    stats_.bytes_copied += delta;
    bytes_copied_counter_->Add(delta);
  }

  if (next_batch_ == units_needed_.size()) return false;
  *out = std::move(ready->second);
  pending_.erase(ready);
  ++next_batch_;
  gate_cv_.NotifyAll();
  undelivered_ -= out->size;
  stats_.rows_delivered += out->size;
  stats_.batches_delivered += 1;
  rows_counter_->Add(out->size);
  queued_gauge_->Sub(static_cast<double>(out->size));
  return true;
}

}  // namespace dl::stream
