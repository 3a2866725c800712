#include "stream/dataloader.h"

#include <algorithm>
#include <cstring>

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
    : dataset_(std::move(dataset)),
      options_(std::move(options)),
      shuffle_rng_(options_.seed) {
  tensors_ = options_.tensors.empty() ? dataset_->TensorNames()
                                      : options_.tensors;
  std::vector<uint64_t> order(dataset_->NumRows());
  for (uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  units_ = PlanUnits(order);
  Start();
}

Dataloader::Dataloader(std::shared_ptr<tsf::Dataset> dataset,
                       const tql::DatasetView& view,
                       DataloaderOptions options)
    : dataset_(std::move(dataset)),
      options_(std::move(options)),
      shuffle_rng_(options_.seed) {
  tensors_ = options_.tensors.empty() ? dataset_->TensorNames()
                                      : options_.tensors;
  units_ = PlanUnits(view.indices());
  Start();
}

Dataloader::~Dataloader() {
  {
    MutexLock lock(mu_);
    abort_ = true;
  }
  gate_cv_.NotifyAll();
  ready_cv_.NotifyAll();
  pool_.reset();  // joins workers
  // Undeliverable rows still buffered at teardown would otherwise leave
  // the queue-depth gauge stuck above zero for the next epoch's loader.
  // Workers are joined, but take the lock anyway — it is free here and
  // keeps the guarded-access annotations honest.
  if (queued_gauge_ != nullptr) {
    MutexLock lock(mu_);
    double leftover = static_cast<double>(reservoir_.size()) +
                      static_cast<double>(pending_rows_.size());
    for (const auto& [seq, p] : completed_) {
      leftover += static_cast<double>(p.rows.size() - p.taken);
    }
    if (leftover > 0) queued_gauge_->Sub(leftover);
  }
}

std::vector<Dataloader::Unit> Dataloader::PlanUnits(
    const std::vector<uint64_t>& order) const {
  // Pick the finest-chunked tensor as the primary alignment target: its
  // chunk boundaries dominate fetch cost.
  const tsf::ChunkEncoder* primary = nullptr;
  for (const auto& name : tensors_) {
    auto t = dataset_->GetTensor(name);
    if (!t.ok()) continue;
    const tsf::ChunkEncoder& enc = (*t)->chunk_encoder();
    if (primary == nullptr || enc.num_chunks() > primary->num_chunks()) {
      primary = &enc;
    }
  }
  std::vector<Unit> units;
  Unit current;
  current.seq = 0;
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
    bool breaks = current.rows.empty() ? false : ordinal != current_ordinal;
    if (breaks) {
      units.push_back(std::move(current));
      current = Unit{};
      current.seq = units.size();
    }
    current_ordinal = ordinal;
    current.rows.push_back(row);
  }
  if (!current.rows.empty()) units.push_back(std::move(current));
  return units;
}

void Dataloader::Start() {
  if (started_) return;
  started_ = true;
  auto& registry = obs::MetricsRegistry::Global();
  fetch_hist_ = registry.GetHistogram("loader.fetch_us");
  decode_hist_ = registry.GetHistogram("loader.decode_us");
  transform_hist_ = registry.GetHistogram("loader.transform_us");
  stall_hist_ = registry.GetHistogram("loader.stall_us");
  rows_counter_ = registry.GetCounter("loader.rows");
  bytes_copied_counter_ = registry.GetCounter("loader.bytes_copied");
  queued_gauge_ = registry.GetGauge("loader.queued_rows");
  copied_watermark_ = TotalBytesCopied();
  // Visit units in shuffled order for shuffled streams (chunk-level
  // shuffle); the reservoir adds sample-level randomness (§3.5).
  std::vector<size_t> visit(units_.size());
  for (size_t i = 0; i < visit.size(); ++i) visit[i] = i;
  if (options_.shuffle) {
    Rng rng(options_.seed ^ 0x5eed);
    for (size_t i = visit.size(); i > 1; --i) {
      std::swap(visit[i - 1], visit[rng.Uniform(i)]);
    }
    for (size_t k = 0; k < visit.size(); ++k) units_[visit[k]].seq = k;
    reservoir_cap_ = std::max<size_t>(1, options_.shuffle_buffer_rows);
  }
  start_allowance_ = std::max<size_t>(1, options_.prefetch_units);
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  for (size_t pos = 0; pos < visit.size(); ++pos) {
    const Unit* unit = &units_[visit[pos]];
    pool_->Submit([this, unit, pos] {
      {
        MutexLock lock(mu_);
        while (!(abort_ || !first_error_.ok() || pos < start_allowance_)) {
          gate_cv_.Wait(mu_);
        }
        if (abort_ || !first_error_.ok()) return;
      }
      ProcessUnit(*unit);
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
  // Publishes one decoded row into the unit's progress entry at once, so
  // consumption overlaps decoding from the first sample.
  auto publish = [&](Row row) {
    {
      MutexLock lock(mu_);
      completed_[unit.seq].rows.push_back(std::move(row));
    }
    queued_gauge_->Add(1);
    ready_cv_.NotifyAll();
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
  for (uint64_t row_idx : unit.rows) {
    Row row;
    for (const auto& name : tensors_) {
      auto tr = dataset_->GetTensor(name);
      if (!tr.ok()) {
        status = tr.status();
        break;
      }
      tsf::Tensor* t = *tr;
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
    publish(std::move(row));
  }

  {
    MutexLock lock(mu_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    completed_[unit.seq].done = true;
    stats_.fetch_micros += fetch_us;
    stats_.decode_micros += decode_us;
    stats_.transform_micros += transform_us;
  }
  ready_cv_.NotifyAll();
}

Result<bool> Dataloader::Next(Batch* out) {
  // The consumer adopts the job's context too: loader.next / loader.stall
  // spans join the same trace as the worker-side fetches.
  obs::ContextScope context_scope(options_.context);
  obs::ScopedSpan next_span("loader.next", "loader");
  out->columns.clear();
  out->size = 0;
  int64_t wait_start = NowMicros();
  bool stalled = false;

  // The one delivery loop. Rows enter the reservoir strictly in visit
  // order; pick k draws (seeded) from exactly min(cap, k + 1) rows, or from
  // what is left once every unit is admitted. The delivered order is thus
  // a function of the seed and the unit plan alone, never of worker
  // timing. With cap 1 it is plain in-order delivery. The ramp (rather
  // than waiting for a full reservoir) keeps the first batch as fast as
  // the first unit.
  MutexLock lock(mu_);
  while (pending_rows_.size() < options_.batch_size) {
    if (!first_error_.ok()) return first_error_;
    const size_t target = std::min<uint64_t>(reservoir_cap_, picks_ + 1);
    while (reservoir_.size() < target && next_seq_ < units_.size()) {
      auto it = completed_.find(next_seq_);
      if (it == completed_.end()) break;
      UnitProgress& p = it->second;
      if (p.taken < p.rows.size()) {
        reservoir_.push_back(std::move(p.rows[p.taken++]));
        continue;
      }
      if (!p.done) break;
      completed_.erase(it);
      ++next_seq_;
      ++stats_.units;
      ++start_allowance_;
      gate_cv_.NotifyAll();
    }
    const bool drained = next_seq_ == units_.size();
    if (!reservoir_.empty() && (reservoir_.size() == target || drained)) {
      size_t pick = shuffle_rng_.Uniform(reservoir_.size());
      std::swap(reservoir_[pick], reservoir_.back());
      pending_rows_.push_back(std::move(reservoir_.back()));
      reservoir_.pop_back();
      ++picks_;
      continue;
    }
    if (drained) break;
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

  if (pending_rows_.empty()) return false;  // end of stream
  uint64_t take = std::min<uint64_t>(options_.batch_size,
                                     pending_rows_.size());
  if (take < options_.batch_size && options_.drop_last) {
    pending_rows_.clear();
    return false;
  }
  for (uint64_t i = 0; i < take; ++i) {
    for (auto& [name, sample] : pending_rows_[i]) {
      out->columns[name].push_back(std::move(sample));
    }
  }
  pending_rows_.erase(pending_rows_.begin(), pending_rows_.begin() + take);
  out->size = take;
  stats_.rows_delivered += take;
  stats_.batches_delivered += 1;
  rows_counter_->Add(take);
  queued_gauge_->Sub(static_cast<double>(take));
  return true;
}

}  // namespace dl::stream
