#include "stream/dataloader.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>

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
  // Samples the loader decoded into one batch-major buffer are consecutive
  // subslices of it: the stacked column is a view of that buffer.
  const size_t n = samples[0].data.size();
  const SharedBuffer& owner = samples[0].data.owner();
  bool contiguous = owner != nullptr && n > 0;
  for (size_t i = 1; contiguous && i < samples.size(); ++i) {
    contiguous = samples[i].data.owner() == owner &&
                 samples[i].data.data() == samples[0].data.data() + i * n;
  }
  if (contiguous) {
    const size_t offset =
        static_cast<size_t>(samples[0].data.data() - owner->data());
    return tsf::Sample(samples[0].dtype, std::move(out_shape),
                       Slice(owner, offset, samples.size() * n));
  }
  ByteBuffer staging;
  staging.reserve(samples.size() * samples[0].data.size());
  for (const auto& s : samples) {
    staging.insert(staging.end(), s.data.begin(), s.data.end());
  }
  // A uniform column the loader did not decode into one buffer (a tensor
  // whose shapes vary across the dataset, or a batch built by hand) is
  // copied; account for it so loader.bytes_copied stays an honest
  // end-to-end figure.
  internal::AddBytesCopied(staging.size());
  return tsf::Sample(samples[0].dtype, std::move(out_shape),
                     Slice(std::move(staging)));
}

// ---------------------------------------------------------------------------
// Dataloader
// ---------------------------------------------------------------------------

namespace {

// Runs `fn`, adding its wall time to `*acc` and `hist` under a span.
template <typename Fn>
auto Timed(obs::Histogram* hist, int64_t* acc, const char* span_name,
           Fn&& fn) {
  obs::ScopedSpan span(span_name, "loader");
  int64_t t0 = NowMicros();
  auto r = fn();
  int64_t dt = NowMicros() - t0;
  *acc += dt;
  hist->Observe(static_cast<double>(dt));
  return r;
}

// A retryable failure that reaches the loader has outlived any
// storage::RetryingStore in the chain and poisons the epoch; it lands on
// the error-event timeline labeled with the op and key.
void ReportFetchFailure(const char* op, const std::string& key,
                        const Status& status) {
  if (!status.IsRetryable()) return;
  obs::RecordErrorEvent(obs::TraceRecorder::Global(), "loader.fetch_failed",
                        "op=" + std::string(op) + " key=" + key + " " +
                            status.ToString());
}

// Bytes of a sample of this dtype and shape; 0 for an empty sample.
uint64_t SampleBytes(tsf::DType dtype, const tsf::TensorShape& shape) {
  return tsf::Sample(dtype, shape, {}).ExpectedBytes();
}

}  // namespace

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
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // Rows decoded but never delivered would otherwise leave the queue-depth
  // gauge stuck above zero for the next epoch's loader.
  MutexLock lock(mu_);
  queued_gauge_->Sub(static_cast<double>(undelivered_));
}

void Dataloader::PlanEpoch(const std::vector<uint64_t>& order) {
  // Pick the finest-chunked tensor as the primary alignment target: its
  // chunk boundaries dominate fetch cost.
  size_t primary = SIZE_MAX;
  for (size_t c = 0; c < columns_.size(); ++c) {
    const tsf::ChunkEncoder& enc = columns_[c].second->chunk_encoder();
    if (primary == SIZE_MAX ||
        enc.num_chunks() >
            columns_[primary].second->chunk_encoder().num_chunks()) {
      primary = c;
    }
  }
  // Rows that share one primary chunk form a unit, even when a sparse view
  // skips between them. Units are visited in order, or in a seeded
  // permutation when shuffling (chunk-level shuffle); the reservoir adds
  // sample-level randomness (§3.5).
  std::vector<std::vector<uint64_t>> units;
  size_t current_ordinal = SIZE_MAX;
  for (uint64_t row : order) {
    size_t ordinal = SIZE_MAX;
    if (primary != SIZE_MAX) {
      auto loc = columns_[primary].second->chunk_encoder().Find(row);
      if (loc.ok()) ordinal = loc->chunk_ordinal;
    }
    if (units.empty() || ordinal != current_ordinal) units.emplace_back();
    current_ordinal = ordinal;
    units.back().push_back(row);
  }
  if (options_.shuffle) {
    Rng rng(options_.seed ^ 0x5eed);
    for (size_t i = units.size(); i > 1; --i) {
      std::swap(units[i - 1], units[rng.Uniform(i)]);
    }
  }
  std::vector<uint64_t> admitted_rows;  // dataset row at each position
  admitted_rows.reserve(order.size());
  for (const auto& unit : units) {
    admitted_rows.insert(admitted_rows.end(), unit.begin(), unit.end());
  }

  const uint64_t batch = options_.batch_size;
  delivered_rows_ = batch == 0            ? 0
                    : options_.drop_last ? order.size() / batch * batch
                                         : order.size();
  // The ramp (rather than waiting for a full reservoir) keeps the first
  // batch as fast as the first chunk.
  const size_t cap =
      options_.shuffle ? std::max<size_t>(1, options_.shuffle_buffer_rows) : 1;
  Rng rng(options_.seed);
  std::vector<uint64_t> reservoir;
  uint64_t admitted = 0;
  std::vector<uint64_t> delivered(delivered_rows_);  // dataset row per index
  for (uint64_t d = 0; d < delivered_rows_; ++d) {
    while (reservoir.size() < std::min<uint64_t>(cap, d + 1) &&
           admitted < order.size()) {
      reservoir.push_back(admitted++);
    }
    size_t pick = rng.Uniform(reservoir.size());
    std::swap(reservoir[pick], reservoir.back());
    delivered[d] = admitted_rows[reservoir.back()];
    reservoir.pop_back();
  }

  // One fetch task per distinct chunk (or whole-sample read), created in
  // delivery order, so in the order batches first need them.
  const size_t ncols = columns_.size();
  sources_.assign(delivered_rows_ * ncols, Source{});
  std::map<std::pair<size_t, uint64_t>, uint64_t> chunk_fetch;
  for (uint64_t d = 0; d < delivered_rows_; ++d) {
    const uint64_t row = delivered[d];
    for (size_t c = 0; c < ncols; ++c) {
      tsf::Tensor* t = columns_[c].second;
      if (row >= t->NumSamples()) continue;  // an empty cell
      Source& source = sources_[d * ncols + c];
      auto loc = t->chunk_encoder().Find(row);
      if (!loc.ok() || t->tile_encoder().IsTiled(row)) {
        // Tiled samples and the buffered (unflushed) tail are read whole
        // through the tensor, which fetches and decodes in one call.
        source.fetch = fetches_.size();
        fetches_.push_back(Fetch{c, row, /*read=*/true, {}});
      } else {
        auto [it, fresh] =
            chunk_fetch.try_emplace({c, loc->chunk_id}, fetches_.size());
        if (fresh) fetches_.push_back(Fetch{c, loc->chunk_id, false, {}});
        source.fetch = it->second;
        source.local = loc->local_index;
      }
      fetches_[source.fetch].readers.push_back(d);
    }
  }
  // Within one batch's new fetches the primary tensor's chunks go first,
  // so the large Gets start before the small ones (labels, ids) that other
  // workers fetch alongside them. fetches_needed_[b] then counts the
  // fetches batches 0..b need.
  auto first_batch = [&](const Fetch& f) { return f.readers[0] / batch; };
  std::vector<uint64_t> rank(fetches_.size());
  std::iota(rank.begin(), rank.end(), uint64_t{0});
  std::stable_sort(rank.begin(), rank.end(), [&](uint64_t a, uint64_t b) {
    const uint64_t ba = first_batch(fetches_[a]);
    const uint64_t bb = first_batch(fetches_[b]);
    if (ba != bb) return ba < bb;
    return fetches_[a].column == primary && fetches_[b].column != primary;
  });
  std::vector<uint64_t> position(fetches_.size());
  std::vector<Fetch> sorted;
  sorted.reserve(fetches_.size());
  for (uint64_t f : rank) {
    position[f] = sorted.size();
    sorted.push_back(std::move(fetches_[f]));
  }
  fetches_ = std::move(sorted);
  for (Source& source : sources_) {
    if (source.fetch != kNoFetch) source.fetch = position[source.fetch];
  }
  const uint64_t batches = batch == 0 ? 0 : (delivered_rows_ + batch - 1) / batch;
  size_t f = 0;
  for (uint64_t b = 0; b < batches; ++b) {
    while (f < fetches_.size() && first_batch(fetches_[f]) <= b) ++f;
    fetches_needed_.push_back(f);
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
    stackable_.push_back(options_.transform != nullptr ||
                         (*tensor)->shape_encoder().num_rows() <= 1);
  }
  PlanEpoch(order);

  MutexLock lock(mu_);
  fetched_.resize(fetches_.size());
  readers_left_.reserve(fetches_.size());
  for (const Fetch& fetch : fetches_) {
    readers_left_.push_back(static_cast<uint32_t>(fetch.readers.size()));
  }
  missing_.assign(delivered_rows_, 0);
  for (uint64_t d = 0; d < delivered_rows_; ++d) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (sources_[d * columns_.size() + c].fetch != kNoFetch) ++missing_[d];
    }
    if (missing_[d] == 0) ready_.push(d);
  }
  if (!WorkLeft()) return;
  const size_t workers = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

bool Dataloader::FetchClaimable() const {
  const size_t prefetch = std::max<size_t>(1, options_.prefetch_units);
  return next_fetch_ < fetches_.size() &&
         next_batch_ < fetches_needed_.size() &&
         next_fetch_ + 1 < fetches_needed_[next_batch_] + prefetch;
}

bool Dataloader::DecodeClaimable(bool consumer) const {
  // Rows of batch next_batch_, so the batch the consumer holds and the one
  // being filled are the only batch buffers alive and decode overlaps the
  // consumer's step one batch deep. A batch smaller than the worker pool
  // would idle the pool, so workers may then run up to one row per worker
  // past next_batch_'s first row. The consumer decodes only its own batch.
  if (ready_.empty()) return false;
  const uint64_t first = next_batch_ * options_.batch_size;
  const uint64_t depth = consumer ? options_.batch_size
                                  : std::max<uint64_t>(options_.batch_size,
                                                       options_.num_workers);
  return ready_.top() < first + depth;
}

Dataloader::DecodeTask Dataloader::ClaimDecode() {
  DecodeTask task;
  task.delivery = ready_.top();
  ready_.pop();
  ++claimed_rows_;
  task.inputs.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Source& source = sources_[task.delivery * columns_.size() + c];
    if (source.fetch != kNoFetch) task.inputs[c] = fetched_[source.fetch];
  }
  if (!WorkLeft()) work_cv_.NotifyAll();  // idle workers may exit
  return task;
}

void Dataloader::WorkerLoop() {
  MutexLock lock(mu_);
  while (!abort_ && first_error_.ok() && WorkLeft()) {
    // Workers decode, and fetch otherwise; but while there is decode work
    // one worker keeps a fetch in flight, so the next chunk arrives while
    // the current one is decoded.
    const bool fetch = FetchClaimable() &&
                       (fetches_in_flight_ == 0 || !DecodeClaimable(false));
    if (!fetch && !DecodeClaimable(false)) {
      work_cv_.Wait(mu_);
      continue;
    }
    size_t f = 0;
    DecodeTask task;
    if (fetch) {
      f = next_fetch_++;
      ++fetches_in_flight_;
    } else {
      task = ClaimDecode();
    }
    // Idle workers are woken one at a time: a worker that claims a task
    // and leaves another claimable wakes the next, so a one-row batch
    // does not wake the whole pool.
    if (FetchClaimable() || DecodeClaimable(false)) work_cv_.NotifyOne();
    lock.Unlock();
    if (fetch) {
      RunFetch(f);
    } else {
      RunDecode(std::move(task));
    }
    lock.Lock();
  }
}

void Dataloader::RunFetch(size_t f) {
  // Tasks adopt the job's trace context: every span below (loader.fetch →
  // storage.op) inherits its trace id.
  obs::ContextScope context_scope(options_.context);
  const Fetch& fetch = fetches_[f];
  const std::string& name = columns_[fetch.column].first;
  tsf::Tensor* t = columns_[fetch.column].second;
  int64_t fetch_us = 0, decode_us = 0;
  Fetched got;
  Status status;
  if (fetch.read) {
    auto sample = Timed(fetch_hist_, &fetch_us, "loader.fetch",
                        [&] { return t->Read(fetch.key); });
    if (sample.ok()) {
      got.sample = std::move(sample).value();
    } else {
      status = sample.status();
      ReportFetchFailure("read", name + "[" + std::to_string(fetch.key) + "]",
                         status);
    }
  } else {
    const std::string key = t->ChunkKey(fetch.key);
    auto bytes = Timed(fetch_hist_, &fetch_us, "loader.fetch",
                       [&] { return t->store()->Get(key); });
    if (!bytes.ok()) {
      status = bytes.status();
      ReportFetchFailure("chunk_get", key, status);
    } else {
      auto chunk = Timed(decode_hist_, &decode_us, "loader.decode", [&] {
        return tsf::Chunk::Parse(std::move(bytes).value(),
                                 /*verify_checksum=*/false);
      });
      if (chunk.ok()) {
        got.chunk =
            std::make_shared<const tsf::Chunk>(std::move(chunk).value());
      } else {
        status = chunk.status();
      }
    }
  }
  {
    MutexLock lock(mu_);
    --fetches_in_flight_;
    ++stats_.fetches;
    stats_.fetch_micros += fetch_us;
    stats_.decode_micros += decode_us;
    if (!status.ok()) {
      if (first_error_.ok()) first_error_ = status;
    } else {
      fetched_[f] = std::move(got);
      for (uint64_t d : fetch.readers) {
        if (--missing_[d] == 0) ready_.push(d);
      }
    }
  }
  // Rows became claimable (or the epoch failed): the consumer may decode
  // them, and so may a worker, which wakes the next if more are left.
  batch_cv_.NotifyAll();
  if (status.ok()) {
    work_cv_.NotifyOne();
  } else {
    work_cv_.NotifyAll();
  }
}

uint8_t* Dataloader::Slot(uint64_t delivery, size_t column, tsf::DType dtype,
                          const tsf::TensorShape& shape) {
  const uint64_t b = delivery / options_.batch_size;
  const uint64_t rows = BatchRows(b);
  const uint64_t stride = SampleBytes(dtype, shape);
  // A one-row batch aliases its sample's own buffer (no copy at all).
  if (rows < 2 || stride == 0 || stride > SIZE_MAX / rows) return nullptr;
  const size_t offset = (delivery % options_.batch_size) * stride;
  {
    MutexLock lock(mu_);
    Stack* stack = &FillingFor(b).stacks[column];
    // One buffer per batch and column: a row that finds another thread
    // allocating it waits for that buffer rather than taking a second one.
    while (stack->state == Stack::kAllocating) {
      slot_cv_.Wait(mu_);
      stack = &FillingFor(b).stacks[column];
    }
    if (stack->state == Stack::kReady) {
      if (stack->dtype != dtype || !(stack->shape == shape)) return nullptr;
      return stack->bytes.data() + offset;
    }
    stack->state = Stack::kAllocating;
  }
  // The pool takes its own lock, so the buffer is acquired outside ours.
  ByteBuffer bytes = BufferPool::Default().AcquireSized(rows * stride);
  uint8_t* slot = bytes.data() + offset;
  {
    MutexLock lock(mu_);
    Stack& stack = FillingFor(b).stacks[column];
    stack.state = Stack::kReady;
    stack.bytes = std::move(bytes);
    stack.dtype = dtype;
    stack.shape = shape;
    stack.stride = stride;
    stack.filled.assign(rows, 0);
  }
  slot_cv_.NotifyAll();
  return slot;
}

Dataloader::Filling& Dataloader::FillingFor(uint64_t batch) {
  auto [it, fresh] = pending_.try_emplace(batch);
  if (fresh) it->second.stacks.resize(columns_.size());
  return it->second;
}

Status Dataloader::DecodeCell(const DecodeTask& task, size_t c,
                              bool into_batch, Cell* cell,
                              int64_t* decode_us) {
  cell->column = c;
  const Source& source = sources_[task.delivery * columns_.size() + c];
  const Fetched& input = task.inputs[c];
  if (source.fetch == kNoFetch) {
    cell->sample = tsf::Sample::EmptyOf(columns_[c].second->meta().dtype);
    return Status::OK();
  }
  if (input.chunk == nullptr) {  // read whole through the tensor
    cell->sample = input.sample;
    return Status::OK();
  }
  const tsf::Chunk& chunk = *input.chunk;
  const tsf::ChunkHeader& header = chunk.header();
  // A compressed frame decodes straight into its batch slot. An
  // uncompressed sample stays a subslice of its chunk: copying it into the
  // batch would charge every consumer for a Stacked() it may never call.
  if (into_batch && stackable_[c] && source.local < header.num_samples() &&
      header.sample_compression != compress::Compression::kNone &&
      header.stored_lens[source.local] > 0) {
    // The header gives the shape before decode. Only a size the stored
    // frame can plausibly hold gets a slot: a forged shape falls through
    // to ReadSample, which reports it.
    const tsf::TensorShape& shape = header.shapes[source.local];
    const uint64_t bytes = SampleBytes(header.dtype, shape);
    uint8_t* slot =
        bytes <= header.stored_lens[source.local] * 255 + 255
            ? Slot(task.delivery, c, header.dtype, shape)
            : nullptr;
    if (slot != nullptr) {
      DL_RETURN_IF_ERROR(Timed(decode_hist_, decode_us, "loader.decode", [&] {
        return chunk.ReadSampleInto(source.local,
                                    std::span<uint8_t>(slot, bytes));
      }));
      cell->sample = tsf::Sample(header.dtype, shape, Slice());
      cell->in_stack = true;
      return Status::OK();
    }
  }
  DL_ASSIGN_OR_RETURN(cell->sample,
                      Timed(decode_hist_, decode_us, "loader.decode",
                            [&] { return chunk.ReadSample(source.local); }));
  return Status::OK();
}

Status Dataloader::DecodeRow(const DecodeTask& task, std::vector<Cell>* cells,
                             int64_t* decode_us, int64_t* transform_us) {
  const bool transform = options_.transform != nullptr;
  cells->resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    DL_RETURN_IF_ERROR(
        DecodeCell(task, c, /*into_batch=*/!transform, &(*cells)[c], decode_us));
  }
  if (!transform) return Status::OK();
  Row row;
  for (Cell& cell : *cells) {
    row[columns_[cell.column].first] = std::move(cell.sample);
  }
  DL_RETURN_IF_ERROR(Timed(transform_hist_, transform_us, "loader.transform",
                           [&] { return options_.transform(row); }));
  // The one copy a transform forces: each transformed cell into its slot.
  cells->clear();
  for (auto& [name, sample] : row) {
    Cell& cell = cells->emplace_back();
    cell.name = name;
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c].first == name) cell.column = c;
    }
    cell.sample = std::move(sample);
    CopyIntoSlot(task.delivery, &cell);
  }
  return Status::OK();
}

void Dataloader::CopyIntoSlot(uint64_t delivery, Cell* cell) {
  if (cell->column == SIZE_MAX || !stackable_[cell->column] ||
      !cell->sample.Validate().ok()) {
    return;
  }
  uint8_t* slot = Slot(delivery, cell->column, cell->sample.dtype,
                       cell->sample.shape);
  if (slot == nullptr) return;
  std::memcpy(slot, cell->sample.data.data(), cell->sample.nbytes());
  internal::AddBytesCopied(cell->sample.nbytes());
  cell->sample.data = Slice();
  cell->in_stack = true;
}

void Dataloader::RunDecode(DecodeTask task) {
  obs::ContextScope context_scope(options_.context);
  int64_t decode_us = 0, transform_us = 0;
  std::vector<Cell> cells;
  Status status = DecodeRow(task, &cells, &decode_us, &transform_us);
  const uint64_t d = task.delivery;
  const uint64_t b = d / options_.batch_size;
  const uint64_t slot = d % options_.batch_size;
  const uint64_t rows = BatchRows(b);
  // Fetch results whose last reader this row was; dropped after unlocking,
  // since freeing a pooled buffer takes the pool's lock.
  std::vector<Fetched> drop;
  bool wake = !status.ok();
  {
    MutexLock lock(mu_);
    stats_.decode_micros += decode_us;
    stats_.transform_micros += transform_us;
    if (!status.ok()) {
      if (first_error_.ok()) first_error_ = status;
    } else {
      Filling& filling = FillingFor(b);
      for (Cell& cell : cells) {
        std::vector<tsf::Sample>& column = filling.batch.columns[
            cell.column == SIZE_MAX ? cell.name : columns_[cell.column].first];
        column.resize(rows);
        column[slot] = std::move(cell.sample);
        if (cell.in_stack) filling.stacks[cell.column].filled[slot] = 1;
      }
      // Only batch next_batch_ is waited for; a later batch that fills
      // first is found full when the consumer gets to it.
      wake = ++filling.batch.size == rows && b == next_batch_;
      ++undelivered_;
      // Under the lock, so the consumer's Sub never precedes this Add.
      queued_gauge_->Add(1);
    }
    for (size_t c = 0; c < columns_.size(); ++c) {
      const uint64_t f = sources_[d * columns_.size() + c].fetch;
      if (f != kNoFetch && --readers_left_[f] == 0) {
        drop.push_back(std::move(fetched_[f]));
      }
    }
  }
  if (wake) batch_cv_.NotifyAll();
  if (!status.ok()) work_cv_.NotifyAll();
}

Result<bool> Dataloader::Next(Batch* out) {
  // The consumer adopts the job's context too: loader.next / loader.stall
  // spans join the same trace as the worker-side fetches.
  obs::ContextScope context_scope(options_.context);
  obs::ScopedSpan next_span("loader.next", "loader");
  *out = Batch{};
  int64_t stalled_us = 0;
  bool stalled = false;

  // The one delivery loop: batch next_batch_ is handed out once its every
  // slot is filled. Until then the consumer decodes rows itself, and waits
  // only when no decode task is claimable.
  MutexLock lock(mu_);
  auto ready = pending_.end();
  while (true) {
    if (!first_error_.ok()) return first_error_;
    if (next_batch_ == fetches_needed_.size()) break;  // end of stream
    ready = pending_.find(next_batch_);
    if (ready != pending_.end() &&
        ready->second.batch.size == BatchRows(next_batch_)) {
      break;
    }
    if (DecodeClaimable(/*consumer=*/true)) {
      const int64_t start = NowMicros();
      DecodeTask task = ClaimDecode();
      lock.Unlock();
      RunDecode(std::move(task));
      lock.Lock();
      stats_.consumer_micros += NowMicros() - start;
      continue;
    }
    const int64_t wait_start = NowMicros();
    batch_cv_.Wait(mu_);
    const int64_t waited = NowMicros() - wait_start;
    stalled = true;
    stalled_us += waited;
    // The consumer-starved interval the paper's utilization plots hinge
    // on: a gap-filling span on the consumer thread's track, recorded
    // outside the loader lock (the trace ring has a lock of its own).
    auto& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) {
      lock.Unlock();
      recorder.Record("loader.stall", "loader", wait_start, waited);
      lock.Lock();
    }
  }
  if (stalled) {
    stats_.stall_micros += stalled_us;
    stall_hist_->Observe(static_cast<double>(stalled_us));
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

  if (next_batch_ == fetches_needed_.size()) return false;
  Filling filling = std::move(ready->second);
  pending_.erase(ready);
  // Seal each batch-major buffer, now filled, and point its slots' samples
  // at their subslices of it.
  for (size_t c = 0; c < columns_.size(); ++c) {
    Stack& stack = filling.stacks[c];
    if (std::find(stack.filled.begin(), stack.filled.end(), 1) ==
        stack.filled.end()) {
      continue;
    }
    Slice whole = BufferPool::Default().Seal(std::move(stack.bytes));
    std::vector<tsf::Sample>& column = filling.batch.columns[columns_[c].first];
    for (size_t i = 0; i < stack.filled.size(); ++i) {
      if (stack.filled[i]) {
        column[i].data = whole.subslice(i * stack.stride, stack.stride);
      }
    }
  }
  *out = std::move(filling.batch);
  ++next_batch_;
  work_cv_.NotifyOne();  // the fetch window and the decode lookahead moved
  undelivered_ -= out->size;
  stats_.rows_delivered += out->size;
  stats_.batches_delivered += 1;
  rows_counter_->Add(out->size);
  queued_gauge_->Sub(static_cast<double>(out->size));
  return true;
}

}  // namespace dl::stream
