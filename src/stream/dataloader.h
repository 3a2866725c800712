#ifndef DEEPLAKE_STREAM_DATALOADER_H_
#define DEEPLAKE_STREAM_DATALOADER_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.h"
#include "obs/metrics.h"
#include "tql/executor.h"
#include "tsf/dataset.h"
#include "util/thread_annotations.h"

namespace dl::stream {

/// One collated batch: per-tensor lists of samples in row order.
struct Batch {
  uint64_t size = 0;
  std::map<std::string, std::vector<tsf::Sample>> columns;

  /// The column as one batch-major sample (deep-learning native layout).
  /// The loader decodes a compressed (or transformed) column whose shapes
  /// are uniform across the batch straight into one batch-major buffer,
  /// and its samples are consecutive subslices of it: then this is a view
  /// of that buffer and copies nothing. So is a run of consecutive
  /// uncompressed samples of one chunk. Otherwise the samples are copied
  /// into a new buffer (counted in TotalBytesCopied()). Fails if the
  /// column's samples are ragged.
  Result<tsf::Sample> Stacked(const std::string& column) const;
};

/// A row in flight through the pipeline.
using Row = std::map<std::string, tsf::Sample>;

/// Per-sample user transform (paper §4.6: the transformation executes in
/// parallel outside the interpreter lock). It runs on a worker thread or,
/// while Next() waits for its batch, on the consumer thread; it must be
/// safe to call from any thread.
using TransformFn = std::function<Status(Row&)>;

struct DataloaderOptions {
  uint64_t batch_size = 32;
  /// Fetch/decode worker threads. While Next() waits for its batch, the
  /// consumer thread decodes rows too (it never fetches).
  size_t num_workers = 4;
  /// Streaming shuffle (paper §3.5): work units are visited in random
  /// order and rows are drawn through a reservoir buffer. The delivered
  /// order is a function of (seed, dataset, view) alone — worker count and
  /// timing never change it.
  bool shuffle = false;
  /// Capacity of the shuffle reservoir, in rows.
  size_t shuffle_buffer_rows = 512;
  uint64_t seed = 42;
  /// Prefetch window, in chunk fetches: workers may start the fetches the
  /// next batch needs plus prefetch_units - 1 more; bounds memory (paper
  /// §4.6 "predicting memory consumption").
  size_t prefetch_units = 8;
  bool drop_last = false;
  /// Tensors to stream; empty = all visible tensors.
  std::vector<std::string> tensors;
  TransformFn transform;
  /// Trace context of the owning job (DESIGN.md §7): installed on every
  /// worker while it runs a task and on the consumer inside Next(), so
  /// loader spans — and the storage spans beneath them — share one trace
  /// id and carry the job's tenant label. Default (empty) costs nothing;
  /// create one with obs::Context::ForJob("tenant", "job").
  obs::Context context;
};

/// Epoch counters, mirrored into the obs::MetricsRegistry (family
/// `loader.*`). Every field is written under the loader mutex, and
/// Dataloader::stats() returns a copy taken under it, so any thread may read
/// them at any time; mid-epoch reads see the epoch so far.
///
/// The per-stage micros sum time *across all threads* that ran the stage
/// (workers and the consumer): their total can legitimately exceed wall
/// time (stages overlap).
struct DataloaderStats {
  uint64_t rows_delivered = 0;
  uint64_t batches_delivered = 0;
  /// Time Next() spent blocked waiting for the workers. Time it spent
  /// decoding rows itself is in consumer_micros, not here.
  int64_t stall_micros = 0;
  /// Time Next() spent running decode tasks on the consumer thread; the
  /// same time is also in decode_micros and transform_micros. Together
  /// with stall_micros it covers the time spent in Next(), less its
  /// bookkeeping.
  int64_t consumer_micros = 0;
  /// Fetch tasks finished: chunk Gets, plus tiled samples and rows of the
  /// unflushed tail, which are read whole through the tensor.
  uint64_t fetches = 0;
  /// Time spent in storage reads (chunk Get + tiled/tail reads; the
  /// tiled/tail path folds its decode into this figure).
  int64_t fetch_micros = 0;
  /// Time spent parsing chunks and decoding samples.
  int64_t decode_micros = 0;
  /// Time spent inside the user transform.
  int64_t transform_micros = 0;
  /// Process-wide bytes deep-copied through the Buffer/Slice layer while
  /// this loader ran (delta of dl::TotalBytesCopied(), sampled in Next()).
  /// Compressed samples decode straight into their batch, so an epoch of
  /// them copies nothing; uncompressed samples are delivered as subslices
  /// of their chunk and copied only by a Stacked() that cannot view them;
  /// transformed samples are copied into their batch slot (DESIGN.md §10).
  uint64_t bytes_copied = 0;
};

/// Streaming dataloader (paper §4.6): fetches chunks in parallel, decodes
/// rows in parallel straight into batch-major buffers, applies user
/// transforms, shuffles via a buffer, and hands out batches — while a
/// bounded prefetch window keeps memory flat and the consumer (GPU) fed.
///
/// The epoch is a plan fixed before any row is decoded. Start() runs the
/// reservoir rule of the streaming shuffle (§3.5) over admission positions,
/// which gives every row its batch and slot, and lists the fetch tasks —
/// one per distinct chunk any streamed tensor needs, in the order batches
/// first need them — and each row's decode task. Workers run both kinds of
/// task, claimed from the plan under the loader mutex; the consumer runs
/// decode tasks while Next() waits. Rows in flight stay below the
/// reservoir capacity plus one batch plus the prefetch window.
///
/// Iterate: `while (loader.Next(&batch)) { ... }`. One pass; construct a
/// new loader per epoch (cheap).
class Dataloader {
 public:
  /// Streams the whole dataset in index order (or shuffled).
  Dataloader(std::shared_ptr<tsf::Dataset> dataset, DataloaderOptions options);

  /// Streams a query view's rows in the view's order (paper §4.4 "seamless
  /// integration with the dataloader for filtered streaming"). A sparse
  /// view still fetches each chunk it touches whole — the §4.5 penalty
  /// that materialization removes.
  Dataloader(std::shared_ptr<tsf::Dataset> dataset,
             const tql::DatasetView& view, DataloaderOptions options);

  ~Dataloader();

  Dataloader(const Dataloader&) = delete;
  Dataloader& operator=(const Dataloader&) = delete;

  /// Produces the next batch; returns false at end of stream. On errors,
  /// returns the first error and stops.
  Result<bool> Next(Batch* out) DL_EXCLUDES(mu_);

  /// A snapshot of the epoch counters, taken under the loader mutex.
  DataloaderStats stats() const DL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  static constexpr uint64_t kNoFetch = UINT64_MAX;

  /// A fetch task: one chunk of one column, or one row of it read whole
  /// through Tensor::Read (a tiled sample or the unflushed tail).
  struct Fetch {
    size_t column = 0;
    uint64_t key = 0;  // chunk id, or the dataset row of a read
    bool read = false;
    std::vector<uint64_t> readers;  // delivery indices of the rows it serves
  };
  /// Where a delivered row's cell of one column comes from.
  struct Source {
    uint64_t fetch = kNoFetch;  // kNoFetch: past the tensor's end (empty)
    uint64_t local = 0;         // the sample's index in its chunk
  };
  /// What a fetch produced: a parsed chunk or a read sample.
  struct Fetched {
    std::shared_ptr<const tsf::Chunk> chunk;
    tsf::Sample sample;
  };
  /// A claimed decode task: the row's delivery index and, per column, what
  /// its fetch produced.
  struct DecodeTask {
    uint64_t delivery = 0;
    std::vector<Fetched> inputs;
  };
  /// One decoded cell of a row, ready for its slot.
  struct Cell {
    size_t column = SIZE_MAX;  // SIZE_MAX: a column the transform added
    std::string name;
    tsf::Sample sample;  // in_stack: dtype and shape only
    bool in_stack = false;
  };
  /// A column's batch-major buffer within one batch. The first row placed
  /// into it fixes the slot dtype and shape; rows of another shape keep
  /// their own buffers. Filled in place before the batch is handed out,
  /// then sealed into one Slice whose subslices become the samples.
  struct Stack {
    enum State { kNone, kAllocating, kReady };
    State state = kNone;
    ByteBuffer bytes;
    tsf::DType dtype = tsf::DType::kUInt8;
    tsf::TensorShape shape;
    size_t stride = 0;
    std::vector<uint8_t> filled;  // per slot: decoded into `bytes`
  };
  /// A batch being filled. `batch.size` counts its filled slots.
  struct Filling {
    Batch batch;
    std::vector<Stack> stacks;  // per column
  };

  /// Resolves the tensors, fixes the epoch plan and launches the workers.
  void Start(const std::vector<uint64_t>& order);
  /// Cuts `order` into chunk-aligned units, fixes their visit order and
  /// runs the reservoir rule over admission positions with the seeded draws
  /// the rule takes: pick d draws uniformly from the min(cap, d + 1)
  /// positions held, or from what is left once all are admitted. cap is
  /// shuffle_buffer_rows when shuffling and 1 (in order) otherwise. Then
  /// lists the fetch tasks in the order batches first need them.
  void PlanEpoch(const std::vector<uint64_t>& order);
  void WorkerLoop() DL_EXCLUDES(mu_);

  bool FetchClaimable() const DL_REQUIRES(mu_);
  bool DecodeClaimable(bool consumer) const DL_REQUIRES(mu_);
  bool WorkLeft() const DL_REQUIRES(mu_) {
    return next_fetch_ < fetches_.size() || claimed_rows_ < delivered_rows_;
  }
  DecodeTask ClaimDecode() DL_REQUIRES(mu_);
  void RunFetch(size_t f) DL_EXCLUDES(mu_);
  void RunDecode(DecodeTask task) DL_EXCLUDES(mu_);
  /// Decodes row `task.delivery`'s cell of column `c`. With `into_batch`,
  /// a compressed frame of a stacking column decodes straight into its
  /// batch slot; every other cell keeps its own buffer (an uncompressed
  /// one is a subslice of its chunk).
  Status DecodeCell(const DecodeTask& task, size_t c, bool into_batch,
                    Cell* cell, int64_t* decode_us) DL_EXCLUDES(mu_);
  /// Decodes a row's cells. With a transform, runs it over the decoded
  /// row, then copies each transformed cell into its batch slot when the
  /// column stacks.
  Status DecodeRow(const DecodeTask& task, std::vector<Cell>* cells,
                   int64_t* decode_us, int64_t* transform_us)
      DL_EXCLUDES(mu_);
  /// Copies a transformed cell into its batch slot when its column stacks
  /// and the slot's shape matches; the copy is counted in
  /// TotalBytesCopied().
  void CopyIntoSlot(uint64_t delivery, Cell* cell) DL_EXCLUDES(mu_);
  /// Where row `delivery`'s cell of `column` goes in its batch's
  /// batch-major buffer, allocating the buffer (outside the lock) for the
  /// first row that asks; rows that ask meanwhile wait for it. Null when
  /// the column does not stack for this row (a one-row batch, an empty
  /// cell, or a shape other than the slot's).
  uint8_t* Slot(uint64_t delivery, size_t column, tsf::DType dtype,
                const tsf::TensorShape& shape) DL_EXCLUDES(mu_);
  Filling& FillingFor(uint64_t batch) DL_REQUIRES(mu_);
  uint64_t BatchRows(uint64_t b) const {  // batch_size, less for the last
    return std::min(options_.batch_size,
                    delivered_rows_ - b * options_.batch_size);
  }

  std::shared_ptr<tsf::Dataset> dataset_;
  DataloaderOptions options_;
  std::vector<std::pair<std::string, tsf::Tensor*>> columns_;
  // The plan, read-only once Start() returns. fetches_ is in the order
  // batches first need them, and fetches_needed_[b] counts the fetches
  // that batches 0..b need (a prefix of fetches_). sources_ holds each
  // delivered row's cells, delivered_rows_ x columns_, row-major.
  std::vector<Fetch> fetches_;
  std::vector<size_t> fetches_needed_;
  std::vector<Source> sources_;
  // Per column: whether rows decode into batch-major buffers. Without a
  // transform only tensors of one shape stack; with one, every column
  // tries, since only the transform's output shape counts.
  std::vector<bool> stackable_;
  uint64_t delivered_rows_ = 0;
  std::vector<std::thread> workers_;

  // Leaf lock (DESIGN.md §8): workers and the consumer never acquire
  // another dl::Mutex while holding it (registry instruments are atomics).
  mutable Mutex mu_{"stream.dataloader.mu"};
  // Idle workers wait on work_cv_: signalled (one worker at a time) when a
  // fetch lands or the window moves, and to all on an error, an abort or
  // the last task claimed. The consumer waits on batch_cv_: signalled when
  // batch next_batch_ fills, a fetch lands or the epoch fails. A row whose
  // batch buffer another thread is allocating waits on slot_cv_.
  CondVar work_cv_;
  CondVar batch_cv_;
  CondVar slot_cv_;
  // Per delivered row: its fetches that have not landed yet. A row whose
  // count reaches zero enters ready_, from which decode tasks are claimed
  // in delivery order.
  std::vector<uint32_t> missing_ DL_GUARDED_BY(mu_);
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>>
      ready_ DL_GUARDED_BY(mu_);
  // Per fetch: what it produced, held until its last reader is decoded
  // (readers_left_ reaches zero), then dropped.
  std::vector<Fetched> fetched_ DL_GUARDED_BY(mu_);
  std::vector<uint32_t> readers_left_ DL_GUARDED_BY(mu_);
  size_t next_fetch_ DL_GUARDED_BY(mu_) = 0;  // fetches_ claimed so far
  size_t fetches_in_flight_ DL_GUARDED_BY(mu_) = 0;
  uint64_t claimed_rows_ DL_GUARDED_BY(mu_) = 0;
  // Batches being filled, keyed by batch number: next_batch_, and the
  // ones after it when a batch is smaller than the worker pool
  // (DecodeClaimable). Next() takes batch next_batch_ once it is full.
  std::map<uint64_t, Filling> pending_ DL_GUARDED_BY(mu_);
  // next_batch_ also sets the ordered prefetch window: fetch k may start
  // only once k < fetches_needed_[next_batch_] - 1 + prefetch_units.
  // Claiming strictly by position keeps later fetches from taking window
  // slots from one the consumer is waiting on. Only the consumer advances
  // it.
  uint64_t next_batch_ DL_GUARDED_BY(mu_) = 0;
  // Decoded-but-undelivered rows.
  uint64_t undelivered_ DL_GUARDED_BY(mu_) = 0;
  Status first_error_ DL_GUARDED_BY(mu_);
  bool abort_ DL_GUARDED_BY(mu_) = false;

  DataloaderStats stats_ DL_GUARDED_BY(mu_);
  // Registry instruments (family `loader.*`), cached once in Start() so
  // the hot path touches only atomics. Tasks observe per-op latencies;
  // stats_ aggregates per-stage totals for the epoch summary.
  obs::Histogram* fetch_hist_ = nullptr;
  obs::Histogram* decode_hist_ = nullptr;
  obs::Histogram* transform_hist_ = nullptr;
  obs::Histogram* stall_hist_ = nullptr;
  obs::Counter* rows_counter_ = nullptr;
  obs::Counter* bytes_copied_counter_ = nullptr;
  // Last TotalBytesCopied() sample; Next() accumulates deltas into
  // stats_.bytes_copied. Consumer-thread only.
  uint64_t copied_watermark_ = 0;
  // Tracks undelivered_. A rising series means the consumer is the
  // bottleneck; pinned at zero means the loader is — the flight-recorder
  // signal for Fig. 9 plots.
  obs::Gauge* queued_gauge_ = nullptr;
};

}  // namespace dl::stream

#endif  // DEEPLAKE_STREAM_DATALOADER_H_
