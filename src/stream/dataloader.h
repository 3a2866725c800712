#ifndef DEEPLAKE_STREAM_DATALOADER_H_
#define DEEPLAKE_STREAM_DATALOADER_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/context.h"
#include "obs/metrics.h"
#include "tql/executor.h"
#include "tsf/dataset.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dl::stream {

/// One collated batch: per-tensor lists of samples in row order.
struct Batch {
  uint64_t size = 0;
  std::map<std::string, std::vector<tsf::Sample>> columns;

  /// Collates a column into one contiguous buffer (deep-learning native
  /// layout, batch-major). Fails if the column's samples are ragged.
  Result<tsf::Sample> Stacked(const std::string& column) const;
};

/// A row in flight through the pipeline.
using Row = std::map<std::string, tsf::Sample>;

/// Per-sample user transform, run inside worker threads (paper §4.6: the
/// transformation executes in parallel outside the interpreter lock — here,
/// plainly on the pool).
using TransformFn = std::function<Status(Row&)>;

struct DataloaderOptions {
  uint64_t batch_size = 32;
  /// Fetch/decode worker threads.
  size_t num_workers = 4;
  /// Streaming shuffle (paper §3.5): work units are visited in random
  /// order and rows are drawn through a reservoir buffer. The delivered
  /// order is a function of (seed, dataset, view) alone — worker count and
  /// timing never change it.
  bool shuffle = false;
  /// Capacity of the shuffle reservoir, in rows.
  size_t shuffle_buffer_rows = 512;
  uint64_t seed = 42;
  /// Prefetch window: workers may start the work units (≈ chunks) the
  /// next batch needs plus prefetch_units - 1 more; bounds memory (paper
  /// §4.6 "predicting memory consumption").
  size_t prefetch_units = 8;
  bool drop_last = false;
  /// Tensors to stream; empty = all visible tensors.
  std::vector<std::string> tensors;
  TransformFn transform;
  /// Trace context of the owning job (DESIGN.md §7): installed on every
  /// worker while it processes a unit and on the consumer inside Next(),
  /// so loader spans — and the storage spans beneath them — share one
  /// trace id and carry the job's tenant label. Default (empty) costs
  /// nothing; create one with obs::Context::ForJob("tenant", "job").
  obs::Context context;
};

/// Epoch counters, mirrored into the obs::MetricsRegistry (family
/// `loader.*`). Every field is written under the loader mutex, and
/// Dataloader::stats() returns a copy taken under it, so any thread may read
/// them at any time; mid-epoch reads see the epoch so far.
///
/// The per-stage micros sum CPU/IO time *across all workers*: with N
/// workers their total can legitimately exceed wall time (stages overlap).
struct DataloaderStats {
  uint64_t rows_delivered = 0;
  uint64_t batches_delivered = 0;
  /// Time Next() spent blocked waiting for the pipeline.
  int64_t stall_micros = 0;
  /// Work units (chunk-aligned ranges) that workers have finished.
  uint64_t units = 0;
  /// Worker time spent in storage reads (chunk Get + tiled/tail reads;
  /// the tiled/tail path folds its decode into this figure).
  int64_t fetch_micros = 0;
  /// Worker time spent parsing chunks and materializing samples.
  int64_t decode_micros = 0;
  /// Worker time spent inside the user transform.
  int64_t transform_micros = 0;
  /// Process-wide bytes deep-copied through the Buffer/Slice layer while
  /// this loader ran (delta of dl::TotalBytesCopied(), sampled in Next()).
  /// The steady-state epoch loop over raw/uncompressed htypes should keep
  /// this near zero (DESIGN.md §10); collation via Batch::Stacked is
  /// counted.
  uint64_t bytes_copied = 0;
};

/// Streaming dataloader (paper §4.6): schedules chunk-aligned fetches,
/// decompresses in parallel workers, applies user transforms, shuffles via
/// a buffer, and collates batches — while a bounded prefetch window keeps
/// memory flat and the consumer (GPU) fed.
///
/// The epoch is a plan fixed before any row is decoded: Start() runs the
/// reservoir rule of the streaming shuffle (§3.5) over admission positions,
/// which gives every row its batch and slot. Workers decode rows into their
/// slots; Next() hands out each batch once it is full. Rows in flight stay
/// below the reservoir capacity plus one batch plus the prefetch window.
///
/// Iterate: `while (loader.Next(&batch)) { ... }`. One pass; construct a
/// new loader per epoch (cheap).
class Dataloader {
 public:
  /// Streams the whole dataset in index order (or shuffled).
  Dataloader(std::shared_ptr<tsf::Dataset> dataset, DataloaderOptions options);

  /// Streams a query view's rows in the view's order (paper §4.4 "seamless
  /// integration with the dataloader for filtered streaming"). Sparse views
  /// produce fragmented work units — the §4.5 penalty that materialization
  /// removes.
  Dataloader(std::shared_ptr<tsf::Dataset> dataset,
             const tql::DatasetView& view, DataloaderOptions options);

  ~Dataloader();

  Dataloader(const Dataloader&) = delete;
  Dataloader& operator=(const Dataloader&) = delete;

  /// Produces the next batch; returns false at end of stream. On worker
  /// errors, returns the first error and stops.
  Result<bool> Next(Batch* out) DL_EXCLUDES(mu_);

  /// A snapshot of the epoch counters, taken under the loader mutex.
  DataloaderStats stats() const DL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  /// Rows that share one primary chunk. rows[i] enters the reservoir at
  /// admission position first + i.
  struct Unit {
    std::vector<uint64_t> rows;  // dataset row indices
    uint64_t first = 0;
  };
  static constexpr uint64_t kNotDelivered = UINT64_MAX;

  /// Resolves the tensors, fixes the epoch plan and launches the workers.
  void Start(const std::vector<uint64_t>& order);
  /// Cuts `order` into chunk-aligned units, fixes their visit order and
  /// runs the reservoir rule over admission positions with the seeded draws
  /// the rule takes: pick d draws uniformly from the min(cap, d + 1)
  /// positions held, or from what is left once all are admitted. cap is
  /// shuffle_buffer_rows when shuffling and 1 (in order) otherwise.
  void PlanEpoch(const std::vector<uint64_t>& order);
  void ProcessUnit(const Unit& unit) DL_EXCLUDES(mu_);
  uint64_t BatchRows(uint64_t b) const {  // batch_size, less for the last
    return std::min(options_.batch_size,
                    delivered_rows_ - b * options_.batch_size);
  }

  std::shared_ptr<tsf::Dataset> dataset_;
  DataloaderOptions options_;
  std::vector<std::pair<std::string, tsf::Tensor*>> columns_;
  std::vector<Unit> units_;  // in visit order
  // The plan, read-only once Start() returns. slot_of_[a] is the delivery
  // index of the row admitted at position a (kNotDelivered past the last
  // batch under drop_last); units_needed_[b] counts the units, in visit
  // order, that batch b's picks admit rows from.
  std::vector<uint64_t> slot_of_;
  std::vector<size_t> units_needed_;
  uint64_t delivered_rows_ = 0;
  std::unique_ptr<ThreadPool> pool_;

  // Leaf lock (DESIGN.md §8): workers and the consumer never acquire
  // another dl::Mutex while holding it (registry instruments are atomics).
  mutable Mutex mu_{"stream.dataloader.mu"};
  CondVar gate_cv_;
  CondVar ready_cv_;
  // Batches being filled, keyed by batch number. A batch's `size` counts
  // its filled slots; Next() takes batch next_batch_ once it is full.
  std::map<uint64_t, Batch> pending_ DL_GUARDED_BY(mu_);
  // next_batch_ also sets the ordered prefetch window: the unit at visit
  // position k may start only once k < units_needed_[next_batch_] - 1 +
  // prefetch_units. Admission strictly by position prevents later units
  // from stealing window slots from a unit the consumer is waiting on — a
  // semaphore here can deadlock by priority inversion. Only the consumer
  // advances it.
  uint64_t next_batch_ DL_GUARDED_BY(mu_) = 0;
  // Decoded-but-undelivered rows.
  uint64_t undelivered_ DL_GUARDED_BY(mu_) = 0;
  Status first_error_ DL_GUARDED_BY(mu_);
  bool abort_ DL_GUARDED_BY(mu_) = false;

  DataloaderStats stats_ DL_GUARDED_BY(mu_);
  // Registry instruments (family `loader.*`), cached once in Start() so
  // the hot path touches only atomics. Workers observe per-op latencies;
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
