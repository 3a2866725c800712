#ifndef DEEPLAKE_OBS_CONTEXT_H_
#define DEEPLAKE_OBS_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace dl::obs {

class Counter;

/// Per-job resource account (DESIGN.md §7). A meter is attached to a
/// Context by `ForJob` and charged from two places:
///
///   - `ContextScope` charges thread-CPU-time (CLOCK_THREAD_CPUTIME_ID
///     delta) and bytes-copied (ThreadBytesCopied delta) when the scope
///     that *installed* the meter exits — span boundaries, so a worker
///     thread's whole ProcessUnit / Next / RunQuery is attributed;
///   - `InstrumentedStore` charges bytes read on each successful
///     Get/GetRange to the meter of the context installed on the calling
///     thread.
///
/// Every charge lands twice: on the meter's own atomics (cheap to read in
/// tests and /resourcez), and on `job.cpu_us` / `job.bytes_read` /
/// `job.bytes_copied` counters in the global registry — once labeled
/// {job, tenant} and once unlabeled as the process-wide aggregate the
/// flight recorder watches. Meters are shared_ptr-owned by the contexts
/// that carry them; charging is lock-free.
class ResourceMeter {
 public:
  ResourceMeter(std::string tenant, std::string job);

  ResourceMeter(const ResourceMeter&) = delete;
  ResourceMeter& operator=(const ResourceMeter&) = delete;

  void ChargeCpuMicros(int64_t us);
  void ChargeBytesRead(uint64_t n);
  void ChargeBytesCopied(uint64_t n);

  uint64_t cpu_micros() const {
    return cpu_us_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_copied() const {
    return bytes_copied_.load(std::memory_order_relaxed);
  }

  const std::string& tenant() const { return tenant_; }
  const std::string& job() const { return job_; }

 private:
  std::string tenant_;
  std::string job_;
  std::atomic<uint64_t> cpu_us_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_copied_{0};
  // Global-registry instruments, resolved once at construction. Labeled
  // rows feed /resourcez; unlabeled rows are the process aggregates.
  Counter* job_cpu_us_;
  Counter* job_bytes_read_;
  Counter* job_bytes_copied_;
  Counter* agg_cpu_us_;
  Counter* agg_bytes_read_;
  Counter* agg_bytes_copied_;
};

/// Per-operation trace context: the identity of the job an operation is
/// doing work for. A Context is created at an operation root (a query, an
/// epoch, an ingest run), carried by value in `DataloaderOptions` /
/// `QueryOptions`, and installed on each participating thread with a
/// `ContextScope`. Every span recorded while a scope is active — including
/// spans deep inside `InstrumentedStore` — inherits the context's trace id
/// and tenant label, so one loader→storage call chain shares one trace id
/// end-to-end (DESIGN.md §7).
///
/// Contexts are plain values: copying is two string copies, and an empty
/// context (the default) is free to install.
struct Context {
  /// Non-zero groups spans into one logical operation. 0 = no context.
  uint64_t trace_id = 0;
  /// Owning tenant/job labels, attached verbatim to spans. Keep these low
  /// cardinality — they name a job, not a row.
  std::string tenant;
  std::string job;
  /// Resource account charged while this context is installed (nullptr =
  /// unmetered). Shared: copies of the context charge the same meter.
  std::shared_ptr<ResourceMeter> meter;

  bool empty() const {
    return trace_id == 0 && tenant.empty() && job.empty() &&
           meter == nullptr;
  }

  /// A fresh context with a process-unique trace id and an attached
  /// ResourceMeter, so the job's CPU/bytes are attributed from the start.
  static Context ForJob(std::string tenant, std::string job = "");
};

/// Process-unique, monotonically increasing trace id (never 0).
uint64_t NewTraceId();

/// The context installed on the calling thread (empty when none is).
const Context& CurrentContext();

/// RAII installer: sets the calling thread's context for the scope's
/// lifetime and restores the previous one on exit. Scopes nest; an empty
/// context installs cleanly (spans then record with no trace id), so call
/// sites never need to special-case "no context configured".
/// A scope whose context carries a ResourceMeter also meters the thread:
/// on entry it snapshots thread CPU time and thread bytes-copied, and on
/// exit charges the deltas to the meter. Nested scopes installing the
/// *same* meter measure only at the outermost level (no double charge);
/// a nested scope installing a different meter hands the interval over.
class ContextScope {
 public:
  explicit ContextScope(const Context& context);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context previous_;
  ResourceMeter* meter_ = nullptr;  // non-null: charge deltas on exit
  int64_t cpu_start_us_ = 0;
  uint64_t copied_start_ = 0;
};

}  // namespace dl::obs

#endif  // DEEPLAKE_OBS_CONTEXT_H_
