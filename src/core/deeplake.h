#ifndef DEEPLAKE_CORE_DEEPLAKE_H_
#define DEEPLAKE_CORE_DEEPLAKE_H_

#include <memory>
#include <string>
#include <vector>

#include "obs/debug_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tql/executor.h"
#include "tsf/dataset.h"
#include "version/branch_lock.h"
#include "version/mvcc.h"
#include "version/version_control.h"
#include "viz/visualizer.h"

namespace dl {

/// The Deep Lake public façade: one handle that ties the Tensor Storage
/// Format, version control, TQL, the streaming dataloader and the
/// visualizer together over any storage provider — the API a downstream
/// user adopts (paper Fig. 1 / §4).
///
/// Typical lifecycle (paper §5):
///
///   auto lake = *DeepLake::Open(std::make_shared<storage::PosixStore>(path));
///   tsf::TensorOptions img; img.htype = "image";
///   lake->CreateTensor("images", img);
///   lake->Append({{"images", sample}, {"labels", label}});
///   lake->Commit("initial data");
///   auto view = *lake->Query("SELECT * FROM ds WHERE labels = 2");
///   auto loader = lake->Dataloader(view, opts);
class DeepLake {
 public:
  struct OpenOptions {
    /// Create the dataset when the storage root is empty.
    bool create_if_missing = true;
    /// Manage versions in the storage layout (§4.2). When off, the dataset
    /// lives directly at the root (no commits/branches).
    bool with_version_control = true;
    std::string description;
    /// Wrap the storage in a storage::RetryingStore before anything else
    /// touches it, so transient backend faults (timeouts, 5xx — anything
    /// Status::IsRetryable) are absorbed with capped exponential backoff
    /// instead of failing opens, commits and epoch streams. The retry layer
    /// sits at the bottom of the decorator chain (cache → prefix → retry →
    /// base); see DESIGN.md §6.
    bool retry_transient_errors = false;
    storage::RetryPolicy retry_policy;
  };

  /// Opens (or creates) a Deep Lake at the storage root.
  static Result<std::shared_ptr<DeepLake>> Open(storage::StoragePtr storage,
                                                OpenOptions options);
  static Result<std::shared_ptr<DeepLake>> Open(storage::StoragePtr storage) {
    return Open(std::move(storage), OpenOptions());
  }

  // ---- Schema & rows (delegate to the dataset) ----

  tsf::Dataset& dataset() { return *dataset_; }
  std::shared_ptr<tsf::Dataset> dataset_ptr() { return dataset_; }

  Result<tsf::Tensor*> CreateTensor(const std::string& name,
                                    const tsf::TensorOptions& options = {}) {
    return dataset_->CreateTensor(name, options);
  }
  Status Append(const std::map<std::string, tsf::Sample>& row) {
    return dataset_->Append(row);
  }
  Result<std::map<std::string, tsf::Sample>> ReadRow(uint64_t index) {
    return dataset_->ReadRow(index);
  }
  uint64_t NumRows() const { return dataset_->NumRows(); }
  Status Flush();

  // ---- Version control (§4.2) ----

  bool has_version_control() const { return vc_ != nullptr; }
  version::VersionControl* version_control() { return vc_.get(); }

  /// Commits the working state. The dataset and its tensors stay open and
  /// move to the new working head. When the head's parent is the commit
  /// this lake last sealed, the diff file comes from the open tensors'
  /// chunk encoders and the commit reads nothing (DESIGN.md §9.3); after
  /// Open, a checkout or a transaction it reads the diffs back and reopens
  /// the dataset. Must not run while other threads read this lake's
  /// dataset (snapshots from At() are unaffected).
  Result<std::string> Commit(const std::string& message);
  /// Checks out a branch (optionally creating it) and reopens the dataset.
  Status Checkout(const std::string& branch, bool create = false);
  /// Detached read-only checkout of a sealed commit (time travel).
  Status CheckoutCommit(const std::string& commit_id);
  Result<version::MergeStats> Merge(const std::string& source_branch,
                                    version::MergePolicy policy);
  Result<std::map<std::string, version::TensorDiff>> Diff(
      const std::string& commit_a, const std::string& commit_b);
  std::vector<version::CommitInfo> Log() const;

  /// Takes the writer lease on the current branch (§7.3 branch-based
  /// locks). Hold it while writing; it auto-releases on destruction.
  Result<std::unique_ptr<version::BranchLock>> LockBranch(
      const std::string& owner, int64_t ttl_ms = 30000);

  // ---- MVCC: concurrent writers & snapshot readers (DESIGN.md §12) ----

  /// The current branch's last *sealed* commit — the snapshot a reader
  /// pins and the base a transaction stages against.
  Result<std::string> HeadCommit();

  /// Read-only dataset pinned at `commit_id` (time travel). The snapshot
  /// reads through that commit's immutable chain, so it never observes
  /// commits published after it — regardless of what concurrent writers
  /// do to this lake's working state.
  Result<std::shared_ptr<tsf::Dataset>> At(const std::string& commit_id);

  /// Opens an optimistic write transaction on the current branch. Many may
  /// be open at once; publishes serialize and conflict-check (§12).
  Result<std::unique_ptr<version::WriteTxn>> BeginTxn(
      const std::string& owner = "");

  /// Runs `body` in a WriteTxn and publishes it, retrying on conflicts
  /// with capped backoff; reopens this lake's working dataset on success
  /// so the landed changes are visible here. Returns the landed commit id.
  Result<std::string> Transact(
      const std::function<Status(tsf::Dataset&)>& body,
      const std::string& message,
      const storage::RetryPolicy& retry = version::kTxnRetryPolicy);

  // ---- Query (§4.4) ----

  /// Runs a TQL query against the current dataset; `VERSION '<commit>'`
  /// clauses resolve through version control automatically.
  Result<tql::DatasetView> Query(const std::string& query_text);

  /// Runs a TQL query against the snapshot pinned at `commit_id`; the
  /// returned view records the pin (DatasetView::pinned_commit) and is
  /// immune to concurrently publishing writers.
  Result<tql::DatasetView> QueryAt(const std::string& commit_id,
                                   const std::string& query_text);

  /// Profiles `query_text` and returns its per-operator profile — the
  /// programmatic twin of `EXPLAIN ANALYZE <query>` (which returns the
  /// rendered plan as a view instead). The query executes fully.
  Result<tql::QueryProfile> ExplainQuery(const std::string& query_text);

  /// Materializes a view into a fresh dense dataset (§4.5).
  Result<std::shared_ptr<tsf::Dataset>> Materialize(
      tql::DatasetView& view, storage::StoragePtr target) {
    return tql::MaterializeView(view, target);
  }

  // ---- Streaming (§4.6) ----

  std::unique_ptr<stream::Dataloader> Dataloader(
      stream::DataloaderOptions options) {
    return std::make_unique<stream::Dataloader>(dataset_, options);
  }
  std::unique_ptr<stream::Dataloader> Dataloader(
      const tql::DatasetView& view, stream::DataloaderOptions options) {
    return std::make_unique<stream::Dataloader>(dataset_, view, options);
  }
  /// Dataloader over the snapshot pinned at `commit_id`: epochs stream a
  /// frozen view of the data while writers keep publishing (§12
  /// continuous ingestion).
  Result<std::unique_ptr<stream::Dataloader>> DataloaderAt(
      const std::string& commit_id, stream::DataloaderOptions options);

  // ---- Observability ----

  /// One JSON document describing everything measured so far: the global
  /// obs::MetricsRegistry snapshot (counters/gauges/latency histograms from
  /// storage, loader, TQL, ingest and sim). Storage request and byte counts
  /// appear there when the chain holds an InstrumentedStore. The payload
  /// benches embed in BENCH_*.json.
  Json MetricsSnapshot() const;

  /// Starts a flight recorder (DESIGN.md §7) over the global registry,
  /// watching the default instrument set a training run cares about:
  /// loader rows/queue depth, TQL query counts, fetch/stall latency, GPU
  /// utilization. Fails if one is already running on this lake.
  Status StartFlightRecorder(obs::FlightRecorder::Options options = {});

  /// Stops the recorder and returns its timeline JSON ({"interval_us",
  /// "dropped", "samples": [...]}); returns a null Json when no recorder
  /// was ever started.
  Json StopFlightRecorder();

  /// The active recorder, or nullptr — for callers that want to add
  /// watches (before Start) or read samples mid-run.
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }

  /// Starts an embedded live-telemetry HTTP server (DESIGN.md §7) over the
  /// global registry/recorder: /metrics, /statusz (with a dataset summary
  /// from this lake), /tracez, /flightz (this lake's flight recorder, when
  /// one is running) and /healthz. Loopback-bound on an ephemeral port by
  /// default; read the bound port from debug_server()->port(). Bind
  /// failures (port in use) surface as the returned Status.
  Status StartDebugServer(obs::DebugServer::Options options = {});

  /// Stops the server and joins its threads. OK when none is running.
  Status StopDebugServer();

  /// The active server, or nullptr — for reading the port or adding
  /// custom endpoints between construction and Start.
  obs::DebugServer* debug_server() { return debug_server_.get(); }

  // ---- Visualization (§4.3) ----

  viz::LayoutPlan PlanLayout() const { return viz::PlanLayout(*dataset_); }
  Result<viz::Framebuffer> Render(uint64_t row,
                                  const viz::RenderOptions& options,
                                  viz::RenderReport* report) {
    return viz::RenderRow(*dataset_, PlanLayout(), row, options, report);
  }

 private:
  DeepLake() = default;
  /// Opens the dataset afresh on the working store; forgets the kept
  /// encoders.
  Status ReopenDataset();
  /// Records every tensor's chunk encoder as sealed in `commit_id`.
  void KeepEncoders(const std::string& commit_id);
  /// Options for a query over this lake: `FROM ds VERSION '<id>'`
  /// resolves through At() when the lake has version control. They refer
  /// to this lake, so they live only for the query they are built for.
  tql::QueryOptions QueryOptionsForLake();

  storage::StoragePtr base_;
  std::shared_ptr<version::VersionControl> vc_;
  std::shared_ptr<tsf::Dataset> dataset_;
  // The commit this lake last sealed from dataset_ (empty when none since
  // the dataset was opened) and each tensor's chunk encoder in it: the
  // base DeepLake::Commit diffs the open tensors against.
  std::string kept_commit_;
  std::map<std::string, tsf::ChunkEncoder> kept_encoders_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::DebugServer> debug_server_;
};

}  // namespace dl

#endif  // DEEPLAKE_CORE_DEEPLAKE_H_
