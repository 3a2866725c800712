#include "core/deeplake.h"

#include "util/macros.h"

namespace dl {

Result<std::shared_ptr<DeepLake>> DeepLake::Open(storage::StoragePtr storage,
                                                 OpenOptions options) {
  auto lake = std::shared_ptr<DeepLake>(new DeepLake());
  lake->base_ = std::move(storage);
  if (options.retry_transient_errors) {
    lake->base_ = std::make_shared<storage::RetryingStore>(
        lake->base_, options.retry_policy);
  }
  storage::StoragePtr data_store = lake->base_;
  if (options.with_version_control) {
    DL_ASSIGN_OR_RETURN(lake->vc_,
                        version::VersionControl::OpenOrInit(lake->base_));
    data_store = lake->vc_->working_store();
  }
  DL_ASSIGN_OR_RETURN(bool exists,
                      data_store->Exists(tsf::Dataset::kMetaKey));
  if (exists) {
    DL_ASSIGN_OR_RETURN(lake->dataset_, tsf::Dataset::Open(data_store));
  } else {
    if (!options.create_if_missing) {
      return Status::NotFound("no dataset at storage root");
    }
    tsf::Dataset::Options ds_options;
    ds_options.description = options.description;
    DL_ASSIGN_OR_RETURN(lake->dataset_,
                        tsf::Dataset::Create(data_store, ds_options));
  }
  return lake;
}

Status DeepLake::ReopenDataset() {
  kept_commit_.clear();
  kept_encoders_.clear();
  storage::StoragePtr store =
      vc_ ? vc_->working_store() : base_;
  DL_ASSIGN_OR_RETURN(dataset_, tsf::Dataset::Open(store));
  return Status::OK();
}

void DeepLake::KeepEncoders(const std::string& commit_id) {
  kept_commit_ = commit_id;
  kept_encoders_.clear();
  for (const std::string& name : dataset_->TensorNames(true)) {
    kept_encoders_[name] = (*dataset_->GetTensor(name))->chunk_encoder();
  }
}

Status DeepLake::Flush() {
  DL_RETURN_IF_ERROR(dataset_->Flush());
  if (vc_) DL_RETURN_IF_ERROR(vc_->Flush());
  return Status::OK();
}

Result<std::string> DeepLake::Commit(const std::string& message) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  if (vc_->detached()) return vc_->Commit(message);  // FailedPrecondition
  DL_RETURN_IF_ERROR(dataset_->Flush());
  DL_ASSIGN_OR_RETURN(version::CommitInfo head,
                      vc_->GetCommit(vc_->current_commit()));
  // The guard: the open tensors describe the head, and kept_encoders_ its
  // parent, only while the parent is the commit this lake sealed last.
  if (kept_commit_.empty() || head.parent != kept_commit_) {
    DL_ASSIGN_OR_RETURN(std::string id, vc_->Commit(message));
    DL_RETURN_IF_ERROR(ReopenDataset());
    KeepEncoders(id);
    return id;
  }
  version::KnownDiffs diffs{head.parent, {}};
  for (const std::string& name : dataset_->TensorNames(true)) {
    auto kept = kept_encoders_.find(name);
    std::optional<version::TensorDiff> d = version::DiffTensor(
        kept == kept_encoders_.end() ? nullptr : &kept->second,
        &(*dataset_->GetTensor(name))->chunk_encoder());
    if (d) diffs.tensors[name] = std::move(*d);
  }
  DL_ASSIGN_OR_RETURN(std::string id, vc_->Commit(message, diffs));
  DL_ASSIGN_OR_RETURN(version::CommitInfo sealed, vc_->GetCommit(id));
  if (sealed.parent == kept_commit_) {
    dataset_->Rebind(vc_->working_store());
  } else {
    // A transaction reparented the head during the commit; the seal read
    // the diffs back, and the dataset must see the transaction's rows.
    DL_RETURN_IF_ERROR(ReopenDataset());
  }
  KeepEncoders(id);
  return id;
}

Status DeepLake::Checkout(const std::string& branch, bool create) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  // A detached (read-only) dataset has nothing writable to flush.
  if (!vc_->detached()) DL_RETURN_IF_ERROR(dataset_->Flush());
  DL_RETURN_IF_ERROR(vc_->CheckoutBranch(branch, create));
  return ReopenDataset();
}

Status DeepLake::CheckoutCommit(const std::string& commit_id) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  DL_RETURN_IF_ERROR(vc_->CheckoutCommit(commit_id));
  return ReopenDataset();
}

Result<version::MergeStats> DeepLake::Merge(const std::string& source_branch,
                                            version::MergePolicy policy) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  if (!vc_->detached()) DL_RETURN_IF_ERROR(dataset_->Flush());
  DL_ASSIGN_OR_RETURN(version::MergeStats stats,
                      vc_->Merge(source_branch, policy));
  DL_RETURN_IF_ERROR(ReopenDataset());
  return stats;
}

Result<std::map<std::string, version::TensorDiff>> DeepLake::Diff(
    const std::string& commit_a, const std::string& commit_b) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  return vc_->Diff(commit_a, commit_b);
}

std::vector<version::CommitInfo> DeepLake::Log() const {
  return vc_ ? vc_->Log() : std::vector<version::CommitInfo>{};
}

Result<std::unique_ptr<version::BranchLock>> DeepLake::LockBranch(
    const std::string& owner, int64_t ttl_ms) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  if (vc_->detached()) {
    return Status::FailedPrecondition("cannot lock in detached state");
  }
  return version::BranchLock::Acquire(base_, vc_->current_branch(), owner,
                                      ttl_ms);
}

Result<std::string> DeepLake::HeadCommit() {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  return vc_->SealedHead();
}

Result<std::shared_ptr<tsf::Dataset>> DeepLake::At(
    const std::string& commit_id) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  DL_ASSIGN_OR_RETURN(auto store, vc_->StoreAt(commit_id));
  return tsf::Dataset::Open(store);
}

Result<std::unique_ptr<version::WriteTxn>> DeepLake::BeginTxn(
    const std::string& owner) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  version::TxnOptions opts;
  opts.owner = owner;
  return version::WriteTxn::Begin(vc_, opts);
}

Result<std::string> DeepLake::Transact(
    const std::function<Status(tsf::Dataset&)>& body,
    const std::string& message, const storage::RetryPolicy& retry) {
  if (!vc_) {
    return Status::FailedPrecondition(
        "this lake was opened without version control");
  }
  // Deliberately NO flush of the working dataset here: flushing would
  // write its meta into the working head's directory, which after the
  // publish reparents that head would shadow the transaction's changes
  // for every reader (and publish refuses dirty working heads outright —
  // DESIGN.md §12). The body writes through the transaction's dataset.
  DL_ASSIGN_OR_RETURN(std::string landed,
                      version::CommitWithTxnRetries(vc_, {}, body, message,
                                                    retry));
  DL_RETURN_IF_ERROR(ReopenDataset());
  return landed;
}

Result<tql::DatasetView> DeepLake::QueryAt(const std::string& commit_id,
                                           const std::string& query_text) {
  DL_ASSIGN_OR_RETURN(auto snapshot, At(commit_id));
  DL_ASSIGN_OR_RETURN(
      tql::DatasetView view,
      tql::RunQuery(snapshot, query_text, QueryOptionsForLake()));
  view.PinAtCommit(commit_id);
  return view;
}

Result<std::unique_ptr<stream::Dataloader>> DeepLake::DataloaderAt(
    const std::string& commit_id, stream::DataloaderOptions options) {
  DL_ASSIGN_OR_RETURN(auto snapshot, At(commit_id));
  return std::make_unique<stream::Dataloader>(snapshot, options);
}

tql::QueryOptions DeepLake::QueryOptionsForLake() {
  tql::QueryOptions options;
  if (vc_) {
    options.version_resolver = [this](const std::string& commit) {
      return At(commit);
    };
  }
  return options;
}

Result<tql::DatasetView> DeepLake::Query(const std::string& query_text) {
  return tql::RunQuery(dataset_, query_text, QueryOptionsForLake());
}

Result<tql::QueryProfile> DeepLake::ExplainQuery(
    const std::string& query_text) {
  tql::QueryOptions options = QueryOptionsForLake();
  tql::QueryProfile profile;
  options.profile = &profile;
  DL_RETURN_IF_ERROR(tql::RunQuery(dataset_, query_text, options).status());
  return profile;
}

Status DeepLake::StartFlightRecorder(obs::FlightRecorder::Options options) {
  if (flight_ != nullptr && flight_->running()) {
    return Status::FailedPrecondition("flight recorder already running");
  }
  flight_ = std::make_unique<obs::FlightRecorder>(
      &obs::MetricsRegistry::Global(), options);
  flight_->WatchCounter("loader.rows", {}, "loader_rows");
  flight_->WatchCounter("loader.bytes_copied", {}, "loader_bytes_copied");
  flight_->WatchCounter("tql.queries", {}, "tql_queries");
  flight_->WatchGauge("loader.queued_rows", {}, "queued_rows");
  flight_->WatchGauge("buffer_pool.bytes_in_use", {}, "pool_bytes_in_use");
  flight_->WatchGauge("buffer_pool.acquires", {}, "pool_acquires");
  flight_->WatchGauge("process.bytes_copied", {}, "process_bytes_copied");
  flight_->WatchGauge("sim.gpu.utilization", {{"gpu", "gpu0"}},
                      "gpu_utilization");
  // Contention + per-job attribution (DESIGN.md §7): lock.wait_us is a
  // sampled-aggregate gauge (refreshed by SampleProcessGauges each tick);
  // the job.* counters aggregate every ResourceMeter's charges.
  flight_->WatchGauge("lock.wait_us", {}, "lock_wait_us");
  flight_->WatchCounter("job.cpu_us", {}, "job_cpu_us");
  flight_->WatchCounter("job.bytes_read", {}, "job_bytes_read");
  flight_->WatchHistogram("loader.fetch_us", {}, "fetch_us");
  flight_->WatchHistogram("loader.stall_us", {}, "stall_us");
  return flight_->Start();
}

Json DeepLake::StopFlightRecorder() {
  if (flight_ == nullptr) return Json();
  (void)flight_->Stop();
  return flight_->TimelineJson();
}

Status DeepLake::StartDebugServer(obs::DebugServer::Options options) {
  if (debug_server_ != nullptr && debug_server_->running()) {
    return Status::FailedPrecondition("debug server already running");
  }
  debug_server_ = std::make_unique<obs::DebugServer>(
      &obs::MetricsRegistry::Global(), &obs::TraceRecorder::Global(), options);
  // Providers capture shared_ptr copies: they stay valid even if the lake
  // reopens the dataset (checkout) while a scrape is in flight.
  auto dataset = dataset_;
  auto storage = base_;
  debug_server_->SetStatusProvider([dataset, storage]() {
    Json ds = Json::MakeObject();
    ds.Set("rows", static_cast<double>(dataset->NumRows()));
    Json tensors = Json::MakeArray();
    for (const std::string& name : dataset->TensorNames()) {
      tensors.Append(name);
    }
    ds.Set("tensors", std::move(tensors));
    ds.Set("storage", storage->name());
    return ds;
  });
  obs::FlightRecorder* flight = flight_.get();
  if (flight != nullptr) {
    debug_server_->SetFlightzProvider(
        [flight]() { return flight->TimelineJson(); });
  }
  return debug_server_->Start();
}

Status DeepLake::StopDebugServer() {
  if (debug_server_ == nullptr) return Status::OK();
  return debug_server_->Stop();
}

Json DeepLake::MetricsSnapshot() const {
  Json doc = Json::MakeObject();
  doc.Set("registry", obs::MetricsRegistry::Global().SnapshotJson());
  return doc;
}

}  // namespace dl
