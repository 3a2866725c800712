#include "version/mvcc.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/macros.h"
#include "util/rng.h"
#include "version/layout.h"

namespace dl::version {

namespace {

using Ranges = std::vector<std::pair<uint64_t, uint64_t>>;

/// The set of rows a commit touched, per tensor — the unit of conflict
/// detection (DESIGN.md §12). Appends count as the range
/// [length_before, length_after - 1]; because every row append also grows
/// the hidden `_sample_id` tensor from the same base length, two
/// concurrent row-appenders always overlap there and serialize via retry,
/// while cell updates on disjoint rows merge.
struct Footprint {
  /// Conservative marker: the commit's extent is unknowable (first commit
  /// on a branch, missing or unreadable diff manifest) — treat it as
  /// overlapping everything.
  bool unknown = false;
  std::map<std::string, Ranges> tensors;
};

void AddFootprintEntry(Footprint* fp, const std::string& name,
                       uint64_t length_before, uint64_t length_after,
                       Ranges ranges) {
  if (length_after > length_before) {
    ranges.push_back({length_before, length_after - 1});
  }
  if (ranges.empty()) return;
  Ranges& dst = fp->tensors[name];
  dst.insert(dst.end(), ranges.begin(), ranges.end());
}

bool RangesOverlap(const Ranges& a, const Ranges& b) {
  for (const auto& [alo, ahi] : a) {
    for (const auto& [blo, bhi] : b) {
      if (alo <= bhi && blo <= ahi) return true;
    }
  }
  return false;
}

/// True when the two commits touched at least one common row of a common
/// tensor (or either footprint is unknown).
bool FootprintsConflict(const Footprint& a, const Footprint& b,
                        std::string* where) {
  if (a.unknown || b.unknown) {
    if (where) *where = "(unknown extent)";
    return true;
  }
  for (const auto& [name, ranges] : a.tensors) {
    auto it = b.tensors.find(name);
    if (it == b.tensors.end()) continue;
    if (RangesOverlap(ranges, it->second)) {
      if (where) *where = "tensor '" + name + "'";
      return true;
    }
  }
  return false;
}

Footprint FootprintFromDiffs(
    const std::map<std::string, TensorDiff>& diffs) {
  Footprint fp;
  for (const auto& [name, d] : diffs) {
    AddFootprintEntry(&fp, name, d.length_a, d.length_b, d.modified_ranges);
  }
  return fp;
}

/// Footprint of an already-sealed commit, from its diff.json manifest. A
/// diff written against an empty parent records no tensors (there is
/// nothing to diff against), so it reads back as unknown — conservative.
Footprint FootprintFromDiffJson(const Json& j) {
  Footprint fp;
  if (j.Get("parent").as_string().empty()) {
    fp.unknown = true;
    return fp;
  }
  for (const auto& [name, t] : j.Get("tensors").object()) {
    Ranges ranges;
    const Json& arr = t.Get("modified_ranges");
    for (size_t i = 0; i < arr.size(); ++i) {
      ranges.push_back({static_cast<uint64_t>(arr[i][0].as_int(0)),
                        static_cast<uint64_t>(arr[i][1].as_int(0))});
    }
    AddFootprintEntry(&fp, name,
                      static_cast<uint64_t>(t.Get("length_before").as_int(0)),
                      static_cast<uint64_t>(t.Get("length_after").as_int(0)),
                      std::move(ranges));
  }
  return fp;
}

obs::Counter* TxnCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

// ---------------------------------------------------------------------------
// VersionControl: the optimistic publish protocol (DESIGN.md §12)
// ---------------------------------------------------------------------------

Status VersionControl::RemoveTxnMarker(const std::string& commit_id) {
  // dllint-ok(unjournaled-manifest-write): deleting the marker is itself a
  // journal step — it happens under publish_mu_ immediately before the
  // commit record lands (DESIGN.md §12), and a crash between the two
  // leaves an unreferenced markerless directory that recovery removes.
  return base_->Delete(TxnMarkerKey(commit_id));
}

Result<std::string> VersionControl::BeginStagedCommit(
    const std::string& branch, const std::string& owner,
    std::string* base_out) {
  std::string id = NewCommitId();
  std::string b = branch;
  std::string base;
  {
    MutexLock lock(mu_);
    if (b.empty()) b = current_branch_;
    if (b.empty()) {
      return Status::FailedPrecondition(
          "cannot begin a transaction in detached state; checkout a branch");
    }
    auto bit = branches_.find(b);
    if (bit == branches_.end()) {
      return Status::NotFound("no branch '" + b + "'");
    }
    auto wit = commits_.find(bit->second);
    if (wit != commits_.end()) {
      // The branch head is normally the unsealed working commit; its parent
      // is the sealed head. (Mid-Commit the head is transiently sealed
      // itself — then it IS the base.)
      base = wit->second.committed ? bit->second : wit->second.parent;
    }
    CommitInfo info;
    info.id = id;
    info.parent = base;
    info.branch = b;
    info.staged = true;
    info.timestamp_us = NowMicros();
    commits_[id] = info;
    key_sets_[id] = {};
  }
  // The marker makes the staging directory self-describing on store: any
  // directory with txn.json and no commit.json is debris of a crashed or
  // losing writer, GC-able by recovery and dlfsck --repair.
  Json j = Json::MakeObject();
  j.Set("txn", id);
  j.Set("branch", b);
  j.Set("base", base);
  j.Set("owner", owner);
  j.Set("created_us", NowMicros());
  Status ms = PutManifest(TxnMarkerKey(id), j);
  if (!ms.ok()) {
    MutexLock lock(mu_);
    commits_.erase(id);
    key_sets_.erase(id);
    return ms;
  }
  obs::MetricsRegistry::Global().GetGauge("version.txn.active")->Add(1);
  if (base_out) *base_out = base;
  return id;
}

Status VersionControl::AbortStagedCommit(const std::string& txn_id) {
  bool was_staged = false;
  {
    MutexLock lock(mu_);
    auto it = commits_.find(txn_id);
    if (it != commits_.end()) {
      if (!it->second.staged) {
        // Published (or never a transaction): nothing to drop.
        return Status::OK();
      }
      commits_.erase(it);
      was_staged = true;
    }
    key_sets_.erase(txn_id);
  }
  if (was_staged) {
    obs::MetricsRegistry::Global().GetGauge("version.txn.active")->Sub(1);
  }
  // Delete the staging directory, marker included. Order does not matter:
  // without a commit record the directory is debris regardless of which
  // keys survive a crash here.
  return DeleteVersionDir(*base_, txn_id);
}

Result<std::string> VersionControl::SealStagedLocked(
    const std::string& txn_id, const std::string& branch,
    const std::string& message, const KnownDiffs* known) {
  std::string working_head;
  {
    MutexLock lock(mu_);
    auto it = commits_.find(txn_id);
    if (it == commits_.end() || !it->second.staged) {
      return Status::FailedPrecondition("no staged commit '" + txn_id + "'");
    }
    auto bit = branches_.find(branch);
    if (bit == branches_.end()) {
      return Status::NotFound("no branch '" + branch + "'");
    }
    working_head = bit->second;
    auto wit = commits_.find(working_head);
    if (wit == commits_.end() || wit->second.committed) {
      return Status::FailedPrecondition(
          "branch '" + branch + "' has no open working head");
    }
    if (wit->second.parent != it->second.parent) {
      return Status::FailedPrecondition(
          "staged commit is not parented on the sealed head of '" + branch +
          "'");
    }
    // A dirty working head is itself a concurrent writer: any key it holds
    // (data or a flushed dataset meta) would shadow this publish for every
    // reader of the branch after the reparent below. Refuse rather than
    // silently hide the published commit; the caller commits or discards
    // the working changes first. Not kConflict — no retry can fix it.
    auto kit = key_sets_.find(working_head);
    if (kit != key_sets_.end() && !kit->second.empty()) {
      return Status::FailedPrecondition(
          "branch '" + branch + "' has uncommitted working-head changes; "
          "commit or discard them before publishing transactions");
    }
  }
  DL_RETURN_IF_ERROR(Seal(txn_id, message, known));
  {
    // Splice the branch's working head onto the published commit — the
    // same reparenting recovery performs when a publish crashes after its
    // commit point.
    MutexLock lock(mu_);
    commits_[working_head].parent = txn_id;
  }
  DL_RETURN_IF_ERROR(Flush());
  obs::MetricsRegistry::Global().GetGauge("version.txn.active")->Sub(1);
  TxnCounter("version.txn.published")->Increment();
  return txn_id;
}

Result<std::string> VersionControl::PublishTxn(const std::string& txn_id,
                                               const std::string& branch,
                                               const std::string& base,
                                               const std::string& owner,
                                               const std::string& message) {
  {
    MutexLock lock(mu_);
    auto it = commits_.find(txn_id);
    if (it == commits_.end() || !it->second.staged) {
      return Status::FailedPrecondition("no open transaction '" + txn_id +
                                        "'");
    }
  }
  // This transaction's footprint, computed before taking the publish lock:
  // the staging directory is private and no longer written to, so the diff
  // is stable, and the (potentially chunk-walking) comparison runs in
  // parallel with other writers' staging.
  Footprint mine;
  std::map<std::string, TensorDiff> txn_diffs;
  if (base.empty()) {
    mine.unknown = true;
  } else {
    DL_ASSIGN_OR_RETURN(txn_diffs, Diff(base, txn_id));
    mine = FootprintFromDiffs(txn_diffs);
  }

  MutexLock publish_lock(publish_mu_);
  std::string head;
  {
    auto h = SealedHead(branch);
    if (h.ok()) {
      head = *h;
    } else if (!h.status().IsNotFound()) {
      return h.status();
    }
  }

  if (head == base) {
    // Fast path: nobody landed since Begin — seal the staging commit as-is.
    // Its parent is the base, so the footprint diffs are its diff file.
    TxnCounter("version.txn.publish_fast_path")->Increment();
    KnownDiffs known{base, std::move(txn_diffs)};
    return SealStagedLocked(txn_id, branch, message, &known);
  }

  // Other transactions sealed after our base. Collect them (newest first)
  // and conflict-check their recorded footprints against ours.
  std::vector<std::string> newer;
  bool base_is_ancestor = base.empty();
  {
    MutexLock lock(mu_);
    std::string cur = head;
    while (!cur.empty()) {
      if (cur == base) {
        base_is_ancestor = true;
        break;
      }
      newer.push_back(cur);
      auto it = commits_.find(cur);
      if (it == commits_.end()) break;
      cur = it->second.parent;
    }
  }
  auto conflict = [&](const std::string& other,
                      const std::string& where) -> Status {
    TxnCounter("version.txn.conflicts")->Increment();
    return Status::Conflict("commit " + other.substr(0, 8) +
                            " landed first and overlaps " + where +
                            "; retry against the new head");
  };
  if (!base_is_ancestor) {
    // The branch history was rewritten under us (forced checkout or
    // similar); rebasing is impossible, only a full retry can help.
    return conflict(head, "(base is no longer an ancestor of the head)");
  }
  if (mine.unknown) {
    // First commit on the branch raced another first commit: conservative.
    return conflict(head, "(unknown extent)");
  }
  for (const auto& id : newer) {
    Footprint theirs;
    auto dj = ReadManifest(DiffKey(id));
    if (dj.ok()) {
      theirs = FootprintFromDiffJson(*dj);
    } else {
      theirs.unknown = true;
    }
    std::string where;
    if (FootprintsConflict(mine, theirs, &where)) {
      return conflict(id, where);
    }
  }

  // Disjoint: rebase. Replay the staged changes onto the new head in a
  // FRESH staging commit (never into the shared working head: a crash
  // mid-replay must leave only txn-marked debris), then seal that one.
  std::string rebase_base;
  DL_ASSIGN_OR_RETURN(
      std::string rebased_id,
      BeginStagedCommit(branch, owner.empty() ? "rebase" : owner,
                        &rebase_base));
  Status rs = [&]() -> Status {
    auto src_store = std::static_pointer_cast<storage::StorageProvider>(
        std::make_shared<VersionedStore>(shared_from_this(), txn_id,
                                         /*writable=*/false));
    auto tgt_store = std::static_pointer_cast<storage::StorageProvider>(
        std::make_shared<VersionedStore>(shared_from_this(), rebased_id,
                                         /*writable=*/true));
    auto src_open = tsf::Dataset::Open(src_store);
    if (src_open.status().IsNotFound()) return Status::OK();  // empty txn
    if (!src_open.ok()) return src_open.status();
    std::shared_ptr<tsf::Dataset> src = std::move(src_open).value();
    std::shared_ptr<tsf::Dataset> tgt;
    auto tgt_open = tsf::Dataset::Open(tgt_store);
    if (tgt_open.ok()) {
      tgt = std::move(tgt_open).value();
    } else if (tgt_open.status().IsNotFound()) {
      DL_ASSIGN_OR_RETURN(tgt, tsf::Dataset::Create(tgt_store));
    } else {
      return tgt_open.status();
    }
    // Tensors created by this transaction.
    DL_RETURN_IF_ERROR(CopyTensorSchema(*src, *tgt));
    // Rows this transaction appended. If it appended at all, its
    // `_sample_id` footprint overlapped any concurrent appender's, so
    // reaching this point means the intermediate commits appended nothing
    // — row index i < base length denotes the same row in both chains.
    uint64_t base_rows = src->NumRows();
    auto sid = txn_diffs.find(tsf::Dataset::kSampleIdTensor);
    if (sid != txn_diffs.end() && sid->second.length_b > sid->second.length_a) {
      base_rows = sid->second.length_a;
    }
    for (uint64_t i = base_rows; i < src->NumRows(); ++i) {
      DL_ASSIGN_OR_RETURN(auto row, src->ReadRow(i));
      DL_ASSIGN_OR_RETURN(uint64_t id, src->SampleIdAt(i));
      DL_RETURN_IF_ERROR(tgt->AppendWithId(row, id));
    }
    // Cells this transaction updated in place.
    for (const auto& [name, d] : txn_diffs) {
      if (name == tsf::Dataset::kSampleIdTensor) continue;
      if (d.modified_ranges.empty()) continue;
      DL_ASSIGN_OR_RETURN(tsf::Tensor * st, src->GetTensor(name));
      DL_ASSIGN_OR_RETURN(tsf::Tensor * tt, tgt->GetTensor(name));
      for (const auto& [lo, hi] : d.modified_ranges) {
        // Ranges are chunk-granular, so this is a dense whole-chunk
        // rewrite: replay in contiguous windows (one rebuild per target
        // chunk, bounded buffering) instead of per-sample Update, which
        // rewrites its whole chunk on every call.
        constexpr uint64_t kWindow = 4096;
        uint64_t end = std::min(hi + 1, base_rows);
        for (uint64_t wlo = lo; wlo < end; wlo += kWindow) {
          uint64_t wend = std::min(wlo + kWindow, end);
          std::vector<tsf::Sample> window;
          window.reserve(wend - wlo);
          for (uint64_t i = wlo; i < wend; ++i) {
            DL_ASSIGN_OR_RETURN(tsf::Sample sv, st->Read(i));
            window.push_back(std::move(sv));
          }
          DL_RETURN_IF_ERROR(tt->UpdateContiguous(wlo, window));
        }
      }
    }
    return tgt->Flush();
  }();
  if (!rs.ok()) {
    // Best-effort cleanup; recovery GCs the directory if this fails too.
    (void)AbortStagedCommit(rebased_id);
    return rs;
  }
  TxnCounter("version.txn.publish_rebased")->Increment();
  DL_ASSIGN_OR_RETURN(std::string landed,
                      SealStagedLocked(rebased_id, branch, message, nullptr));
  // The original staging directory is superseded debris now.
  DL_RETURN_IF_ERROR(AbortStagedCommit(txn_id));
  return landed;
}

// ---------------------------------------------------------------------------
// WriteTxn
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WriteTxn>> WriteTxn::Begin(
    std::shared_ptr<VersionControl> vc, TxnOptions opts) {
  if (!vc) return Status::InvalidArgument("null version control");
  auto txn = std::unique_ptr<WriteTxn>(new WriteTxn());
  txn->vc_ = vc;
  txn->owner_ = opts.owner.empty() ? "txn" : opts.owner;
  DL_ASSIGN_OR_RETURN(
      txn->id_, vc->BeginStagedCommit(opts.branch, txn->owner_, &txn->base_));
  DL_ASSIGN_OR_RETURN(CommitInfo info, vc->GetCommit(txn->id_));
  txn->branch_ = info.branch;
  return txn;
}

WriteTxn::~WriteTxn() {
  if (finished_ || !vc_) return;
  // Best-effort: an abandoned transaction is also cleaned up by recovery.
  (void)Abort();
}

Result<tsf::Dataset*> WriteTxn::dataset() {
  if (finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  if (!dataset_) {
    auto store = std::static_pointer_cast<storage::StorageProvider>(
        std::make_shared<VersionedStore>(vc_, id_, /*writable=*/true));
    auto open = tsf::Dataset::Open(store);
    if (open.ok()) {
      dataset_ = std::move(open).value();
    } else if (open.status().IsNotFound()) {
      DL_ASSIGN_OR_RETURN(dataset_, tsf::Dataset::Create(store));
    } else {
      return open.status();
    }
  }
  return dataset_.get();
}

Result<std::string> WriteTxn::Publish(const std::string& message) {
  if (finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  if (dataset_) DL_RETURN_IF_ERROR(dataset_->Flush());
  DL_ASSIGN_OR_RETURN(std::string landed,
                      vc_->PublishTxn(id_, branch_, base_, owner_, message));
  finished_ = true;
  dataset_.reset();
  return landed;
}

Status WriteTxn::Abort() {
  if (finished_) return Status::OK();
  dataset_.reset();
  DL_RETURN_IF_ERROR(vc_->AbortStagedCommit(id_));
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Retry loop
// ---------------------------------------------------------------------------

Result<std::string> CommitWithTxnRetries(
    std::shared_ptr<VersionControl> vc, const TxnOptions& topts,
    const std::function<Status(tsf::Dataset&)>& body,
    const std::string& message, const storage::RetryPolicy& policy) {
  auto* retries = TxnCounter("version.txn.retries");
  Rng rng(policy.seed != 0 ? policy.seed
                           : Mix64(static_cast<uint64_t>(NowMicros())));
  Status last = Status::Unknown("transaction never attempted");
  int attempts = std::max(1, policy.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries->Increment();
      SleepMicros(policy.BackoffMicros(attempt, rng.NextDouble()));
    }
    DL_ASSIGN_OR_RETURN(auto txn, WriteTxn::Begin(vc, topts));
    DL_ASSIGN_OR_RETURN(tsf::Dataset * ds, txn->dataset());
    Status bs = body(*ds);
    if (!bs.ok()) {
      // Body failure is not retryable here: the caller's closure decides
      // its own retry semantics. Best-effort cleanup, propagate.
      (void)txn->Abort();
      return bs;
    }
    auto landed = txn->Publish(message);
    if (landed.ok()) return landed;
    last = landed.status();
    DL_RETURN_IF_ERROR(txn->Abort());
    if (!last.IsConflict()) return last;
  }
  return last;
}

}  // namespace dl::version
