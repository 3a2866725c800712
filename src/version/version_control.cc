#include "version/version_control.h"

#include <algorithm>

#include "util/clock.h"
#include "util/envelope.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "version/layout.h"

namespace dl::version {

// ---------------------------------------------------------------------------
// VersionedStore
// ---------------------------------------------------------------------------

VersionedStore::VersionedStore(std::shared_ptr<VersionControl> vc,
                               std::string commit_id, bool writable)
    : vc_(std::move(vc)), commit_id_(std::move(commit_id)),
      writable_(writable) {}

std::string VersionedStore::PhysicalKey(const std::string& commit,
                                        std::string_view key) const {
  return PathJoin(VersionDir(commit), key);
}

std::string VersionedStore::Resolve(std::string_view key) const {
  MutexLock lock(vc_->mu_);
  std::string k(key);
  // Walk the commit chain from this view toward the root; the first commit
  // whose key set contains the key wins (paper §4.2 traversal).
  std::string cur = commit_id_;
  while (!cur.empty()) {
    auto ks = vc_->key_sets_.find(cur);
    if (ks != vc_->key_sets_.end() && ks->second.count(k) > 0) return cur;
    auto ci = vc_->commits_.find(cur);
    if (ci == vc_->commits_.end()) break;
    cur = ci->second.parent;
  }
  return "";
}

Result<Slice> VersionedStore::Get(std::string_view key) {
  std::string commit = Resolve(key);
  if (commit.empty()) {
    return Status::NotFound("versioned: no object '" + std::string(key) +
                            "' in chain of " + commit_id_);
  }
  return vc_->base_->Get(PhysicalKey(commit, key));
}

Result<Slice> VersionedStore::GetRange(std::string_view key,
                                            uint64_t offset,
                                            uint64_t length) {
  std::string commit = Resolve(key);
  if (commit.empty()) {
    return Status::NotFound("versioned: no object '" + std::string(key) +
                            "'");
  }
  return vc_->base_->GetRange(PhysicalKey(commit, key), offset, length);
}

Status VersionedStore::Put(std::string_view key, ByteView value) {
  if (!writable_) {
    return Status::FailedPrecondition(
        "versioned store at sealed commit is read-only");
  }
  // dllint-ok(unjournaled-manifest-write): data-path write into the
  // working commit's own directory; the journaled protocol applies to
  // manifests, not data objects (which stay invisible until the commit
  // record lands).
  DL_RETURN_IF_ERROR(vc_->base_->Put(PhysicalKey(commit_id_, key), value));
  MutexLock lock(vc_->mu_);
  vc_->key_sets_[commit_id_].insert(std::string(key));
  return Status::OK();
}

Status VersionedStore::PutDurable(std::string_view key, ByteView value) {
  if (!writable_) {
    return Status::FailedPrecondition(
        "versioned store at sealed commit is read-only");
  }
  // dllint-ok(unjournaled-manifest-write): data-path write (see Put);
  // durable variant for callers that need it.
  DL_RETURN_IF_ERROR(
      vc_->base_->PutDurable(PhysicalKey(commit_id_, key), value));
  MutexLock lock(vc_->mu_);
  vc_->key_sets_[commit_id_].insert(std::string(key));
  return Status::OK();
}

bool VersionedStore::atomic_durable_puts() const {
  return vc_->base_->atomic_durable_puts();
}

void VersionedStore::Invalidate(std::string_view key) {
  std::string commit = Resolve(key);
  if (commit.empty()) return;
  vc_->base_->Invalidate(PhysicalKey(commit, key));
}

Status VersionedStore::Delete(std::string_view key) {
  if (!writable_) {
    return Status::FailedPrecondition(
        "versioned store at sealed commit is read-only");
  }
  // Only keys written in the working commit can be deleted; history is
  // immutable by design.
  {
    MutexLock lock(vc_->mu_);
    auto& ks = vc_->key_sets_[commit_id_];
    auto it = ks.find(std::string(key));
    if (it == ks.end()) return Status::OK();
    ks.erase(it);
  }
  // Storage I/O happens outside vc_->mu_: the key is already unlinked from
  // the commit's key set, so concurrent readers miss it regardless of when
  // the backend delete lands.
  return vc_->base_->Delete(PhysicalKey(commit_id_, key));
}

Result<bool> VersionedStore::Exists(std::string_view key) {
  return !Resolve(key).empty();
}

Result<uint64_t> VersionedStore::SizeOf(std::string_view key) {
  std::string commit = Resolve(key);
  if (commit.empty()) {
    return Status::NotFound("versioned: no object '" + std::string(key) +
                            "'");
  }
  return vc_->base_->SizeOf(PhysicalKey(commit, key));
}

Result<std::vector<std::string>> VersionedStore::ListPrefix(
    std::string_view prefix) {
  std::set<std::string> keys;
  MutexLock lock(vc_->mu_);
  std::string cur = commit_id_;
  while (!cur.empty()) {
    auto ks = vc_->key_sets_.find(cur);
    if (ks != vc_->key_sets_.end()) {
      for (const auto& k : ks->second) {
        if (StartsWith(k, prefix)) keys.insert(k);
      }
    }
    auto ci = vc_->commits_.find(cur);
    if (ci == vc_->commits_.end()) break;
    cur = ci->second.parent;
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

// ---------------------------------------------------------------------------
// VersionControl
// ---------------------------------------------------------------------------

Result<std::shared_ptr<VersionControl>> VersionControl::OpenOrInit(
    storage::StoragePtr base) {
  auto vc = std::shared_ptr<VersionControl>(new VersionControl(base));
  DL_ASSIGN_OR_RETURN(bool exists, base->Exists(kInfoKey));
  if (!exists) {
    // The info snapshot may have been lost while commit records survive
    // (e.g. a crash plus manual cleanup): any version directory means this
    // is an existing tree that must go through recovery, not a fresh init
    // that would shadow the old data.
    DL_ASSIGN_OR_RETURN(auto version_keys,
                        base->ListPrefix(kVersionsPrefix));
    exists = !version_keys.empty();
  }
  if (exists) {
    DL_RETURN_IF_ERROR(vc->Open());
    return vc;
  }
  // Fresh tree: main branch with an empty working commit.
  {
    MutexLock lock(vc->mu_);
    vc->OpenWorkingHead("", kDefaultBranch);
  }
  DL_RETURN_IF_ERROR(vc->Flush());
  return vc;
}

std::string VersionControl::NewCommitId() {
  uint64_t entropy =
      Mix64(static_cast<uint64_t>(NowMicros()) ^ (++id_counter_ << 40));
  return Hex64(entropy);
}

void VersionControl::OpenWorkingHead(std::string parent, std::string branch) {
  CommitInfo head;
  head.id = NewCommitId();
  head.parent = std::move(parent);
  head.branch = branch;
  head.timestamp_us = NowMicros();
  key_sets_[head.id] = {};
  branches_[branch] = head.id;
  current_branch_ = std::move(branch);
  current_commit_ = head.id;
  commits_[head.id] = std::move(head);
}

storage::StoragePtr VersionControl::working_store() {
  std::string commit;
  bool writable;
  {
    MutexLock lock(mu_);
    commit = current_commit_;
    writable = !current_branch_.empty();
  }
  return std::make_shared<VersionedStore>(shared_from_this(),
                                          std::move(commit), writable);
}

Result<storage::StoragePtr> VersionControl::StoreAt(
    const std::string& commit_id) {
  {
    MutexLock lock(mu_);
    if (commits_.count(commit_id) == 0) {
      return Status::NotFound("no commit '" + commit_id + "'");
    }
  }
  return std::static_pointer_cast<storage::StorageProvider>(
      std::make_shared<VersionedStore>(shared_from_this(), commit_id,
                                       /*writable=*/false));
}

Result<std::string> VersionControl::Commit(const std::string& message) {
  return CommitWith(message, nullptr);
}

Result<std::string> VersionControl::Commit(const std::string& message,
                                           const KnownDiffs& diffs) {
  return CommitWith(message, &diffs);
}

Result<std::string> VersionControl::CommitWith(const std::string& message,
                                               const KnownDiffs* known) {
  // Sealing the working head and publishing a staged transaction both
  // advance the branch head; publish_mu_ serializes them so a concurrent
  // WriteTxn::Publish cannot reparent the head mid-seal (DESIGN.md §12).
  MutexLock publish_lock(publish_mu_);
  std::string sealed_id;
  {
    MutexLock lock(mu_);
    if (current_branch_.empty()) {
      return Status::FailedPrecondition(
          "cannot commit in detached state; checkout a branch first");
    }
    sealed_id = current_commit_;
  }
  DL_RETURN_IF_ERROR(Seal(sealed_id, message, known));
  {
    MutexLock lock(mu_);
    OpenWorkingHead(sealed_id, current_branch_);
  }
  DL_RETURN_IF_ERROR(Flush());
  return sealed_id;
}

Status VersionControl::CheckoutBranch(const std::string& branch,
                                      bool create) {
  bool dirty = false;
  {
    MutexLock lock(mu_);
    auto it = branches_.find(branch);
    if (it != branches_.end() && create) {
      return Status::AlreadyExists("branch '" + branch + "' exists");
    }
    if (it == branches_.end() && !create) {
      return Status::NotFound("no branch '" + branch + "'");
    }
    if (!create) {
      current_branch_ = branch;
      current_commit_ = it->second;
    } else {
      dirty = !current_branch_.empty() &&
              !key_sets_[current_commit_].empty() &&
              !commits_[current_commit_].committed;
    }
  }
  if (!create) return Flush();
  // Creating a branch from a working commit with writes would let two
  // branches share a mutable directory; seal it first (auto-commit, the
  // behaviour of checkout -b on a dirty working set).
  if (dirty) {
    DL_RETURN_IF_ERROR(Commit("auto commit before branching").status());
  }
  {
    MutexLock lock(mu_);
    // An empty, uncommitted working head forks from its parent so the two
    // branches do not share the mutable directory.
    const CommitInfo& fork = commits_[current_commit_];
    OpenWorkingHead(
        fork.committed || fork.parent.empty() ? current_commit_ : fork.parent,
        branch);
  }
  return PersistInfo();
}

Status VersionControl::CheckoutCommit(const std::string& commit_id) {
  MutexLock lock(mu_);
  auto it = commits_.find(commit_id);
  if (it == commits_.end()) {
    return Status::NotFound("no commit '" + commit_id + "'");
  }
  if (!it->second.committed) {
    return Status::FailedPrecondition(
        "cannot detach onto an unsealed working commit; use its branch");
  }
  current_branch_.clear();
  current_commit_ = commit_id;
  return Status::OK();
}

std::vector<std::string> VersionControl::Branches() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [b, head] : branches_) names.push_back(b);
  return names;
}

Result<CommitInfo> VersionControl::GetCommit(const std::string& id) const {
  MutexLock lock(mu_);
  auto it = commits_.find(id);
  if (it == commits_.end()) {
    return Status::NotFound("no commit '" + id + "'");
  }
  return it->second;
}

std::vector<std::string> VersionControl::Chain(
    const std::string& commit_id) const {
  std::vector<std::string> chain;
  std::string cur = commit_id;
  while (!cur.empty()) {
    chain.push_back(cur);
    auto it = commits_.find(cur);
    if (it == commits_.end()) break;
    cur = it->second.parent;
  }
  return chain;
}

std::vector<CommitInfo> VersionControl::Log() const {
  MutexLock lock(mu_);
  std::vector<CommitInfo> log;
  for (const std::string& id : Chain(current_commit_)) {
    auto it = commits_.find(id);
    if (it != commits_.end()) log.push_back(it->second);
  }
  return log;
}

Result<std::vector<std::string>> VersionControl::ChunkSetOf(
    const std::string& commit_id, const std::string& tensor) {
  MutexLock lock(mu_);
  auto it = key_sets_.find(commit_id);
  if (it == key_sets_.end()) {
    return Status::NotFound("no key set for commit '" + commit_id + "'");
  }
  std::string prefix = PathJoin("tensors", tensor, "chunks") + "/";
  std::vector<std::string> chunks;
  for (const auto& k : it->second) {
    if (StartsWith(k, prefix)) chunks.push_back(k.substr(prefix.size()));
  }
  return chunks;
}

Status VersionControl::Flush() {
  DL_RETURN_IF_ERROR(PersistKeySet(current_commit_));
  return PersistInfo();
}

Result<std::string> VersionControl::SealedHead(const std::string& branch) {
  MutexLock lock(mu_);
  std::string b = branch.empty() ? current_branch_ : branch;
  if (b.empty()) {
    // Detached: the pinned commit itself is the sealed snapshot.
    return current_commit_;
  }
  auto it = branches_.find(b);
  if (it == branches_.end()) {
    return Status::NotFound("no branch '" + b + "'");
  }
  auto head = commits_.find(it->second);
  if (head == commits_.end() || head->second.parent.empty()) {
    return Status::NotFound("branch '" + b + "' has no sealed commit yet");
  }
  return head->second.parent;
}

// ---------------------------------------------------------------------------
// Manifest I/O — every bookkeeping JSON goes through the checksummed,
// durable envelope path (DESIGN.md §9).
// ---------------------------------------------------------------------------

Status VersionControl::PutManifest(const std::string& key, const Json& j) {
  std::string text = j.Dump(2);
  ByteBuffer framed = EnvelopeWrap(ByteView(text));
  // dllint-ok(unjournaled-manifest-write): the one sanctioned direct
  // manifest write — durable and atomic, so a crash can never expose a
  // torn manifest under this key.
  return base_->PutDurable(key, ByteView(framed));
}

Result<Json> VersionControl::ReadManifest(const std::string& key) {
  DL_ASSIGN_OR_RETURN(Slice payload, storage::GetVerified(*base_, key));
  return Json::Parse(payload.ToStringView());
}

Status VersionControl::PersistInfo() {
  Json j = Json::MakeObject();
  Json branches = Json::MakeObject();
  Json commits = Json::MakeObject();
  {
    MutexLock lock(mu_);
    for (const auto& [b, head] : branches_) branches.Set(b, head);
    for (const auto& [id, info] : commits_) {
      // Staged transaction commits are private to their writer until they
      // publish; the snapshot never references them, so a crashed writer's
      // staging directory is provably debris (GC'd via its txn marker).
      if (info.staged) continue;
      Json c = Json::MakeObject();
      c.Set("parent", info.parent);
      c.Set("branch", info.branch);
      c.Set("message", info.message);
      c.Set("committed", info.committed);
      c.Set("timestamp_us", info.timestamp_us);
      commits.Set(id, std::move(c));
    }
    j.Set("current_branch", current_branch_);
    j.Set("current_commit", current_commit_);
  }
  j.Set("branches", std::move(branches));
  j.Set("commits", std::move(commits));
  return PutManifest(kInfoKey, j);
}

Status VersionControl::LoadInfo() {
  DL_ASSIGN_OR_RETURN(Json j, ReadManifest(kInfoKey));
  MutexLock lock(mu_);
  branches_.clear();
  commits_.clear();
  for (const auto& [b, head] : j.Get("branches").object()) {
    branches_[b] = head.as_string();
  }
  for (const auto& [id, c] : j.Get("commits").object()) {
    CommitInfo info;
    info.id = id;
    info.parent = c.Get("parent").as_string();
    info.branch = c.Get("branch").as_string();
    info.message = c.Get("message").as_string();
    info.committed = c.Get("committed").as_bool(false);
    info.timestamp_us = c.Get("timestamp_us").as_int(0);
    commits_[id] = info;
  }
  current_branch_ = j.Get("current_branch").as_string();
  current_commit_ = j.Get("current_commit").as_string();
  return Status::OK();
}

Status VersionControl::PersistKeySet(const std::string& commit_id) {
  Json j = Json::MakeObject();
  Json arr = Json::MakeArray();
  {
    MutexLock lock(mu_);
    for (const auto& k : key_sets_[commit_id]) arr.Append(k);
  }
  j.Set("keys", std::move(arr));
  return PutManifest(KeySetKey(commit_id), j);
}

Status VersionControl::LoadKeySet(const std::string& commit_id) {
  DL_ASSIGN_OR_RETURN(Json j, ReadManifest(KeySetKey(commit_id)));
  std::set<std::string> keys;
  const Json& arr = j.Get("keys");
  for (size_t i = 0; i < arr.size(); ++i) keys.insert(arr[i].as_string());
  MutexLock lock(mu_);
  key_sets_[commit_id] = std::move(keys);
  return Status::OK();
}

Status VersionControl::RebuildKeySet(const std::string& commit_id) {
  // The key set is derivable state: every key a commit owns lives under
  // its directory, so a missing or torn keyset.json never loses data.
  std::string dir = VersionDir(commit_id) + "/";
  DL_ASSIGN_OR_RETURN(auto keys, base_->ListPrefix(dir));
  std::set<std::string> rebuilt;
  for (const auto& k : keys) {
    std::string rel = k.substr(dir.size());
    if (IsVersionManifestName(rel) || IsTempDebris(rel)) continue;
    rebuilt.insert(std::move(rel));
  }
  {
    MutexLock lock(mu_);
    key_sets_[commit_id] = std::move(rebuilt);
  }
  return PersistKeySet(commit_id);
}

Status VersionControl::LoadOrRebuildKeySet(const std::string& commit_id) {
  Status s = LoadKeySet(commit_id);
  if (s.ok()) return s;
  if (!s.IsNotFound() && !s.IsCorruption() && !s.IsInvalidArgument()) {
    return s;
  }
  if (!s.IsNotFound()) recovery_.corrupt_manifests++;
  DL_RETURN_IF_ERROR(RebuildKeySet(commit_id));
  bool non_empty;
  {
    MutexLock lock(mu_);
    non_empty = !key_sets_[commit_id].empty();
  }
  if (!s.IsNotFound() || non_empty) recovery_.keysets_rebuilt++;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Commit records & crash recovery (DESIGN.md §9)
// ---------------------------------------------------------------------------

Status VersionControl::WriteCommitRecord(const std::string& commit_id) {
  Json j = Json::MakeObject();
  {
    MutexLock lock(mu_);
    const CommitInfo& info = commits_[commit_id];
    j.Set("id", info.id);
    j.Set("parent", info.parent);
    j.Set("branch", info.branch);
    j.Set("message", info.message);
    j.Set("timestamp_us", info.timestamp_us);
  }
  return PutManifest(CommitRecordKey(commit_id), j);
}

Status VersionControl::Seal(const std::string& id,
                            const std::string& message,
                            const KnownDiffs* known) {
  CommitInfo before;
  {
    MutexLock lock(mu_);
    CommitInfo& info = commits_[id];
    before = info;
    info.committed = true;
    info.staged = false;
    info.message = message;
    info.timestamp_us = NowMicros();
  }
  // Journaled seal (DESIGN.md §9.3, §12.2): stage every version-dir
  // manifest first, then write the commit record — its presence is the
  // single commit point. A staged commit's txn marker goes right before
  // the record, so up to the last write its directory is GC-able debris.
  // A crash before the record leaves the old state; a crash after it is
  // rolled forward by recovery. Nothing in between is observable.
  Status s = [&]() -> Status {
    DL_RETURN_IF_ERROR(PersistKeySet(id));
    DL_RETURN_IF_ERROR(WriteDiffFile(id, known));
    if (before.staged) DL_RETURN_IF_ERROR(RemoveTxnMarker(id));
    return WriteCommitRecord(id);
  }();
  if (!s.ok()) {
    // The record may or may not have landed; recovery arbitrates on the
    // next open. In memory the commit stays what it was.
    MutexLock lock(mu_);
    commits_[id] = std::move(before);
  }
  return s;
}

Result<std::map<std::string, VersionDirState>> ReadVersionDirs(
    storage::StorageProvider& store) {
  DL_ASSIGN_OR_RETURN(auto keys, store.ListPrefix(kVersionsPrefix));
  std::map<std::string, VersionDirState> dirs;
  for (const auto& k : keys) {
    std::string id = VersionDirIdOf(k);
    if (id.empty()) continue;
    VersionDirState& dir = dirs[id];
    if (k == TxnMarkerKey(id)) dir.has_marker = true;
    if (!IsTempDebris(k)) dir.debris_only = false;
  }
  for (auto& [id, dir] : dirs) {
    auto payload = storage::GetVerified(store, CommitRecordKey(id));
    Result<Json> j = payload.ok() ? Json::Parse(payload->ToStringView())
                                  : Result<Json>(payload.status());
    if (j.ok()) {
      dir.record = RecordState::kValid;
      dir.info.id = id;
      dir.info.parent = j->Get("parent").as_string();
      dir.info.branch = j->Get("branch").as_string();
      dir.info.message = j->Get("message").as_string();
      dir.info.committed = true;
      dir.info.timestamp_us = j->Get("timestamp_us").as_int(0);
    } else if (j.status().IsCorruption() || j.status().IsInvalidArgument()) {
      dir.record = RecordState::kTorn;
    } else if (!j.status().IsNotFound()) {
      return j.status();
    }
  }
  return dirs;
}

Status DeleteVersionDir(storage::StorageProvider& store,
                        const std::string& commit_id) {
  DL_ASSIGN_OR_RETURN(auto keys, store.ListPrefix(VersionDir(commit_id) + "/"));
  for (const auto& k : keys) DL_RETURN_IF_ERROR(store.Delete(k));
  return Status::OK();
}

Status VersionControl::Open() {
  Status s = LoadInfo();
  if (!s.ok()) {
    // A readable-but-wrong info file is unrecoverable garbage we refuse to
    // guess about; a torn/missing/unparsable one is rebuilt from the
    // per-commit records, which carry everything the snapshot holds.
    if (!s.IsCorruption() && !s.IsNotFound() && !s.IsInvalidArgument()) {
      return s;
    }
    if (s.IsCorruption()) recovery_.corrupt_manifests++;
    DL_RETURN_IF_ERROR(RebuildInfoFromRecords());
  }
  std::vector<std::string> ids;
  {
    MutexLock lock(mu_);
    for (const auto& [id, info] : commits_) ids.push_back(id);
  }
  for (const auto& id : ids) DL_RETURN_IF_ERROR(LoadOrRebuildKeySet(id));
  DL_RETURN_IF_ERROR(Recover());
  if (recovery_.any()) DL_RETURN_IF_ERROR(Flush());
  return Status::OK();
}

Status VersionControl::RebuildInfoFromRecords() {
  recovery_.info_rebuilt = true;
  DL_ASSIGN_OR_RETURN(auto dirs, ReadVersionDirs(*base_));
  std::map<std::string, CommitInfo> commits;
  std::vector<std::string> recordless;
  for (const auto& [id, dir] : dirs) {
    if (dir.record == RecordState::kValid) {
      commits[id] = dir.info;
    } else if (!dir.has_marker && !dir.debris_only) {
      // Recover() drops a torn record. A txn.json marker proves the
      // directory is MVCC staging debris, never a legacy working head:
      // leave it out of the adoption candidates so Recover() GCs it.
      recordless.push_back(id);
    }
  }

  // Branch heads: per branch, the committed record no other record on the
  // same branch names as parent (ties broken by timestamp).
  std::map<std::string, std::string> branches;
  for (const auto& [id, info] : commits) {
    std::string branch =
        info.branch.empty() ? std::string(kDefaultBranch) : info.branch;
    bool has_child = false;
    for (const auto& [id2, info2] : commits) {
      if (info2.parent == id && info2.branch == info.branch) {
        has_child = true;
        break;
      }
    }
    if (!has_child) {
      auto it = branches.find(branch);
      if (it == branches.end() ||
          commits[it->second].timestamp_us < info.timestamp_us) {
        branches[branch] = id;
      }
    }
  }

  MutexLock lock(mu_);
  commits_ = std::move(commits);
  branches_ = std::move(branches);
  current_branch_ = branches_.count(kDefaultBranch) > 0
                        ? std::string(kDefaultBranch)
                        : (branches_.empty() ? std::string(kDefaultBranch)
                                             : branches_.begin()->first);
  auto hit = branches_.find(current_branch_);
  current_commit_ = hit == branches_.end() ? "" : hit->second;
  if (recordless.size() == 1) {
    // Exactly one recordless directory: the crashed tree's working head.
    // Adopt it onto the current branch so its staged writes stay reachable.
    const std::string& id = recordless.front();
    CommitInfo info;
    info.id = id;
    info.parent = current_commit_;
    info.branch = current_branch_;
    info.timestamp_us = NowMicros();
    commits_[id] = info;
    branches_[current_branch_] = id;
    current_commit_ = id;
  }
  // Zero or ambiguous: the branch head stays current; Recover() opens a
  // fresh working child and quarantines the unplaceable directories.
  return Status::OK();
}

Status VersionControl::Recover() {
  DL_ASSIGN_OR_RETURN(auto dirs, ReadVersionDirs(*base_));
  std::map<std::string, bool> known;  // id -> committed, per the snapshot
  {
    MutexLock lock(mu_);
    for (const auto& [id, info] : commits_) known[id] = info.committed;
  }

  // A torn record means the commit point was never reached: drop it and
  // roll the commit back — unless the snapshot had already absorbed the
  // commit, which makes the record the damaged copy (rewritten below).
  for (auto& [id, dir] : dirs) {
    if (dir.record != RecordState::kTorn) continue;
    recovery_.corrupt_manifests++;
    DL_RETURN_IF_ERROR(base_->Delete(CommitRecordKey(id)));
    dir.record = RecordState::kAbsent;
    auto k = known.find(id);
    if (k == known.end() || !k->second) recovery_.commits_rolled_back++;
  }

  // Reconcile every known commit with its record, the commit point: a
  // valid record wins over a stale snapshot (roll forward); a commit the
  // snapshot calls committed but that has no record (a legacy tree, or the
  // torn copy dropped above) gets its record restored from the snapshot.
  // Uncommitted with no record is a normal working head.
  for (const auto& [id, committed] : known) {
    auto d = dirs.find(id);
    if (d == dirs.end() || d->second.record != RecordState::kValid) {
      if (committed) DL_RETURN_IF_ERROR(WriteCommitRecord(id));
      continue;
    }
    if (committed) continue;
    const CommitInfo& rec = d->second.info;
    MutexLock lock(mu_);
    CommitInfo& info = commits_[id];
    info.committed = true;
    info.message = rec.message;
    info.timestamp_us = rec.timestamp_us;
    if (info.branch.empty()) info.branch = rec.branch;
    recovery_.commits_rolled_forward++;
  }

  // Directories the snapshot has never seen.
  for (const auto& [id, dir] : dirs) {
    if (known.count(id) > 0) continue;
    if (dir.record == RecordState::kValid) {
      // A published transaction that crashed after its commit point and
      // before the info flush (DESIGN.md §12). The record is the commit
      // point, so adopt the commit and splice the branch's unsealed working
      // head onto it — exactly what the publish would have done.
      {
        MutexLock lock(mu_);
        const CommitInfo& info = dir.info;
        std::string branch =
            info.branch.empty() ? std::string(kDefaultBranch) : info.branch;
        commits_[id] = info;
        auto bit = branches_.find(branch);
        if (bit != branches_.end()) {
          auto wit = commits_.find(bit->second);
          if (wit != commits_.end() && !wit->second.committed &&
              wit->second.parent == info.parent) {
            wit->second.parent = id;
          }
        } else {
          branches_[branch] = id;
        }
      }
      recovery_.commits_rolled_forward++;
      // The keyset lands before the record in the journal order; load it
      // so the adopted commit's objects resolve through the chain.
      DL_RETURN_IF_ERROR(LoadOrRebuildKeySet(id));
    } else if (dir.has_marker) {
      // The staging directory of a crashed or losing writer: a txn.json
      // marker proves it was never a working head, so it is GC-able even
      // after an info rebuild.
      DL_RETURN_IF_ERROR(DeleteVersionDir(*base_, id));
      recovery_.stale_txns_removed++;
    } else if (recovery_.info_rebuilt) {
      // Unplaceable after an info rebuild: "unreferenced" cannot be proven,
      // so leave it in place (dlfsck reports it).
      recovery_.dirs_quarantined++;
    } else {
      // The half-created next head of a crashed Commit: provably
      // unreachable under a cleanly loaded snapshot.
      DL_RETURN_IF_ERROR(DeleteVersionDir(*base_, id));
      recovery_.orphan_dirs_removed++;
    }
  }

  // The tree must end on an uncommitted working head. After a roll-forward
  // the old head is sealed; open a fresh child exactly as Commit() would
  // have.
  MutexLock lock(mu_);
  if (current_commit_.empty() || commits_.count(current_commit_) == 0) {
    if (current_branch_.empty()) current_branch_ = kDefaultBranch;
    auto it = branches_.find(current_branch_);
    bool has_head = it != branches_.end() && commits_.count(it->second) > 0;
    current_commit_ = has_head ? it->second : "";
  }
  if (current_commit_.empty() ||
      (!current_branch_.empty() && commits_[current_commit_].committed)) {
    OpenWorkingHead(current_commit_, current_branch_);  // parent may be empty
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

namespace {

/// Tensor names listed in dataset_meta.json at a given versioned view.
Result<std::vector<std::string>> TensorNamesAt(storage::StoragePtr store) {
  auto bytes = storage::GetVerified(*store, tsf::Dataset::kMetaKey);
  if (bytes.status().IsNotFound()) {
    return std::vector<std::string>{};  // no dataset yet
  }
  if (!bytes.ok()) return bytes.status();
  DL_ASSIGN_OR_RETURN(Json j, Json::Parse(bytes->ToStringView()));
  std::vector<std::string> names;
  const Json& arr = j.Get("tensors");
  for (size_t i = 0; i < arr.size(); ++i) names.push_back(arr[i].as_string());
  return names;
}

}  // namespace

std::vector<std::pair<uint64_t, uint64_t>> ModifiedRangesBetween(
    const tsf::ChunkEncoder& a, const tsf::ChunkEncoder& b) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  uint64_t overlap = std::min(a.num_samples(), b.num_samples());
  if (overlap == 0) return ranges;
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  size_t ia = 0, ib = 0;
  uint64_t pos = 0;
  while (pos < overlap) {
    while (ea[ia].last_index < pos) ++ia;
    while (eb[ib].last_index < pos) ++ib;
    uint64_t end = std::min({ea[ia].last_index, eb[ib].last_index,
                             overlap - 1});
    if (ea[ia].chunk_id != eb[ib].chunk_id) {
      if (!ranges.empty() && ranges.back().second + 1 == pos) {
        ranges.back().second = end;
      } else {
        ranges.push_back({pos, end});
      }
    }
    pos = end + 1;
  }
  return ranges;
}

std::optional<TensorDiff> DiffTensor(const tsf::ChunkEncoder* a,
                                     const tsf::ChunkEncoder* b) {
  TensorDiff d;
  if (a != nullptr) d.length_a = a->num_samples();
  if (b != nullptr) d.length_b = b->num_samples();
  if (a != nullptr && b != nullptr) {
    d.modified_ranges = ModifiedRangesBetween(*a, *b);
  }
  if (d.length_a == d.length_b && d.modified_ranges.empty() &&
      (a == nullptr) == (b == nullptr)) {
    return std::nullopt;
  }
  return d;
}

Result<std::map<std::string, TensorDiff>> VersionControl::Diff(
    const std::string& commit_a, const std::string& commit_b) {
  DL_ASSIGN_OR_RETURN(storage::StoragePtr store_a, StoreAt(commit_a));
  DL_ASSIGN_OR_RETURN(storage::StoragePtr store_b, StoreAt(commit_b));
  DL_ASSIGN_OR_RETURN(auto names_a, TensorNamesAt(store_a));
  DL_ASSIGN_OR_RETURN(auto names_b, TensorNamesAt(store_b));
  std::set<std::string> all(names_a.begin(), names_a.end());
  all.insert(names_b.begin(), names_b.end());

  std::map<std::string, TensorDiff> diffs;
  for (const auto& name : all) {
    auto ta = tsf::Tensor::Open(store_a, name);
    auto tb = tsf::Tensor::Open(store_b, name);
    std::optional<TensorDiff> d =
        DiffTensor(ta.ok() ? &(*ta)->chunk_encoder() : nullptr,
                   tb.ok() ? &(*tb)->chunk_encoder() : nullptr);
    if (d) diffs[name] = std::move(*d);
  }
  return diffs;
}

Status VersionControl::WriteDiffFile(const std::string& commit_id,
                                     const KnownDiffs* known) {
  std::string parent;
  {
    MutexLock lock(mu_);
    parent = commits_[commit_id].parent;
  }
  Json j = Json::MakeObject();
  j.Set("commit", commit_id);
  j.Set("parent", parent);
  Json tensors = Json::MakeObject();
  if (!parent.empty()) {
    bool use_known = known != nullptr && known->parent == parent;
    std::map<std::string, TensorDiff> read;
    if (!use_known) {
      DL_ASSIGN_OR_RETURN(read, Diff(parent, commit_id));
    }
    for (const auto& [name, d] : use_known ? known->tensors : read) {
      Json t = Json::MakeObject();
      t.Set("length_before", d.length_a);
      t.Set("length_after", d.length_b);
      Json ranges = Json::MakeArray();
      for (const auto& [lo, hi] : d.modified_ranges) {
        Json r = Json::MakeArray();
        r.Append(lo);
        r.Append(hi);
        ranges.Append(std::move(r));
      }
      t.Set("modified_ranges", std::move(ranges));
      tensors.Set(name, std::move(t));
    }
  }
  j.Set("tensors", std::move(tensors));
  return PutManifest(DiffKey(commit_id), j);
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

Status VersionControl::CopyTensorSchema(tsf::Dataset& src,
                                        tsf::Dataset& dst) {
  for (const auto& name : src.TensorNames()) {
    if (dst.HasTensor(name)) continue;
    DL_ASSIGN_OR_RETURN(tsf::Tensor * st, src.GetTensor(name));
    const tsf::TensorMeta& meta = st->meta();
    tsf::TensorOptions opts;
    opts.htype = meta.htype.ToString();
    opts.dtype = std::string(tsf::DTypeName(meta.dtype));
    opts.sample_compression =
        std::string(compress::CompressionName(meta.sample_compression));
    opts.chunk_compression =
        std::string(compress::CompressionName(meta.chunk_compression));
    opts.max_chunk_bytes = meta.max_chunk_bytes;
    DL_RETURN_IF_ERROR(dst.CreateTensor(name, opts).status());
  }
  return Status::OK();
}

Result<MergeStats> VersionControl::Merge(const std::string& source_branch,
                                         MergePolicy policy) {
  std::string source_head;
  {
    MutexLock lock(mu_);
    if (current_branch_.empty()) {
      return Status::FailedPrecondition("cannot merge in detached state");
    }
    if (source_branch == current_branch_) {
      return Status::InvalidArgument("cannot merge a branch into itself");
    }
    auto it = branches_.find(source_branch);
    if (it == branches_.end()) {
      return Status::NotFound("no branch '" + source_branch + "'");
    }
    source_head = it->second;
  }
  DL_ASSIGN_OR_RETURN(storage::StoragePtr src_store, StoreAt(source_head));
  DL_ASSIGN_OR_RETURN(auto src, tsf::Dataset::Open(src_store));
  DL_ASSIGN_OR_RETURN(auto tgt, tsf::Dataset::Open(working_store()));

  // Create tensors that only exist on the source branch.
  DL_RETURN_IF_ERROR(CopyTensorSchema(*src, *tgt));

  // Index target rows by sample id.
  MergeStats stats;
  std::map<uint64_t, uint64_t> tgt_ids;
  for (uint64_t i = 0; i < tgt->NumRows(); ++i) {
    DL_ASSIGN_OR_RETURN(uint64_t id, tgt->SampleIdAt(i));
    if (id != 0) tgt_ids[id] = i;
  }
  for (uint64_t i = 0; i < src->NumRows(); ++i) {
    DL_ASSIGN_OR_RETURN(uint64_t id, src->SampleIdAt(i));
    auto it = tgt_ids.find(id);
    if (id == 0 || it == tgt_ids.end()) {
      // New row on the source branch: append, preserving the sample id.
      DL_ASSIGN_OR_RETURN(auto row, src->ReadRow(i));
      DL_RETURN_IF_ERROR(tgt->AppendWithId(row, id));
      stats.rows_appended++;
      continue;
    }
    // Row exists on both sides: cell-level conflict detection.
    uint64_t ti = it->second;
    for (const auto& name : src->TensorNames()) {
      DL_ASSIGN_OR_RETURN(tsf::Tensor * st, src->GetTensor(name));
      DL_ASSIGN_OR_RETURN(tsf::Tensor * tt, tgt->GetTensor(name));
      if (i >= st->NumSamples()) continue;
      DL_ASSIGN_OR_RETURN(tsf::Sample sv, st->Read(i));
      tsf::Sample tv;
      if (ti < tt->NumSamples()) {
        DL_ASSIGN_OR_RETURN(tv, tt->Read(ti));
      }
      if (sv == tv) continue;
      stats.conflicts++;
      switch (policy) {
        case MergePolicy::kOurs:
          break;  // keep target cell
        case MergePolicy::kTheirs:
          DL_RETURN_IF_ERROR(tt->Update(ti, sv));
          stats.cells_overwritten++;
          break;
        case MergePolicy::kError:
          return Status::Aborted("merge conflict in tensor '" + name +
                                 "' row " + std::to_string(ti));
      }
    }
  }
  DL_RETURN_IF_ERROR(tgt->Flush());
  DL_RETURN_IF_ERROR(Flush());
  return stats;
}

}  // namespace dl::version
