#ifndef DEEPLAKE_VERSION_VERSION_CONTROL_H_
#define DEEPLAKE_VERSION_VERSION_CONTROL_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "storage/storage.h"
#include "tsf/dataset.h"
#include "util/json.h"
#include "util/thread_annotations.h"

namespace dl::version {

/// One node of the branching version tree (paper §4.2, Fig. 4).
struct CommitInfo {
  std::string id;
  std::string parent;   // empty for the root
  std::string branch;
  std::string message;  // empty while the commit is the working head
  bool committed = false;
  /// Private MVCC staging commit of an open WriteTxn (DESIGN.md §12):
  /// excluded from the persisted info snapshot; its directory carries a
  /// txn.json marker so recovery and fsck can classify abandoned ones.
  bool staged = false;
  int64_t timestamp_us = 0;
};

/// Per-tensor difference between two versions, the content of the paper's
/// "commit diff file ... stored per tensor".
struct TensorDiff {
  uint64_t length_a = 0;
  uint64_t length_b = 0;
  /// Index ranges [first, last] whose chunks differ between the versions.
  std::vector<std::pair<uint64_t, uint64_t>> modified_ranges;

  uint64_t samples_added() const {
    return length_b > length_a ? length_b - length_a : 0;
  }
};

/// The one diff rule: index ranges [first, last], over the rows both
/// encoders hold, whose chunks differ.
std::vector<std::pair<uint64_t, uint64_t>> ModifiedRangesBetween(
    const tsf::ChunkEncoder& a, const tsf::ChunkEncoder& b);

/// One tensor's diff between two versions, from its chunk encoder in each
/// (null where the tensor does not exist); nullopt when the versions hold
/// it unchanged. VersionControl::Diff uses it on encoders read from the
/// store, DeepLake::Commit on the encoders of its open tensors.
std::optional<TensorDiff> DiffTensor(const tsf::ChunkEncoder* a,
                                     const tsf::ChunkEncoder* b);

/// A working head's per-tensor diffs against `parent`, computed by a
/// caller from state it holds, so that sealing the head reads nothing
/// back. They must equal what Diff(parent, head) would return.
struct KnownDiffs {
  std::string parent;
  std::map<std::string, TensorDiff> tensors;
};

/// Conflict policy for Merge (paper §4.2: "resolving conflicts according to
/// the policy defined by the user").
enum class MergePolicy {
  kOurs,    // keep the target branch's cell
  kTheirs,  // take the source branch's cell
  kError,   // fail on the first conflict
};

struct MergeStats {
  uint64_t rows_appended = 0;
  uint64_t conflicts = 0;
  uint64_t cells_overwritten = 0;
};

/// What crash recovery did while opening a version tree (DESIGN.md §9).
/// All-zero on a clean open.
struct RecoveryReport {
  /// Commits whose record was torn/absent at the commit point: the record
  /// was discarded and the commit remains the (uncommitted) working head.
  uint64_t commits_rolled_back = 0;
  /// Commits with a valid record the info snapshot had not yet absorbed:
  /// marked committed and a fresh working head opened after them.
  uint64_t commits_rolled_forward = 0;
  /// Key sets reconstructed from a version-directory listing because the
  /// keyset.json was missing or failed CRC verification.
  uint64_t keysets_rebuilt = 0;
  /// Version directories referenced by no commit (debris of a crashed
  /// commit's half-created next head): their objects were deleted.
  uint64_t orphan_dirs_removed = 0;
  /// Recordless version directories left in place because the info snapshot
  /// itself had to be rebuilt, so "unreferenced" could not be proven.
  uint64_t dirs_quarantined = 0;
  /// Manifest objects that failed CRC verification and were dropped or
  /// rewritten from surviving state.
  uint64_t corrupt_manifests = 0;
  /// version_control_info.json was unreadable and was rebuilt from the
  /// per-commit records.
  bool info_rebuilt = false;
  /// Abandoned MVCC staging directories (txn.json marker, no commit
  /// record): debris of crashed or losing writers, garbage-collected.
  uint64_t stale_txns_removed = 0;

  bool any() const {
    return commits_rolled_back || commits_rolled_forward || keysets_rebuilt ||
           orphan_dirs_removed || dirs_quarantined || corrupt_manifests ||
           info_rebuilt || stale_txns_removed;
  }
};

/// Git-like version control built *into* the storage layout, no external
/// dependency (paper §4.2). Each commit owns a sub-directory
/// `versions/<id>/` holding only the objects written while it was the
/// working head, plus a key-set manifest (the generalized chunk_set).
/// Reading a key walks the commit chain from the current commit toward the
/// root and serves the first hit — exactly the traversal the paper
/// describes.
class VersionControl
    : public std::enable_shared_from_this<VersionControl> {
 public:
  static constexpr char kInfoKey[] = "version_control_info.json";
  static constexpr char kDefaultBranch[] = "main";

  /// Opens existing version-control state or initializes a fresh tree with
  /// a `main` branch and an empty working commit.
  static Result<std::shared_ptr<VersionControl>> OpenOrInit(
      storage::StoragePtr base);

  // ---- Position ----

  /// Position accessors are unlocked by design: checkout/commit are
  /// control-plane operations driven by one thread; concurrent readers of
  /// the position while it moves would get a torn answer anyway. Call them
  /// only from the thread that performs checkouts.
  const std::string& current_branch() const DL_NO_THREAD_SAFETY_ANALYSIS {
    return current_branch_;
  }
  const std::string& current_commit() const DL_NO_THREAD_SAFETY_ANALYSIS {
    return current_commit_;
  }
  bool detached() const DL_NO_THREAD_SAFETY_ANALYSIS {
    return current_branch_.empty();
  }

  /// Writable store for the current working commit. Datasets opened over
  /// this store transparently read through the version chain.
  storage::StoragePtr working_store();

  /// Read-only store view pinned at any commit (time travel).
  Result<storage::StoragePtr> StoreAt(const std::string& commit_id);

  // ---- Commands (paper §4.2: Commit / Checkout / Diff / Merge) ----

  /// Seals the working commit with `message`, writes its diff-vs-parent
  /// file, and opens a fresh working commit on the same branch. Returns the
  /// sealed commit id.
  Result<std::string> Commit(const std::string& message);

  /// Commit for a caller that knows the working head's diffs: when
  /// `diffs.parent` is still the head's parent as the seal runs, they are
  /// written as its diff file and the commit reads nothing; otherwise (a
  /// published transaction reparented the head) the seal computes them
  /// with Diff. The sealed commit's parent tells the caller which.
  Result<std::string> Commit(const std::string& message,
                             const KnownDiffs& diffs);

  /// Checks out a branch; with `create`, forks a new branch at the current
  /// commit (its working commit starts empty).
  Status CheckoutBranch(const std::string& branch, bool create = false);

  /// Detached checkout of a sealed commit (read-only time travel).
  Status CheckoutCommit(const std::string& commit_id);

  /// Per-tensor diff between two commits (either may be a working head).
  Result<std::map<std::string, TensorDiff>> Diff(const std::string& commit_a,
                                                 const std::string& commit_b);

  /// Merges `source_branch`'s head into the current working commit. Rows
  /// are matched by the hidden `_sample_id` tensor (paper §4.2: ids "keep
  /// track of the same samples during merge operations").
  Result<MergeStats> Merge(const std::string& source_branch,
                           MergePolicy policy);

  // ---- Introspection ----

  std::vector<std::string> Branches() const;
  Result<CommitInfo> GetCommit(const std::string& id) const;
  /// Commit chain from the current commit to the root (newest first).
  std::vector<CommitInfo> Log() const;
  /// Chunk names of `tensor` written in `commit_id` — the paper's per-
  /// tensor chunk_set.
  Result<std::vector<std::string>> ChunkSetOf(const std::string& commit_id,
                                              const std::string& tensor);

  /// Persists version_control_info.json and the working commit's key set.
  Status Flush();

  /// What recovery did during OpenOrInit; all-zero after a clean open.
  const RecoveryReport& last_recovery() const { return recovery_; }

  // ---- MVCC (DESIGN.md §12) ----

  /// Last *sealed* commit of `branch` (empty argument = current branch):
  /// the parent of the branch's working head. This is the snapshot a
  /// concurrent reader pins and the base a WriteTxn stages against.
  /// NotFound when the branch has no sealed commit yet.
  Result<std::string> SealedHead(const std::string& branch = "");

 private:
  friend class VersionedStore;
  friend class WriteTxn;

  explicit VersionControl(storage::StoragePtr base)
      : base_(std::move(base)) {}

  std::string NewCommitId();
  /// Opens a fresh, empty working head on `branch` after `parent` (empty
  /// for a root) and checks it out. In memory only; callers persist.
  void OpenWorkingHead(std::string parent, std::string branch)
      DL_REQUIRES(mu_);
  /// Loads existing state and runs crash recovery (DESIGN.md §9).
  Status Open() DL_EXCLUDES(mu_);
  Status LoadInfo() DL_EXCLUDES(mu_);
  Status PersistInfo() DL_EXCLUDES(mu_);
  Status LoadKeySet(const std::string& commit_id) DL_EXCLUDES(mu_);
  Status PersistKeySet(const std::string& commit_id) DL_EXCLUDES(mu_);
  /// Commit chain (ids) from `commit_id` to the root.
  std::vector<std::string> Chain(const std::string& commit_id) const
      DL_REQUIRES(mu_);
  /// Writes versions/<id>/diff.json from `known` when it is against the
  /// commit's parent, else from Diff(parent, id).
  Status WriteDiffFile(const std::string& commit_id, const KnownDiffs* known)
      DL_EXCLUDES(mu_);
  /// Both Commit overloads; `known` may be null.
  Result<std::string> CommitWith(const std::string& message,
                                 const KnownDiffs* known)
      DL_EXCLUDES(mu_, publish_mu_);
  /// Creates in `dst` every tensor of `src` that `dst` lacks, with the same
  /// htype, dtype, compressions and chunk bound (Merge and rebase replay).
  static Status CopyTensorSchema(tsf::Dataset& src, tsf::Dataset& dst);

  // ---- Journaled commit protocol (DESIGN.md §9) ----

  /// Durable, enveloped manifest write — the only way version control
  /// writes bookkeeping JSON.
  Status PutManifest(const std::string& key, const Json& j);
  /// Reads + CRC-verifies + parses an enveloped manifest.
  Result<Json> ReadManifest(const std::string& key);
  /// Writes versions/<id>/commit.json — the single commit point.
  Status WriteCommitRecord(const std::string& commit_id) DL_EXCLUDES(mu_);
  /// The journaled seal of commit `id`, working head or staged: marks it
  /// committed with `message`, then writes keyset → diff → (staged only:
  /// delete txn.json) → commit record. The diff comes from `known` when it
  /// applies (see WriteDiffFile). On failure the in-memory CommitInfo is
  /// restored, so a failed seal never looks committed.
  Status Seal(const std::string& id, const std::string& message,
              const KnownDiffs* known) DL_REQUIRES(publish_mu_)
      DL_EXCLUDES(mu_);
  /// Reconstructs a commit's key set from its directory listing (minus
  /// manifests); used when keyset.json is missing or corrupt.
  Status RebuildKeySet(const std::string& commit_id) DL_EXCLUDES(mu_);
  /// Loads a commit's key set, rebuilding it when missing or corrupt.
  Status LoadOrRebuildKeySet(const std::string& commit_id) DL_EXCLUDES(mu_);
  /// Reconstructs branches/commits from per-commit records after the info
  /// snapshot was lost or torn.
  Status RebuildInfoFromRecords() DL_EXCLUDES(mu_);
  /// Post-load recovery pass: roll incomplete commits back, absorbed-but-
  /// unrecorded ones forward, delete orphan dirs, reopen a working head.
  Status Recover() DL_EXCLUDES(mu_);

  // ---- Optimistic concurrent commits (DESIGN.md §12, defined in mvcc.cc).
  // WriteTxn is the public face; these run the protocol.

  /// Creates a staged commit whose parent is `branch`'s sealed head and
  /// writes its txn.json marker. Returns the staging commit id.
  Result<std::string> BeginStagedCommit(const std::string& branch,
                                        const std::string& owner,
                                        std::string* base_out)
      DL_EXCLUDES(mu_);
  /// Publishes a staged commit: conflict-checks its footprint against
  /// every commit sealed after `base`, then either seals it directly
  /// (fast path, head unchanged) or replays it onto a fresh staging
  /// commit at the new head (rebase path). Returns the landed commit id
  /// or Status::Conflict.
  Result<std::string> PublishTxn(const std::string& txn_id,
                                 const std::string& branch,
                                 const std::string& base,
                                 const std::string& owner,
                                 const std::string& message)
      DL_EXCLUDES(mu_, publish_mu_);
  /// Drops a staged commit: erases it from the in-memory maps and deletes
  /// its directory (marker included). Idempotent.
  Status AbortStagedCommit(const std::string& txn_id) DL_EXCLUDES(mu_);
  /// Fast-path publish under publish_mu_: seals the staged commit (whose
  /// parent must be the branch's sealed head), then reparents the
  /// branch's unsealed working head onto it. `known` is passed to Seal.
  Result<std::string> SealStagedLocked(const std::string& txn_id,
                                       const std::string& branch,
                                       const std::string& message,
                                       const KnownDiffs* known)
      DL_REQUIRES(publish_mu_) DL_EXCLUDES(mu_);
  /// Deletes versions/<id>/txn.json (seal does this just before the commit
  /// record lands).
  Status RemoveTxnMarker(const std::string& commit_id);

  storage::StoragePtr base_;
  // Serializes the publish critical section of concurrent WriteTxns
  // (DESIGN.md §12): the head check, conflict detection, rebase replay and
  // the commit-record write happen under it, so exactly one transaction
  // lands at a time while data staging stays fully parallel. Ordered
  // strictly BEFORE mu_ (lock_hierarchy.txt: version.vc.publish_mu ->
  // version.vc.mu); never taken by readers.
  mutable Mutex publish_mu_{"version.vc.publish_mu"};
  // Lock order (DESIGN.md §8): mu_ is held across base_ store calls in a
  // few paths (LoadInfo's key-set loop, VersionedStore::Delete), so
  // version.vc.mu orders strictly BEFORE every storage lock. Never call
  // into VersionControl while holding a storage-layer mutex.
  mutable Mutex mu_{"version.vc.mu"};
  std::map<std::string, CommitInfo> commits_ DL_GUARDED_BY(mu_);
  // branch -> head commit id
  std::map<std::string, std::string> branches_ DL_GUARDED_BY(mu_);
  // commit id -> keys written in that commit (the generalized chunk_set).
  std::map<std::string, std::set<std::string>> key_sets_ DL_GUARDED_BY(mu_);
  std::string current_branch_ DL_GUARDED_BY(mu_);
  std::string current_commit_ DL_GUARDED_BY(mu_);
  std::atomic<uint64_t> id_counter_{0};
  // Written once during Open() before the object is shared; read-only after.
  RecoveryReport recovery_;
};

/// StorageProvider that routes reads through the version chain and writes
/// into the current working commit's sub-directory.
class VersionedStore : public storage::StorageProvider {
 public:
  VersionedStore(std::shared_ptr<VersionControl> vc, std::string commit_id,
                 bool writable);

  Result<Slice> Get(std::string_view key) override;
  Result<Slice> GetRange(std::string_view key, uint64_t offset,
                              uint64_t length) override;
  Status Put(std::string_view key, ByteView value) override;
  Status PutDurable(std::string_view key, ByteView value) override;
  bool atomic_durable_puts() const override;
  void Invalidate(std::string_view key) override;
  Status Delete(std::string_view key) override;
  Result<bool> Exists(std::string_view key) override;
  Result<uint64_t> SizeOf(std::string_view key) override;
  Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override;
  std::string name() const override {
    return "versioned@" + commit_id_.substr(0, 8);
  }

 private:
  /// Finds which commit in the chain holds `key`; empty if none.
  std::string Resolve(std::string_view key) const;
  std::string PhysicalKey(const std::string& commit,
                          std::string_view key) const;

  std::shared_ptr<VersionControl> vc_;
  std::string commit_id_;
  bool writable_;
};

}  // namespace dl::version

#endif  // DEEPLAKE_VERSION_VERSION_CONTROL_H_
