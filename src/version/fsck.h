#ifndef DEEPLAKE_VERSION_FSCK_H_
#define DEEPLAKE_VERSION_FSCK_H_

#include <string>
#include <vector>

#include "storage/storage.h"
#include "util/result.h"

namespace dl::version {

/// Offline integrity checker for an on-store dataset tree (DESIGN.md §9) —
/// the library behind the `dlfsck` CLI. Scan walks every object: chunks are
/// CRC-verified via Chunk::Parse, each tensor's encoders.bin via
/// TensorIndex::Deserialize (the reader's own decoder), enveloped manifests
/// via their envelope, legacy raw manifests must at least parse as JSON. Structural checks find
/// torn commit records, orphaned version directories, missing key sets and
/// temp-file debris from interrupted atomic renames.

enum class FsckIssueKind {
  /// Object failed its CRC / envelope / parse check.
  kCorruptObject,
  /// versions/<id>/commit.json exists but fails envelope verification —
  /// the crash landed mid-commit-point.
  kTornCommit,
  /// Version directory referenced by no commit in the info snapshot.
  kOrphanDir,
  /// Commit has no keyset.json (recoverable: it is derivable state).
  kMissingKeySet,
  /// version_control_info.json missing or unreadable.
  kBadInfo,
  /// Leftover atomic-write temp file (".dltmp." in the name).
  kTempDebris,
  /// Abandoned MVCC staging directory (DESIGN.md §12): carries a txn.json
  /// marker but no valid commit record — debris of a crashed or losing
  /// writer. Repair's recovery replay deletes the whole directory; nothing
  /// in it was ever reachable. Also used for a leftover marker on a
  /// *published* commit (record present), where repair deletes just the
  /// marker.
  kStaleTxn,
};

const char* FsckIssueKindName(FsckIssueKind kind);

struct FsckIssue {
  FsckIssueKind kind;
  std::string key;     // object or directory the issue is about
  std::string detail;  // human-readable explanation
};

struct FsckReport {
  std::vector<FsckIssue> issues;
  uint64_t objects_scanned = 0;
  uint64_t bytes_scanned = 0;
  /// Repair actions taken (empty on a pure scan), human-readable.
  std::vector<std::string> repairs;

  bool clean() const { return issues.empty(); }
  uint64_t CountOf(FsckIssueKind kind) const;
};

/// Read-only integrity scan. Never modifies the store.
Result<FsckReport> FsckScan(storage::StoragePtr store);

/// Repairs what a scan finds: deletes temp debris, corrupt manifests and
/// leftover txn markers, quarantines corrupt chunks under `lost+found/`,
/// then replays VersionControl's crash recovery (dropping torn commit
/// records, removing abandoned staging and orphan directories, rebuilding
/// key sets / info) and rescans. The returned report is the POST-repair
/// scan, with `repairs` listing every action.
Result<FsckReport> FsckRepair(storage::StoragePtr store);

}  // namespace dl::version

#endif  // DEEPLAKE_VERSION_FSCK_H_
