#ifndef DEEPLAKE_VERSION_LAYOUT_H_
#define DEEPLAKE_VERSION_LAYOUT_H_

#include <map>
#include <string>
#include <string_view>

#include "storage/storage.h"
#include "util/string_util.h"
#include "version/version_control.h"

namespace dl::version {

/// On-store layout of the version tree (paper §4.2), shared between
/// VersionControl and the fsck library so the two never disagree about
/// where manifests live or what a version directory's state is:
///
///   version_control_info.json          tree snapshot (branches, commits)
///   versions/<id>/keyset.json          keys written while <id> was head
///   versions/<id>/diff.json            diff vs parent (written at seal)
///   versions/<id>/commit.json          commit record — its presence IS the
///                                      commit point (DESIGN.md §9)
///   versions/<id>/txn.json             staged-transaction marker: <id> is a
///                                      private MVCC staging commit, deleted
///                                      just before its commit record lands
///                                      (DESIGN.md §12)
///   versions/<id>/<key...>             the commit's data objects

inline constexpr char kVersionsPrefix[] = "versions/";

inline std::string VersionDir(const std::string& commit_id) {
  return PathJoin("versions", commit_id);
}
inline std::string KeySetKey(const std::string& commit_id) {
  return PathJoin(VersionDir(commit_id), "keyset.json");
}
inline std::string DiffKey(const std::string& commit_id) {
  return PathJoin(VersionDir(commit_id), "diff.json");
}
inline std::string CommitRecordKey(const std::string& commit_id) {
  return PathJoin(VersionDir(commit_id), "commit.json");
}
inline std::string TxnMarkerKey(const std::string& commit_id) {
  return PathJoin(VersionDir(commit_id), "txn.json");
}

/// True for the version-dir-relative names that are bookkeeping manifests
/// rather than data objects — excluded when a key set is rebuilt from a
/// directory listing.
inline bool IsVersionManifestName(std::string_view rel_key) {
  return rel_key == "keyset.json" || rel_key == "diff.json" ||
         rel_key == "commit.json" || rel_key == "txn.json";
}

/// Temp-file debris from an interrupted atomic rename (PosixStore); never
/// part of a key set or worth preserving.
inline bool IsTempDebris(std::string_view key) {
  return key.find(".dltmp.") != std::string_view::npos;
}

/// Extracts the commit id from a full key "versions/<id>/..."; empty when
/// the key is not inside a version directory.
inline std::string VersionDirIdOf(std::string_view full_key) {
  if (!StartsWith(full_key, kVersionsPrefix)) return "";
  std::string_view rest = full_key.substr(sizeof(kVersionsPrefix) - 1);
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos || slash == 0) return "";
  return std::string(rest.substr(0, slash));
}

/// State of a directory's commit record, the commit point (DESIGN.md §9).
enum class RecordState {
  kAbsent,  // never written, or dropped by recovery
  kValid,   // verifies and parses: the commit landed
  kTorn,    // present but fails verification: the crash hit the commit point
};

/// One version directory as the commit protocol sees it.
struct VersionDirState {
  RecordState record = RecordState::kAbsent;
  CommitInfo info;          // the record's content when kValid
  bool has_marker = false;  // txn.json present: an MVCC staging directory
  bool debris_only = true;  // every object in it is temp debris
};

/// Lists versions/ once and reads every directory's commit record — the
/// one reading of the version directories that crash recovery and dlfsck
/// share. Never writes; fails only on I/O errors.
Result<std::map<std::string, VersionDirState>> ReadVersionDirs(
    storage::StorageProvider& store);

/// Deletes every object under versions/<id>/.
Status DeleteVersionDir(storage::StorageProvider& store,
                        const std::string& commit_id);

}  // namespace dl::version

#endif  // DEEPLAKE_VERSION_LAYOUT_H_
