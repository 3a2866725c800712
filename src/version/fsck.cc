#include "version/fsck.h"

#include <algorithm>
#include <set>

#include "tsf/chunk.h"
#include "tsf/tensor.h"
#include "util/envelope.h"
#include "util/json.h"
#include "util/macros.h"
#include "util/string_util.h"
#include "version/layout.h"
#include "version/version_control.h"

namespace dl::version {

namespace {

bool IsChunkKey(std::string_view key) {
  return key.find("/chunks/") != std::string_view::npos;
}

std::string BaseName(std::string_view key) {
  size_t slash = key.rfind('/');
  return std::string(slash == std::string_view::npos
                         ? key
                         : key.substr(slash + 1));
}

/// JSON manifests that may be enveloped (post-§9) or legacy raw.
bool IsJsonManifest(const std::string& base) {
  return base == "keyset.json" || base == "diff.json" ||
         base == "commit.json" || base == "txn.json" ||
         base == "tensor_meta.json" || base == "dataset_meta.json" ||
         base == VersionControl::kInfoKey;
}

/// Verifies one manifest object: envelope (when the magic is present) and
/// JSON parse of the payload.
Status CheckManifestBytes(const Slice& bytes) {
  auto payload = EnvelopeUnwrapOrRaw(bytes);
  if (!payload.ok()) return payload.status();
  auto j = Json::Parse(payload->ToStringView());
  if (!j.ok()) {
    return Status::Corruption("manifest payload is not valid JSON: " +
                              j.status().message());
  }
  return Status::OK();
}

void AddIssue(FsckReport* report, FsckIssueKind kind, std::string key,
              std::string detail) {
  report->issues.push_back(
      FsckIssue{kind, std::move(key), std::move(detail)});
}

/// Copies `key` under lost+found/ and removes the original.
Status Quarantine(storage::StorageProvider& store, const std::string& key,
                  std::vector<std::string>* repairs) {
  auto bytes = store.Get(key);
  if (bytes.ok()) {
    DL_RETURN_IF_ERROR(
        store.Put(PathJoin("lost+found", key), ByteView(*bytes)));
  }
  DL_RETURN_IF_ERROR(store.Delete(key));
  repairs->push_back("quarantined '" + key + "' under lost+found/");
  return Status::OK();
}

}  // namespace

const char* FsckIssueKindName(FsckIssueKind kind) {
  switch (kind) {
    case FsckIssueKind::kCorruptObject:
      return "corrupt-object";
    case FsckIssueKind::kTornCommit:
      return "torn-commit";
    case FsckIssueKind::kOrphanDir:
      return "orphan-dir";
    case FsckIssueKind::kMissingKeySet:
      return "missing-keyset";
    case FsckIssueKind::kBadInfo:
      return "bad-info";
    case FsckIssueKind::kTempDebris:
      return "temp-debris";
    case FsckIssueKind::kStaleTxn:
      return "stale-txn";
  }
  return "unknown";
}

uint64_t FsckReport::CountOf(FsckIssueKind kind) const {
  return static_cast<uint64_t>(
      std::count_if(issues.begin(), issues.end(),
                    [kind](const FsckIssue& i) { return i.kind == kind; }));
}

Result<FsckReport> FsckScan(storage::StoragePtr store) {
  FsckReport report;
  // The quarantine area is outside the scan: already known-bad objects.
  DL_ASSIGN_OR_RETURN(auto all_keys, store->ListPrefix(""));
  std::vector<std::string> keys;
  for (auto& k : all_keys) {
    if (!StartsWith(k, "lost+found/")) keys.push_back(std::move(k));
  }
  if (keys.empty()) return report;  // nothing stored, nothing to check

  // Info snapshot first: structural checks need the commit map.
  std::set<std::string> known_commits;
  std::set<std::string> committed;
  bool info_ok = false;
  {
    auto bytes = store->Get(VersionControl::kInfoKey);
    if (!bytes.ok()) {
      AddIssue(&report, FsckIssueKind::kBadInfo, VersionControl::kInfoKey,
               "unreadable: " + bytes.status().ToString());
    } else {
      auto payload = EnvelopeUnwrapOrRaw(*bytes);
      Result<Json> j = !payload.ok()
                           ? Result<Json>(payload.status())
                           : Json::Parse(payload->ToStringView());
      if (!j.ok()) {
        AddIssue(&report, FsckIssueKind::kBadInfo, VersionControl::kInfoKey,
                 "failed verification: " + j.status().ToString());
      } else {
        info_ok = true;
        for (const auto& [id, c] : j->Get("commits").object()) {
          known_commits.insert(id);
          if (c.Get("committed").as_bool(false)) committed.insert(id);
        }
      }
    }
  }

  // Version directories, read exactly as crash recovery reads them.
  DL_ASSIGN_OR_RETURN(auto dirs, ReadVersionDirs(*store));

  // Object pass: CRC-verify everything that carries a checksum.
  std::set<std::string> dirs_with_keyset;
  for (const auto& key : keys) {
    if (IsTempDebris(key)) {
      AddIssue(&report, FsckIssueKind::kTempDebris, key,
               "leftover atomic-write temp file");
      continue;
    }
    auto bytes = store->Get(key);
    if (!bytes.ok()) {
      AddIssue(&report, FsckIssueKind::kCorruptObject, key,
               "unreadable: " + bytes.status().ToString());
      continue;
    }
    report.objects_scanned++;
    report.bytes_scanned += bytes->size();

    std::string dir_id = VersionDirIdOf(key);
    if (key == VersionControl::kInfoKey) continue;  // checked above
    if (IsChunkKey(key)) {
      auto chunk = tsf::Chunk::Parse(*bytes, /*verify_checksum=*/true);
      if (!chunk.ok()) {
        AddIssue(&report, FsckIssueKind::kCorruptObject, key,
                 "chunk failed verification: " + chunk.status().ToString());
      }
      continue;
    }
    // A txn marker's *presence* classifies its directory (DESIGN.md §12);
    // whether its bytes verify is irrelevant. The commit record was read
    // with its directory.
    if (!dir_id.empty() && key == TxnMarkerKey(dir_id)) continue;
    if (!dir_id.empty() && key == CommitRecordKey(dir_id)) {
      if (dirs[dir_id].record == RecordState::kTorn) {
        AddIssue(&report, FsckIssueKind::kTornCommit, key,
                 "commit record failed verification (crash at the commit "
                 "point)");
      }
      continue;
    }
    if (IsJsonManifest(BaseName(key))) {
      Status s = CheckManifestBytes(*bytes);
      if (!s.ok()) {
        AddIssue(&report, FsckIssueKind::kCorruptObject, key,
                 "manifest failed verification: " + s.ToString());
      } else if (!dir_id.empty() && key == KeySetKey(dir_id)) {
        dirs_with_keyset.insert(dir_id);
      }
    }
    Status index = BaseName(key) == tsf::TensorIndex::kFileName
                       ? tsf::TensorIndex::Deserialize(*bytes).status()
                       : Status::OK();
    if (!index.ok()) {
      AddIssue(&report, FsckIssueKind::kCorruptObject, key,
               "tensor index failed verification: " + index.ToString());
    }
  }

  // MVCC staging debris (DESIGN.md §12): a txn marker without a valid
  // commit record means the transaction never published, so the directory
  // was never reachable — classifiable as debris whether or not the info
  // snapshot is readable. A marker alongside a valid record is the
  // opposite: a published commit whose marker delete was lost; only the
  // marker itself is debris there.
  std::set<std::string> stale_txn_dirs;
  for (const auto& [id, dir] : dirs) {
    if (!dir.has_marker) continue;
    if (dir.record == RecordState::kValid) {
      AddIssue(&report, FsckIssueKind::kStaleTxn, TxnMarkerKey(id),
               "leftover transaction marker on a published commit");
    } else {
      stale_txn_dirs.insert(id);
    }
  }
  if (!stale_txn_dirs.empty()) {
    // Objects inside a stale staging directory may be arbitrarily torn
    // (the writer died mid-write); recovery deletes them wholesale, so
    // per-object issues there are noise — fold them into one issue.
    std::vector<FsckIssue> kept;
    for (auto& issue : report.issues) {
      if (stale_txn_dirs.count(VersionDirIdOf(issue.key)) > 0) continue;
      kept.push_back(std::move(issue));
    }
    report.issues = std::move(kept);
    for (const auto& id : stale_txn_dirs) {
      AddIssue(&report, FsckIssueKind::kStaleTxn, VersionDir(id),
               "abandoned staged transaction (crashed or losing writer); "
               "repair deletes the directory");
    }
  }

  // Structural pass.
  if (info_ok) {
    for (const auto& [id, dir] : dirs) {
      if (known_commits.count(id) == 0 && !dir.has_marker) {
        AddIssue(&report, FsckIssueKind::kOrphanDir, VersionDir(id),
                 "version directory referenced by no commit");
      }
    }
    for (const auto& id : known_commits) {
      if (dirs_with_keyset.count(id) == 0 && dirs.count(id) > 0) {
        AddIssue(&report, FsckIssueKind::kMissingKeySet, KeySetKey(id),
                 "commit has objects but no key set (derivable; repair "
                 "rebuilds it)");
      }
    }
    for (const auto& id : committed) {
      auto dir = dirs.find(id);
      if (dir == dirs.end() || dir->second.record == RecordState::kAbsent) {
        AddIssue(&report, FsckIssueKind::kTornCommit, CommitRecordKey(id),
                 "committed per info snapshot but its commit record is "
                 "missing");
      }
    }
  }
  return report;
}

Result<FsckReport> FsckRepair(storage::StoragePtr store) {
  DL_ASSIGN_OR_RETURN(FsckReport scan, FsckScan(store));
  std::vector<std::string> repairs;

  for (const FsckIssue& issue : scan.issues) {
    switch (issue.kind) {
      case FsckIssueKind::kTempDebris:
        DL_RETURN_IF_ERROR(store->Delete(issue.key));
        repairs.push_back("deleted temp debris '" + issue.key + "'");
        break;
      case FsckIssueKind::kCorruptObject:
        if (IsChunkKey(issue.key)) {
          DL_RETURN_IF_ERROR(Quarantine(*store, issue.key, &repairs));
        } else {
          // Corrupt manifest: drop it; recovery rebuilds key sets and
          // rewrites diffs, and readers must not parse torn JSON.
          DL_RETURN_IF_ERROR(store->Delete(issue.key));
          repairs.push_back("deleted corrupt manifest '" + issue.key + "'");
        }
        break;
      case FsckIssueKind::kBadInfo: {
        auto exists = store->Exists(issue.key);
        if (exists.ok() && *exists) {
          DL_RETURN_IF_ERROR(store->Delete(issue.key));
          repairs.push_back(
              "deleted unreadable info snapshot (rebuilt from records)");
        }
        break;
      }
      case FsckIssueKind::kStaleTxn:
        // Marker on a published commit: only the marker is debris, and
        // recovery leaves it alone. An abandoned staging directory is
        // deleted by the recovery replay below.
        if (BaseName(issue.key) == "txn.json") {
          DL_RETURN_IF_ERROR(store->Delete(issue.key));
          repairs.push_back("deleted leftover txn marker '" + issue.key +
                            "'");
        }
        break;
      case FsckIssueKind::kTornCommit:
      case FsckIssueKind::kOrphanDir:
      case FsckIssueKind::kMissingKeySet:
        // Handled by the recovery replay below.
        break;
    }
  }

  // Replay crash recovery: drops torn commit records and rolls their
  // commits back, rolls recorded ones forward, rebuilds key sets and the
  // info snapshot, removes abandoned staging and orphan directories, and
  // reopens a working head.
  {
    auto vc = VersionControl::OpenOrInit(store);
    if (!vc.ok()) return vc.status();
    const RecoveryReport& rec = (*vc)->last_recovery();
    if (rec.commits_rolled_back) {
      repairs.push_back("recovery rolled back " +
                        std::to_string(rec.commits_rolled_back) +
                        " incomplete commit(s)");
    }
    if (rec.commits_rolled_forward) {
      repairs.push_back("recovery rolled forward " +
                        std::to_string(rec.commits_rolled_forward) +
                        " committed-but-unabsorbed commit(s)");
    }
    if (rec.keysets_rebuilt) {
      repairs.push_back("recovery rebuilt " +
                        std::to_string(rec.keysets_rebuilt) + " key set(s)");
    }
    if (rec.orphan_dirs_removed) {
      repairs.push_back("recovery removed " +
                        std::to_string(rec.orphan_dirs_removed) +
                        " orphan version dir(s)");
    }
    if (rec.stale_txns_removed) {
      repairs.push_back("recovery removed " +
                        std::to_string(rec.stale_txns_removed) +
                        " abandoned staged transaction(s)");
    }
    if (rec.info_rebuilt) {
      repairs.push_back("recovery rebuilt the info snapshot from records");
    }
  }

  // Recovery quarantines (leaves in place) directories it cannot place
  // after an info rebuild; fsck moves them out so the tree scans clean.
  DL_ASSIGN_OR_RETURN(FsckReport post, FsckScan(store));
  for (const FsckIssue& issue : post.issues) {
    if (issue.kind != FsckIssueKind::kOrphanDir) continue;
    DL_ASSIGN_OR_RETURN(auto keys, store->ListPrefix(issue.key + "/"));
    for (const auto& k : keys) {
      DL_RETURN_IF_ERROR(Quarantine(*store, k, &repairs));
    }
  }

  DL_ASSIGN_OR_RETURN(FsckReport final_report, FsckScan(store));
  final_report.repairs = std::move(repairs);
  return final_report;
}

}  // namespace dl::version
