#ifndef DEEPLAKE_VERSION_MVCC_H_
#define DEEPLAKE_VERSION_MVCC_H_

#include <functional>
#include <memory>
#include <string>

#include "storage/storage.h"
#include "tsf/dataset.h"
#include "version/version_control.h"

namespace dl::version {

/// Options for WriteTxn::Begin.
struct TxnOptions {
  /// Human-readable owner tag recorded in the txn marker (debugging and
  /// dlfsck reports); defaults to "txn".
  std::string owner = {};
  /// Target branch; empty means the version tree's current branch.
  std::string branch = {};
};

/// Default backoff for CommitWithTxnRetries. Conflicts are retryable by
/// definition (Status::IsRetryable): every retry re-runs the body against
/// the new head, so a bounded exponential backoff with jitter converges
/// quickly even under heavy writer contention. The jitter de-synchronizes
/// writers that conflicted on the same head.
inline constexpr storage::RetryPolicy kTxnRetryPolicy = {
    .max_attempts = 8,
    .initial_backoff_us = 500,
    .max_backoff_us = 64000,
    .multiplier = 2.0,
    .jitter = 0.25,
    .seed = 0,
};

/// An optimistic write transaction over the commit graph (DESIGN.md §12).
///
/// Begin() snapshots the branch's sealed head as the *base* and opens a
/// private staging commit parented on it; everything written through
/// dataset() lands in that commit's own `versions/<txn id>/` directory and
/// is invisible to every reader and every other writer. Publish() runs the
/// optimistic-concurrency protocol: if the branch head is still the base
/// the staging commit seals directly (fast path); if other transactions
/// landed first, their footprints are checked against this one's — an
/// overlap returns Status::Conflict (retryable), disjoint changes are
/// replayed onto the new head and land (rebase path).
///
/// Concurrency: staging is fully parallel across transactions; only the
/// publish critical section serializes (VersionControl::publish_mu_).
/// Crash safety: the staging directory carries a txn.json marker until the
/// commit record lands, so a transaction that dies at ANY point is either
/// fully published (record present) or pure debris that recovery and
/// `dlfsck --repair` garbage-collect — exactly-old-or-new per writer.
class WriteTxn {
 public:
  /// Opens a transaction against `opts.branch`'s sealed head.
  static Result<std::unique_ptr<WriteTxn>> Begin(
      std::shared_ptr<VersionControl> vc, TxnOptions opts = {});

  /// Best-effort abort of an unfinished transaction (never throws; errors
  /// are swallowed — recovery GCs whatever is left behind).
  ~WriteTxn();

  WriteTxn(const WriteTxn&) = delete;
  WriteTxn& operator=(const WriteTxn&) = delete;

  /// The dataset view of this transaction: reads see the base snapshot,
  /// writes stage privately. Opened lazily (created empty when the branch
  /// has no dataset yet).
  Result<tsf::Dataset*> dataset();

  /// Publishes the staged changes; returns the landed commit id (the
  /// staging commit's on the fast path, a rebased one otherwise) or
  /// Status::Conflict when an overlapping transaction won the race. The
  /// transaction stays open on failure so the caller can Abort() or retry
  /// by other means; on success it is finished.
  Result<std::string> Publish(const std::string& message);

  /// Drops the staged commit and its directory. Idempotent; no-op after a
  /// successful Publish.
  Status Abort();

  const std::string& id() const { return id_; }
  /// The sealed head this transaction staged against (may be empty on a
  /// branch with no sealed commit yet).
  const std::string& base() const { return base_; }
  const std::string& branch() const { return branch_; }
  bool finished() const { return finished_; }

 private:
  WriteTxn() = default;

  std::shared_ptr<VersionControl> vc_;
  std::string id_;
  std::string base_;
  std::string branch_;
  std::string owner_;
  std::shared_ptr<tsf::Dataset> dataset_;
  bool finished_ = false;
};

/// Runs `body` inside a WriteTxn and publishes it, retrying the whole
/// transaction (fresh base, fresh staging commit, body re-run) on
/// Status::Conflict with `policy`'s backoff; a `policy.seed` of 0 draws the
/// jitter seed from the clock. Returns the landed commit id, or the last
/// error when attempts are exhausted or the body / publish fails with a
/// non-conflict error.
Result<std::string> CommitWithTxnRetries(
    std::shared_ptr<VersionControl> vc, const TxnOptions& topts,
    const std::function<Status(tsf::Dataset&)>& body,
    const std::string& message,
    const storage::RetryPolicy& policy = kTxnRetryPolicy);

}  // namespace dl::version

#endif  // DEEPLAKE_VERSION_MVCC_H_
