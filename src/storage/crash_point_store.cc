// CrashPointStore: deterministic crash injection for the crash-matrix tests
// (DESIGN.md §9). Write number `crash_at_write` is mangled (missing / torn /
// duplicated) and every operation afterwards fails, modeling a process that
// died mid-protocol. Tests then reopen the *base* store and assert recovery.

#include "storage/storage.h"
#include "util/macros.h"
#include "util/parallel.h"

namespace dl::storage {

const char* CrashModeName(CrashMode mode) {
  switch (mode) {
    case CrashMode::kMissing:
      return "missing";
    case CrashMode::kTorn:
      return "torn";
    case CrashMode::kDuplicate:
      return "duplicate";
  }
  return "unknown";
}

const char* CrashScopeName(CrashScope scope) {
  switch (scope) {
    case CrashScope::kProcess:
      return "process";
    case CrashScope::kWriter:
      return "writer";
  }
  return "unknown";
}

CrashPointStore::CrashPointStore(StoragePtr base, uint64_t crash_at_write,
                                 CrashMode mode, CrashScope scope)
    : ForwardingStore(std::move(base)), crash_at_write_(crash_at_write),
      mode_(mode), scope_(scope) {}

Status CrashPointStore::Dead() const {
  return Status::IOError("crash: store is dead (crashed at write " +
                         std::to_string(crash_at_write_) + ", mode " +
                         CrashModeName(mode_) + ", scope " +
                         CrashScopeName(scope_) + ")");
}

bool CrashPointStore::IsDead() const {
  if (!crashed_.load(std::memory_order_acquire)) return false;
  if (scope_ == CrashScope::kProcess) return true;
  MutexLock lock(mu_);
  return dead_thread_ == FanOutOwner();
}

Status CrashPointStore::Admit(FaultOp op) {
  (void)op;
  return IsDead() ? Dead() : Status::OK();
}

Status CrashPointStore::OnWrite(std::string_view key, ByteView value,
                                bool durable, bool* handled) {
  *handled = true;
  if (IsDead()) return Dead();
  uint64_t n = writes_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (crash_at_write_ == 0 || n != crash_at_write_ ||
      crashed_.load(std::memory_order_acquire)) {
    *handled = false;  // normal write; caller forwards to base
    return Status::OK();
  }
  {
    MutexLock lock(mu_);
    dead_thread_ = FanOutOwner();
  }
  crashed_.store(true, std::memory_order_release);
  switch (mode_) {
    case CrashMode::kMissing:
      // Write lost entirely: nothing reaches the base.
      break;
    case CrashMode::kTorn: {
      // A strict prefix lands under the final name — what an in-place
      // write interrupted midway leaves behind. An empty value can't tear;
      // treat it as missing.
      if (!value.empty()) {
        size_t cut = value.size() > 1 ? value.size() / 2 : 0;
        Status s = durable ? base_->PutDurable(key, value.subview(0, cut))
                           : base_->Put(key, value.subview(0, cut));
        (void)s;  // the caller sees the crash error regardless
      }
      break;
    }
    case CrashMode::kDuplicate: {
      // Data fully lands but the ack is lost: the writer believes it
      // failed and may retry after recovery.
      Status s = durable ? base_->PutDurable(key, value)
                         : base_->Put(key, value);
      (void)s;
      break;
    }
  }
  return Dead();
}

Status CrashPointStore::Put(std::string_view key, ByteView value) {
  bool handled = false;
  Status s = OnWrite(key, value, /*durable=*/false, &handled);
  if (handled) return s;
  return base_->Put(key, value);
}

Status CrashPointStore::PutDurable(std::string_view key, ByteView value) {
  bool handled = false;
  Status s = OnWrite(key, value, /*durable=*/true, &handled);
  if (handled) return s;
  return base_->PutDurable(key, value);
}

}  // namespace dl::storage
