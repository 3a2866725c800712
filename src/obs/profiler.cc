// Sampling CPU profiler. This file is the only place in the tree allowed
// to touch sigaction / setitimer / backtrace (dllint rule
// `profiler-syscall`), for the same reason raw sockets are confined to
// debug_server.cc: signal plumbing is easy to get subtly wrong, so every
// use lives behind one audited implementation.
//
// Signal-safety invariants (see the header and DESIGN.md §7):
//   1. The handler touches only the process-lifetime Arena (never freed)
//      through a raw pointer published in an atomic — no allocation, no
//      locks, no C++ statics with guarded initialization.
//   2. The SIGPROF disposition, once installed, is never restored: Stop()
//      disarms the timer and clears `collecting`. A pending SIGPROF after
//      an uninstall would hit the default disposition, which terminates
//      the process.
//   3. backtrace() is called once in Start() before the timer is armed:
//      its first invocation may dlopen libgcc, which must not happen
//      inside a handler.

#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "util/clock.h"
#include "util/macros.h"

namespace dl::obs {

namespace {

constexpr uint32_t kSlotEmpty = 0;
constexpr uint32_t kSlotWriting = 1;
constexpr uint32_t kSlotReady = 2;

constexpr int kMaxDepth = 64;
constexpr size_t kMaxStacks = 2048;
constexpr size_t kMaxProbes = 64;
// backtrace() from inside the handler sees [SigProfHandler, signal
// trampoline, <interrupted frame>, ...]; drop the first two.
constexpr int kSkipFrames = 2;

struct StackSlot {
  std::atomic<uint32_t> state{kSlotEmpty};
  std::atomic<uint64_t> count{0};
  uint64_t hash = 0;
  uint32_t depth = 0;
  void* pcs[kMaxDepth];
};

// Process-lifetime profiler state. Leaked by design (invariant 1): the
// handler stays installed for the process lifetime and must never chase a
// dangling pointer, no matter when the last CpuProfiler was destroyed.
struct Arena {
  std::atomic<bool> collecting{false};
  std::atomic<int> in_handler{0};
  std::atomic<uint64_t> samples{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<int> max_depth{48};
  std::atomic<bool> handler_installed{false};
  std::atomic<bool> busy{false};  // one active profiler per process
  StackSlot slots[kMaxStacks];
};

// Published for the handler before the timer is armed; the handler never
// runs C++ static initialization (invariant 1).
std::atomic<Arena*> g_arena{nullptr};

Arena* GetArena() {
  static Arena* a = new Arena();
  return a;
}

DL_SIGNAL_SAFE uint64_t HashStack(void* const* pcs, int depth) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (int i = 0; i < depth; ++i) {
    uint64_t v = reinterpret_cast<uint64_t>(pcs[i]);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h == 0 ? 1 : h;
}

extern "C" DL_SIGNAL_SAFE void SigProfHandler(int /*signum*/) {
  Arena* a = g_arena.load(std::memory_order_acquire);
  if (a == nullptr || !a->collecting.load(std::memory_order_acquire)) return;
  a->in_handler.fetch_add(1, std::memory_order_acq_rel);
  int saved_errno = errno;

  void* frames[kMaxDepth + kSkipFrames];
  int want = a->max_depth.load(std::memory_order_relaxed) + kSkipFrames;
  int got = backtrace(frames, want);
  int depth = got - kSkipFrames;
  if (depth > 0) {
    void* const* pcs = frames + kSkipFrames;
    a->samples.fetch_add(1, std::memory_order_relaxed);
    uint64_t hash = HashStack(pcs, depth);
    size_t idx = hash % kMaxStacks;
    bool stored = false;
    for (size_t probe = 0; probe < kMaxProbes; ++probe) {
      StackSlot& slot = a->slots[idx];
      uint32_t state = slot.state.load(std::memory_order_acquire);
      if (state == kSlotReady) {
        if (slot.hash == hash &&
            slot.depth == static_cast<uint32_t>(depth) &&
            std::memcmp(slot.pcs, pcs, sizeof(void*) * depth) == 0) {
          slot.count.fetch_add(1, std::memory_order_relaxed);
          stored = true;
          break;
        }
      } else if (state == kSlotEmpty) {
        uint32_t expected = kSlotEmpty;
        if (slot.state.compare_exchange_strong(expected, kSlotWriting,
                                               std::memory_order_acq_rel)) {
          slot.hash = hash;
          slot.depth = static_cast<uint32_t>(depth);
          std::memcpy(slot.pcs, pcs, sizeof(void*) * depth);
          slot.count.store(1, std::memory_order_relaxed);
          slot.state.store(kSlotReady, std::memory_order_release);
          stored = true;
          break;
        }
      }
      // kSlotWriting, a hash mismatch, or a lost CAS: probe onward.
      idx = (idx + 1) % kMaxStacks;
    }
    if (!stored) a->dropped.fetch_add(1, std::memory_order_relaxed);
  }

  errno = saved_errno;
  a->in_handler.fetch_sub(1, std::memory_order_acq_rel);
}

/// Best-effort symbol for one pc. `pc` is a return address, so look up
/// pc-1 to land inside the call instruction's function.
std::string SymbolForPc(void* pc) {
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  void* lookup = static_cast<char*>(pc) - 1;
  std::string out;
  if (dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    out = (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%p", pc);
    out = buf;
  }
  // ';' separates frames and ' ' separates stack from count in the folded
  // format; neither may appear inside a frame name.
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  return out;
}

std::string RenderFolded(const Arena& a) {
  // Symbolize each distinct pc once, then merge stacks that fold to the
  // same symbolized key (different pcs in one function, e.g. two call
  // sites, merge here).
  std::map<void*, std::string> symbols;
  std::map<std::string, uint64_t> folded;
  for (const StackSlot& slot : a.slots) {
    if (slot.state.load(std::memory_order_acquire) != kSlotReady) continue;
    uint64_t count = slot.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    std::string line;
    // Slots store leaf-first; folded format is root-first.
    for (int i = static_cast<int>(slot.depth) - 1; i >= 0; --i) {
      auto [it, inserted] = symbols.try_emplace(slot.pcs[i]);
      if (inserted) it->second = SymbolForPc(slot.pcs[i]);
      if (!line.empty()) line += ';';
      line += it->second;
    }
    if (!line.empty()) folded[line] += count;
  }
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace

CpuProfiler::CpuProfiler() : CpuProfiler(Options{}) {}

CpuProfiler::CpuProfiler(Options options) : options_(options) {}

CpuProfiler::~CpuProfiler() { (void)Stop(); }

bool CpuProfiler::SupportedInThisBuild() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

Status CpuProfiler::Start() {
  if (!SupportedInThisBuild()) {
    return Status::NotImplemented(
        "signal-based cpu profiling is disabled under TSan/ASan");
  }
  if (running_) {
    return Status::FailedPrecondition("this profiler is already running");
  }
  Arena* a = GetArena();
  bool expected = false;
  if (!a->busy.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition(
        "another cpu profiler is active in this process");
  }
  owns_arena_ = true;

  for (StackSlot& slot : a->slots) {
    slot.state.store(kSlotEmpty, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
  }
  a->samples.store(0, std::memory_order_relaxed);
  a->dropped.store(0, std::memory_order_relaxed);
  a->max_depth.store(std::clamp(options_.max_depth, 1, kMaxDepth),
                     std::memory_order_relaxed);

  // Invariant 3: pre-warm backtrace outside signal context.
  void* warm[4];
  (void)backtrace(warm, 4);

  g_arena.store(a, std::memory_order_release);
  if (!a->handler_installed.exchange(true)) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SigProfHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      a->handler_installed.store(false);
      a->busy.store(false);
      owns_arena_ = false;
      return Status::IOError("sigaction(SIGPROF) failed");
    }
  }

  a->collecting.store(true, std::memory_order_release);
  int hz = std::clamp(options_.sample_hz, 1, 1000);
  int64_t period_us = 1'000'000 / hz;
  itimerval timer;
  std::memset(&timer, 0, sizeof(timer));
  timer.it_interval.tv_sec = period_us / 1'000'000;
  timer.it_interval.tv_usec = period_us % 1'000'000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    a->collecting.store(false, std::memory_order_release);
    a->busy.store(false);
    owns_arena_ = false;
    return Status::IOError("setitimer(ITIMER_PROF) failed");
  }

  folded_.clear();
  running_ = true;
  return Status::OK();
}

Status CpuProfiler::Stop() {
  if (!running_) return Status::OK();
  Arena* a = GetArena();

  itimerval disarm;
  std::memset(&disarm, 0, sizeof(disarm));
  (void)setitimer(ITIMER_PROF, &disarm, nullptr);
  // Invariant 2: the handler stays installed; this gate turns it into a
  // no-op for any SIGPROF still in flight.
  a->collecting.store(false, std::memory_order_release);

  // Wait for in-flight handler invocations to drain before reading slots
  // non-atomically during symbolization (bounded: ~200ms worst case).
  for (int i = 0; i < 2000; ++i) {
    if (a->in_handler.load(std::memory_order_acquire) == 0) break;
    SleepMicros(100);
  }

  folded_ = RenderFolded(*a);
  samples_stopped_ = a->samples.load(std::memory_order_relaxed);
  dropped_stopped_ = a->dropped.load(std::memory_order_relaxed);
  running_ = false;
  owns_arena_ = false;
  a->busy.store(false);
  return Status::OK();
}

uint64_t CpuProfiler::samples() const {
  if (!running_) return samples_stopped_;
  return GetArena()->samples.load(std::memory_order_relaxed);
}

uint64_t CpuProfiler::dropped() const {
  if (!running_) return dropped_stopped_;
  return GetArena()->dropped.load(std::memory_order_relaxed);
}

std::string CpuProfiler::FoldedStacks() const {
  if (running_) return RenderFolded(*GetArena());
  return folded_;
}

Result<std::string> CollectCpuProfile(double seconds,
                                      const CpuProfiler::Options& options) {
  CpuProfiler profiler(options);
  DL_RETURN_IF_ERROR(profiler.Start());
  SleepMicros(static_cast<int64_t>(seconds * 1e6));
  DL_RETURN_IF_ERROR(profiler.Stop());
  return profiler.FoldedStacks();
}

}  // namespace dl::obs
