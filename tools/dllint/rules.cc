// dllint rules. Each rule is a pure function over the Index (and the
// lock-hierarchy manifest); suppression and baseline handling live in the
// engine. The registry at the bottom is the single list the CLI, the
// suppression validator and the docs enumerate.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/dllint/dllint.h"

namespace dl::lint {

namespace {

bool HasPrefix(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

bool IdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// Statement start: index of the first token after the previous ';', '{' or
// '}' (or 0).
int StmtStart(const SourceFile& f, int t) {
  for (int k = t - 1; k >= 0; --k) {
    const Token& tk = f.toks[k];
    if (tk.kind == Token::Kind::kPunct &&
        (tk.text == ";" || tk.text == "{" || tk.text == "}")) {
      return k + 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// lock-hierarchy: static acquisition graph vs lock_hierarchy.txt
// ---------------------------------------------------------------------------

void CheckLockHierarchy(const RuleContext& ctx, std::vector<Finding>& out) {
  const Index& idx = ctx.index;
  for (const Finding& f : idx.structural) {
    if (f.rule == "lock-hierarchy") out.push_back(f);
  }

  std::map<std::string, const MutexDecl*> named;
  for (const MutexDecl& m : idx.mutexes) {
    if (!m.name.empty()) named.emplace(m.name, &m);
  }

  const LockHierarchy* h = ctx.manifest;
  if (h == nullptr) {
    if (!named.empty()) {
      out.push_back({ctx.manifest_rel, 1, "lock-hierarchy",
                     "manifest not found but " +
                         std::to_string(named.size()) +
                         " named mutexes are declared; create it "
                         "(`dllint --dump-lock-graph` prints the observed "
                         "edges)"});
    }
    return;
  }

  // Deduplicated static edge set, first occurrence wins.
  std::map<std::pair<std::string, std::string>, const StaticEdge*> edges;
  for (const StaticEdge& e : idx.edges) {
    edges.try_emplace({e.from, e.to}, &e);
  }

  // 1. Every statically-observed edge must be sanctioned by the manifest
  //    (transitive closure: nesting A -> B -> C implies A -> C).
  for (const auto& [key, e] : edges) {
    if (h->Declared(key.first, key.second)) continue;
    std::string via = e->via.empty() ? "" : " (via " + e->via + ")";
    out.push_back({idx.files[e->file].rel, e->line, "lock-hierarchy",
                   "undeclared lock-order edge '" + key.first + "' -> '" +
                       key.second + "'" + via + "; add `edge " + key.first +
                       " -> " + key.second + "` to " + ctx.manifest_rel +
                       " or restructure the locking"});
  }

  // 2. Stale manifest edges: a declared direct edge no code path realizes.
  //    Compared against the *closure* of the static set so splitting a
  //    nesting into two hops does not invalidate the declared shortcut.
  std::set<std::pair<std::string, std::string>> sclosure;
  for (const auto& [key, e] : edges) sclosure.insert(key);
  for (bool changed = true; changed;) {
    changed = false;
    std::set<std::pair<std::string, std::string>> add;
    for (const auto& [a, b] : sclosure) {
      for (const auto& [c, d] : sclosure) {
        if (b == c && a != d && sclosure.count({a, d}) == 0) {
          add.insert({a, d});
        }
      }
    }
    if (!add.empty()) {
      sclosure.insert(add.begin(), add.end());
      changed = true;
    }
  }
  for (const LockHierarchy::Edge& e : h->edges) {
    if (sclosure.count({e.from, e.to}) != 0) continue;
    out.push_back({ctx.manifest_rel, e.line, "lock-hierarchy",
                   "stale manifest edge '" + e.from + "' -> '" + e.to +
                       "': no code path acquires '" + e.to +
                       "' while holding '" + e.from + "'; delete the edge"});
  }

  // 3. Declared cycles would make the manifest self-contradictory.
  for (const LockHierarchy::Edge& e : h->edges) {
    if (h->Declared(e.to, e.from)) {
      out.push_back({ctx.manifest_rel, e.line, "lock-hierarchy",
                     "cycle: manifest also sanctions '" + e.to + "' -> '" +
                         e.from + "'"});
    }
  }

  // 4. Completeness both ways: every named lock is listed, every listed
  //    name exists.
  for (const auto& [name, m] : named) {
    if (h->names.count(name) != 0) continue;
    out.push_back({idx.files[m->file].rel, m->line, "lock-hierarchy",
                   "named mutex '" + name + "' is not listed in " +
                       ctx.manifest_rel + "; add an edge or `leaf " + name +
                       "`"});
  }
  for (const std::string& nm : h->names) {
    if (named.count(nm) != 0) continue;
    int line = 1;
    for (const LockHierarchy::Edge& e : h->edges) {
      if (e.from == nm || e.to == nm) line = e.line;
    }
    for (const auto& [lname, lline] : h->leaves) {
      if (lname == nm) line = lline;
    }
    out.push_back({ctx.manifest_rel, line, "lock-hierarchy",
                   "manifest names unknown lock '" + nm +
                       "' (no `Mutex x{\"" + nm +
                       "\"}` declaration in src/)"});
  }
}

// ---------------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------------

void CheckBlockingUnderLock(const RuleContext& ctx,
                            std::vector<Finding>& out) {
  const Index& idx = ctx.index;
  for (const BlockingCall& b : idx.blocking) {
    for (const std::string& held : b.held) {
      // Without a manifest every named lock is treated as non-leaf.
      bool nonleaf =
          ctx.manifest == nullptr || ctx.manifest->NonLeaf(held);
      if (!nonleaf) continue;
      out.push_back({idx.files[b.file].rel, b.line, "blocking-under-lock",
                     "blocking call " + b.what +
                         " while holding non-leaf lock '" + held +
                         "'; release it first (MutexLock::Unlock) or move "
                         "the I/O out of the critical section"});
      break;  // one finding per site, not per held lock
    }
  }
}

// ---------------------------------------------------------------------------
// slice-escape: Slice::Borrowed() results must not outlive the borrow
// ---------------------------------------------------------------------------

void CheckSliceEscape(const RuleContext& ctx, std::vector<Finding>& out) {
  const Index& idx = ctx.index;
  static const std::set<std::string>* kStores = new std::set<std::string>{
      "push_back", "emplace_back", "insert", "emplace", "assign"};
  for (size_t fi = 0; fi < idx.files.size(); ++fi) {
    const SourceFile& f = idx.files[fi];
    if (!HasPrefix(f.rel, "src/")) continue;
    const int n = static_cast<int>(f.toks.size());
    for (int t = 2; t < n - 1; ++t) {
      if (!(f.toks[t].IsIdent() && f.toks[t].text == "Borrowed" &&
            f.toks[t - 1].Is("::") && f.toks[t - 2].Is("Slice") &&
            f.toks[t + 1].Is("("))) {
        continue;
      }
      int s = StmtStart(f, t - 2);
      int line = f.toks[t].line;
      if (f.toks[s].Is("return")) {
        out.push_back({f.rel, line, "slice-escape",
                       "returning Slice::Borrowed() — the bytes have no "
                       "keep-alive; return a Slice carrying its Buffer, or "
                       "document the caller-owns contract"});
        continue;
      }
      // Assignment into a member (trailing-underscore convention).
      bool flagged = false;
      for (int k = s; k < t - 2; ++k) {
        if (f.toks[k].Is("=") && k > s && f.toks[k - 1].IsIdent() &&
            !f.toks[k - 1].text.empty() &&
            f.toks[k - 1].text.back() == '_') {
          out.push_back({f.rel, line, "slice-escape",
                         "storing Slice::Borrowed() in member '" +
                             f.toks[k - 1].text +
                             "' — the view outlives the borrow; keep the "
                             "owning Buffer alongside it"});
          flagged = true;
          break;
        }
      }
      if (flagged) continue;
      // Passed straight into a container-store call.
      for (int k = t - 3; k > s; --k) {
        if (!f.toks[k].Is("(")) continue;
        if (k > 0 && f.toks[k - 1].IsIdent() &&
            kStores->count(f.toks[k - 1].text) != 0) {
          out.push_back({f.rel, line, "slice-escape",
                         "storing Slice::Borrowed() via " +
                             f.toks[k - 1].text +
                             "() — container elements outlive the borrow"});
        }
        break;  // innermost enclosing call decides
      }
    }
  }
}

// ---------------------------------------------------------------------------
// slice-owner: view-typed members need an owning Buffer next to them
// ---------------------------------------------------------------------------

void CheckSliceOwner(const RuleContext& ctx, std::vector<Finding>& out) {
  const Index& idx = ctx.index;
  for (const SliceMemberDecl& m : idx.slice_members) {
    if (m.class_has_owner) continue;
    out.push_back({idx.files[m.file].rel, m.line, "slice-owner",
                   m.type + " member '" + m.var + "' of '" + m.cls +
                       "' has no owning Buffer member in the same class; "
                       "store the owner alongside the view or document the "
                       "lifetime contract (dllint-ok(slice-owner): ...)"});
  }
}

// ---------------------------------------------------------------------------
// hot-path-copy: payload deep copies in src/stream|tsf|storage
// ---------------------------------------------------------------------------

void CheckHotPathCopy(const RuleContext& ctx, std::vector<Finding>& out) {
  const Index& idx = ctx.index;
  for (size_t fi = 0; fi < idx.files.size(); ++fi) {
    const SourceFile& f = idx.files[fi];
    if (!(HasPrefix(f.rel, "src/stream/") || HasPrefix(f.rel, "src/tsf/") ||
          HasPrefix(f.rel, "src/storage/"))) {
      continue;
    }
    const int n = static_cast<int>(f.toks.size());
    // Identifiers declared as Slice in this file, so `.ToString()` (shared
    // with Status/TensorShape) is only flagged on actual slices.
    std::set<std::string> slice_vars;
    for (int t = 0; t + 1 < n; ++t) {
      if (f.toks[t].Is("Slice") && f.toks[t].IsIdent() &&
          (t == 0 || !(f.toks[t - 1].Is("<") || f.toks[t + 1].Is("::"))) &&
          f.toks[t + 1].IsIdent()) {
        slice_vars.insert(f.toks[t + 1].text);
      }
    }
    auto flag = [&](int line, const std::string& what) {
      out.push_back({f.rel, line, "hot-path-copy",
                     "payload deep copy (" + what +
                         ") on the read hot path; keep it a Slice view or "
                         "justify it (dllint-ok(hot-path-copy): ..., "
                         "DESIGN.md §10)"});
    };
    for (int t = 1; t + 1 < n; ++t) {
      const Token& tk = f.toks[t];
      if (!tk.IsIdent() || !f.toks[t + 1].Is("(")) continue;
      if (tk.text == "ToBuffer" && f.toks[t - 1].Is(".")) {
        flag(tk.line, ".ToBuffer()");
      } else if (tk.text == "CopyOf" && f.toks[t - 1].Is("::") && t >= 2 &&
                 (f.toks[t - 2].Is("Buffer") || f.toks[t - 2].Is("Slice"))) {
        flag(tk.line, f.toks[t - 2].text + "::CopyOf()");
      } else if (tk.text == "ToString" && f.toks[t - 1].Is(".") && t >= 2 &&
                 f.toks[t - 2].IsIdent() &&
                 slice_vars.count(f.toks[t - 2].text) != 0) {
        flag(tk.line, f.toks[t - 2].text + ".ToString()");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// signal-safety
// ---------------------------------------------------------------------------

void CheckSignalSafety(const RuleContext& ctx, std::vector<Finding>& out) {
  const Index& idx = ctx.index;
  // Async-signal-safe primitives a DL_SIGNAL_SAFE function may call without
  // its own marker: raw memory ops, atomics, and backtrace() (safe on glibc
  // once pre-warmed, which CpuProfiler::Start does).
  static const std::set<std::string>* kAllow = new std::set<std::string>{
      "backtrace", "memcpy", "memcmp", "memset", "load", "store",
      "fetch_add", "fetch_sub", "exchange", "compare_exchange_strong",
      "compare_exchange_weak"};
  for (const SignalCall& c : idx.signal_calls) {
    if (kAllow->count(c.callee) != 0) continue;
    if (idx.file_functions[c.file].marked.count(c.callee) != 0) continue;
    out.push_back({idx.files[c.file].rel, c.line, "signal-safety",
                   "'" + c.fn + "' is DL_SIGNAL_SAFE but calls '" + c.callee +
                       "', which is neither DL_SIGNAL_SAFE (in this file) "
                       "nor an allowlisted async-signal-safe primitive"});
  }
  // Handler installation sites: the installed function must carry the
  // marker, which is what makes the transitive check above reach it.
  for (size_t fi = 0; fi < idx.files.size(); ++fi) {
    const SourceFile& f = idx.files[fi];
    if (!HasPrefix(f.rel, "src/")) continue;
    const int n = static_cast<int>(f.toks.size());
    for (int t = 0; t + 2 < n; ++t) {
      if (!(f.toks[t].IsIdent() && (f.toks[t].text == "sa_handler" ||
                                    f.toks[t].text == "sa_sigaction") &&
            f.toks[t + 1].Is("="))) {
        continue;
      }
      int v = t + 2;
      if (f.toks[v].Is("&")) ++v;
      if (v >= n || !f.toks[v].IsIdent()) continue;
      const std::string& fn = f.toks[v].text;
      if (HasPrefix(fn, "SIG_")) continue;  // SIG_IGN / SIG_DFL
      if (idx.file_functions[fi].marked.count(fn) != 0) continue;
      out.push_back({f.rel, f.toks[v].line, "signal-safety",
                     "'" + fn + "' is installed as a signal handler but is "
                     "not marked DL_SIGNAL_SAFE"});
    }
  }
}

// ---------------------------------------------------------------------------
// Token rules: naked-mutex, using-ns-header, raw-new-delete, todo-owner,
// unjournaled-manifest-write, raw-socket, profiler-syscall (token-exact,
// string/comment-proof)
// ---------------------------------------------------------------------------

void CheckNakedMutex(const RuleContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string>* kStd = new std::set<std::string>{
      "mutex",       "timed_mutex", "recursive_mutex",
      "lock_guard",  "unique_lock", "scoped_lock",
      "condition_variable", "condition_variable_any"};
  for (const SourceFile& f : ctx.index.files) {
    if (HasPrefix(f.rel, "src/util/")) continue;
    const int n = static_cast<int>(f.toks.size());
    for (int t = 2; t < n; ++t) {
      if (f.toks[t].IsIdent() && kStd->count(f.toks[t].text) != 0 &&
          f.toks[t - 1].Is("::") && f.toks[t - 2].Is("std")) {
        out.push_back({f.rel, f.toks[t].line, "naked-mutex",
                       "use dl::{Mutex,MutexLock,CondVar} instead of std::" +
                           f.toks[t].text + " (std primitives bypass the "
                           "lock-order checker)"});
      }
    }
  }
}

void CheckUsingNsHeader(const RuleContext& ctx, std::vector<Finding>& out) {
  for (const SourceFile& f : ctx.index.files) {
    if (!f.is_header) continue;
    const int n = static_cast<int>(f.toks.size());
    for (int t = 0; t + 1 < n; ++t) {
      if (f.toks[t].Is("using") && f.toks[t].IsIdent() &&
          f.toks[t + 1].Is("namespace")) {
        out.push_back({f.rel, f.toks[t].line, "using-ns-header",
                       "`using namespace` in a header leaks into every "
                       "includer"});
      }
    }
  }
}

void CheckRawNewDelete(const RuleContext& ctx, std::vector<Finding>& out) {
  for (const SourceFile& f : ctx.index.files) {
    if (HasPrefix(f.rel, "src/compress/")) continue;
    const int n = static_cast<int>(f.toks.size());
    for (int t = 0; t < n; ++t) {
      if (!f.toks[t].IsIdent()) continue;
      if (f.toks[t].text == "new") {
        bool owned = false;
        int s = StmtStart(f, t);
        if (t > 0 && f.toks[t - 1].Is("(")) {
          for (int k = s; k < t && !owned; ++k) {
            owned = f.toks[k].Is("unique_ptr") || f.toks[k].Is("shared_ptr") ||
                    f.toks[k].Is("reset");
          }
        } else if (t > 0 && f.toks[t - 1].Is("=")) {
          for (int k = s; k < t && !owned; ++k) {
            owned = f.toks[k].Is("static");
          }
        }
        if (!owned) {
          out.push_back({f.rel, f.toks[t].line, "raw-new-delete",
                         "raw `new` must feed a smart pointer or a `static` "
                         "leaky singleton"});
        }
      } else if (f.toks[t].text == "delete") {
        if (t > 0 && f.toks[t - 1].Is("=")) continue;  // `= delete;`
        out.push_back({f.rel, f.toks[t].line, "raw-new-delete",
                       "raw `delete` expression; use owning types"});
      }
    }
  }
}

void CheckTodoOwner(const RuleContext& ctx, std::vector<Finding>& out) {
  for (const SourceFile& f : ctx.index.files) {
    for (const Comment& c : f.comments) {
      size_t pos = 0;
      while ((pos = c.text.find("TODO", pos)) != std::string::npos) {
        bool word_start = pos == 0 || !IdentChar(c.text[pos - 1]);
        size_t after = pos + 4;
        bool has_owner = after < c.text.size() && c.text[after] == '(';
        bool word_end = after >= c.text.size() || !IdentChar(c.text[after]);
        if (word_start && word_end && !has_owner) {
          int line = c.line +
                     static_cast<int>(
                         std::count(c.text.begin(), c.text.begin() + pos,
                                    '\n'));
          out.push_back({f.rel, line, "todo-owner",
                         "write TODO(owner): so the item is attributable"});
        }
        pos = after;
      }
    }
  }
}

void CheckUnjournaledWrite(const RuleContext& ctx,
                           std::vector<Finding>& out) {
  for (const SourceFile& f : ctx.index.files) {
    if (!HasPrefix(f.rel, "src/version/") || f.is_header) continue;
    const int n = static_cast<int>(f.toks.size());
    for (int t = 0; t + 3 < n; ++t) {
      if (f.toks[t].Is("base_") && f.toks[t].IsIdent() &&
          f.toks[t + 1].Is("->") &&
          (f.toks[t + 2].Is("Put") || f.toks[t + 2].Is("PutDurable")) &&
          f.toks[t + 3].Is("(")) {
        out.push_back({f.rel, f.toks[t + 2].line,
                       "unjournaled-manifest-write",
                       "direct base_->" + f.toks[t + 2].text +
                           " in the version layer; route through PutManifest "
                           "(DESIGN.md §9) or annotate the sanctioned "
                           "data-path write"});
      }
    }
  }
}

// Bare (or global-::) call to one of `names`; `std::bind` and member calls
// stay unmatched, same as the old regex's lookbehind.
void FlagBareCalls(const RuleContext& ctx, const std::set<std::string>& names,
                   const char* exempt_file, const char* rule,
                   const std::string& message, std::vector<Finding>& out) {
  for (const SourceFile& f : ctx.index.files) {
    if (f.rel == exempt_file) continue;
    const int n = static_cast<int>(f.toks.size());
    for (int t = 0; t + 1 < n; ++t) {
      if (!f.toks[t].IsIdent() || names.count(f.toks[t].text) == 0 ||
          !f.toks[t + 1].Is("(")) {
        continue;
      }
      if (t > 0) {
        const Token& p = f.toks[t - 1];
        if (p.Is(".") || p.Is("->")) continue;
        if (p.Is("::") && t >= 2 && f.toks[t - 2].IsIdent()) continue;
      }
      out.push_back({f.rel, f.toks[t].line, rule, message});
    }
  }
}

void CheckRawSocket(const RuleContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string>* kCalls = new std::set<std::string>{
      "socket", "bind", "listen", "accept"};
  FlagBareCalls(ctx, *kCalls, "src/obs/debug_server.cc", "raw-socket",
                "raw socket()/bind()/listen()/accept(); use obs::DebugServer "
                "/ obs::HttpGet (src/obs/debug_server.cc is the only "
                "sanctioned socket file)",
                out);
}

void CheckProfilerSyscall(const RuleContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string>* kCalls = new std::set<std::string>{
      "sigaction", "setitimer", "backtrace", "backtrace_symbols"};
  FlagBareCalls(ctx, *kCalls, "src/obs/profiler.cc", "profiler-syscall",
                "sigaction()/setitimer()/backtrace(); use obs::CpuProfiler "
                "(src/obs/profiler.cc is the only sanctioned signal-plumbing "
                "file)",
                out);
}

}  // namespace

const std::vector<Rule>& Registry() {
  static const std::vector<Rule>* rules = new std::vector<Rule>{
      {"lock-hierarchy",
       "static lock-acquisition graph must match lock_hierarchy.txt",
       &CheckLockHierarchy},
      {"blocking-under-lock",
       "no fsync/sleep/HTTP/storage-I/O/condvar-wait under a non-leaf lock",
       &CheckBlockingUnderLock},
      {"slice-escape",
       "Slice::Borrowed() results must not be returned or stored",
       &CheckSliceEscape},
      {"slice-owner",
       "Slice/ByteView members need an owning Buffer member or a documented "
       "lifetime",
       &CheckSliceOwner},
      {"hot-path-copy",
       "no payload deep copies in src/stream|tsf|storage without "
       "justification",
       &CheckHotPathCopy},
      {"signal-safety",
       "DL_SIGNAL_SAFE functions only call marked or allowlisted callees",
       &CheckSignalSafety},
      {"naked-mutex",
       "std:: synchronization primitives only inside src/util/",
       &CheckNakedMutex},
      {"using-ns-header", "no `using namespace` in headers",
       &CheckUsingNsHeader},
      {"raw-new-delete",
       "raw new/delete only via smart pointers or leaky singletons "
       "(src/compress/ exempt)",
       &CheckRawNewDelete},
      {"todo-owner", "TODOs carry an owner: TODO(name)", &CheckTodoOwner},
      {"unjournaled-manifest-write",
       "version layer writes go through PutManifest", &CheckUnjournaledWrite},
      {"raw-socket", "sockets only in src/obs/debug_server.cc",
       &CheckRawSocket},
      {"profiler-syscall",
       "signal/timer plumbing only in src/obs/profiler.cc",
       &CheckProfilerSyscall},
  };
  return *rules;
}

bool IsKnownRule(const std::string& name) {
  for (const Rule& r : Registry()) {
    if (name == r.name) return true;
  }
  return false;
}

}  // namespace dl::lint
