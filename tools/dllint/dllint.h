#ifndef DEEPLAKE_TOOLS_DLLINT_DLLINT_H_
#define DEEPLAKE_TOOLS_DLLINT_DLLINT_H_

// dllint: the repo's scope-aware static analyzer (DESIGN.md §11).
//
// A real (if lightweight) C++ tokenizer plus a brace/scope tracker — no
// libclang — that walks src/, tools/, bench/, tests/ and examples/ and
// enforces the repo-specific contracts regex lint cannot see:
//
//   * the static lock-acquisition graph vs the lock_hierarchy.txt manifest
//     (cross-checked at runtime by lock_order::SetDeclaredEdges),
//   * Slice/Buffer ownership (Borrowed() escapes, undocumented Slice
//     members, deep copies on the read hot path),
//   * blocking work under non-leaf locks,
//   * async-signal-safety of everything reachable from the SIGPROF handler,
//   * plus the token rules: naked-mutex, using-ns-header, raw-new-delete,
//     todo-owner, unjournaled-manifest-write, raw-socket, profiler-syscall.
//
// Findings are suppressed per-site with a dllint-ok annotation — rule name
// in parens, then a mandatory reason — or parked in a baseline file that
// may only shrink.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/lock_hierarchy.h"
#include "util/result.h"

namespace dl::lint {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;
  int line;  // 1-based

  bool Is(std::string_view t) const { return text == t; }
  bool IsIdent() const { return kind == Kind::kIdent; }
};

struct Comment {
  std::string text;  // without the // or /* */ markers
  int line;          // 1-based line the comment starts on
};

struct SourceFile {
  std::string rel;   // repo-relative path with '/' separators
  std::string text;  // raw contents
  bool is_header = false;

  std::vector<Token> toks;
  std::vector<Comment> comments;
  std::vector<std::string> includes;  // #include "..." targets, as written
  // For each (, ), {, }, [, ] token: index of its partner, else -1.
  std::vector<int> match;
};

/// Tokenizes `f.text` into `toks`/`comments`/`includes`/`match`.
/// Preprocessor directives are skipped (continuations honoured) so macro
/// bodies cannot unbalance the brace tracker; #include targets are kept.
void Tokenize(SourceFile& f);

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// Index: scope-aware model of the scanned tree
// ---------------------------------------------------------------------------

struct MutexDecl {
  int file;         // index into Index::files
  std::string cls;  // innermost enclosing class/struct, "" at file scope
  std::string var;
  std::string name;  // the "subsystem.what" string; "" when auto-named
  int line;
};

struct SliceMemberDecl {
  int file;
  std::string cls;
  std::string var;
  std::string type;  // "Slice" or "ByteView"
  int line;
  bool class_has_owner;  // class also declares a SharedBuffer/ByteBuffer
};

struct FunctionDef {
  int file;
  std::string cls;  // owning class ("" for free functions)
  std::string name;
  int line;
  bool signal_safe;  // carries the DL_SIGNAL_SAFE marker
};

/// One edge of the static lock-acquisition graph: `from` was held while
/// `to` was acquired (directly, via a one-hop resolved method call, or via
/// a storage-interface call).
struct StaticEdge {
  std::string from;
  std::string to;
  int file;
  int line;
  std::string via;  // "" for direct nesting, else the call that implies it
};

/// A potentially-blocking operation observed with locks held.
struct BlockingCall {
  int file;
  int line;
  std::string what;               // e.g. "fsync()", "->Get()", ".Wait()"
  std::vector<std::string> held;  // resolved names of locks held at the site
};

/// A call inside a DL_SIGNAL_SAFE function.
struct SignalCall {
  int file;
  int line;
  std::string fn;      // the marked function
  std::string callee;  // what it calls
};

/// Function names defined / DL_SIGNAL_SAFE-marked per file, for the
/// within-file name resolution of the signal-safety rule.
struct FileFunctions {
  std::set<std::string> defined;
  std::set<std::string> marked;
};

struct Index {
  std::vector<SourceFile> files;
  std::vector<MutexDecl> mutexes;
  std::vector<SliceMemberDecl> slice_members;
  std::vector<FunctionDef> functions;
  std::vector<StaticEdge> edges;
  std::vector<BlockingCall> blocking;
  std::vector<SignalCall> signal_calls;
  std::vector<FileFunctions> file_functions;  // parallel to files
  // Findings raised while indexing (e.g. a MutexLock whose lock expression
  // cannot be resolved to a declaration), already tagged with a rule name.
  std::vector<Finding> structural;
};

/// Builds the index over `files` (already tokenized). Lock analysis and
/// signal-safety indexing cover files under src/ only; the cheap token
/// rules scan everything themselves.
void BuildIndex(Index& index);

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

struct RuleContext {
  const Index& index;
  const LockHierarchy* manifest;  // nullptr when no manifest file exists
  std::string manifest_rel;       // manifest path for findings, repo-relative
};

struct Rule {
  const char* name;
  const char* summary;
  void (*check)(const RuleContext&, std::vector<Finding>&);
};

/// The rule registry, in report order.
const std::vector<Rule>& Registry();

/// True when `name` is a registered rule (valid in dllint-ok suppressions).
bool IsKnownRule(const std::string& name);

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct Options {
  std::string root;  // repo root (absolute or cwd-relative)
  std::vector<std::string> dirs = {"src", "tools", "bench", "tests",
                                   "examples"};
  // Path (relative to root or absolute) of the lock-hierarchy manifest;
  // missing file is only an error when the tree declares named mutexes.
  std::string manifest = "lock_hierarchy.txt";
  // Baseline of grandfathered findings; "" disables baseline handling.
  std::string baseline = "dllint_baseline.txt";
  // Subtrees skipped entirely (deliberate-violation fixture trees).
  std::vector<std::string> exclude = {"tests/lint_fixtures"};
};

struct RunResult {
  std::vector<Finding> findings;  // after suppressions and baseline
  int files_scanned = 0;
  int suppressed = 0;
  int baselined = 0;
  std::vector<StaticEdge> edges;  // deduped static lock graph
};

/// Runs every rule over the tree. Fails only on environment errors (root
/// unreadable, malformed manifest/baseline); findings are data, not errors.
Result<RunResult> Run(const Options& options);

/// `file:line: [rule] message` — the one-line text rendering; baseline
/// entries match findings on the `file:line: [rule]` prefix.
std::string FormatFinding(const Finding& f);

/// Machine-readable report: {"findings":[...],"files_scanned":N,...}.
std::string ToJson(const RunResult& result);

}  // namespace dl::lint

#endif  // DEEPLAKE_TOOLS_DLLINT_DLLINT_H_
