// dllint CLI. Exit codes: 0 clean, 1 findings, 2 environment error —
// ctest registers it as `check_dllint` (label `lint`).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tools/dllint/dllint.h"

namespace {

void Usage() {
  std::puts(
      "usage: dllint [--root DIR] [--json] [--manifest FILE]\n"
      "              [--baseline FILE | --no-baseline] [--dirs a,b,c]\n"
      "              [--dump-lock-graph] [--write-baseline] [--list-rules]\n"
      "\n"
      "Scope-aware static analyzer for this repo (DESIGN.md §11).\n"
      "  --root DIR         repo root to scan (default: .)\n"
      "  --json             machine-readable report on stdout\n"
      "  --manifest FILE    lock-hierarchy manifest (default:\n"
      "                     lock_hierarchy.txt under the root)\n"
      "  --baseline FILE    grandfathered findings (default:\n"
      "                     dllint_baseline.txt under the root)\n"
      "  --no-baseline      ignore any baseline file\n"
      "  --dirs a,b,c       subdirectories to scan (default:\n"
      "                     src,tools,bench,tests,examples)\n"
      "  --dump-lock-graph  print the observed static lock edges and exit\n"
      "  --write-baseline   print current findings in baseline format\n"
      "  --list-rules       list rules and one-line summaries");
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    std::string part =
        s.substr(start, comma == std::string::npos ? std::string::npos
                                                   : comma - start);
    if (!part.empty()) out.push_back(part);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  dl::lint::Options options;
  options.root = ".";
  bool json = false, dump = false, write_baseline = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dllint: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      options.root = need_value();
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--manifest") {
      options.manifest = need_value();
    } else if (arg == "--baseline") {
      options.baseline = need_value();
    } else if (arg == "--no-baseline") {
      options.baseline.clear();
    } else if (arg == "--dirs") {
      options.dirs = SplitCommas(need_value());
    } else if (arg == "--dump-lock-graph") {
      dump = true;
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--list-rules") {
      for (const dl::lint::Rule& r : dl::lint::Registry()) {
        std::printf("%-26s %s\n", r.name, r.summary);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "dllint: unknown argument '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  auto run = dl::lint::Run(options);
  if (!run.ok()) {
    std::fprintf(stderr, "dllint: %s\n", run.status().ToString().c_str());
    return 2;
  }
  const dl::lint::RunResult& result = run.value();

  if (dump) {
    for (const dl::lint::StaticEdge& e : result.edges) {
      if (e.via.empty()) {
        std::printf("edge %s -> %s\n", e.from.c_str(), e.to.c_str());
      } else {
        std::printf("edge %s -> %s  # via %s\n", e.from.c_str(),
                    e.to.c_str(), e.via.c_str());
      }
    }
    return 0;
  }
  if (write_baseline) {
    std::puts(
        "# dllint baseline: grandfathered findings, one FormatFinding line\n"
        "# each. This file may only shrink (scripts/check_baseline_shrink"
        ".sh);\n# fix the finding or annotate the site, then delete the "
        "line.");
    for (const dl::lint::Finding& f : result.findings) {
      std::puts(dl::lint::FormatFinding(f).c_str());
    }
    return 0;
  }
  if (json) {
    std::fputs(dl::lint::ToJson(result).c_str(), stdout);
    return result.findings.empty() ? 0 : 1;
  }
  for (const dl::lint::Finding& f : result.findings) {
    std::puts(dl::lint::FormatFinding(f).c_str());
  }
  std::printf("dllint: %d files scanned, %zu finding(s), %d suppressed, "
              "%d baselined\n",
              result.files_scanned, result.findings.size(),
              result.suppressed, result.baselined);
  return result.findings.empty() ? 0 : 1;
}
