// Concurrent commits: optimistic writer throughput and snapshot-reader
// goodput under the MVCC publish protocol (DESIGN.md §12).
//
// The paper's §4.2/§7.3 concurrency story only pays off if (a) writers
// touching DISJOINT data do not serialize behind each other — their
// publishes rebase and land instead of conflicting — and (b) readers
// pinned at a sealed commit sustain full throughput while writers churn
// the head. Matrix: writers ∈ {1, 2, 4} × workload ∈ {disjoint row
// groups, contended single group}, each cell with snapshot readers
// streaming concurrently. Reported per cell: landed commits/s, conflicts,
// retries, fast-path vs rebased publishes, mean end-to-end transaction
// latency, and reader rows/s while writers are active.
//
//   bench_concurrent_commits [--txns N] [--quick]

#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "tsf/dataset.h"
#include "version/mvcc.h"
#include "version/version_control.h"

namespace dl::bench {
namespace {

// 128 int64 rows = 1KB, the smallest legal max_chunk_bytes: one chunk per
// writer group, so disjoint groups have disjoint conflict footprints.
constexpr uint64_t kGroupRows = 128;
constexpr int kReaders = 2;

struct CellResult {
  uint64_t commits = 0;
  uint64_t conflicts = 0;
  uint64_t retries = 0;
  uint64_t fast_path = 0;
  uint64_t rebased = 0;
  double seconds = 0;
  double avg_txn_us = 0;
  double reader_rows_per_s = 0;
  bool ok = false;
};

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Seed: `groups` disjoint row groups, one chunk each, sealed.
Result<std::shared_ptr<version::VersionControl>> SeedTree(
    storage::StoragePtr base, int groups) {
  DL_ASSIGN_OR_RETURN(auto vc, version::VersionControl::OpenOrInit(base));
  DL_ASSIGN_OR_RETURN(auto ds, tsf::Dataset::Create(vc->working_store()));
  tsf::TensorOptions vals;
  vals.dtype = "int64";
  // Align chunk boundaries with writer groups: conflict detection is
  // chunk-granular, so disjoint groups give disjoint footprints.
  static_assert(kGroupRows * sizeof(int64_t) >= 1024);
  vals.max_chunk_bytes = kGroupRows * sizeof(int64_t);
  DL_RETURN_IF_ERROR(ds->CreateTensor("vals", vals).status());
  for (uint64_t i = 0; i < static_cast<uint64_t>(groups) * kGroupRows; ++i) {
    DL_RETURN_IF_ERROR(ds->Append(
        {{"vals", tsf::Sample::Scalar(static_cast<int64_t>(i),
                                      tsf::DType::kInt64)}}));
  }
  DL_RETURN_IF_ERROR(ds->Flush());
  DL_RETURN_IF_ERROR(vc->Commit("seed").status());
  return vc;
}

/// One cell: `writers` threads each land `txns` transactions; `contended`
/// aims every writer at group 0 (all footprints overlap), otherwise each
/// writer owns its group. kReaders snapshot readers stream the sealed
/// head the whole time.
CellResult RunCell(int writers, bool contended, int txns) {
  CellResult cell;
  auto base = std::make_shared<storage::MemoryStore>();
  auto vc_or = SeedTree(base, writers);
  if (!vc_or.ok()) return cell;
  auto vc = *vc_or;

  const uint64_t conflicts0 = CounterValue("version.txn.conflicts");
  const uint64_t retries0 = CounterValue("version.txn.retries");
  const uint64_t fast0 = CounterValue("version.txn.publish_fast_path");
  const uint64_t rebased0 = CounterValue("version.txn.publish_rebased");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> landed{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<int64_t> txn_us{0};
  std::atomic<uint64_t> reader_rows{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      storage::RetryPolicy ropts = version::kTxnRetryPolicy;
      ropts.max_attempts = 64;
      ropts.seed = 1 + static_cast<uint64_t>(w);
      const uint64_t group = contended ? 0 : static_cast<uint64_t>(w);
      for (int i = 1; i <= txns; ++i) {
        Stopwatch sw;
        auto r = version::CommitWithTxnRetries(
            vc, {.owner = "w" + std::to_string(w)},
            [&](tsf::Dataset& ds) -> Status {
              DL_ASSIGN_OR_RETURN(auto* t, ds.GetTensor("vals"));
              std::vector<tsf::Sample> rows;
              for (uint64_t r2 = 0; r2 < kGroupRows; ++r2) {
                rows.push_back(tsf::Sample::Scalar(int64_t{w * 100000 + i},
                                                   tsf::DType::kInt64));
              }
              return t->UpdateContiguous(group * kGroupRows, rows);
            },
            "w" + std::to_string(w) + "#" + std::to_string(i), ropts);
        txn_us.fetch_add(static_cast<int64_t>(sw.ElapsedSeconds() * 1e6));
        if (r.ok()) {
          landed.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      // Each pass pins the sealed head and streams every row of the
      // snapshot — never blocked by, and never observing, in-flight
      // publishes.
      while (!stop.load(std::memory_order_relaxed)) {
        auto head = vc->SealedHead();
        if (!head.ok()) continue;
        auto store = vc->StoreAt(*head);
        if (!store.ok()) continue;
        auto ds = tsf::Dataset::Open(*store);
        if (!ds.ok()) continue;
        uint64_t n = (*ds)->NumRows();
        for (uint64_t i = 0; i < n; ++i) {
          if (!(*ds)->ReadRow(i).ok()) return;  // corruption: abort pass
        }
        reader_rows.fetch_add(n);
      }
    });
  }

  Stopwatch wall;
  for (int w = 0; w < writers; ++w) threads[w].join();
  cell.seconds = wall.ElapsedSeconds();
  stop.store(true);
  for (size_t t = writers; t < threads.size(); ++t) threads[t].join();

  cell.commits = landed.load();
  cell.conflicts = CounterValue("version.txn.conflicts") - conflicts0;
  cell.retries = CounterValue("version.txn.retries") - retries0;
  cell.fast_path = CounterValue("version.txn.publish_fast_path") - fast0;
  cell.rebased = CounterValue("version.txn.publish_rebased") - rebased0;
  if (cell.commits > 0) {
    cell.avg_txn_us =
        static_cast<double>(txn_us.load()) / static_cast<double>(cell.commits);
  }
  if (cell.seconds > 0) {
    cell.reader_rows_per_s =
        static_cast<double>(reader_rows.load()) / cell.seconds;
  }
  cell.ok = failed.load() == 0 &&
            cell.commits == static_cast<uint64_t>(writers) * txns;
  return cell;
}

}  // namespace
}  // namespace dl::bench

int main(int argc, char** argv) {
  using namespace dl;
  using namespace dl::bench;

  int txns = 24;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") txns = 6;
    if (arg == "--txns" && i + 1 < argc) txns = std::atoi(argv[i + 1]);
  }
  if (txns <= 0) txns = 1;

  obs::MetricsRegistry::Global().Reset();
  MarkResourceBaseline();

  Header("Concurrent commits: MVCC writer throughput + snapshot readers",
         "DESIGN.md §12 (paper §4.2 version control, §7.3 branch locks)",
         ("writers ∈ {1,2,4} × {disjoint,contended}, " +
          std::to_string(txns) + " txns/writer, " + std::to_string(kReaders) +
          " snapshot readers/cell, in-memory store")
             .c_str(),
         "disjoint writers land every commit with zero conflicts (rebase, "
         "no serialization); contended writers conflict and converge via "
         "retry; readers stream at full rate throughout");

  Table table({"writers", "workload", "commits", "commits/s", "conflicts",
               "retries", "fast path", "rebased", "avg txn", "reader rows/s"});
  Json cells = Json::MakeArray();
  bool all_ok = true;
  for (int writers : {1, 2, 4}) {
    for (bool contended : {false, true}) {
      CellResult cell = RunCell(writers, contended, txns);
      all_ok = all_ok && cell.ok;
      table.AddRow({std::to_string(writers),
                    contended ? "contended" : "disjoint",
                    std::to_string(cell.commits),
                    cell.seconds > 0
                        ? PerSec(static_cast<double>(cell.commits) /
                                 cell.seconds)
                        : "-",
                    std::to_string(cell.conflicts),
                    std::to_string(cell.retries),
                    std::to_string(cell.fast_path),
                    std::to_string(cell.rebased),
                    Fmt("%.0f us", cell.avg_txn_us),
                    PerSec(cell.reader_rows_per_s)});
      Json row = Json::MakeObject();
      row.Set("writers", static_cast<int64_t>(writers));
      row.Set("workload", contended ? "contended" : "disjoint");
      row.Set("txns_per_writer", static_cast<int64_t>(txns));
      row.Set("commits", cell.commits);
      row.Set("seconds", cell.seconds);
      row.Set("conflicts", cell.conflicts);
      row.Set("retries", cell.retries);
      row.Set("publish_fast_path", cell.fast_path);
      row.Set("publish_rebased", cell.rebased);
      row.Set("avg_txn_us", cell.avg_txn_us);
      row.Set("reader_rows_per_s", cell.reader_rows_per_s);
      row.Set("all_commits_landed", cell.ok);
      cells.Append(std::move(row));
    }
  }
  table.Print();
  if (!all_ok) std::printf("  WARNING: some transactions failed to land\n");

  Json extra = Json::MakeObject();
  extra.Set("cells", std::move(cells));
  extra.Set("readers_per_cell", static_cast<int64_t>(kReaders));
  if (Status report_st =
          WriteJsonReport("concurrent_commits", table, std::move(extra));
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\n");
  return all_ok ? 0 : 1;
}
