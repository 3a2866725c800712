// Fault recovery: goodput of a full streaming epoch vs. injected transient
// fault rate, with and without the RetryingStore decorator.
//
// Real object stores throw 5xx/timeouts constantly; the paper's §4.6 claim
// (the loader keeps the GPU fed from remote storage) only holds in
// production if a transient fault costs a retry, not the epoch. Chain:
// memory → FaultInjectionStore(1/rate) → RetryingStore → dataset → loader.
// Reported: epoch wall time, delivered rows/s (goodput), retries attempted,
// and whether the epoch survived. The bare-store column shows the pre-retry
// behavior: any nonzero fault rate kills the epoch.

#include "bench/bench_util.h"
#include "stream/dataloader.h"
#include "tsf/dataset.h"
#include "version/version_control.h"

namespace dl::bench {
namespace {

constexpr int kImages = 1024;
constexpr size_t kWorkers = 6;

struct EpochResult {
  bool completed = false;
  double seconds = 0;
  uint64_t rows = 0;
  uint64_t retries = 0;
};

EpochResult RunEpoch(storage::StoragePtr mem, uint64_t fail_every,
                     bool with_retry) {
  storage::StoragePtr chain = mem;
  if (fail_every > 0) {
    chain = std::make_shared<storage::FaultInjectionStore>(chain, fail_every);
  }
  std::shared_ptr<storage::RetryingStore> retry;
  if (with_retry) {
    storage::RetryPolicy policy;
    policy.max_attempts = 6;
    policy.initial_backoff_us = 200;
    policy.max_backoff_us = 5000;
    retry = std::make_shared<storage::RetryingStore>(chain, policy);
    chain = retry;
  }
  EpochResult r;
  auto ds = tsf::Dataset::Open(chain);
  if (!ds.ok()) return r;
  stream::DataloaderOptions opts;
  opts.batch_size = 64;
  opts.num_workers = kWorkers;
  Stopwatch sw;
  stream::Dataloader loader(*ds, opts);
  stream::Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok()) return r;  // epoch lost to a fault
    if (!*more) break;
    r.rows += batch.size;
  }
  r.seconds = sw.ElapsedSeconds();
  r.completed = r.rows == static_cast<uint64_t>(kImages);
  if (retry) r.retries = retry->retries_attempted();
  return r;
}

std::string Cell(const EpochResult& r) {
  if (!r.completed) return "epoch lost";
  return PerSec(r.rows / r.seconds) + " rows/s";
}

// ---------------------------------------------------------------------------
// Crash-during-commit recovery (DESIGN.md §9): kill the store mid-commit at
// representative points of the journaled write sequence, then time
// VersionControl::OpenOrInit's crash recovery over the surviving image.
// ---------------------------------------------------------------------------

constexpr uint64_t kCrashRows = 512;

storage::StoragePtr CloneImage(storage::StorageProvider& src) {
  auto dst = std::make_shared<storage::MemoryStore>();
  auto keys = src.ListPrefix("");
  if (!keys.ok()) return nullptr;
  for (const auto& k : *keys) {
    auto v = src.Get(k);
    if (!v.ok() || !dst->Put(k, ByteView(*v)).ok()) return nullptr;
  }
  return dst;
}

Status AppendScalars(tsf::Dataset& ds, uint64_t first, uint64_t count) {
  for (uint64_t i = first; i < first + count; ++i) {
    DL_RETURN_IF_ERROR(ds.Append(
        {{"labels",
          tsf::Sample::Scalar(static_cast<int64_t>(i), tsf::DType::kInt32)}}));
  }
  return Status::OK();
}

/// Seed image: one committed version plus an empty working head.
storage::StoragePtr BuildCrashSeed() {
  auto base = std::make_shared<storage::MemoryStore>();
  auto vc = version::VersionControl::OpenOrInit(base);
  if (!vc.ok()) return nullptr;
  auto ds = tsf::Dataset::Create((*vc)->working_store());
  if (!ds.ok()) return nullptr;
  tsf::TensorOptions opts;
  opts.htype = "class_label";
  opts.max_chunk_bytes = 1024;  // several chunk seals per ingest
  if (!(*ds)->CreateTensor("labels", opts).ok()) return nullptr;
  if (!AppendScalars(**ds, 0, kCrashRows).ok()) return nullptr;
  if (!(*ds)->Flush().ok()) return nullptr;
  if (!(*vc)->Commit("seed").ok()) return nullptr;
  return base;
}

Status RunCommitWorkload(storage::StoragePtr store) {
  DL_ASSIGN_OR_RETURN(auto vc, version::VersionControl::OpenOrInit(store));
  DL_ASSIGN_OR_RETURN(auto ds, tsf::Dataset::Open(vc->working_store()));
  DL_RETURN_IF_ERROR(AppendScalars(*ds, kCrashRows, kCrashRows));
  DL_RETURN_IF_ERROR(ds->Flush());
  return vc->Commit("crashed").status();
}

struct CrashCell {
  double recovery_us = 0;
  uint64_t rolled_back = 0;
  uint64_t rolled_forward = 0;
  uint64_t keysets_rebuilt = 0;
  bool info_rebuilt = false;
  uint64_t rows = 0;
  bool reopened = false;
};

CrashCell RunCrashCell(storage::StoragePtr seed, uint64_t crash_at,
                       storage::CrashMode mode) {
  CrashCell cell;
  storage::StoragePtr image = CloneImage(*seed);
  if (!image) return cell;
  auto crash = std::make_shared<storage::CrashPointStore>(image, crash_at, mode);
  (void)RunCommitWorkload(crash);  // dies at the crash point by design

  Stopwatch sw;
  auto vc = version::VersionControl::OpenOrInit(image);
  cell.recovery_us = sw.ElapsedSeconds() * 1e6;
  if (!vc.ok()) return cell;
  const version::RecoveryReport& rec = (*vc)->last_recovery();
  cell.rolled_back = rec.commits_rolled_back;
  cell.rolled_forward = rec.commits_rolled_forward;
  cell.keysets_rebuilt = rec.keysets_rebuilt;
  cell.info_rebuilt = rec.info_rebuilt;
  auto ds = tsf::Dataset::Open((*vc)->working_store());
  if (!ds.ok()) return cell;
  cell.rows = (*ds)->NumRows();
  cell.reopened = true;
  return cell;
}

}  // namespace
}  // namespace dl::bench

int main() {
  using namespace dl;
  using namespace dl::bench;
  MarkResourceBaseline();

  Header("Fault recovery: goodput vs. injected transient fault rate",
         "ISSUE 1 robustness claim (supports paper §4.6, Figs. 7-8)",
         "1024 images (250x250x3-class workload scaled to 64x64), "
         "fail_every ∈ {∞, 50, 20, 7, 3}",
         "with RetryingStore every epoch completes at near-fault-free "
         "goodput; without it any nonzero fault rate loses the epoch");

  auto mem = std::make_shared<storage::MemoryStore>();
  sim::WorkloadGenerator::Spec spec = sim::WorkloadGenerator::SmallJpeg();
  spec.min_side = spec.max_side = 64;  // scaled from 250x250 (factor ~15x)
  sim::WorkloadGenerator gen(spec, /*seed=*/7);
  // 64 KiB chunks → ~200 image chunks, so an epoch issues hundreds of
  // storage reads and every tested fault period actually fires.
  if (!BuildTsfDataset(mem, gen, kImages, "none", 64 * 1024).ok()) {
    std::printf("dataset build failed\n");
    return 1;
  }

  Table table({"fail_every", "fault rate", "bare store", "with retry",
               "retries"});
  for (uint64_t fail_every : {uint64_t{0}, uint64_t{50}, uint64_t{20},
                              uint64_t{7}, uint64_t{3}}) {
    EpochResult bare = RunEpoch(mem, fail_every, /*with_retry=*/false);
    EpochResult retried = RunEpoch(mem, fail_every, /*with_retry=*/true);
    table.AddRow({fail_every == 0 ? "none" : std::to_string(fail_every),
                  fail_every == 0
                      ? "0%"
                      : Fmt("%.1f%%", 100.0 / static_cast<double>(fail_every)),
                  Cell(bare), Cell(retried),
                  std::to_string(retried.retries)});
  }
  table.Print();

  // Scenario 2: crash mid-commit, measure recovery on reopen (§9).
  std::printf("\nCrash-during-commit recovery: %llu-row append + commit, "
              "store killed at write N, reopen timed\n",
              static_cast<unsigned long long>(kCrashRows));
  auto seed = BuildCrashSeed();
  if (!seed) {
    std::printf("crash seed build failed\n");
    return 1;
  }
  // Size the write sequence once (crash_at_write == 0 only counts).
  auto counter = std::make_shared<storage::CrashPointStore>(
      CloneImage(*seed), 0, storage::CrashMode::kMissing);
  if (!RunCommitWorkload(counter).ok()) {
    std::printf("counting run failed\n");
    return 1;
  }
  const uint64_t total = counter->writes_seen();
  // First ingest write, mid-ingest, the staged key set, the commit record,
  // and the trailing info write of the journaled sequence.
  const std::pair<const char*, uint64_t> points[] = {
      {"first write", 1},          {"mid-ingest", total / 2},
      {"staged keyset", total - 4}, {"commit record", total - 2},
      {"info snapshot", total}};

  Table crash_table({"crash point", "mode", "recovery", "rolled back",
                     "rolled fwd", "keysets rebuilt", "rows after"});
  Json crash_rows = Json::MakeArray();
  for (const auto& [label, at] : points) {
    for (storage::CrashMode mode :
         {storage::CrashMode::kMissing, storage::CrashMode::kTorn,
          storage::CrashMode::kDuplicate}) {
      CrashCell cell = RunCrashCell(seed, at, mode);
      crash_table.AddRow(
          {std::string(label) + " (W" + std::to_string(at) + "/" +
               std::to_string(total) + ")",
           storage::CrashModeName(mode),
           cell.reopened ? Fmt("%.0f us", cell.recovery_us) : "REOPEN FAILED",
           std::to_string(cell.rolled_back),
           std::to_string(cell.rolled_forward),
           std::to_string(cell.keysets_rebuilt),
           std::to_string(cell.rows)});
      Json row = Json::MakeObject();
      row.Set("crash_point", label);
      row.Set("crash_at_write", at);
      row.Set("total_writes", total);
      row.Set("mode", storage::CrashModeName(mode));
      row.Set("reopened", cell.reopened);
      row.Set("recovery_us", cell.recovery_us);
      row.Set("commits_rolled_back", cell.rolled_back);
      row.Set("commits_rolled_forward", cell.rolled_forward);
      row.Set("keysets_rebuilt", cell.keysets_rebuilt);
      row.Set("info_rebuilt", cell.info_rebuilt);
      row.Set("rows_after_recovery", cell.rows);
      crash_rows.Append(std::move(row));
    }
  }
  crash_table.Print();
  Json extra = Json::MakeObject();
  extra.Set("crash_recovery", std::move(crash_rows));

  if (dl::Status report_st = dl::bench::WriteJsonReport("fault_recovery", table,
                                                        std::move(extra));
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\n");
  return 0;
}
