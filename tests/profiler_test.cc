// Continuous-profiling tests (DESIGN.md §7): CpuProfiler lifecycle
// (Start/Stop/Start, single-active enforcement, sanitizer degradation),
// lock-contention stats with auto-derived mutex names, per-job resource
// attribution through ContextScope + InstrumentedStore, the /pprof/profile,
// /lockz and /resourcez endpoints, and a signal-storm scrape racing a
// dataloader epoch. Run standalone: ctest -L obs (also in -L stress — the
// storm case is a TSan target, where the profiler itself soft-disables).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tsf/dataset.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/lock_stats.h"
#include "util/thread_annotations.h"

namespace dl::obs {
namespace {

// Named and noinline so the symbolized folded stacks have a frame the
// tests can look for.
__attribute__((noinline)) void BurnCpuForProfiler(int64_t us) {
  BusyWaitMicros(us);
}

// Burns actual thread CPU time, not wall time: attribution assertions stay
// deterministic even when ctest runs suites in parallel on one core.
__attribute__((noinline)) void BurnThreadCpuMicros(int64_t us) {
  int64_t start = ThreadCpuMicros();
  while (ThreadCpuMicros() - start < us) {
  }
}

struct TestDataset {
  std::shared_ptr<storage::InstrumentedStore> store;
  std::shared_ptr<tsf::Dataset> dataset;
};

Result<TestDataset> SmallDataset(const std::string& layer) {
  TestDataset out;
  out.store = std::make_shared<storage::InstrumentedStore>(
      std::make_shared<storage::MemoryStore>(), layer);
  DL_ASSIGN_OR_RETURN(out.dataset, tsf::Dataset::Create(out.store));
  tsf::TensorOptions options;
  options.htype = "class_label";
  DL_RETURN_IF_ERROR(out.dataset->CreateTensor("x", options).status());
  for (int i = 0; i < 64; ++i) {
    std::map<std::string, tsf::Sample> row;
    row["x"] = tsf::Sample::Scalar(i, tsf::DType::kInt32);
    DL_RETURN_IF_ERROR(out.dataset->Append(row));
  }
  DL_RETURN_IF_ERROR(out.dataset->Flush());
  return out;
}

uint64_t RunEpoch(std::shared_ptr<tsf::Dataset> dataset,
                  const Context& context) {
  stream::DataloaderOptions options;
  options.batch_size = 16;
  options.num_workers = 2;
  options.context = context;
  stream::Dataloader loader(dataset, options);
  stream::Batch batch;
  uint64_t rows = 0;
  while (true) {
    auto more = loader.Next(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    rows += batch.size;
  }
  return rows;
}

// ---- CpuProfiler lifecycle ----

TEST(CpuProfilerTest, StartStopStartCollectsSamples) {
  CpuProfiler profiler;
  if (!CpuProfiler::SupportedInThisBuild()) {
    EXPECT_TRUE(profiler.Start().IsNotImplemented());
    GTEST_SKIP() << "signal profiling disabled under sanitizers";
  }
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_TRUE(profiler.Start().ok()) << "cycle " << cycle;
    EXPECT_TRUE(profiler.running());
    BurnCpuForProfiler(400'000);
    ASSERT_TRUE(profiler.Stop().ok());
    EXPECT_FALSE(profiler.running());
    EXPECT_GT(profiler.samples(), 0u) << "cycle " << cycle;
    std::string folded = profiler.FoldedStacks();
    EXPECT_FALSE(folded.empty()) << "cycle " << cycle;
    // Every line is "frames count"; frames are ';'-separated.
    EXPECT_NE(folded.find(' '), std::string::npos);
  }
}

TEST(CpuProfilerTest, SecondProfilerRejectedWhileRunning) {
  if (!CpuProfiler::SupportedInThisBuild()) {
    GTEST_SKIP() << "signal profiling disabled under sanitizers";
  }
  CpuProfiler first;
  ASSERT_TRUE(first.Start().ok());
  CpuProfiler second;
  EXPECT_TRUE(second.Start().IsFailedPrecondition());
  ASSERT_TRUE(first.Stop().ok());
  // The arena frees up once the first stops.
  EXPECT_TRUE(second.Start().ok());
  EXPECT_TRUE(second.Stop().ok());
}

TEST(CpuProfilerTest, StopWithoutStartIsOk) {
  CpuProfiler profiler;
  EXPECT_TRUE(profiler.Stop().ok());
  EXPECT_EQ(profiler.samples(), 0u);
  EXPECT_TRUE(profiler.FoldedStacks().empty());
}

// ---- Lock contention stats ----

TEST(LockStatsTest, ContendedMutexRecordsWaitAndName) {
  lockstats::ResetForTest();
  Mutex mu("test.contended.mu");
  std::atomic<bool> holder_has_lock{false};
  std::atomic<bool> main_about_to_lock{false};
  std::thread holder([&] {
    mu.Lock();
    holder_has_lock.store(true);
    // The hold starts only once the main thread is about to lock, so a
    // slow wake-up of the main thread cannot outlast it.
    while (!main_about_to_lock.load()) std::this_thread::yield();
    SleepMicros(20'000);  // hold so the main thread must block
    mu.Unlock();
  });
  while (!holder_has_lock.load()) std::this_thread::yield();
  main_about_to_lock.store(true);
  mu.Lock();  // contended: records ~20ms of wait
  mu.Unlock();
  holder.join();

  bool found = false;
  for (const auto& row : lockstats::Snapshot()) {
    if (row.name == "test.contended.mu") {
      found = true;
      EXPECT_GE(row.contentions, 1u);
      EXPECT_GT(row.wait_us_total, 1'000u);
      EXPECT_GE(row.max_wait_us, row.wait_us_total / row.contentions);
      uint64_t bucket_sum = 0;
      for (uint64_t c : row.buckets) bucket_sum += c;
      EXPECT_EQ(bucket_sum, row.contentions);
    }
  }
  EXPECT_TRUE(found) << "contended lock missing from snapshot";
  EXPECT_GE(lockstats::TotalContentions(), 1u);
  EXPECT_GT(lockstats::TotalWaitMicros(), 0u);
}

TEST(LockStatsTest, UnnamedMutexGetsFileLineName) {
  Mutex mu;  // name derives from this construction site
  std::string name = mu.name();
  EXPECT_NE(name.find("profiler_test.cc:"), std::string::npos) << name;
}

TEST(LockStatsTest, UncontendedLockRecordsNothing) {
  lockstats::ResetForTest();
  Mutex mu("test.uncontended.mu");
  for (int i = 0; i < 100; ++i) {
    MutexLock lock(mu);
  }
  for (const auto& row : lockstats::Snapshot()) {
    EXPECT_NE(row.name, "test.uncontended.mu");
  }
}

TEST(LockStatsTest, SampleLockStatsMirrorsIntoRegistry) {
  lockstats::ResetForTest();
  Mutex mu("test.mirror.mu");
  std::atomic<bool> held{false};
  std::thread holder([&] {
    mu.Lock();
    held.store(true);
    SleepMicros(5'000);
    mu.Unlock();
  });
  while (!held.load()) SleepMicros(100);
  mu.Lock();
  mu.Unlock();
  holder.join();

  MetricsRegistry registry;
  SampleLockStats(registry);
  double wait =
      registry.GetGauge("lock.wait_us", {{"lock", "test.mirror.mu"}})
          ->Value();
  EXPECT_GT(wait, 0.0);
  EXPECT_GE(registry.GetGauge("lock.contentions")->Value(), 1.0);
}

// ---- Per-job resource attribution ----

TEST(ResourceMeterTest, ContextScopeChargesCpuToMeter) {
  Context ctx = Context::ForJob("tenant-cpu", "job-cpu");
  ASSERT_NE(ctx.meter, nullptr);
  {
    ContextScope scope(ctx);
    BurnThreadCpuMicros(30'000);
    {
      // Same meter re-installed: must not double-charge the interval.
      ContextScope nested(ctx);
      BurnThreadCpuMicros(10'000);
    }
  }
  // 40ms of CPU was burned inside the scope; double-charging the nested
  // 10ms would push the total past 50ms.
  EXPECT_GE(ctx.meter->cpu_micros(), 38'000u);
  EXPECT_LE(ctx.meter->cpu_micros(), 49'000u);
}

TEST(ResourceMeterTest, TwoJobsSplitBytesAndCpuByLabel) {
  auto a = SmallDataset("job-a-store");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = SmallDataset("job-b-store");
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  Context ctx_a = Context::ForJob("tenant-a", "job-a");
  Context ctx_b = Context::ForJob("tenant-b", "job-b");
  ASSERT_NE(ctx_a.meter, nullptr);
  ASSERT_NE(ctx_b.meter, nullptr);

  {
    ContextScope scope(ctx_a);
    BurnThreadCpuMicros(20'000);
    EXPECT_EQ(RunEpoch(a->dataset, ctx_a), 64u);
  }
  uint64_t a_bytes_after_own_run = ctx_a.meter->bytes_read();
  uint64_t a_cpu_after_own_run = ctx_a.meter->cpu_micros();
  {
    ContextScope scope(ctx_b);
    BurnThreadCpuMicros(20'000);
    EXPECT_EQ(RunEpoch(b->dataset, ctx_b), 64u);
  }

  // Each job read its own dataset's bytes...
  EXPECT_GT(ctx_a.meter->bytes_read(), 0u);
  EXPECT_GT(ctx_b.meter->bytes_read(), 0u);
  // ...and job B's run charged nothing to job A (no cross-charging).
  EXPECT_EQ(ctx_a.meter->bytes_read(), a_bytes_after_own_run);
  EXPECT_EQ(ctx_a.meter->cpu_micros(), a_cpu_after_own_run);
  // The CPU burn guarantees attribution on both jobs.
  EXPECT_GE(ctx_a.meter->cpu_micros(), 18'000u);
  EXPECT_GE(ctx_b.meter->cpu_micros(), 18'000u);
  // A meter never charges more reads than its store served.
  EXPECT_LE(ctx_a.meter->bytes_read(), a->store->bytes_read());
  EXPECT_LE(ctx_b.meter->bytes_read(), b->store->bytes_read());

  // The charges land on {job, tenant}-labeled counters in the global
  // registry — the rows /resourcez groups.
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry
                .GetCounter("job.bytes_read",
                            {{"job", "job-a"}, {"tenant", "tenant-a"}})
                ->Value(),
            ctx_a.meter->bytes_read());
  EXPECT_EQ(registry
                .GetCounter("job.bytes_read",
                            {{"job", "job-b"}, {"tenant", "tenant-b"}})
                ->Value(),
            ctx_b.meter->bytes_read());
}

// ---- Debug server endpoints ----

TEST(ProfilerEndpointTest, LockzRanksContendedLocks) {
  lockstats::ResetForTest();
  Mutex mu("test.lockz.mu");
  std::atomic<bool> held{false};
  std::thread holder([&] {
    mu.Lock();
    held.store(true);
    SleepMicros(10'000);
    mu.Unlock();
  });
  while (!held.load()) SleepMicros(100);
  mu.Lock();
  mu.Unlock();
  holder.join();

  MetricsRegistry registry;
  DebugServer::Options options;
  options.enable_watchdog = false;
  DebugServer server(&registry, &TraceRecorder::Global(), options);
  ASSERT_TRUE(server.Start().ok());

  auto response = HttpGet("127.0.0.1", server.port(), "/lockz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  auto doc = Json::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_GE(doc->Get("total_contentions").as_number(), 1.0);
  const Json& locks = doc->Get("locks");
  ASSERT_GT(locks.size(), 0u);
  // Ranked by total wait, descending.
  double prev_wait = -1;
  bool found = false;
  for (size_t i = 0; i < locks.size(); ++i) {
    double wait = locks[i].Get("wait_us").as_number();
    if (prev_wait >= 0) {
      EXPECT_LE(wait, prev_wait);
    }
    prev_wait = wait;
    if (locks[i].Get("name").as_string() == "test.lockz.mu") found = true;
  }
  EXPECT_TRUE(found) << response->body;
  ASSERT_TRUE(server.Stop().ok());
}

TEST(ProfilerEndpointTest, ResourcezGroupsPerJobUsage) {
  Context ctx = Context::ForJob("tenant-rz", "job-rz");
  ctx.meter->ChargeCpuMicros(1234);
  ctx.meter->ChargeBytesRead(4096);
  ctx.meter->ChargeBytesCopied(512);

  // /resourcez reads the global registry (where meters charge).
  DebugServer::Options options;
  options.enable_watchdog = false;
  DebugServer server(&MetricsRegistry::Global(), &TraceRecorder::Global(),
                     options);
  ASSERT_TRUE(server.Start().ok());
  auto response = HttpGet("127.0.0.1", server.port(), "/resourcez");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  auto doc = Json::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Json& jobs = doc->Get("jobs");
  bool found = false;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].Get("job").as_string() != "job-rz") continue;
    found = true;
    EXPECT_EQ(jobs[i].Get("tenant").as_string(), "tenant-rz");
    EXPECT_GE(jobs[i].Get("cpu_us").as_number(), 1234.0);
    EXPECT_GE(jobs[i].Get("bytes_read").as_number(), 4096.0);
    EXPECT_GE(jobs[i].Get("bytes_copied").as_number(), 512.0);
  }
  EXPECT_TRUE(found) << response->body;
  EXPECT_GE(doc->Get("total").Get("cpu_us").as_number(), 1234.0);
  ASSERT_TRUE(server.Stop().ok());
}

TEST(ProfilerEndpointTest, PprofProfileServesFoldedStacks) {
  MetricsRegistry registry;
  DebugServer::Options options;
  options.enable_watchdog = false;
  DebugServer server(&registry, &TraceRecorder::Global(), options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread busy([&] {
    while (!stop.load()) BurnCpuForProfiler(5'000);
  });
  auto response = HttpGet("127.0.0.1", server.port(),
                          "/pprof/profile?seconds=1", /*timeout_ms=*/15'000);
  stop.store(true);
  busy.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  if (!CpuProfiler::SupportedInThisBuild()) {
    EXPECT_EQ(response->status, 501);
  } else {
    EXPECT_EQ(response->status, 200);
    EXPECT_FALSE(response->body.empty());
    EXPECT_NE(response->body.find(' '), std::string::npos);
  }
  ASSERT_TRUE(server.Stop().ok());
}

// ---- Signal-storm stress: profiler + scrape storm + epoch ----

TEST(ProfilerStressTest, SignalStormScrapeWhileEpochRuns) {
  auto data = SmallDataset("storm-store");
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  DebugServer::Options options;
  options.enable_watchdog = false;
  DebugServer server(&MetricsRegistry::Global(), &TraceRecorder::Global(),
                     options);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  CpuProfiler::Options popts;
  popts.sample_hz = 500;  // a storm: 5x the default rate
  CpuProfiler profiler(popts);
  bool profiling = false;
  if (CpuProfiler::SupportedInThisBuild()) {
    ASSERT_TRUE(profiler.Start().ok());
    profiling = true;
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (const char* path : {"/metrics", "/lockz", "/resourcez"}) {
    scrapers.emplace_back([&, path] {
      while (!stop.load()) {
        (void)HttpGet("127.0.0.1", port, path);
      }
    });
  }

  // At least 3 epochs; then keep storming until a sample lands (one epoch
  // is ~2ms of CPU, and ITIMER_PROF can only fire on a kernel tick, so a
  // fixed epoch count could finish before the first tick ever elapses).
  int64_t deadline_us = NowMicros() + 10'000'000;
  uint64_t total_rows = 0;
  uint64_t epochs = 0;
  while (epochs < 3 ||
         (profiling && profiler.samples() == 0 && NowMicros() < deadline_us)) {
    Context ctx = Context::ForJob("storm-tenant", "storm-job");
    total_rows += RunEpoch(data->dataset, ctx);
    ++epochs;
  }
  stop.store(true);
  for (auto& t : scrapers) t.join();

  EXPECT_EQ(total_rows, epochs * 64u);
  if (profiling) {
    ASSERT_TRUE(profiler.Stop().ok());
    EXPECT_GT(profiler.samples(), 0u);
  }
  EXPECT_GT(server.requests_served(), 0u);
  ASSERT_TRUE(server.Stop().ok());
}

}  // namespace
}  // namespace dl::obs
