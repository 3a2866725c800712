// Observability tests: histogram bucketing/quantiles, registry semantics,
// concurrent counters, trace export well-formedness, instrumented storage,
// and an end-to-end epoch span-timeline check. Run standalone: ctest -L obs

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network_model.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tsf/dataset.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace dl::obs {
namespace {

// ---- Histogram ----

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({10, 100, 1000});
  h.Observe(5);     // bucket 0
  h.Observe(10);    // bucket 0 (bounds are inclusive upper limits)
  h.Observe(11);    // bucket 1
  h.Observe(100);   // bucket 1
  h.Observe(1000);  // bucket 2
  h.Observe(5000);  // overflow
  auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 6u);
  EXPECT_DOUBLE_EQ(h.Sum(), 5 + 10 + 11 + 100 + 1000 + 5000);
  EXPECT_DOUBLE_EQ(h.Max(), 5000);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  // Ten equal-width buckets, one observation per bucket: quantiles should
  // land within one bucket width of the exact order statistic.
  std::vector<double> bounds;
  for (int i = 1; i <= 10; ++i) bounds.push_back(i * 10.0);
  Histogram h(bounds);
  for (int v = 5; v <= 95; v += 10) h.Observe(v);  // 5, 15, ..., 95
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.Quantile(0.1), 10.0, 10.0);
  EXPECT_NEAR(h.Quantile(0.9), 90.0, 10.0);
  EXPECT_EQ(h.Quantile(0.0), 0.0);  // degenerate q clamps to bucket floor
}

TEST(HistogramTest, OverflowQuantileReportsTrackedMax) {
  Histogram h({10});
  h.Observe(123456);
  h.Observe(99);
  // Both p50 and p99 live in the overflow bucket, which has no upper bound
  // to interpolate against — the estimator falls back to the true max.
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 123456);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h(LatencyBucketsUs());
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h({10, 100});
  h.Observe(50);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  for (uint64_t c : h.BucketCounts()) EXPECT_EQ(c, 0u);
}

// ---- Registry ----

TEST(RegistryTest, LabelOrderDoesNotSplitInstruments) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.ops", {{"op", "get"}, {"store", "s3"}});
  Counter* b = reg.GetCounter("x.ops", {{"store", "s3"}, {"op", "get"}});
  EXPECT_EQ(a, b);
  Counter* c = reg.GetCounter("x.ops", {{"op", "put"}, {"store", "s3"}});
  EXPECT_NE(a, c);
}

TEST(RegistryTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter* ctr = reg.GetCounter("y.count");
  Histogram* hist = reg.GetHistogram("y.lat_us");
  ctr->Add(7);
  hist->Observe(3);
  reg.Reset();
  EXPECT_EQ(ctr->Value(), 0u);
  EXPECT_EQ(hist->Count(), 0u);
  // Same handles are returned and stay usable after Reset.
  EXPECT_EQ(reg.GetCounter("y.count"), ctr);
  ctr->Increment();
  EXPECT_EQ(ctr->Value(), 1u);
}

TEST(RegistryTest, ConcurrentCountersFromThreadPool) {
  MetricsRegistry reg;
  Counter* ctr = reg.GetCounter("pool.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&reg, ctr] {
      for (int i = 0; i < kPerThread; ++i) {
        ctr->Increment();
        // Concurrent Get of the same instrument must not deadlock or fork
        // a second counter.
        EXPECT_EQ(reg.GetCounter("pool.hits"), ctr);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(ctr->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryTest, SnapshotJsonRoundTrips) {
  MetricsRegistry reg;
  reg.GetCounter("a.ops", {{"op", "get"}})->Add(3);
  reg.GetGauge("a.inflight")->Set(2.5);
  Histogram* h = reg.GetHistogram("a.lat_us");
  h->Observe(10);
  h->Observe(1000);
  Json snap = reg.SnapshotJson();
  auto parsed = Json::Parse(snap.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Json& doc = *parsed;
  ASSERT_TRUE(doc.Has("counters"));
  ASSERT_TRUE(doc.Has("gauges"));
  ASSERT_TRUE(doc.Has("histograms"));
  ASSERT_EQ(doc.Get("counters").array().size(), 1u);
  const Json& ctr = doc.Get("counters").array()[0];
  EXPECT_EQ(ctr.Get("name").as_string(), "a.ops");
  EXPECT_EQ(ctr.Get("value").as_int(), 3);
  EXPECT_EQ(ctr.Get("labels").Get("op").as_string(), "get");
  const Json& hist = doc.Get("histograms").array()[0];
  EXPECT_EQ(hist.Get("count").as_int(), 2);
  EXPECT_EQ(hist.Get("bounds").array().size() + 1,
            hist.Get("buckets").array().size());
  EXPECT_GT(hist.Get("p99").as_number(), 0.0);
}

// ---- Tracing ----

TEST(TraceTest, DisabledRecorderRecordsNothing) {
  auto& rec = TraceRecorder::Global();
  rec.Disable();
  rec.Clear();
  { ScopedSpan span("noop", "test"); }
  EXPECT_TRUE(rec.Events().empty());
}

TEST(TraceTest, ChromeExportIsWellFormedJson) {
  auto& rec = TraceRecorder::Global();
  rec.Clear();
  rec.Enable();
  {
    ScopedSpan outer("outer", "test");
    SleepMicros(100);
    // Spans from pool threads land in per-thread rings and must survive
    // the pool joining before export.
    ThreadPool pool(3);
    for (int i = 0; i < 6; ++i) {
      pool.Submit([] {
        ScopedSpan span("work", "test");
        SleepMicros(50);
      });
    }
    pool.Wait();
  }
  rec.Disable();
  auto parsed = Json::Parse(rec.ChromeTraceJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Json& doc = *parsed;
  ASSERT_TRUE(doc.Has("traceEvents"));
  const auto& events = doc.Get("traceEvents").array();
  ASSERT_EQ(events.size(), 7u);  // 1 outer + 6 worker spans
  std::set<int64_t> tids;
  for (const Json& e : events) {
    EXPECT_TRUE(e.Get("name").is_string());
    EXPECT_EQ(e.Get("ph").as_string(), "X");
    EXPECT_GE(e.Get("dur").as_int(), 0);
    EXPECT_GT(e.Get("ts").as_int(), 0);
    tids.insert(e.Get("tid").as_int());
  }
  EXPECT_GE(tids.size(), 2u);  // main thread + at least one pool thread
  rec.Clear();
}

TEST(TraceTest, RingKeepsMostRecentSpans) {
  auto& rec = TraceRecorder::Global();
  rec.Clear();
  rec.Enable(/*ring_capacity=*/4);
  // A fresh thread gets a fresh ring at the tiny capacity (already-created
  // rings keep their size, so this thread's ring would not shrink).
  std::thread t([&rec] {
    for (int i = 0; i < 10; ++i) {
      rec.Record("span" + std::to_string(i), "test", NowMicros(), 1);
    }
  });
  t.join();
  rec.Disable();
  auto events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_GE(rec.dropped(), 6u);
  // The survivors are the most recent four.
  std::set<std::string> names;
  for (const auto& e : events) names.insert(e.name);
  EXPECT_TRUE(names.count("span9"));
  EXPECT_TRUE(names.count("span6"));
  EXPECT_FALSE(names.count("span0"));
  rec.Clear();
  rec.Enable();  // restore default capacity for later ring creations
  rec.Disable();
}

TEST(TraceTest, RingWraparoundUnderConcurrentWriters) {
  auto& rec = TraceRecorder::Global();
  rec.Clear();
  rec.Enable(/*ring_capacity=*/8);
  // Four fresh threads each get their own 8-slot ring and write 100 spans:
  // wraparound happens concurrently in every ring. Survivors must be each
  // thread's most recent 8; the global drop counter must account exactly
  // for the rest. No locks are shared between rings, so this also shakes
  // out races between Record() and the ring bookkeeping.
  constexpr int kThreads = 4;
  constexpr int kSpans = 100;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kSpans; ++i) {
        rec.Record("t" + std::to_string(t) + "_s" + std::to_string(i),
                   "test", NowMicros(), 1);
      }
    });
  }
  for (auto& w : writers) w.join();
  rec.Disable();
  auto events = rec.Events();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads) * 8);
  EXPECT_EQ(rec.dropped(), static_cast<uint64_t>(kThreads) * (kSpans - 8));
  // Per-thread retention is most-recent-wins: every surviving span index
  // is from the tail of its thread's sequence.
  for (const auto& e : events) {
    auto us = e.name.rfind("_s");
    ASSERT_NE(us, std::string::npos);
    EXPECT_GE(std::stoi(e.name.substr(us + 2)), kSpans - 8) << e.name;
  }
  rec.Clear();
  rec.Enable();  // restore default capacity for later ring creations
  rec.Disable();
}

// ---- Exporters ----

TEST(ExportTest, PrometheusTextIsWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("loader.rows")->Add(42);
  reg.GetGauge("sim.gpu.utilization", {{"gpu", "gpu0"}})->Set(0.75);
  Histogram* h = reg.GetHistogram("storage.op_us", {{"op", "get"}});
  h->Observe(5);
  h->Observe(50000);
  std::string text = PrometheusText(reg);
  // Dotted registry names are sanitized; counters gain the _total suffix.
  EXPECT_NE(text.find("# TYPE loader_rows_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("loader_rows_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sim_gpu_utilization gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("sim_gpu_utilization{gpu=\"gpu0\"} 0.75\n"),
            std::string::npos);
  // Histograms expose cumulative buckets closed by +Inf == _count.
  EXPECT_NE(text.find("# TYPE storage_op_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("storage_op_us_bucket{op=\"get\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("storage_op_us_count{op=\"get\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("storage_op_us_sum{op=\"get\"} 50005\n"),
            std::string::npos);
}

TEST(ExportTest, PrometheusEscapesHostileLabelValues) {
  MetricsRegistry reg;
  // A label value with a quote, a backslash and a newline must come out
  // escaped per the exposition format (\" \\ \n) — raw, any of the three
  // corrupts the line-oriented output.
  reg.GetCounter("x.ops", {{"path", "a\"b\\c\nd"}})->Add(1);
  std::string text = PrometheusText(reg);
  EXPECT_NE(text.find("x_ops_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(text.find('\n') == std::string::npos, false);
  // No raw newline inside a label value: every line must parse as comment
  // or sample.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << "unparseable: " << line;
    }
    start = end == std::string::npos ? text.size() : end + 1;
  }
}

TEST(ExportTest, EventsJsonlOneLinePerEventWithErrorType) {
  TraceRecorder rec;
  rec.Enable();
  rec.Record("loader.fetch", "loader", 1000, 250);
  RecordErrorEvent(rec, "tql.execute", "NotFound: tensor 'x'");
  rec.Disable();
  std::string jsonl = EventsJsonl(rec);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(jsonl.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  int spans = 0, errors = 0;
  for (const auto& line : lines) {
    auto parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const Json& e = *parsed;
    ASSERT_TRUE(e.Has("type"));
    ASSERT_TRUE(e.Has("name"));
    ASSERT_TRUE(e.Has("ts_us"));
    if (e.Get("type").as_string() == "error") {
      ++errors;
      EXPECT_NE(e.Get("name").as_string().find("NotFound"),
                std::string::npos);
    } else {
      EXPECT_EQ(e.Get("type").as_string(), "span");
      ++spans;
    }
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(errors, 1);
}

TEST(ExportTest, RecordErrorEventNoOpWhenDisabled) {
  TraceRecorder rec;  // never enabled
  RecordErrorEvent(rec, "x", "boom");
  EXPECT_TRUE(rec.Events().empty());
}

// Regression: metric labels and span names containing JSON-hostile bytes
// (quotes, backslashes, control chars) must survive SnapshotJson and the
// Chrome trace export as parseable JSON that round-trips the exact value.
TEST(ExportTest, SnapshotJsonSurvivesHostileLabelValues) {
  MetricsRegistry reg;
  const std::string hostile = "he said \"hi\"\n\\tab\ttail";
  reg.GetCounter("q.ops", {{"query", hostile}})->Add(5);
  auto parsed = Json::Parse(reg.SnapshotJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto& counters = parsed->Get("counters").array();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].Get("labels").Get("query").as_string(), hostile);
}

TEST(ExportTest, ChromeTraceSurvivesHostileSpanNames) {
  TraceRecorder rec;
  rec.Enable();
  const std::string hostile = "SELECT \"a\\b\"\nLIMIT 1";
  rec.Record(hostile, "tql", 10, 5);
  rec.Disable();
  auto parsed = Json::Parse(rec.ChromeTraceJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto& events = parsed->Get("traceEvents").array();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Get("name").as_string(), hostile);
}

// ---- Flight recorder ----

TEST(FlightRecorderTest, SamplesCounterDeltasGaugesAndHistograms) {
  MetricsRegistry reg;
  Counter* rows = reg.GetCounter("fr.rows");
  Gauge* depth = reg.GetGauge("fr.depth");
  Histogram* lat = reg.GetHistogram("fr.lat_us");
  FlightRecorder::Options opts;
  opts.interval_us = 2000;  // clamped floor is 1000; 2ms keeps CI fast
  FlightRecorder fr(&reg, opts);
  fr.WatchCounter("fr.rows", {}, "rows");
  fr.WatchGauge("fr.depth", {}, "depth");
  fr.WatchHistogram("fr.lat_us", {}, "lat");
  // Pre-Start() traffic must not leak into the series: deltas re-baseline.
  rows->Add(1000);
  ASSERT_TRUE(fr.Start().ok());
  EXPECT_TRUE(fr.running());
  EXPECT_FALSE(fr.Start().ok());  // double-start refused
  for (int i = 0; i < 5; ++i) {
    rows->Add(20);
    depth->Set(i);
    lat->Observe(100);
    SleepMicros(3000);
  }
  ASSERT_TRUE(fr.Stop().ok());
  EXPECT_FALSE(fr.running());
  ASSERT_TRUE(fr.Stop().ok());  // idempotent
  auto samples = fr.Samples();
  ASSERT_GE(samples.size(), 3u);
  double rows_total = 0, lat_count = 0;
  for (const auto& s : samples) {
    ASSERT_TRUE(s.values.count("rows"));
    ASSERT_TRUE(s.values.count("rows_per_sec"));
    ASSERT_TRUE(s.values.count("depth"));
    ASSERT_TRUE(s.values.count("lat_count"));
    ASSERT_TRUE(s.values.count("lat_p50"));
    ASSERT_TRUE(s.values.count("lat_p99"));
    rows_total += s.values.at("rows");
    lat_count += s.values.at("lat_count");
    EXPECT_GT(s.dt_us, 0);
  }
  // Deltas across the series sum to exactly the traffic since Start() —
  // the 1000 pre-Start rows are baselined away.
  EXPECT_DOUBLE_EQ(rows_total, 100.0);
  EXPECT_DOUBLE_EQ(lat_count, 5.0);
  // Gauge samples carry the last value set.
  EXPECT_DOUBLE_EQ(samples.back().values.at("depth"), 4.0);
  // The timeline document round-trips as JSON.
  auto parsed = Json::Parse(fr.TimelineJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Get("samples").array().size(), samples.size());
}

TEST(FlightRecorderTest, BoundedRingDropsOldestSamples) {
  MetricsRegistry reg;
  Counter* ticks = reg.GetCounter("fr.ticks");
  FlightRecorder::Options opts;
  opts.interval_us = 1000;  // the clamp floor: fastest legal sampling
  opts.max_samples = 3;
  FlightRecorder fr(&reg, opts);
  fr.WatchCounter("fr.ticks", {}, "ticks");
  ASSERT_TRUE(fr.Start().ok());
  for (int i = 0; i < 12; ++i) {
    ticks->Increment();
    SleepMicros(2000);
  }
  ASSERT_TRUE(fr.Stop().ok());
  auto samples = fr.Samples();
  EXPECT_EQ(samples.size(), 3u);
  EXPECT_GT(fr.dropped(), 0u);
  // Most-recent-wins: retained timestamps are strictly increasing and the
  // series end reflects the run's tail, not its start.
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].t_us, samples[i - 1].t_us);
  }
  EXPECT_EQ(fr.TimelineJson().Get("dropped").as_int(),
            static_cast<int64_t>(fr.dropped()));
}

TEST(FlightRecorderTest, RestartClearsSeriesAndRebaselines) {
  MetricsRegistry reg;
  Counter* n = reg.GetCounter("fr.n");
  FlightRecorder::Options opts;
  opts.interval_us = 1000;
  FlightRecorder fr(&reg, opts);
  fr.WatchCounter("fr.n");
  ASSERT_TRUE(fr.Start().ok());
  n->Add(50);
  SleepMicros(3000);
  ASSERT_TRUE(fr.Stop().ok());
  ASSERT_GE(fr.Samples().size(), 1u);
  // Second run: the 50 rows of run one must not reappear as a delta.
  ASSERT_TRUE(fr.Start().ok());
  SleepMicros(3000);
  ASSERT_TRUE(fr.Stop().ok());
  double total = 0;
  for (const auto& s : fr.Samples()) total += s.values.at("fr.n");
  EXPECT_DOUBLE_EQ(total, 0.0);
}

// ---- Instrumented storage ----

TEST(InstrumentedStoreTest, CountsOpsBytesAndErrors) {
  auto base = std::make_shared<storage::MemoryStore>();
  storage::InstrumentedStore store(base, "test-layer");
  auto& reg = MetricsRegistry::Global();
  obs::Labels get_labels = {{"op", "get"}, {"store", "test-layer"}};
  obs::Labels put_labels = {{"op", "put"}, {"store", "test-layer"}};
  uint64_t get0 = reg.GetCounter("storage.ops", get_labels)->Value();
  uint64_t err0 = reg.GetCounter("storage.errors", get_labels)->Value();
  uint64_t read0 =
      reg.GetCounter("storage.bytes_read", {{"store", "test-layer"}})->Value();

  ByteBuffer payload{1, 2, 3, 4, 5};
  ASSERT_TRUE(store.Put("k", payload).ok());
  auto got = store.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());

  EXPECT_EQ(reg.GetCounter("storage.ops", get_labels)->Value(), get0 + 2);
  EXPECT_EQ(reg.GetCounter("storage.errors", get_labels)->Value(), err0 + 1);
  EXPECT_EQ(reg.GetCounter("storage.ops", put_labels)->Value(), 1u);
  EXPECT_EQ(
      reg.GetCounter("storage.bytes_read", {{"store", "test-layer"}})->Value(),
      read0 + payload.size());
  EXPECT_GE(reg.GetHistogram("storage.op_us", get_labels)->Count(), 2u);
  // The accessors read the same registry counters.
  EXPECT_EQ(store.gets(), get0 + 2);
  EXPECT_EQ(store.puts(), 1u);
  EXPECT_EQ(store.bytes_read(), read0 + payload.size());
}

TEST(InstrumentedStoreTest, LruCacheReportsThroughRegistry) {
  auto base = std::make_shared<storage::MemoryStore>();
  // A uniquely named base makes this cache's registry label findable.
  auto named = std::make_shared<storage::PrefixStore>(base, "lru-registry");
  // Room for two 3-byte objects.
  auto cache = std::make_shared<storage::LruCacheStore>(named, 6);
  ASSERT_TRUE(cache->Put("k", ByteBuffer{9, 9, 9}).ok());
  ASSERT_TRUE(cache->Get("k").ok());  // hit (Put populates)
  ASSERT_TRUE(cache->Get("k").ok());  // hit
  EXPECT_EQ(cache->hits(), 2u);
  EXPECT_EQ(cache->misses(), 0u);
  EXPECT_EQ(cache->hit_bytes(), 6u);
  EXPECT_EQ(cache->fill_policy(), 0);

  // A loop of three objects through room for two. Round 1 misses all three
  // and fills by LRU (c evicts a). In round 2 only the free-room shadow
  // (which kept a and b) hits a, so the selector turns to free room and
  // declines a's fill; b and c stay and hit.
  ASSERT_TRUE(cache->Delete("k").ok());
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_TRUE(named->Put(key, ByteBuffer{1, 2, 3}).ok());
  }
  for (int round = 0; round < 2; ++round) {
    for (const char* key : {"a", "b", "c"}) ASSERT_TRUE(cache->Get(key).ok());
  }
  EXPECT_EQ(cache->hits(), 4u);
  EXPECT_EQ(cache->misses(), 4u);
  EXPECT_EQ(cache->hit_bytes(), 12u);
  EXPECT_EQ(cache->miss_bytes(), 12u);
  EXPECT_EQ(cache->declined_fills(), 1u);
  EXPECT_EQ(cache->fill_policy(), 1);

  // The accessors are thin wrappers over per-instance registry instruments,
  // so both views must agree.
  auto ours = [](const Labels& labels) {
    return labels.size() == 1 && labels[0].first == "cache" &&
           labels[0].second.ends_with("(memory/lru-registry)");
  };
  std::map<std::string, double> seen;
  RegistrySnapshot snap = MetricsRegistry::Global().Snapshot();
  for (const auto& row : snap.counters) {
    if (ours(row.labels)) seen[row.name] = static_cast<double>(row.value);
  }
  for (const auto& row : snap.gauges) {
    if (ours(row.labels)) seen[row.name] = row.value;
  }
  EXPECT_EQ(seen["storage.lru.hits"], 4);
  EXPECT_EQ(seen["storage.lru.misses"], 4);
  EXPECT_EQ(seen["storage.lru.hit_bytes"], 12);
  EXPECT_EQ(seen["storage.lru.miss_bytes"], 12);
  EXPECT_EQ(seen["storage.lru.declined_fills"], 1);
  EXPECT_EQ(seen["storage.lru.fill_policy"], 1);
  EXPECT_EQ(seen["storage.lru.cached_bytes"], 6);
}

// ---- End-to-end: epoch span timeline ----

/// Streams a small dataset over a deliberately slow simulated store with
/// tracing on, then checks the consumer-side span timeline accounts for
/// (nearly) the whole epoch wall time — the invariant that makes the trace
/// trustworthy for diagnosing where an epoch went.
TEST(ObsIntegrationTest, EpochSpanTimelineCoversWallTime) {
  auto memory = std::make_shared<storage::MemoryStore>();
  auto ds_build = tsf::Dataset::Create(memory);
  ASSERT_TRUE(ds_build.ok());
  {
    auto& ds = **ds_build;
    tsf::TensorOptions img;
    img.htype = "image";
    img.sample_compression = "none";
    // 64 rows x 192 B = 12 KiB: 1 KiB chunks give 13 loader units (5 rows
    // each). With one worker and prefetch_units = 1 a unit's fetch starts
    // only once the consumer has drained the previous unit, so the
    // consumer stalls on every fetch.
    img.max_chunk_bytes = 1 << 10;
    ASSERT_TRUE(ds.CreateTensor("images", img).ok());
    for (int i = 0; i < 64; ++i) {
      ByteBuffer pixels(8 * 8 * 3, static_cast<uint8_t>(i));
      std::map<std::string, tsf::Sample> row;
      row["images"] = tsf::Sample(tsf::DType::kUInt8,
                                  tsf::TensorShape{8, 8, 3},
                                  std::move(pixels));
      ASSERT_TRUE(ds.Append(row).ok());
    }
    ASSERT_TRUE(ds.Flush().ok());
  }
  // Slow store: 2ms to first byte makes fetches (and therefore consumer
  // stalls) dominate, so the timeline has real content to account for.
  sim::NetworkModel slow;
  slow.label = "obs-test";
  slow.first_byte_latency_us = 2000;
  slow.bandwidth_bytes_per_sec = 1.0e9;
  auto store = std::make_shared<sim::SimulatedObjectStore>(memory, slow);
  auto ds = tsf::Dataset::Open(store);
  ASSERT_TRUE(ds.ok());

  auto& rec = TraceRecorder::Global();
  rec.Clear();
  rec.Enable();
  stream::DataloaderOptions opts;
  opts.batch_size = 8;
  opts.num_workers = 1;  // serialize the pipeline: stalls are guaranteed
  opts.prefetch_units = 1;
  opts.tensors = {"images"};
  stream::Dataloader loader(*ds, opts);
  int64_t wall_start = NowMicros();
  stream::Batch batch;
  uint64_t rows = 0;
  while (true) {
    auto more = loader.Next(&batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    rows += batch.size;
  }
  int64_t wall_us = NowMicros() - wall_start;
  rec.Disable();
  ASSERT_EQ(rows, 64u);

  int64_t next_us = 0;
  uint64_t fetch_spans = 0, decode_spans = 0, stall_spans = 0;
  for (const auto& e : rec.Events()) {
    if (e.name == "loader.next") next_us += e.dur_us;
    if (e.name == "loader.fetch") ++fetch_spans;
    if (e.name == "loader.decode") ++decode_spans;
    if (e.name == "loader.stall") ++stall_spans;
  }
  EXPECT_GT(fetch_spans, 0u);
  EXPECT_GT(decode_spans, 0u);
  EXPECT_GT(stall_spans, 0u);
  // The consumer spends essentially the whole epoch inside Next(): its
  // spans must cover >= 95% of measured wall time (they cannot exceed it
  // by construction — Next() spans nest inside the wall interval).
  EXPECT_GE(next_us, static_cast<int64_t>(0.95 * wall_us))
      << "next=" << next_us << "us wall=" << wall_us << "us";
  EXPECT_LE(next_us, wall_us);
  rec.Clear();
}

}  // namespace
}  // namespace dl::obs
