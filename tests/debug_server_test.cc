// DebugServer tests: lifecycle (ephemeral bind, stop with a request in
// flight, port collision), HTTP protocol edges (malformed request, bad
// method, unknown path), endpoint payloads, concurrent scrapes racing
// registry mutation, trace-context propagation through the dataloader and
// the slow-op watchdog. Run standalone: ctest -L obs (also in -L stress —
// the scrape-storm case is a TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "obs/context.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tsf/dataset.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/thread_annotations.h"

namespace dl::obs {
namespace {

DebugServer::Options NoWatchdogOptions() {
  DebugServer::Options options;
  options.enable_watchdog = false;
  return options;
}

TEST(DebugServerTest, StartServesHealthzAndStops) {
  MetricsRegistry registry;
  DebugServer server(&registry, &TraceRecorder::Global(),
                     NoWatchdogOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  int port = server.port();
  EXPECT_GT(port, 0);

  auto response = HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "ok\n");

  EXPECT_TRUE(server.Stop().ok());
  EXPECT_FALSE(server.running());
  // Idempotent.
  EXPECT_TRUE(server.Stop().ok());
  // The socket is really gone: a fresh connect fails.
  EXPECT_FALSE(HttpGet("127.0.0.1", port, "/healthz").ok());
}

TEST(DebugServerTest, PortInUseSurfacesAsStatus) {
  MetricsRegistry registry;
  DebugServer first(&registry, &TraceRecorder::Global(),
                    NoWatchdogOptions());
  ASSERT_TRUE(first.Start().ok());

  DebugServer::Options options = NoWatchdogOptions();
  options.port = first.port();
  DebugServer second(&registry, &TraceRecorder::Global(), options);
  Status status = second.Start();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(second.running());
  EXPECT_TRUE(first.Stop().ok());
}

TEST(DebugServerTest, MalformedRequestGets400) {
  MetricsRegistry registry;
  DebugServer server(&registry, &TraceRecorder::Global(),
                     NoWatchdogOptions());
  ASSERT_TRUE(server.Start().ok());

  auto raw = HttpRawRequest("127.0.0.1", server.port(),
                            "this is not http\r\n\r\n");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_NE(raw->find("400"), std::string::npos) << *raw;

  auto post = HttpRawRequest(
      "127.0.0.1", server.port(),
      "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_NE(post->find("405"), std::string::npos) << *post;

  auto missing = HttpGet("127.0.0.1", server.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  EXPECT_TRUE(server.Stop().ok());
}

TEST(DebugServerTest, StopDrainsInFlightRequest) {
  MetricsRegistry registry;
  DebugServer server(&registry, &TraceRecorder::Global(),
                     NoWatchdogOptions());

  Mutex mu("test.slow_handler.mu");
  CondVar cv;
  bool entered = false;
  bool release = false;
  server.AddHandler("/slow", [&](const std::string&) {
    {
      MutexLock lock(mu);
      entered = true;
      cv.NotifyAll();
      while (!release) cv.Wait(mu);
    }
    HttpResponse response;
    response.status = 200;
    response.content_type = "text/plain";
    response.body = "slow done";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  Result<HttpResponse> slow = Status::Unknown("not finished");
  std::thread client([&] { slow = HttpGet("127.0.0.1", port, "/slow", 10000); });
  {
    MutexLock lock(mu);
    while (!entered) cv.Wait(mu);
  }
  // Release the handler just after Stop() begins draining; Stop must wait
  // for the in-flight response to complete, not abandon the connection.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    MutexLock lock(mu);
    release = true;
    cv.NotifyAll();
  });
  EXPECT_TRUE(server.Stop().ok());
  client.join();
  releaser.join();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->status, 200);
  EXPECT_EQ(slow->body, "slow done");
}

TEST(DebugServerTest, MetricsEndpointExposesRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("test.requests", {{"kind", "unit"}})->Add(3);
  registry.GetGauge("test.depth")->Set(4.5);
  registry.GetHistogram("test.lat_us")->Observe(120);

  DebugServer server(&registry, &TraceRecorder::Global(),
                     NoWatchdogOptions());
  ASSERT_TRUE(server.Start().ok());
  auto response = HttpGet("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(response->body.find("test_requests_total{kind=\"unit\"} 3"),
            std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("# TYPE test_lat_us histogram"),
            std::string::npos);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(DebugServerTest, StatuszAndFlightzUseProviders) {
  MetricsRegistry registry;
  DebugServer server(&registry, &TraceRecorder::Global(),
                     NoWatchdogOptions());
  server.SetStatusProvider([] {
    Json ds = Json::MakeObject();
    ds.Set("rows", 42.0);
    return ds;
  });
  server.SetFlightzProvider([] {
    Json doc = Json::MakeObject();
    doc.Set("interval_us", 1000.0);
    doc.Set("dropped", 0.0);
    doc.Set("samples", Json::MakeArray());
    return doc;
  });
  ASSERT_TRUE(server.Start().ok());

  auto statusz = HttpGet("127.0.0.1", server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok());
  ASSERT_EQ(statusz->status, 200);
  auto doc = Json::Parse(statusz->body);
  ASSERT_TRUE(doc.ok()) << statusz->body;
  EXPECT_EQ(doc->Get("dataset").Get("rows").as_number(), 42.0);
  EXPECT_GT(doc->Get("server").Get("port").as_number(), 0.0);

  auto flightz = HttpGet("127.0.0.1", server.port(), "/flightz");
  ASSERT_TRUE(flightz.ok());
  ASSERT_EQ(flightz->status, 200);
  auto fdoc = Json::Parse(flightz->body);
  ASSERT_TRUE(fdoc.ok());
  EXPECT_EQ(fdoc->Get("interval_us").as_number(), 1000.0);
  EXPECT_TRUE(server.Stop().ok());
}

// The scrape-storm case: readers render /metrics and /tracez while writer
// threads mutate the registry and record spans. TSan target (-L stress).
TEST(DebugServerTest, ConcurrentScrapesWhileRegistryMutates) {
  MetricsRegistry registry;
  auto& recorder = TraceRecorder::Global();
  recorder.Enable();
  DebugServer::Options options = NoWatchdogOptions();
  options.num_workers = 4;
  options.max_inflight = 64;
  DebugServer server(&registry, &recorder, options);
  ASSERT_TRUE(server.Start().ok());
  int port = server.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        registry.GetCounter("storm.count", {{"w", std::to_string(w)}})
            ->Add(1);
        registry.GetHistogram("storm.lat_us")->Observe((i % 100) * 10.0);
        ScopedSpan span("storm.op", "test");
        ++i;
      }
    });
  }

  std::atomic<int> scrapes{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      const char* paths[] = {"/metrics", "/tracez"};
      for (int i = 0; i < 20; ++i) {
        auto response = HttpGet("127.0.0.1", port, paths[i % 2], 10000);
        if (response.ok() && response->status == 200) {
          scrapes.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_EQ(scrapes.load(), 80);
  // A handler counts its request after closing the connection, so the
  // count is read once Stop() has drained every handler.
  EXPECT_TRUE(server.Stop().ok());
  EXPECT_GE(server.requests_served(), 80u);
  recorder.Disable();
  recorder.Clear();
}

// ---- Trace-context propagation (DESIGN.md §7) ----

Result<std::shared_ptr<tsf::Dataset>> SmallDataset() {
  auto store = std::make_shared<storage::InstrumentedStore>(
      std::make_shared<storage::MemoryStore>(), "test");
  DL_ASSIGN_OR_RETURN(auto dataset, tsf::Dataset::Create(store));
  tsf::TensorOptions options;
  options.htype = "class_label";
  DL_RETURN_IF_ERROR(dataset->CreateTensor("x", options).status());
  for (int i = 0; i < 64; ++i) {
    std::map<std::string, tsf::Sample> row;
    row["x"] = tsf::Sample::Scalar(i, tsf::DType::kInt32);
    DL_RETURN_IF_ERROR(dataset->Append(row));
  }
  DL_RETURN_IF_ERROR(dataset->Flush());
  return dataset;
}

TEST(ContextPropagationTest, LoaderAndStorageSpansShareTraceId) {
  auto& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();

  auto dataset = SmallDataset();
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  stream::DataloaderOptions options;
  options.batch_size = 16;
  options.num_workers = 2;
  options.context = Context::ForJob("tenant-a", "epoch-0");
  uint64_t trace_id = options.context.trace_id;
  ASSERT_NE(trace_id, 0u);

  stream::Dataloader loader(*dataset, options);
  stream::Batch batch;
  uint64_t rows = 0;
  while (true) {
    auto more = loader.Next(&batch);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    rows += batch.size;
  }
  EXPECT_EQ(rows, 64u);

  std::set<std::string> cats_with_trace;
  for (const TraceEvent& e : recorder.Events()) {
    if (e.trace_id == trace_id) {
      EXPECT_EQ(e.tenant, "tenant-a");
      cats_with_trace.insert(e.cat);
    }
  }
  // Worker-side loader spans and the storage spans beneath them carry the
  // job's trace id — one trace across layers.
  EXPECT_TRUE(cats_with_trace.count("loader")) << "no loader spans tagged";
  EXPECT_TRUE(cats_with_trace.count("storage")) << "no storage spans tagged";
  recorder.Disable();
  recorder.Clear();
}

TEST(ContextScopeTest, NestsAndRestores) {
  EXPECT_TRUE(CurrentContext().empty());
  Context outer = Context::ForJob("t1");
  {
    ContextScope scope(outer);
    EXPECT_EQ(CurrentContext().trace_id, outer.trace_id);
    Context inner = Context::ForJob("t2");
    {
      ContextScope nested(inner);
      EXPECT_EQ(CurrentContext().tenant, "t2");
    }
    EXPECT_EQ(CurrentContext().tenant, "t1");
  }
  EXPECT_TRUE(CurrentContext().empty());
}

// ---- Slow-op watchdog ----

TEST(SpanWatchdogTest, FlagsLongOpenSpanOnce) {
  auto& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();

  SpanWatchdog::Options options;
  options.threshold_us = 1000;  // 1ms: anything we hold open counts
  SpanWatchdog watchdog(&recorder, options);

  Context ctx = Context::ForJob("tenant-w", "slow-job");
  ContextScope scope(ctx);
  uint64_t token = recorder.BeginSpan("slow.op", "test", NowMicros());
  ASSERT_NE(token, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  watchdog.ScanOnce();
  watchdog.ScanOnce();  // second scan must not double-report
  auto slow = watchdog.SlowSpans();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].name, "slow.op");
  EXPECT_EQ(slow[0].tenant, "tenant-w");
  EXPECT_EQ(slow[0].trace_id, ctx.trace_id);
  EXPECT_GE(slow[0].age_us, 1000);
  EXPECT_EQ(watchdog.flagged(), 1u);

  recorder.EndSpan(token);
  EXPECT_TRUE(recorder.OpenSpans().empty());

  // The flag also landed on the error-event timeline.
  bool saw_event = false;
  for (const TraceEvent& e : recorder.Events()) {
    if (e.cat == "error" &&
        e.name.find("watchdog.slow_op") != std::string::npos) {
      saw_event = true;
    }
  }
  EXPECT_TRUE(saw_event);
  recorder.Disable();
  recorder.Clear();
}

TEST(SpanWatchdogTest, TracezServesOpenAndSlowSpans) {
  auto& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();

  MetricsRegistry registry;
  DebugServer::Options options;
  options.watchdog.interval_us = 2000;
  options.watchdog.threshold_us = 1000;
  DebugServer server(&registry, &recorder, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.watchdog(), nullptr);

  uint64_t token = recorder.BeginSpan("stuck.read", "test", NowMicros());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto tracez = HttpGet("127.0.0.1", server.port(), "/tracez");
  ASSERT_TRUE(tracez.ok());
  ASSERT_EQ(tracez->status, 200);
  auto doc = Json::Parse(tracez->body);
  ASSERT_TRUE(doc.ok()) << tracez->body;
  EXPECT_NE(tracez->body.find("stuck.read"), std::string::npos);
  EXPECT_GE(doc->Get("watchdog").Get("flagged").as_number(), 1.0);

  recorder.EndSpan(token);
  EXPECT_TRUE(server.Stop().ok());
  recorder.Disable();
  recorder.Clear();
}

}  // namespace
}  // namespace dl::obs
