#ifndef DEEPLAKE_OBS_DEBUG_SERVER_H_
#define DEEPLAKE_OBS_DEBUG_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dl::obs {

/// A parsed HTTP response, as returned by HttpGet.
struct HttpResponse {
  int status = 0;
  std::string content_type;
  std::string body;
};

/// Minimal blocking HTTP/1.1 GET client for loopback scrapes: `dlstat`,
/// `check_prom_text.sh --live` and the tests use it so nothing outside
/// src/obs/debug_server.cc touches raw sockets (dllint rule `raw-socket`).
/// `timeout_ms` bounds connect, send and the full body read.
Result<HttpResponse> HttpGet(const std::string& host, int port,
                             const std::string& path,
                             int64_t timeout_ms = 2000);

/// Sends `raw_request` verbatim and returns the raw response bytes (status
/// line, headers, body). Exists for protocol-level tests — e.g. asserting
/// the 400 path on a malformed request — that must not hand-roll sockets.
Result<std::string> HttpRawRequest(const std::string& host, int port,
                                   const std::string& raw_request,
                                   int64_t timeout_ms = 2000);

/// Embedded live-telemetry HTTP/1.1 server (DESIGN.md §7): one listener
/// thread (poll-based, so Stop() interrupts an idle accept within ~100ms)
/// plus a bounded worker pool serving GET requests, loopback-bound by
/// default. Endpoints:
///
///   /healthz   liveness probe ("ok")
///   /metrics   Prometheus text 0.0.4 (obs::PrometheusText over the
///              registry, process gauges refreshed first)
///   /statusz   process/build/server summary JSON + optional dataset
///              section from SetStatusProvider
///   /tracez    recent completed spans + currently-open spans + the
///              watchdog's slow-span snapshots
///   /flightz   FlightRecorder timeline JSON from SetFlightzProvider
///   /lockz     lock-contention stats (util/lock_stats) ranked by total
///              wait, with per-lock log2 wait histograms
///   /resourcez per-job CPU/bytes usage grouped from the job.* counters
///              (obs::ResourceMeter) + process totals
///   /pprof/profile?seconds=N
///              runs the sampling CPU profiler for N wall-seconds and
///              returns folded stacks (scripts/flamegraph.py input);
///              501 under sanitizer builds, 503 while another profiler
///              owns the process-wide timer
///
/// Responses are Connection: close (one request per connection — scrape
/// traffic, not serving traffic). Requests beyond `max_inflight` get 503,
/// so a scrape storm cannot pile threads onto a training process. The
/// server owns a SpanWatchdog (enabled via options) whose snapshots feed
/// /tracez. This is the operational surface ROADMAP item 1's `dlserverd`
/// grows from.
class DebugServer {
 public:
  struct Options {
    /// Loopback by default: the debug surface is operator-facing, not
    /// public. Bind 0.0.0.0 explicitly to expose it.
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port; read it back via port().
    int port = 0;
    size_t num_workers = 2;
    /// Concurrent requests beyond this are rejected with 503.
    size_t max_inflight = 8;
    /// Read/write timeout applied per connection.
    int64_t io_timeout_ms = 2000;
    /// Start a SpanWatchdog with the server (snapshots appear in /tracez
    /// and the error-event stream).
    bool enable_watchdog = true;
    SpanWatchdog::Options watchdog;
  };

  /// Custom endpoint handler; `path` is the request path including query.
  using Handler = std::function<HttpResponse(const std::string& path)>;

  DebugServer(MetricsRegistry* registry, TraceRecorder* recorder);
  DebugServer(MetricsRegistry* registry, TraceRecorder* recorder,
              Options options);
  ~DebugServer();  // stops if running

  DebugServer(const DebugServer&) = delete;
  DebugServer& operator=(const DebugServer&) = delete;

  /// Binds, listens and spawns the listener + workers. Bind/listen
  /// failures (port in use, bad address) surface as a Status — callers
  /// decide whether a dead debug surface is fatal.
  Status Start() DL_EXCLUDES(mu_);

  /// Stops accepting, drains in-flight requests (their responses complete)
  /// and joins every thread. Idempotent.
  Status Stop() DL_EXCLUDES(mu_);

  bool running() const DL_EXCLUDES(mu_);

  /// The bound port (resolves ephemeral binds); 0 before Start().
  int port() const DL_EXCLUDES(mu_);

  /// /statusz "dataset" section provider (called per request; must be
  /// thread-safe). Register before Start().
  void SetStatusProvider(std::function<Json()> provider) DL_EXCLUDES(mu_);

  /// /flightz body provider (a FlightRecorder's TimelineJson, typically).
  /// Register before Start().
  void SetFlightzProvider(std::function<Json()> provider) DL_EXCLUDES(mu_);

  /// Registers a custom endpoint (exact path match, before query). Built-in
  /// paths cannot be overridden. Register before Start().
  void AddHandler(const std::string& path, Handler handler) DL_EXCLUDES(mu_);

  /// The server's watchdog (nullptr when options.enable_watchdog is off).
  SpanWatchdog* watchdog() { return watchdog_.get(); }

  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  uint64_t requests_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  HttpResponse Route(const std::string& path) DL_EXCLUDES(mu_);

  HttpResponse ServeMetrics();
  HttpResponse ServeStatusz() DL_EXCLUDES(mu_);
  HttpResponse ServeTracez();
  HttpResponse ServeFlightz() DL_EXCLUDES(mu_);
  HttpResponse ServePprofProfile(const std::string& path);
  HttpResponse ServeLockz();
  HttpResponse ServeResourcez();

  MetricsRegistry* registry_;
  TraceRecorder* recorder_;
  Options options_;

  // Guards lifecycle state and the handler/provider maps. Never held while
  // running a handler or doing socket I/O; ordered before nothing (leaf).
  mutable Mutex mu_{"obs.debug_server.mu"};
  bool running_ DL_GUARDED_BY(mu_) = false;
  int listen_fd_ DL_GUARDED_BY(mu_) = -1;
  int bound_port_ DL_GUARDED_BY(mu_) = 0;
  int64_t started_us_ DL_GUARDED_BY(mu_) = 0;
  std::thread listener_ DL_GUARDED_BY(mu_);
  std::map<std::string, Handler> handlers_ DL_GUARDED_BY(mu_);
  std::function<Json()> status_provider_ DL_GUARDED_BY(mu_);
  std::function<Json()> flightz_provider_ DL_GUARDED_BY(mu_);

  std::unique_ptr<ThreadPool> pool_;  // created in Start, reset in Stop
  std::unique_ptr<SpanWatchdog> watchdog_;

  std::atomic<bool> stop_{false};
  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace dl::obs

#endif  // DEEPLAKE_OBS_DEBUG_SERVER_H_
