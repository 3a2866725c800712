// DebugServer: embedded live-telemetry HTTP endpoint (DESIGN.md §7). This
// file is the one sanctioned home for raw socket calls in the repo —
// dllint rule `raw-socket` enforces that everything else (tools, tests,
// benches) goes through HttpGet/HttpRawRequest below.

#include "obs/debug_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/profiler.h"
#include "util/clock.h"
#include "util/lock_stats.h"
#include "util/macros.h"

namespace dl::obs {

namespace {

constexpr size_t kMaxRequestBytes = 8192;
constexpr size_t kMaxResponseBytes = 64ull << 20;
constexpr int kListenBacklog = 16;
constexpr int64_t kAcceptPollMs = 100;

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

Status ErrnoStatus(const std::string& what, int err) {
  std::string message = what + ": " + std::strerror(err);
  if (err == EADDRINUSE) return Status::AlreadyExists(message);
  if (err == ETIMEDOUT || err == EAGAIN || err == EWOULDBLOCK ||
      err == ECONNREFUSED || err == ECONNRESET || err == EPIPE) {
    return Status::Transient(message);
  }
  return Status::IOError(message);
}

void SetIoTimeouts(int fd, int64_t timeout_ms) {
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Sends all of `data`, tolerating short writes. MSG_NOSIGNAL: a peer that
/// hung up mid-response must not SIGPIPE a training process.
bool SendAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

void WriteHttpResponse(int fd, const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusText(response.status) + "\r\n";
  head += "Content-Type: " +
          (response.content_type.empty() ? "text/plain; charset=utf-8"
                                         : response.content_type) +
          "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  if (SendAll(fd, head.data(), head.size())) {
    (void)SendAll(fd, response.body.data(), response.body.size());
  }
}

/// Opens a connected TCP socket to host:port with send/recv timeouts.
Result<int> ConnectTo(const std::string& host, int port, int64_t timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("http: bad IPv4 address '" + host + "'");
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("http: socket", errno);
  SetIoTimeouts(fd, timeout_ms);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    close(fd);
    return ErrnoStatus("http: connect " + resolved + ":" +
                           std::to_string(port),
                       err);
  }
  return fd;
}

/// Reads until EOF (Connection: close framing) or the size cap.
Result<std::string> ReadToEof(int fd) {
  std::string out;
  char buf[4096];
  while (out.size() < kMaxResponseBytes) {
    ssize_t r = recv(fd, buf, sizeof(buf), 0);
    if (r == 0) return out;
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("http: recv", errno);
    }
    out.append(buf, static_cast<size_t>(r));
  }
  return Status::ResourceExhausted("http: response exceeds size cap");
}

}  // namespace

// ---------------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------------

Result<std::string> HttpRawRequest(const std::string& host, int port,
                                   const std::string& raw_request,
                                   int64_t timeout_ms) {
  DL_ASSIGN_OR_RETURN(int fd, ConnectTo(host, port, timeout_ms));
  if (!SendAll(fd, raw_request.data(), raw_request.size())) {
    int err = errno;
    close(fd);
    return ErrnoStatus("http: send", err);
  }
  Result<std::string> response = ReadToEof(fd);
  close(fd);
  return response;
}

Result<HttpResponse> HttpGet(const std::string& host, int port,
                             const std::string& path, int64_t timeout_ms) {
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n\r\n";
  DL_ASSIGN_OR_RETURN(std::string raw,
                      HttpRawRequest(host, port, request, timeout_ms));
  size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::Corruption("http: response has no header terminator");
  }
  size_t line_end = raw.find("\r\n");
  // Status line: HTTP/1.x <code> <text>
  std::string status_line = raw.substr(0, line_end);
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos || status_line.compare(0, 5, "HTTP/") != 0) {
    return Status::Corruption("http: malformed status line: " + status_line);
  }
  HttpResponse out;
  out.status = std::atoi(status_line.c_str() + sp + 1);
  if (out.status < 100 || out.status > 599) {
    return Status::Corruption("http: bad status code in: " + status_line);
  }
  // Case-insensitive Content-Type lookup over the header block.
  std::string headers = raw.substr(line_end + 2, header_end - line_end - 2);
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    std::string line = headers.substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string key = line.substr(0, colon);
      for (char& c : key) c = static_cast<char>(std::tolower(c));
      if (key == "content-type") {
        size_t v = colon + 1;
        while (v < line.size() && line[v] == ' ') ++v;
        out.content_type = line.substr(v);
      }
    }
    pos = eol + 2;
  }
  out.body = raw.substr(header_end + 4);
  return out;
}

// ---------------------------------------------------------------------------
// DebugServer
// ---------------------------------------------------------------------------

DebugServer::DebugServer(MetricsRegistry* registry, TraceRecorder* recorder)
    : DebugServer(registry, recorder, Options()) {}

DebugServer::DebugServer(MetricsRegistry* registry, TraceRecorder* recorder,
                         Options options)
    : registry_(registry), recorder_(recorder), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_inflight == 0) options_.max_inflight = 1;
  if (options_.enable_watchdog) {
    watchdog_ = std::make_unique<SpanWatchdog>(recorder_, options_.watchdog);
  }
}

DebugServer::~DebugServer() {
  Status s = Stop();  // Stop() on a stopped server is OK; never fails
  (void)s;
}

Status DebugServer::Start() {
  MutexLock lock(mu_);
  if (running_) {
    return Status::FailedPrecondition("debug server already running");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("debug server: bad bind address '" +
                                   options_.bind_address + "'");
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("debug server: socket", errno);
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    close(fd);
    return ErrnoStatus("debug server: bind " + options_.bind_address + ":" +
                           std::to_string(options_.port),
                       err);
  }
  if (listen(fd, kListenBacklog) != 0) {
    int err = errno;
    close(fd);
    return ErrnoStatus("debug server: listen", err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  started_us_ = NowMicros();
  stop_.store(false, std::memory_order_relaxed);
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  running_ = true;
  // Spawned under mu_ like the flight recorder: no concurrent Start/Stop
  // can observe a half-initialized listener_.
  listener_ = std::thread([this] { AcceptLoop(); });
  if (watchdog_ != nullptr && !watchdog_->running()) {
    DL_RETURN_IF_ERROR(watchdog_->Start());
  }
  return Status::OK();
}

Status DebugServer::Stop() {
  std::thread to_join;
  int fd = -1;
  {
    MutexLock lock(mu_);
    if (!running_) return Status::OK();
    running_ = false;
    to_join = std::move(listener_);
    fd = listen_fd_;
    listen_fd_ = -1;
  }
  stop_.store(true, std::memory_order_relaxed);
  if (to_join.joinable()) to_join.join();
  if (fd >= 0) close(fd);
  // ThreadPool teardown drains queued + in-flight handlers: every accepted
  // request finishes its response before Stop() returns.
  pool_.reset();
  if (watchdog_ != nullptr) DL_RETURN_IF_ERROR(watchdog_->Stop());
  return Status::OK();
}

bool DebugServer::running() const {
  MutexLock lock(mu_);
  return running_;
}

int DebugServer::port() const {
  MutexLock lock(mu_);
  return bound_port_;
}

void DebugServer::SetStatusProvider(std::function<Json()> provider) {
  MutexLock lock(mu_);
  status_provider_ = std::move(provider);
}

void DebugServer::SetFlightzProvider(std::function<Json()> provider) {
  MutexLock lock(mu_);
  flightz_provider_ = std::move(provider);
}

void DebugServer::AddHandler(const std::string& path, Handler handler) {
  MutexLock lock(mu_);
  handlers_[path] = std::move(handler);
}

void DebugServer::AcceptLoop() {
  // listen_fd_ is fixed for the thread's lifetime (Stop() clears it only
  // after joining this thread), so one read under the lock suffices.
  int fd;
  {
    MutexLock lock(mu_);
    fd = listen_fd_;
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = poll(&pfd, 1, static_cast<int>(kAcceptPollMs));
    if (ready <= 0) continue;  // timeout (re-check stop_) or EINTR
    int conn = accept(fd, nullptr, nullptr);
    if (conn < 0) continue;
    SetIoTimeouts(conn, options_.io_timeout_ms);
    int inflight = inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (inflight > static_cast<int>(options_.max_inflight)) {
      // Shed load on the listener thread: cheaper than queueing work the
      // pool cannot absorb, and the 503 tells the scraper to back off.
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse busy;
      busy.status = 503;
      busy.body = "busy: too many in-flight debug requests\n";
      WriteHttpResponse(conn, busy);
      close(conn);
      continue;
    }
    pool_->Submit([this, conn] { HandleConnection(conn); });
  }
}

void DebugServer::HandleConnection(int fd) {
  std::string request;
  char buf[1024];
  bool complete = false;
  while (request.size() < kMaxRequestBytes) {
    ssize_t r = recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      break;  // EOF or timeout before the header terminator: malformed
    }
    request.append(buf, static_cast<size_t>(r));
    if (request.find("\r\n\r\n") != std::string::npos) {
      complete = true;
      break;
    }
  }
  HttpResponse response;
  std::string method, path, version;
  size_t line_end = request.find("\r\n");
  if (complete && line_end != std::string::npos) {
    std::string line = request.substr(0, line_end);
    size_t sp1 = line.find(' ');
    size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                          : line.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) {
      method = line.substr(0, sp1);
      path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      version = line.substr(sp2 + 1);
    }
  }
  if (method.empty() || path.empty() || path[0] != '/' ||
      version.compare(0, 5, "HTTP/") != 0) {
    response.status = 400;
    response.body = "bad request\n";
  } else if (method != "GET") {
    response.status = 405;
    response.body = "only GET is supported\n";
  } else {
    response = Route(path);
  }
  WriteHttpResponse(fd, response);
  close(fd);
  served_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

HttpResponse DebugServer::Route(const std::string& path) {
  std::string bare = path.substr(0, path.find('?'));
  if (bare == "/healthz") {
    HttpResponse r;
    r.status = 200;
    r.body = "ok\n";
    return r;
  }
  if (bare == "/metrics") return ServeMetrics();
  if (bare == "/statusz") return ServeStatusz();
  if (bare == "/tracez") return ServeTracez();
  if (bare == "/flightz") return ServeFlightz();
  if (bare == "/lockz") return ServeLockz();
  if (bare == "/resourcez") return ServeResourcez();
  if (bare == "/pprof/profile") return ServePprofProfile(path);
  Handler custom;
  {
    MutexLock lock(mu_);
    auto it = handlers_.find(bare);
    if (it != handlers_.end()) custom = it->second;
  }
  if (custom) return custom(path);
  HttpResponse r;
  r.status = 404;
  r.body = "no such endpoint: " + bare +
           "\nendpoints: /healthz /metrics /statusz /tracez /flightz"
           " /lockz /resourcez /pprof/profile\n";
  return r;
}

HttpResponse DebugServer::ServeMetrics() {
  SampleProcessGauges(*registry_);
  HttpResponse r;
  r.status = 200;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = PrometheusText(*registry_);
  return r;
}

HttpResponse DebugServer::ServeStatusz() {
  std::function<Json()> provider;
  int port = 0;
  int64_t started_us = 0;
  {
    MutexLock lock(mu_);
    provider = status_provider_;
    port = bound_port_;
    started_us = started_us_;
  }
  Json doc = Json::MakeObject();
  doc.Set("pid", static_cast<int64_t>(getpid()));
  doc.Set("uptime_us", NowMicros() - started_us);

  Json server = Json::MakeObject();
  server.Set("bind", options_.bind_address);
  server.Set("port", port);
  server.Set("workers", static_cast<uint64_t>(options_.num_workers));
  server.Set("requests_served", requests_served());
  server.Set("requests_rejected", requests_rejected());
  doc.Set("server", std::move(server));

  Json build = Json::MakeObject();
  build.Set("compiler", __VERSION__);
  build.Set("cxx_standard", static_cast<int64_t>(__cplusplus));
#ifdef NDEBUG
  build.Set("mode", "release");
#else
  build.Set("mode", "debug");
#endif
  doc.Set("build", std::move(build));

  Json trace = Json::MakeObject();
  trace.Set("enabled", recorder_->enabled());
  trace.Set("dropped", recorder_->dropped());
  trace.Set("open_spans",
            static_cast<uint64_t>(recorder_->OpenSpans().size()));
  doc.Set("trace", std::move(trace));

  RegistrySnapshot snap = registry_->Snapshot();
  Json metrics = Json::MakeObject();
  metrics.Set("counters", static_cast<uint64_t>(snap.counters.size()));
  metrics.Set("gauges", static_cast<uint64_t>(snap.gauges.size()));
  metrics.Set("histograms", static_cast<uint64_t>(snap.histograms.size()));
  doc.Set("metrics", std::move(metrics));

  if (provider) doc.Set("dataset", provider());

  HttpResponse r;
  r.status = 200;
  r.content_type = "application/json";
  r.body = doc.Dump();
  return r;
}

HttpResponse DebugServer::ServeTracez() {
  constexpr size_t kRecentSpans = 256;
  int64_t now = NowMicros();
  Json doc = Json::MakeObject();
  doc.Set("enabled", recorder_->enabled());
  doc.Set("dropped", recorder_->dropped());

  Json open = Json::MakeArray();
  for (const OpenSpanInfo& s : recorder_->OpenSpans()) {
    Json item = Json::MakeObject();
    item.Set("name", s.name);
    item.Set("cat", s.cat);
    if (!s.tenant.empty()) item.Set("tenant", s.tenant);
    item.Set("trace_id", s.trace_id);
    item.Set("start_us", s.start_us);
    item.Set("age_us", now - s.start_us);
    item.Set("tid", static_cast<uint64_t>(s.tid));
    open.Append(std::move(item));
  }
  doc.Set("open", std::move(open));

  doc.Set("watchdog",
          watchdog_ != nullptr ? watchdog_->SlowSpansJson() : Json());

  std::vector<TraceEvent> events = recorder_->Events();
  size_t first = events.size() > kRecentSpans ? events.size() - kRecentSpans
                                              : 0;
  Json recent = Json::MakeArray();
  for (size_t i = first; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    Json item = Json::MakeObject();
    item.Set("name", e.name);
    item.Set("cat", e.cat);
    if (!e.tenant.empty()) item.Set("tenant", e.tenant);
    item.Set("trace_id", e.trace_id);
    item.Set("ts_us", e.ts_us);
    item.Set("dur_us", e.dur_us);
    item.Set("tid", static_cast<uint64_t>(e.tid));
    recent.Append(std::move(item));
  }
  doc.Set("recent", std::move(recent));

  HttpResponse r;
  r.status = 200;
  r.content_type = "application/json";
  r.body = doc.Dump();
  return r;
}

HttpResponse DebugServer::ServeFlightz() {
  std::function<Json()> provider;
  {
    MutexLock lock(mu_);
    provider = flightz_provider_;
  }
  Json doc;
  if (provider) doc = provider();
  if (doc.is_null()) {
    doc = Json::MakeObject();
    doc.Set("interval_us", 0);
    doc.Set("dropped", 0);
    doc.Set("samples", Json::MakeArray());
  }
  HttpResponse r;
  r.status = 200;
  r.content_type = "application/json";
  r.body = doc.Dump();
  return r;
}

HttpResponse DebugServer::ServePprofProfile(const std::string& path) {
  // /pprof/profile?seconds=N — block for N wall-seconds of sampling, then
  // return folded stacks (scripts/flamegraph.py input). Clamped to the
  // worker's patience: a scrape should never wedge a worker for minutes.
  double seconds = 2.0;
  size_t q = path.find("seconds=");
  if (q != std::string::npos) {
    seconds = std::atof(path.c_str() + q + 8);
  }
  if (seconds < 0.1) seconds = 0.1;
  if (seconds > 30.0) seconds = 30.0;
  auto folded = CollectCpuProfile(seconds);
  HttpResponse r;
  if (!folded.ok()) {
    // 501: this build cannot profile (sanitizers). 503: transient — some
    // other profiler holds the timer; retry later.
    r.status = folded.status().IsNotImplemented() ? 501 : 503;
    r.body = folded.status().ToString() + "\n";
    return r;
  }
  r.status = 200;
  r.content_type = "text/plain; charset=utf-8";
  r.body = std::move(folded).value();
  return r;
}

HttpResponse DebugServer::ServeLockz() {
  std::vector<lockstats::Row> rows = lockstats::Snapshot();
  std::sort(rows.begin(), rows.end(),
            [](const lockstats::Row& a, const lockstats::Row& b) {
              return a.wait_us_total > b.wait_us_total;
            });
  Json doc = Json::MakeObject();
  doc.Set("total_contentions", lockstats::TotalContentions());
  doc.Set("total_wait_us", lockstats::TotalWaitMicros());
  Json bounds = Json::MakeArray();
  for (int i = 0; i < lockstats::kWaitBuckets; ++i) {
    bounds.Append(static_cast<uint64_t>(1) << i);
  }
  doc.Set("wait_bucket_upper_us", std::move(bounds));
  Json locks = Json::MakeArray();
  for (const auto& row : rows) {
    Json item = Json::MakeObject();
    item.Set("name", row.name);
    item.Set("contentions", row.contentions);
    item.Set("wait_us", row.wait_us_total);
    item.Set("max_wait_us", row.max_wait_us);
    item.Set("mean_wait_us",
             row.contentions == 0
                 ? 0.0
                 : static_cast<double>(row.wait_us_total) /
                       static_cast<double>(row.contentions));
    Json buckets = Json::MakeArray();
    for (uint64_t c : row.buckets) buckets.Append(c);
    item.Set("wait_buckets", std::move(buckets));
    locks.Append(std::move(item));
  }
  doc.Set("locks", std::move(locks));
  HttpResponse r;
  r.status = 200;
  r.content_type = "application/json";
  r.body = doc.Dump();
  return r;
}

HttpResponse DebugServer::ServeResourcez() {
  // Group the job.* counters by their {job, tenant} labels; the unlabeled
  // rows are the process-wide aggregates.
  RegistrySnapshot snap = registry_->Snapshot();
  struct Usage {
    uint64_t cpu_us = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_copied = 0;
  };
  std::map<std::pair<std::string, std::string>, Usage> jobs;
  Usage total;
  for (const auto& c : snap.counters) {
    uint64_t Usage::*field = nullptr;
    if (c.name == "job.cpu_us") {
      field = &Usage::cpu_us;
    } else if (c.name == "job.bytes_read") {
      field = &Usage::bytes_read;
    } else if (c.name == "job.bytes_copied") {
      field = &Usage::bytes_copied;
    } else {
      continue;
    }
    std::string job;
    std::string tenant;
    for (const auto& [key, value] : c.labels) {
      if (key == "job") job = value;
      if (key == "tenant") tenant = value;
    }
    if (c.labels.empty()) {
      total.*field += c.value;
    } else {
      jobs[{job, tenant}].*field += c.value;
    }
  }
  Json doc = Json::MakeObject();
  Json rows = Json::MakeArray();
  for (const auto& [key, usage] : jobs) {
    Json item = Json::MakeObject();
    item.Set("job", key.first);
    item.Set("tenant", key.second);
    item.Set("cpu_us", usage.cpu_us);
    item.Set("bytes_read", usage.bytes_read);
    item.Set("bytes_copied", usage.bytes_copied);
    rows.Append(std::move(item));
  }
  doc.Set("jobs", std::move(rows));
  Json agg = Json::MakeObject();
  agg.Set("cpu_us", total.cpu_us);
  agg.Set("bytes_read", total.bytes_read);
  agg.Set("bytes_copied", total.bytes_copied);
  doc.Set("total", std::move(agg));
  HttpResponse r;
  r.status = 200;
  r.content_type = "application/json";
  r.body = doc.Dump();
  return r;
}

}  // namespace dl::obs
