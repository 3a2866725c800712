// dlstat — a top(1)-style live view of a running Deep Lake process.
//
// Polls an embedded obs::DebugServer (started in-process via
// DeepLake::StartDebugServer() or bench `--debug-server`) over HTTP and
// renders per-stage loader throughput, cache hit rate, copy traffic and
// fetch-latency percentiles, refreshed once a second:
//
//   dlstat --port 9460                 # attach to a live process
//   dlstat --port 9460 --once         # one frame, no ANSI redraw
//   dlstat --port 9460 --raw /statusz # dump one endpoint body and exit
//   dlstat --selfcheck                # no server needed: starts one
//                                     # in-process, scrapes every endpoint,
//                                     # prints the /metrics body (used by
//                                     # scripts/check_prom_text.sh --live)
//
// All HTTP goes through obs::HttpGet/HttpRawRequest — this binary contains
// no raw socket calls (dllint rule `raw-socket`). Rates and
// percentiles are *deltas between consecutive polls*, so the view shows
// what the process is doing now, not since boot: p50/p99 come from the
// per-interval change of the cumulative loader.fetch_us buckets.

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/debug_server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/json.h"

namespace {

using dl::Json;
using dl::obs::HttpGet;
using dl::obs::HttpResponse;

// ---- Prometheus text 0.0.4 parsing (client side) ----

/// One scrape, reduced to what the dashboard needs: scalar samples summed
/// across label sets (a process has one loader but N LRU caches; the
/// dashboard shows the aggregate), plus cumulative histogram buckets keyed
/// by family name and `le` bound.
struct Scrape {
  int64_t t_us = 0;
  std::map<std::string, double> scalars;  // family name -> summed value
  // family -> ascending (le bound, cumulative count); +Inf is HUGE_VAL.
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;

  double Get(const std::string& name) const {
    auto it = scalars.find(name);
    return it == scalars.end() ? 0.0 : it->second;
  }
  bool Has(const std::string& name) const {
    return scalars.count(name) != 0;
  }
};

/// Extracts the value of label `key` from a label block like
/// {cache="c0",le="250"}. Returns empty when absent. Handles the three
/// exposition-format escapes (\\, \", \n).
std::string LabelValue(const std::string& block, const std::string& key) {
  size_t pos = 0;
  while (pos < block.size()) {
    size_t eq = block.find('=', pos);
    if (eq == std::string::npos) return "";
    std::string name = block.substr(pos, eq - pos);
    // Strip leading separators/whitespace from the label name.
    while (!name.empty() && (name.front() == ',' || name.front() == '{' ||
                             name.front() == ' ')) {
      name.erase(name.begin());
    }
    if (eq + 1 >= block.size() || block[eq + 1] != '"') return "";
    std::string value;
    size_t i = eq + 2;
    for (; i < block.size() && block[i] != '"'; ++i) {
      if (block[i] == '\\' && i + 1 < block.size()) {
        ++i;
        value.push_back(block[i] == 'n' ? '\n' : block[i]);
      } else {
        value.push_back(block[i]);
      }
    }
    if (name == key) return value;
    pos = i + 1;
  }
  return "";
}

/// Parses a /metrics body. Unknown families are kept (summed by name) so
/// the --raw path and future dashboards see everything.
Scrape ParseMetricsText(const std::string& body) {
  Scrape out;
  size_t line_start = 0;
  while (line_start < body.size()) {
    size_t line_end = body.find('\n', line_start);
    if (line_end == std::string::npos) line_end = body.size();
    std::string line = body.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty() || line[0] == '#') continue;

    // <name>[{labels}] <value>
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) continue;
    std::string name = line.substr(0, name_end);
    std::string labels;
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      size_t close = line.find('}', name_end);
      if (close == std::string::npos) continue;
      labels = line.substr(name_end, close - name_end + 1);
      value_start = close + 1;
    }
    while (value_start < line.size() && line[value_start] == ' ') {
      ++value_start;
    }
    double value = std::strtod(line.c_str() + value_start, nullptr);

    const std::string bucket_suffix = "_bucket";
    if (name.size() > bucket_suffix.size() &&
        name.compare(name.size() - bucket_suffix.size(),
                     bucket_suffix.size(), bucket_suffix) == 0) {
      std::string family =
          name.substr(0, name.size() - bucket_suffix.size());
      std::string le = LabelValue(labels, "le");
      double bound = le == "+Inf" ? HUGE_VAL : std::strtod(le.c_str(),
                                                           nullptr);
      out.buckets[family].emplace_back(bound, value);
    } else {
      out.scalars[name] += value;
    }
  }
  // Bucket lines arrive in ascending-le order per label set; with multiple
  // label sets the per-bound counts must be summed. Rebuild each family as
  // one ascending cumulative series.
  for (auto& [family, series] : out.buckets) {
    std::map<double, double> merged;
    for (const auto& [bound, count] : series) merged[bound] += count;
    series.assign(merged.begin(), merged.end());
  }
  return out;
}

/// Quantile over the *delta* of two cumulative bucket series (linear
/// interpolation within the winning bucket, like Prometheus
/// histogram_quantile). Returns 0 when the interval saw no observations.
double DeltaQuantile(const std::vector<std::pair<double, double>>& now,
                     const std::vector<std::pair<double, double>>& prev,
                     double q) {
  std::vector<std::pair<double, double>> delta;
  delta.reserve(now.size());
  for (const auto& [bound, count] : now) {
    double before = 0;
    for (const auto& [b2, c2] : prev) {
      if (b2 == bound) {
        before = c2;
        break;
      }
    }
    delta.emplace_back(bound, count - before);
  }
  if (delta.empty()) return 0;
  double total = delta.back().second;
  if (total <= 0) return 0;
  double target = q * total;
  double prev_bound = 0, prev_cum = 0;
  for (const auto& [bound, cum] : delta) {
    if (cum >= target) {
      if (bound == HUGE_VAL) return prev_bound;  // overflow bucket
      double in_bucket = cum - prev_cum;
      if (in_bucket <= 0) return bound;
      return prev_bound + (bound - prev_bound) * (target - prev_cum) /
                              in_bucket;
    }
    prev_bound = bound;
    prev_cum = cum;
  }
  return prev_bound;
}

// ---- Rendering ----

std::string HumanBytes(double v) {
  const char* unit = "B";
  if (v >= 1e9) {
    v /= 1e9;
    unit = "GB";
  } else if (v >= 1e6) {
    v /= 1e6;
    unit = "MB";
  } else if (v >= 1e3) {
    v /= 1e3;
    unit = "KB";
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f %s", v, unit);
  return buf;
}

std::string HumanUs(double us) {
  char buf[48];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f s", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f us", us);
  }
  return buf;
}

struct Frame {
  double dt_s = 0;
  double rows_per_s = 0;
  double queued_rows = 0;
  double fetch_us_per_s = 0;      // worker time per wall second (per-stage)
  double decode_us_per_s = 0;
  double transform_us_per_s = 0;
  double stall_us_per_s = 0;
  double fetch_p50_us = 0;
  double fetch_p99_us = 0;
  double cache_hit_rate = -1;     // -1 = no cache traffic this interval
  double bytes_read_per_s = 0;
  double bytes_copied_per_s = 0;  // loader.bytes_copied delta
  double pool_bytes_in_use = 0;
  double retries_exhausted = 0;   // cumulative
  double errors = 0;              // cumulative storage.errors
  int flight_samples = -1;        // -1 = /flightz unavailable
  double flight_interval_us = 0;
  // Contention / per-job CPU panel (PR 8): lock gauges mirror cumulative
  // totals from util/lock_stats, so their deltas are per-second rates.
  double lock_wait_us_per_s = 0;
  double lock_contentions_per_s = 0;
  double job_cpu_us_per_s = 0;       // attributed CPU, us per wall second
  double job_bytes_read_per_s = 0;
  std::string top_lock_name;         // from /lockz; empty = unavailable
  double top_lock_wait_us = 0;       // cumulative total for that lock
};

Frame ComputeFrame(const Scrape& now, const Scrape& prev,
                   const Json* flightz, const Json* lockz) {
  Frame f;
  f.dt_s = static_cast<double>(now.t_us - prev.t_us) / 1e6;
  if (f.dt_s <= 0) f.dt_s = 1;
  // Clamp at zero: benches Reset() the registry between phases, which
  // would otherwise render one frame of negative rates.
  auto rate = [&](const char* name) {
    double d = (now.Get(name) - prev.Get(name)) / f.dt_s;
    return d < 0 ? 0.0 : d;
  };
  f.rows_per_s = rate("loader_rows_total");
  f.queued_rows = now.Get("loader_queued_rows");
  f.fetch_us_per_s = rate("loader_fetch_us_sum");
  f.decode_us_per_s = rate("loader_decode_us_sum");
  f.transform_us_per_s = rate("loader_transform_us_sum");
  f.stall_us_per_s = rate("loader_stall_us_sum");
  f.bytes_read_per_s = rate("storage_bytes_read_total");
  f.bytes_copied_per_s = rate("loader_bytes_copied_total");
  f.pool_bytes_in_use = now.Get("buffer_pool_bytes_in_use");
  f.retries_exhausted = now.Get("storage_retries_exhausted_total");
  f.errors = now.Get("storage_errors_total");

  double hits = now.Get("storage_lru_hits_total") -
                prev.Get("storage_lru_hits_total");
  double misses = now.Get("storage_lru_misses_total") -
                  prev.Get("storage_lru_misses_total");
  if (hits + misses > 0) f.cache_hit_rate = hits / (hits + misses);

  auto it = now.buckets.find("loader_fetch_us");
  if (it != now.buckets.end()) {
    auto pit = prev.buckets.find("loader_fetch_us");
    static const std::vector<std::pair<double, double>> kEmpty;
    const auto& before = pit == prev.buckets.end() ? kEmpty : pit->second;
    f.fetch_p50_us = DeltaQuantile(it->second, before, 0.50);
    f.fetch_p99_us = DeltaQuantile(it->second, before, 0.99);
  }
  if (flightz != nullptr && !flightz->is_null()) {
    f.flight_interval_us = flightz->Get("interval_us").as_number();
    f.flight_samples = static_cast<int>(flightz->Get("samples").size());
  }
  f.lock_wait_us_per_s = rate("lock_wait_us");
  f.lock_contentions_per_s = rate("lock_contentions");
  f.job_cpu_us_per_s = rate("job_cpu_us_total");
  f.job_bytes_read_per_s = rate("job_bytes_read_total");
  if (lockz != nullptr && !lockz->is_null()) {
    const Json& locks = lockz->Get("locks");
    if (locks.size() > 0) {  // already ranked by total wait, top first
      f.top_lock_name = locks[0].Get("name").as_string();
      f.top_lock_wait_us = locks[0].Get("wait_us").as_number();
    }
  }
  return f;
}

void RenderFrame(const Frame& f, const std::string& target, bool ansi) {
  if (ansi) std::fputs("\x1b[H\x1b[J", stdout);
  std::printf("dlstat — %s  (interval %.1fs)\n", target.c_str(), f.dt_s);
  std::printf("\n");
  std::printf("  loader    %10.1f rows/s   queued %.0f\n", f.rows_per_s,
              f.queued_rows);
  std::printf("  stages    fetch %s/s  decode %s/s  transform %s/s  "
              "stall %s/s\n",
              HumanUs(f.fetch_us_per_s).c_str(),
              HumanUs(f.decode_us_per_s).c_str(),
              HumanUs(f.transform_us_per_s).c_str(),
              HumanUs(f.stall_us_per_s).c_str());
  std::printf("  fetch     p50 %s   p99 %s\n", HumanUs(f.fetch_p50_us).c_str(),
              HumanUs(f.fetch_p99_us).c_str());
  if (f.cache_hit_rate >= 0) {
    std::printf("  cache     %.1f%% hit rate\n", f.cache_hit_rate * 100);
  } else {
    std::printf("  cache     (no traffic)\n");
  }
  std::printf("  io        read %s/s   copied %s/s   pool in use %s\n",
              HumanBytes(f.bytes_read_per_s).c_str(),
              HumanBytes(f.bytes_copied_per_s).c_str(),
              HumanBytes(f.pool_bytes_in_use).c_str());
  std::printf("  faults    storage errors %.0f   retries exhausted %.0f\n",
              f.errors, f.retries_exhausted);
  if (f.top_lock_name.empty()) {
    std::printf("  locks     wait %s/s   contended %.0f/s\n",
                HumanUs(f.lock_wait_us_per_s).c_str(),
                f.lock_contentions_per_s);
  } else {
    std::printf("  locks     wait %s/s   contended %.0f/s   top %s (%s)\n",
                HumanUs(f.lock_wait_us_per_s).c_str(),
                f.lock_contentions_per_s, f.top_lock_name.c_str(),
                HumanUs(f.top_lock_wait_us).c_str());
  }
  std::printf("  jobs      cpu %.2f cores   read %s/s  (attributed)\n",
              f.job_cpu_us_per_s / 1e6,
              HumanBytes(f.job_bytes_read_per_s).c_str());
  if (f.flight_samples >= 0) {
    std::printf("  flight    %d samples @ %s cadence\n", f.flight_samples,
                HumanUs(f.flight_interval_us).c_str());
  }
  std::fflush(stdout);
}

// ---- Self-check: exercise a server in-process (no running lake needed).

int RunSelfCheck() {
  auto& registry = dl::obs::MetricsRegistry::Global();
  auto& recorder = dl::obs::TraceRecorder::Global();
  recorder.Enable();

  // Populate one instrument of each kind so every exposition branch (TYPE
  // lines, label blocks, cumulative buckets, +Inf/_sum/_count) appears in
  // the scraped body that check_prom_text.sh --live validates.
  registry.GetCounter("loader.rows")->Add(128);
  registry.GetCounter("loader.bytes_copied")->Add(1 << 20);
  registry.GetCounter("storage.lru.hits", {{"cache", "selfcheck"}})->Add(90);
  registry.GetCounter("storage.lru.misses", {{"cache", "selfcheck"}})
      ->Add(10);
  registry.GetGauge("loader.queued_rows")->Set(7);
  for (int i = 1; i <= 64; ++i) {
    registry.GetHistogram("loader.fetch_us")->Observe(i * 100.0);
  }
  {
    dl::obs::ScopedSpan span("selfcheck.span", "tool");
  }

  dl::obs::DebugServer::Options options;
  options.watchdog.interval_us = 10'000;
  dl::obs::DebugServer server(&registry, &recorder, options);
  dl::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "selfcheck: Start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  int port = server.port();

  const char* endpoints[] = {"/healthz", "/statusz", "/tracez", "/flightz",
                             "/lockz", "/resourcez"};
  for (const char* path : endpoints) {
    auto result = HttpGet("127.0.0.1", port, path);
    if (!result.ok() || result->status != 200) {
      std::fprintf(stderr, "selfcheck: GET %s failed (%s, http %d)\n", path,
                   result.status().ToString().c_str(),
                   result.ok() ? result->status : 0);
      return 1;
    }
  }
  auto metrics = HttpGet("127.0.0.1", port, "/metrics");
  if (!metrics.ok() || metrics->status != 200 ||
      metrics->content_type.find("version=0.0.4") == std::string::npos) {
    std::fprintf(stderr, "selfcheck: /metrics scrape failed\n");
    return 1;
  }
  Scrape parsed = ParseMetricsText(metrics->body);
  if (parsed.Get("loader_rows_total") < 128 ||
      parsed.buckets.count("loader_fetch_us") == 0) {
    std::fprintf(stderr, "selfcheck: scraped body missing instruments\n");
    return 1;
  }
  (void)server.Stop();
  // The validated artifact: /metrics exactly as a Prometheus scraper saw it.
  std::fwrite(metrics->body.data(), 1, metrics->body.size(), stdout);
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--interval-ms N] [--once]\n"
               "          [--raw /path] [--selfcheck]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 9460;
  int interval_ms = 1000;
  bool once = false;
  bool selfcheck = false;
  std::string raw_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      port = std::atoi(v);
    } else if (arg == "--interval-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      interval_ms = std::atoi(v);
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--selfcheck") {
      selfcheck = true;
    } else if (arg == "--raw") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      raw_path = v;
    } else {
      return Usage(argv[0]);
    }
  }

  if (selfcheck) return RunSelfCheck();

  std::string target = host + ":" + std::to_string(port);
  if (!raw_path.empty()) {
    auto result = HttpGet(host, port, raw_path);
    if (!result.ok()) {
      std::fprintf(stderr, "dlstat: GET %s on %s: %s\n", raw_path.c_str(),
                   target.c_str(), result.status().ToString().c_str());
      return 1;
    }
    std::fwrite(result->body.data(), 1, result->body.size(), stdout);
    return result->status == 200 ? 0 : 1;
  }

  Scrape prev;
  bool have_prev = false;
  while (true) {
    auto metrics = HttpGet(host, port, "/metrics");
    if (!metrics.ok() || metrics->status != 200) {
      std::fprintf(stderr, "dlstat: cannot scrape %s/metrics: %s\n",
                   target.c_str(), metrics.status().ToString().c_str());
      return 1;
    }
    Scrape now = ParseMetricsText(metrics->body);
    now.t_us = dl::NowMicros();

    Json flightz;
    auto fz = HttpGet(host, port, "/flightz");
    if (fz.ok() && fz->status == 200) {
      auto parsed = Json::Parse(fz->body);
      if (parsed.ok()) flightz = *parsed;
    }

    Json lockz;
    auto lz = HttpGet(host, port, "/lockz");
    if (lz.ok() && lz->status == 200) {
      auto parsed = Json::Parse(lz->body);
      if (parsed.ok()) lockz = *parsed;
    }

    // Rates need two scrapes; --once waits one interval for the second.
    if (have_prev) {
      Frame frame = ComputeFrame(now, prev, &flightz, &lockz);
      RenderFrame(frame, target, /*ansi=*/!once);
      if (once) return 0;
    }
    prev = std::move(now);
    have_prev = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
