#ifndef DEEPLAKE_SIM_GPU_MODEL_H_
#define DEEPLAKE_SIM_GPU_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/thread_annotations.h"

namespace dl::sim {

/// One busy/idle interval of a simulated accelerator.
struct TimelineInterval {
  int64_t start_us;
  int64_t end_us;
  bool busy;
};

/// Rate-based GPU stand-in (see DESIGN.md substitutions). A training step
/// on `batch` samples takes `batch / samples_per_sec` seconds of "compute";
/// the gap between one TrainStep returning and the next one starting is
/// idle time. Utilization = busy / (busy + idle), the paper's Fig. 9/10
/// metric.
class GpuModel {
 public:
  /// `samples_per_sec`: the model's compute throughput when never starved.
  explicit GpuModel(double samples_per_sec, std::string label = "gpu0")
      : samples_per_sec_(samples_per_sec), label_(std::move(label)) {
    auto& registry = obs::MetricsRegistry::Global();
    obs::Labels labels = {{"gpu", label_}};
    util_gauge_ = registry.GetGauge("sim.gpu.utilization", labels);
    idle_gauge_ = registry.GetGauge("sim.gpu.idle_us", labels);
    samples_counter_ = registry.GetCounter("sim.gpu.samples", labels);
    step_hist_ = registry.GetHistogram("sim.gpu.step_us", labels);
  }

  /// Blocks for the simulated step duration and records the interval.
  /// Thread-safe: each GpuModel instance represents one device consumed by
  /// one training loop, but stats can be read concurrently.
  void TrainStep(uint64_t batch_size) {
    int64_t now = NowMicros();
    int64_t step_us = static_cast<int64_t>(
        static_cast<double>(batch_size) / samples_per_sec_ * 1e6);
    {
      MutexLock lock(mu_);
      if (last_end_us_ != 0 && now > last_end_us_) {
        intervals_.push_back({last_end_us_, now, /*busy=*/false});
        idle_us_ += now - last_end_us_;
      }
      intervals_.push_back({now, now + step_us, /*busy=*/true});
      busy_us_ += step_us;
      samples_ += batch_size;
      steps_ += 1;
      int64_t total = busy_us_ + idle_us_;
      util_gauge_->Set(
          total > 0 ? static_cast<double>(busy_us_) / total : 0.0);
      idle_gauge_->Set(static_cast<double>(idle_us_));
    }
    samples_counter_->Add(batch_size);
    step_hist_->Observe(static_cast<double>(step_us));
    SleepMicros(step_us);
    // Idle starts when the step returns, not when it was due to end: a
    // late wake-up from the sleep is not time the caller kept the GPU
    // waiting.
    MutexLock lock(mu_);
    last_end_us_ = NowMicros();
  }

  /// Busy fraction over the observed span; 0 when nothing ran.
  double Utilization() const {
    MutexLock lock(mu_);
    int64_t total = busy_us_ + idle_us_;
    return total > 0 ? static_cast<double>(busy_us_) / total : 0.0;
  }

  uint64_t samples_processed() const {
    MutexLock lock(mu_);
    return samples_;
  }
  uint64_t steps() const {
    MutexLock lock(mu_);
    return steps_;
  }
  int64_t busy_micros() const {
    MutexLock lock(mu_);
    return busy_us_;
  }
  int64_t idle_micros() const {
    MutexLock lock(mu_);
    return idle_us_;
  }
  const std::string& label() const { return label_; }

  std::vector<TimelineInterval> Timeline() const {
    MutexLock lock(mu_);
    return intervals_;
  }

  /// Utilization within consecutive windows of `window_us`, for plotting a
  /// Fig. 10-style utilization-over-time series.
  std::vector<double> UtilizationSeries(int64_t window_us) const;

  /// UtilizationSeries as a bench-embeddable JSON document:
  /// {"gpu","window_us","utilization":[...]}.
  Json UtilizationTimelineJson(int64_t window_us) const;

 private:
  double samples_per_sec_;
  std::string label_;
  // Leaf lock: gauge writes under it are atomic stores, never other locks.
  mutable Mutex mu_{"sim.gpu_model.mu"};
  std::vector<TimelineInterval> intervals_ DL_GUARDED_BY(mu_);
  int64_t busy_us_ DL_GUARDED_BY(mu_) = 0;
  int64_t idle_us_ DL_GUARDED_BY(mu_) = 0;
  int64_t last_end_us_ DL_GUARDED_BY(mu_) = 0;
  uint64_t samples_ DL_GUARDED_BY(mu_) = 0;
  uint64_t steps_ DL_GUARDED_BY(mu_) = 0;
  // Registry instruments (family `sim.gpu.*`, labeled {gpu=<label>}):
  // live utilization/starvation, refreshed every TrainStep.
  obs::Gauge* util_gauge_;
  obs::Gauge* idle_gauge_;
  obs::Counter* samples_counter_;
  obs::Histogram* step_hist_;
};

}  // namespace dl::sim

#endif  // DEEPLAKE_SIM_GPU_MODEL_H_
