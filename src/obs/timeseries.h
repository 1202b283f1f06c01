// TimeSeriesRecorder: periodic sampling of the whole metrics registry into
// bounded ring buffers, one series per instrument.
//
// End-of-run snapshots (the monitor's ExportJson) answer "how much, in total?";
// the figures in the paper's evaluation — queue lengths tracking an offered-load
// burst (Fig. 6), distillers spawning as the manager's spawn threshold trips —
// need "how much, *when*?". Each sample tick records every registered counter
// (cumulative value), gauge (instantaneous value), and histogram (count and
// mean), plus any custom probes (per-node CPU utilization, values that live
// outside the registry). Rings are bounded, so long experiments keep the most
// recent window.
//
// Storage is columnar. Instruments are never removed from the registry and a
// probe is never removed, so every series is sampled on every tick from the
// tick it first appears on: its sample times are a suffix of one shared tick
// ring, stored once, and each series keeps only a ring of values. A series
// holds its typed source (counter, gauge, histogram count or mean, probe),
// bound when it first appears; the recorder rebinds only when the registry's
// instrument count changes, so a tick builds and looks up no names.
//
// A name has exactly one source: the first to claim it. Instruments claim at
// the first tick after they register, counters before gauges before
// histograms ("<name>.count", "<name>.mean"); a probe claims when added. A
// later claimant of a taken name is not recorded, except that AddProbe on a
// probe's name replaces the probe and keeps the series.
//
// The recorder is driven externally via SampleAt(now): it has no event-loop
// dependency of its own (obs stays below sim/net in the layer order); SnsSystem
// calls it from a self-re-arming tick on its simulator at the configured cadence.

#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/time.h"

namespace sns {

class TimeSeriesRecorder {
 public:
  class Series;

  // Read-only view of one column of a series, oldest sample first. It stays
  // valid for the recorder's lifetime and follows later samples.
  template <typename T>
  class Column {
   public:
    size_t size() const;
    T operator[](size_t i) const;
    T front() const { return (*this)[0]; }
    T back() const { return (*this)[size() - 1]; }

   private:
    friend class Series;
    explicit Column(const Series* series) : series_(series) {}
    const Series* series_;
  };

  class Series {
   public:
    Column<SimTime> t{this};  // Sample times, parallel to v.
    Column<double> v{this};

    Series(const TimeSeriesRecorder* recorder, int64_t first_tick)
        : recorder_(recorder), first_tick_(first_tick) {}
    Series(const Series&) = delete;
    Series& operator=(const Series&) = delete;

   private:
    friend class TimeSeriesRecorder;
    template <typename T>
    friend class Column;

    enum class Source : uint8_t { kCounter, kGauge, kHistogramCount, kHistogramMean, kProbe };

    double Read() const;
    // Oldest retained tick and the number of retained samples.
    int64_t start() const;
    size_t size() const;
    // Calls fn(value) for each retained sample, oldest first.
    template <typename Fn>
    void ForEachValue(Fn&& fn) const;

    const TimeSeriesRecorder* recorder_;
    int64_t first_tick_;          // Tick index of the first sample.
    std::vector<double> values_;  // Ring: tick k at (k - first_tick_) % max_samples.
    Source source_ = Source::kProbe;
    const Counter* counter_ = nullptr;
    const Gauge* gauge_ = nullptr;
    const Histogram* histogram_ = nullptr;
    std::function<double()> probe_;
  };

  explicit TimeSeriesRecorder(const MetricsRegistry* registry,
                              SimDuration interval = Milliseconds(250),
                              size_t max_samples = 4096)
      : registry_(registry), interval_(interval), max_samples_(max_samples) {}
  // Series point back at their recorder.
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  // Registers a custom probe sampled alongside the registry (e.g. node CPU, which
  // lives in the Cluster, not the registry). Re-registering a name replaces it.
  void AddProbe(const std::string& series, std::function<double()> probe);

  // Takes one sample of every instrument and probe at sim-time `now`.
  void SampleAt(SimTime now);

  SimDuration interval() const { return interval_; }
  int64_t samples_taken() const { return samples_taken_; }
  size_t series_count() const;
  // nullptr until the series has a sample.
  const Series* Find(const std::string& name) const;

  // Columnar JSON:
  //   {"interval_ns":N,"samples":N,"series":{"name":{"t_ns":[...],"v":[...]},...}}
  // Series are sorted by name; arrays are parallel and bounded by max_samples.
  // Times print as %lld, values as %.6g.
  std::string ToJson() const;

 private:
  // Claims `name` for a new series unless it is taken; nullptr if taken.
  Series* Claim(const std::string& name);
  // Binds a series to every instrument registered since the last bind.
  void Bind();

  const MetricsRegistry* registry_;
  SimDuration interval_;
  size_t max_samples_;
  int64_t samples_taken_ = 0;
  size_t bound_instruments_ = 0;
  std::vector<SimTime> ticks_;            // Ring: tick k at k % max_samples_.
  std::map<std::string, Series> series_;  // By name: export order.
  std::vector<Series*> sample_order_;     // series_ in name order, rebuilt on claims.
};

inline int64_t TimeSeriesRecorder::Series::start() const {
  int64_t window_start = recorder_->samples_taken_ - static_cast<int64_t>(recorder_->max_samples_);
  return window_start > first_tick_ ? window_start : first_tick_;
}

inline size_t TimeSeriesRecorder::Series::size() const {
  return static_cast<size_t>(recorder_->samples_taken_ - start());
}

template <typename Fn>
void TimeSeriesRecorder::Series::ForEachValue(Fn&& fn) const {
  // Not yet wrapped: the ring is in order from slot 0. Wrapped: every slot is
  // live and the oldest is the next one to be overwritten.
  size_t oldest = values_.size() < recorder_->max_samples_
                      ? 0
                      : static_cast<size_t>(recorder_->samples_taken_ - first_tick_) %
                            recorder_->max_samples_;
  for (size_t i = oldest; i < values_.size(); ++i) fn(values_[i]);
  for (size_t i = 0; i < oldest; ++i) fn(values_[i]);
}

template <typename T>
size_t TimeSeriesRecorder::Column<T>::size() const {
  return series_->size();
}

template <typename T>
T TimeSeriesRecorder::Column<T>::operator[](size_t i) const {
  const TimeSeriesRecorder& recorder = *series_->recorder_;
  int64_t tick = series_->start() + static_cast<int64_t>(i);
  if constexpr (std::is_same_v<T, double>) {
    return series_->values_[static_cast<size_t>(tick - series_->first_tick_) %
                            recorder.max_samples_];
  } else {
    return recorder.ticks_[static_cast<size_t>(tick) % recorder.max_samples_];
  }
}

}  // namespace sns

#endif  // SRC_OBS_TIMESERIES_H_
