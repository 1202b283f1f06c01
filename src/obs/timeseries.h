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
// The recorder is driven externally via SampleAt(now): it has no event-loop
// dependency of its own (obs stays below sim/net in the layer order); SnsSystem
// calls it from a self-re-arming tick on its simulator at the configured cadence.

#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/time.h"

namespace sns {

class TimeSeriesRecorder {
 public:
  struct Series {
    std::deque<SimTime> t;  // Sample times, parallel to v.
    std::deque<double> v;
  };

  explicit TimeSeriesRecorder(const MetricsRegistry* registry,
                              SimDuration interval = Milliseconds(250),
                              size_t max_samples = 4096)
      : registry_(registry), interval_(interval), max_samples_(max_samples) {}

  // Registers a custom probe sampled alongside the registry (e.g. node CPU, which
  // lives in the Cluster, not the registry). Re-registering a name replaces it.
  void AddProbe(const std::string& series, std::function<double()> probe);

  // Takes one sample of every instrument and probe at sim-time `now`.
  void SampleAt(SimTime now);

  SimDuration interval() const { return interval_; }
  int64_t samples_taken() const { return samples_taken_; }
  size_t series_count() const { return series_.size(); }
  const Series* Find(const std::string& name) const;

  // Columnar JSON:
  //   {"interval_ns":N,"samples":N,"series":{"name":{"t_ns":[...],"v":[...]},...}}
  // Series are sorted by name; arrays are parallel and bounded by max_samples.
  std::string ToJson() const;

 private:
  void Record(const std::string& name, SimTime now, double value);

  const MetricsRegistry* registry_;
  SimDuration interval_;
  size_t max_samples_;
  int64_t samples_taken_ = 0;
  std::map<std::string, std::function<double()>> probes_;
  std::map<std::string, Series> series_;
};

}  // namespace sns

#endif  // SRC_OBS_TIMESERIES_H_
