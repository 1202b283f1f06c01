#include "src/obs/timeseries.h"

#include <utility>

#include "src/util/strings.h"

namespace sns {

void TimeSeriesRecorder::AddProbe(const std::string& series, std::function<double()> probe) {
  probes_[series] = std::move(probe);
}

void TimeSeriesRecorder::Record(const std::string& name, SimTime now, double value) {
  Series& s = series_[name];
  s.t.push_back(now);
  s.v.push_back(value);
  while (s.t.size() > max_samples_) {
    s.t.pop_front();
    s.v.pop_front();
  }
}

void TimeSeriesRecorder::SampleAt(SimTime now) {
  ++samples_taken_;
  if (registry_ != nullptr) {
    registry_->ForEachCounter([this, now](const std::string& name, const Counter& c) {
      Record(name, now, static_cast<double>(c.value()));
    });
    registry_->ForEachGauge([this, now](const std::string& name, const Gauge& g) {
      Record(name, now, g.value());
    });
    registry_->ForEachHistogram([this, now](const std::string& name, const Histogram& h) {
      Record(name + ".count", now, static_cast<double>(h.TotalCount()));
      Record(name + ".mean", now, h.summary().mean());
    });
  }
  for (const auto& [name, probe] : probes_) {
    Record(name, now, probe());
  }
}

const TimeSeriesRecorder::Series* TimeSeriesRecorder::Find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::string TimeSeriesRecorder::ToJson() const {
  std::string out = StrFormat("{\"interval_ns\":%lld,\"samples\":%lld,\"series\":{",
                              static_cast<long long>(interval_),
                              static_cast<long long>(samples_taken_));
  bool first_series = true;
  for (const auto& [name, s] : series_) {
    if (!first_series) out += ",";
    first_series = false;
    out.append("\"").append(JsonEscape(name)).append("\":{\"t_ns\":[");
    bool first = true;
    for (SimTime t : s.t) {
      if (!first) out += ",";
      first = false;
      out += StrFormat("%lld", static_cast<long long>(t));
    }
    out += "],\"v\":[";
    first = true;
    for (double v : s.v) {
      if (!first) out += ",";
      first = false;
      out += StrFormat("%.6g", v);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace sns
