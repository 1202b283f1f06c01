#include "src/obs/timeseries.h"

#include <charconv>
#include <cstring>
#include <utility>

#include "src/obs/profiler.h"
#include "src/util/strings.h"

namespace sns {

double TimeSeriesRecorder::Series::Read() const {
  switch (source_) {
    case Source::kCounter:
      return static_cast<double>(counter_->value());
    case Source::kGauge:
      return gauge_->value();
    case Source::kHistogramCount:
      return static_cast<double>(histogram_->TotalCount());
    case Source::kHistogramMean:
      return histogram_->summary().mean();
    case Source::kProbe:
      break;
  }
  return probe_();
}

TimeSeriesRecorder::Series* TimeSeriesRecorder::Claim(const std::string& name) {
  auto [it, inserted] = series_.try_emplace(name, this, samples_taken_);
  return inserted ? &it->second : nullptr;
}

void TimeSeriesRecorder::AddProbe(const std::string& series, std::function<double()> probe) {
  Series* s = Claim(series);
  if (s == nullptr) {
    s = &series_.find(series)->second;
    if (s->source_ != Series::Source::kProbe) {
      return;  // An instrument owns the name.
    }
  }
  s->probe_ = std::move(probe);
}

void TimeSeriesRecorder::Bind() {
  registry_->ForEachCounter([this](const std::string& name, const Counter& c) {
    if (Series* s = Claim(name)) {
      s->source_ = Series::Source::kCounter;
      s->counter_ = &c;
    }
  });
  registry_->ForEachGauge([this](const std::string& name, const Gauge& g) {
    if (Series* s = Claim(name)) {
      s->source_ = Series::Source::kGauge;
      s->gauge_ = &g;
    }
  });
  registry_->ForEachHistogram([this](const std::string& name, const Histogram& h) {
    if (Series* s = Claim(name + ".count")) {
      s->source_ = Series::Source::kHistogramCount;
      s->histogram_ = &h;
    }
    if (Series* s = Claim(name + ".mean")) {
      s->source_ = Series::Source::kHistogramMean;
      s->histogram_ = &h;
    }
  });
  bound_instruments_ = registry_->instrument_count();
}

void TimeSeriesRecorder::SampleAt(SimTime now) {
  SNS_PROFILE_ZONE("obs.timeseries");
  if (registry_ != nullptr && registry_->instrument_count() != bound_instruments_) {
    Bind();
  }
  if (sample_order_.size() != series_.size()) {  // Series were claimed.
    sample_order_.clear();
    for (auto& [unused, series] : series_) {
      sample_order_.push_back(&series);
    }
  }
  const int64_t tick = samples_taken_++;
  if (ticks_.size() < max_samples_) {
    ticks_.push_back(now);
  } else {
    ticks_[static_cast<size_t>(tick) % max_samples_] = now;
  }
  for (Series* s : sample_order_) {
    double value = s->Read();
    if (s->values_.size() < max_samples_) {
      s->values_.push_back(value);
    } else {
      s->values_[static_cast<size_t>(tick - s->first_tick_) % max_samples_] = value;
    }
  }
}

size_t TimeSeriesRecorder::series_count() const {
  size_t n = 0;
  for (const auto& [unused, series] : series_) {
    n += series.size() > 0 ? 1 : 0;
  }
  return n;
}

const TimeSeriesRecorder::Series* TimeSeriesRecorder::Find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() || it->second.size() == 0 ? nullptr : &it->second;
}

std::string TimeSeriesRecorder::ToJson() const {
  std::string out = StrFormat("{\"interval_ns\":%lld,\"samples\":%lld,\"series\":{",
                              static_cast<long long>(interval_),
                              static_cast<long long>(samples_taken_));
  // The retained tick column, formatted once as "t,t,...,t," with each tick's
  // offset: a series' t_ns array is the text from its first tick on.
  const int64_t oldest = samples_taken_ - static_cast<int64_t>(ticks_.size());
  std::string ticks;
  std::vector<size_t> tick_at;
  tick_at.reserve(ticks_.size());
  char buf[32];
  for (int64_t k = oldest; k < samples_taken_; ++k) {
    tick_at.push_back(ticks.size());
    char* end = std::to_chars(buf, buf + sizeof(buf),
                              static_cast<long long>(ticks_[static_cast<size_t>(k) % max_samples_]))
                    .ptr;
    ticks.append(buf, end).push_back(',');
  }

  // Reserve the whole export: growing it by doubling would copy it and raise
  // peak memory.
  size_t estimate = out.size() + 2;
  for (const auto& [name, s] : series_) {
    if (s.size() > 0) {
      estimate += name.size() + 24 + (ticks.size() - tick_at[s.start() - oldest]) + 8 * s.size();
    }
  }
  out.reserve(estimate);

  bool first_series = true;
  for (const auto& [name, s] : series_) {
    if (s.size() == 0) {
      continue;
    }
    if (!first_series) out += ",";
    first_series = false;
    out.append("\"").append(JsonEscape(name)).append("\":{\"t_ns\":[");
    size_t from = tick_at[s.start() - oldest];
    out.append(ticks, from, ticks.size() - 1 - from);
    out += "],\"v\":[";
    // %.6g of a value is to_chars(general, 6); repeated bits reuse the text.
    uint64_t last_bits = 0;
    size_t len = 0;
    bool first = true;
    s.ForEachValue([&](double v) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      if (first || bits != last_bits) {
        len = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6).ptr - buf;
        last_bits = bits;
      }
      if (!first) out += ",";
      first = false;
      out.append(buf, len);
    });
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace sns
