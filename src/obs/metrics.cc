#include "src/obs/metrics.h"

#include "src/util/strings.h"

namespace sns {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name, double lo, double hi,
                                         size_t buckets) {
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(lo, hi, buckets);
  }
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const Counter* c = FindCounter(name);
  return c != nullptr ? c->value() : 0;
}

std::string MetricsRegistry::RenderText() const {
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("%s %lld\n", name.c_str(), static_cast<long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("%s %.6g\n", name.c_str(), gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    out += StrFormat("%s count=%lld mean=%.6g p50=%.6g p95=%.6g p99=%.6g\n", name.c_str(),
                     static_cast<long long>(hist->TotalCount()), hist->summary().mean(),
                     hist->Percentile(0.50), hist->Percentile(0.95), hist->Percentile(0.99));
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%lld", JsonEscape(name).c_str(),
                     static_cast<long long>(counter->value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%.6g", JsonEscape(name).c_str(), gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\"%s\":{\"count\":%lld,\"mean\":%.6g,\"min\":%.6g,\"max\":%.6g,"
        "\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g}",
        JsonEscape(name).c_str(), static_cast<long long>(hist->TotalCount()),
        hist->summary().mean(), hist->summary().min(), hist->summary().max(),
        hist->Percentile(0.50), hist->Percentile(0.95), hist->Percentile(0.99));
  }
  out += "}}";
  return out;
}

}  // namespace sns
