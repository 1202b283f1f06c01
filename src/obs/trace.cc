#include "src/obs/trace.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace sns {

std::string SpanRecord::ToJson() const {
  return StrFormat(
      "{\"span_id\":%llu,\"parent_span_id\":%llu,\"component\":\"%s\",\"operation\":\"%s\","
      "\"node\":%d,\"start_ns\":%lld,\"end_ns\":%lld,\"outcome\":\"%s\"}",
      static_cast<unsigned long long>(span_id), static_cast<unsigned long long>(parent_span_id),
      JsonEscape(component).c_str(), JsonEscape(operation).c_str(), node,
      static_cast<long long>(start), static_cast<long long>(end), JsonEscape(outcome).c_str());
}

TraceContext TraceCollector::StartTrace() {
  TraceContext ctx;
  ctx.trace_id = next_trace_id_++;
  ctx.span_id = next_span_id_++;
  return ctx;
}

TraceContext TraceCollector::ChildOf(const TraceContext& parent) {
  if (!parent.valid()) {
    return TraceContext{};
  }
  TraceContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.span_id = next_span_id_++;
  ctx.parent_span_id = parent.span_id;
  ctx.hop_count = parent.hop_count + 1;
  return ctx;
}

void TraceCollector::Record(SpanRecord span) {
  if (span.trace_id == 0) {
    return;
  }
  auto it = spans_by_trace_.find(span.trace_id);
  if (it == spans_by_trace_.end()) {
    if (spans_by_trace_.size() >= max_traces_) {
      EvictOldest();
    }
    it = spans_by_trace_.emplace(span.trace_id, std::vector<SpanRecord>{}).first;
    trace_order_.push_back(span.trace_id);
  }
  it->second.push_back(std::move(span));
  ++span_count_;
}

std::vector<SpanRecord> TraceCollector::Trace(uint64_t trace_id) const {
  std::vector<SpanRecord> spans;
  for (const SpanRecord* span : SortedSpans(trace_id)) {
    spans.push_back(*span);
  }
  return spans;
}

std::vector<const SpanRecord*> TraceCollector::SortedSpans(uint64_t trace_id) const {
  auto it = spans_by_trace_.find(trace_id);
  if (it == spans_by_trace_.end()) {
    return {};
  }
  std::vector<const SpanRecord*> spans;
  spans.reserve(it->second.size());
  for (const SpanRecord& span : it->second) {
    spans.push_back(&span);
  }
  std::sort(spans.begin(), spans.end(), [](const SpanRecord* a, const SpanRecord* b) {
    if (a->start != b->start) return a->start < b->start;
    return a->span_id < b->span_id;
  });
  return spans;
}

std::vector<uint64_t> TraceCollector::TraceIds() const {
  return {trace_order_.begin(), trace_order_.end()};
}

std::string TraceCollector::ToJson() const {
  std::string out = "{\"traces\":[";
  bool first = true;
  for (uint64_t id : trace_order_) {
    if (!first) out += ",";
    first = false;
    out += TraceToJson(id);
  }
  out += "]}";
  return out;
}

std::string TraceCollector::TraceToJson(uint64_t trace_id) const {
  std::string out = StrFormat("{\"trace_id\":%llu,\"spans\":[",
                              static_cast<unsigned long long>(trace_id));
  bool first = true;
  for (const SpanRecord* span : SortedSpans(trace_id)) {
    if (!first) out += ",";
    first = false;
    out += span->ToJson();
  }
  out += "]}";
  return out;
}

void TraceCollector::EvictOldest() {
  if (trace_order_.empty()) {
    return;
  }
  uint64_t victim = trace_order_.front();
  trace_order_.pop_front();
  auto it = spans_by_trace_.find(victim);
  if (it != spans_by_trace_.end()) {
    span_count_ -= it->second.size();
    spans_by_trace_.erase(it);
  }
}

}  // namespace sns
