#include "src/obs/perfetto.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/util/strings.h"

namespace sns {

namespace {

// Lanes ("threads") are allocated per (node, component-name) pair as they appear.
class LaneTable {
 public:
  int Lane(int32_t node, const std::string& component, std::string* metadata) {
    auto key = std::make_pair(node, component);
    auto it = lanes_.find(key);
    if (it != lanes_.end()) {
      return it->second;
    }
    int lane = ++next_lane_per_node_[node];
    lanes_[key] = lane;
    if (seen_nodes_.insert({node, 0}).second) {
      StrAppendFormat(metadata,
          "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"node %d\"}},",
          node, node);
    }
    StrAppendFormat(metadata,
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}},",
        node, lane, JsonEscape(component).c_str());
    return lane;
  }

 private:
  std::map<std::pair<int32_t, std::string>, int> lanes_;
  std::map<int32_t, int> next_lane_per_node_;
  std::map<int32_t, int> seen_nodes_;
};

double ToMicros(SimTime t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

std::string ExportChromeTrace(const TraceCollector& collector, const EventLog* events) {
  LaneTable lanes;
  std::string metadata;
  std::string body;

  std::vector<int> span_lanes;
  std::unordered_map<uint64_t, size_t> index_of_span;
  for (uint64_t trace_id : collector.TraceIds()) {
    std::vector<const SpanRecord*> spans = collector.SortedSpans(trace_id);
    span_lanes.clear();
    index_of_span.clear();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = *spans[i];
      int lane = lanes.Lane(span.node, span.component, &metadata);
      span_lanes.push_back(lane);
      index_of_span.try_emplace(span.span_id, i);  // The first in order wins.
      StrAppendFormat(&body,
          "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"span\",\"pid\":%d,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":%llu,\"span_id\":%llu,"
          "\"parent_span_id\":%llu,\"outcome\":\"%s\"}},",
          JsonEscape(span.operation).c_str(), span.node, lane, ToMicros(span.start),
          ToMicros(span.end - span.start), static_cast<unsigned long long>(span.trace_id),
          static_cast<unsigned long long>(span.span_id),
          static_cast<unsigned long long>(span.parent_span_id), JsonEscape(span.outcome).c_str());
    }
    // One arrow per hop that crosses lanes: from the parent's slice (at the
    // child's start, clamped into the parent) to the child's slice. Both ends are
    // retained spans, so every arrow is whole; the child's span id is unique
    // across the run and names the flow.
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& child = *spans[i];
      auto found = index_of_span.find(child.parent_span_id);
      if (found == index_of_span.end()) {
        continue;
      }
      const SpanRecord& parent = *spans[found->second];
      if (parent.node == child.node && parent.component == child.component) {
        continue;
      }
      SimTime from = std::clamp(child.start, parent.start, parent.end);
      std::string name = JsonEscape(child.operation);
      StrAppendFormat(&body,
          "{\"ph\":\"s\",\"name\":\"%s\",\"cat\":\"flow\",\"id\":%llu,\"pid\":%d,"
          "\"tid\":%d,\"ts\":%.3f},",
          name.c_str(), static_cast<unsigned long long>(child.span_id), parent.node,
          span_lanes[found->second], ToMicros(from));
      StrAppendFormat(&body,
          "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"%s\",\"cat\":\"flow\",\"id\":%llu,"
          "\"pid\":%d,\"tid\":%d,\"ts\":%.3f},",
          name.c_str(), static_cast<unsigned long long>(child.span_id), child.node,
          span_lanes[i], ToMicros(child.start));
    }
  }

  if (events != nullptr) {
    for (const FaultInstant& fault : events->faults()) {
      StrAppendFormat(&body,
          "{\"ph\":\"i\",\"s\":\"g\",\"name\":\"%s\",\"cat\":\"fault\",\"pid\":0,\"tid\":0,"
          "\"ts\":%.3f},",
          JsonEscape(fault.what).c_str(), ToMicros(fault.at));
    }
  }

  // Host-CPU zone profiler counter tracks (empty unless the profiler ran):
  // they land in their own pid so they render as a separate "host cpu" group
  // below the simulated-time lanes.
  body += ProfilerCounterTrackJson();

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out += metadata;
  out += body;
  // Tolerate the trailing comma by closing with a harmless metadata event.
  out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"args\":{\"name\":\"cluster\"}}";
  out += "]}";
  return out;
}

}  // namespace sns
