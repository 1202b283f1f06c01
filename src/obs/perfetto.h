// Chrome-trace ("Trace Event Format") JSON export, openable in ui.perfetto.dev
// (or chrome://tracing), drawing three kinds of event on one timeline:
//   - TraceCollector spans as complete ("X") slices, one track per
//     (node, component) pair — pid = cluster node, tid = component lane;
//   - span parentage as flow arrows ("s"/"f"): one per span whose parent is in
//     the same retained trace on another lane, from the parent's slice to the
//     child's, so a request's causality is a connected chain across processes;
//   - the event log's instants (injected faults, fence kills, quorum
//     transitions, rebalance windows) as global instant events ("i", scope "g")
//     that draw a vertical marker across every track.
//
// Timestamps are microseconds (the format's unit); sim time is nanoseconds, so
// slices keep sub-microsecond precision via fractional ts values.

#ifndef SRC_OBS_PERFETTO_H_
#define SRC_OBS_PERFETTO_H_

#include <string>

#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace sns {

// Renders every retained trace of `collector`, plus (optionally) the instants of
// `events`, as one Chrome-trace JSON document.
std::string ExportChromeTrace(const TraceCollector& collector, const EventLog* events = nullptr);

}  // namespace sns

#endif  // SRC_OBS_PERFETTO_H_
