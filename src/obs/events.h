// Flight-recorder event log: the cluster's instants on one sim-time timeline —
// injected faults, fence kills, quorum transitions and cache rebalance windows.
//
// Spans (src/obs/trace.h) are the one causal record: every request hop is a span
// that names its parent, and the Perfetto exporter (src/obs/perfetto.h) draws
// the arrows between hops from that parentage. This log holds only what no span
// carries — the points where the cluster itself changed — so the exported view
// shows each dip next to the fault or transition that caused it.
//
// This layer deliberately knows nothing about src/net types (net links obs, not
// the reverse).

#ifndef SRC_OBS_EVENTS_H_
#define SRC_OBS_EVENTS_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/util/time.h"

namespace sns {

// A fault the injector applied (process crash, node outage, partition, beacon
// loss), or a control-plane transition, as a point on the timeline.
struct FaultInstant {
  SimTime at = 0;
  std::string what;  // e.g. "crash pid 7", "partition group 1 (2 nodes)".
};

// Bounded FIFO store of instants. Long experiments keep the tail; exports stay
// bounded.
class EventLog {
 public:
  void RecordFault(FaultInstant ev);

  const std::deque<FaultInstant>& faults() const { return faults_; }
  // Always 0: the SAN records no per-message events (spans carry causality).
  // Kept only because perfbench reports it as obs.san_events_recorded.
  int64_t messages_recorded() const { return 0; }
  // Total instants ever recorded (including those evicted from the ring).
  int64_t faults_recorded() const { return faults_recorded_; }

 private:
  static constexpr size_t kMaxFaults = 4096;

  int64_t faults_recorded_ = 0;
  std::deque<FaultInstant> faults_;
};

}  // namespace sns

#endif  // SRC_OBS_EVENTS_H_
