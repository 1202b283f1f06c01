// STONITH-style fencing.
//
// Before a successor is promoted over an incumbent that is alive but
// unreachable, the incumbent is killed out of band ("shoot the other node in
// the head") so it can never race the successor for shared state. FenceAgent
// models the fence device: it has a back channel to every node (the cluster's
// management network, not the partitioned SAN), so a fence request succeeds
// even when the victim is on the far side of a partition.
//
// StoreReservation models the storage-side half of fencing (SCSI reserve): a
// shared store is claimed by a component generation, and once a newer
// generation claims it, every older generation's writes bounce at the bus.

#ifndef SRC_QUORUM_FENCING_H_
#define SRC_QUORUM_FENCING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"

namespace sns {

class FenceAgent {
 public:
  explicit FenceAgent(Cluster* cluster);

  void BindMetrics(MetricsRegistry* metrics);

  // Kills `pid` if it is still alive. Returns whether a kill happened.
  // Deterministic and immediate: the fence device does not negotiate.
  bool Fence(ProcessId pid, const std::string& reason);

  // Mirrors every kill line into `log` as a fault instant, so fence events
  // annotate the availability timeline next to the faults that provoked them.
  void set_event_log(EventLog* log) { event_log_ = log; }

  int64_t kills() const { return kills_; }
  const std::vector<std::string>& log() const { return log_; }

 private:
  Cluster* cluster_;
  int64_t kills_ = 0;
  Counter* kills_counter_ = nullptr;
  std::vector<std::string> log_;
  EventLog* event_log_ = nullptr;
};

// SCSI-reserve analog for a shared KvStore: the highest generation to claim
// the reservation holds it. With enforcement off (the pre-quorum baseline)
// every incarnation "holds" it, reproducing the unfenced free-for-all.
class StoreReservation {
 public:
  explicit StoreReservation(bool enforce = true) : enforce_(enforce) {}

  void set_enforce(bool enforce) { enforce_ = enforce; }
  void Claim(uint64_t generation) {
    if (generation > holder_) {
      holder_ = generation;
    }
  }
  bool HeldBy(uint64_t generation) const {
    return !enforce_ || generation >= holder_;
  }
  uint64_t holder() const { return holder_; }

 private:
  bool enforce_;
  uint64_t holder_ = 0;
};

}  // namespace sns

#endif  // SRC_QUORUM_FENCING_H_
