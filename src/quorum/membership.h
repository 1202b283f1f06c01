// Vote-based cluster membership (MSCS regroup / cman vote counting).
//
// Every voting node carries a configurable vote count (cman's `votes` knob,
// default 1). A regroup round, run from a vantage node, computes the connected
// set of live voters and their vote sum; the side holding a strict majority of
// the total registered votes (2*held > total, cman's expected_votes majority)
// is quorate. An exact 50/50 split is broken by the quorum disk: the side that
// can see a live disk lease — or claim an expired one — wins the tie, so a
// two-node cluster resolves partitions deterministically instead of
// deadlocking or split-braining.
//
// The service is an omniscient oracle over San ground truth (node up/down and
// partition groups), standing in for the message rounds of a real regroup
// protocol: in the simulator, "ran a regroup round at time t" and "read the
// SAN state at time t" produce identical answers, with no protocol latency to
// model. Membership is evaluated at decision points (beacon ticks, relaunch
// gates, write commits), not cached, so every answer reflects the instant it
// is asked.

#ifndef SRC_QUORUM_MEMBERSHIP_H_
#define SRC_QUORUM_MEMBERSHIP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/net/san.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/quorum/quorum_disk.h"

namespace sns {

// The outcome of one regroup round, as seen from a vantage node.
struct MembershipView {
  uint64_t regroup_seq = 0;           // Global transition counter at this round.
  std::vector<NodeId> members;        // Live voters reachable from the vantage.
  int32_t votes_held = 0;             // Vote sum of `members`.
  int32_t votes_total = 0;            // Vote sum of every registered voter.
  bool quorate = false;
  bool tie = false;                   // Exactly half the votes on this side.
  bool tie_won_by_disk = false;       // Tie resolved in our favor by the disk.
};

class MembershipService {
 public:
  // `disk` may be null: then an exact tie is simply not quorate (strict
  // majority required), which is the safe default for odd-vote clusters.
  MembershipService(const San* san, QuorumDisk* disk);

  // Registers (or updates) a node's votes. Nodes with zero votes (clients,
  // load generators) never affect quorum.
  void SetVotes(NodeId node, int32_t votes);
  int32_t votes(NodeId node) const;
  int32_t votes_total() const;

  void BindMetrics(MetricsRegistry* metrics);

  // Runs a regroup round from `vantage`. With `renew` set the caller asserts
  // leadership from this vantage: on a tie it claims/renews the quorum-disk
  // lease for the vantage node, and the exported quorum gauges track this
  // view. Without `renew` (relaunch gates, write commits) the round is
  // read-only: a tie is quorate only if the current lease holder is on the
  // vantage's side, or the lease is claimable (expired/unowned).
  MembershipView Regroup(NodeId vantage, SimTime now, bool renew = false);

  // Appends an externally produced line to the transition log (managers log
  // their degrade/resume flips here so one trace tells the whole story).
  void NoteTransition(SimTime at, std::string line);

  // Mirrors every transition line (regroup view changes and NoteTransition
  // entries) into `log` as a fault instant, so quorum flips annotate the
  // availability timeline and Perfetto traces alongside injected faults.
  void set_event_log(EventLog* log) { event_log_ = log; }

  uint64_t regroup_seq() const { return regroup_seq_; }
  const std::vector<std::string>& transitions() const { return transitions_; }

 private:
  const San* san_;
  QuorumDisk* disk_;
  std::map<NodeId, int32_t> votes_;
  uint64_t regroup_seq_ = 0;

  struct LastView {
    std::vector<NodeId> members;
    bool quorate = false;
    bool valid = false;
  };
  std::map<NodeId, LastView> last_;  // Per-vantage, for transition detection.
  std::vector<std::string> transitions_;
  EventLog* event_log_ = nullptr;

  Gauge* votes_held_gauge_ = nullptr;
  Gauge* votes_total_gauge_ = nullptr;
  Gauge* quorate_gauge_ = nullptr;
};

}  // namespace sns

#endif  // SRC_QUORUM_MEMBERSHIP_H_
