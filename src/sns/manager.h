// The centralized, fault-tolerant load-balancing manager (paper §2.2.2, §3.1.2).
//
// Responsibilities, from the paper:
//   - "tracking the location of distillers" — soft-state tables refreshed by load
//     reports, expired by TTL (no crash-recovery code needed, §3.1.3).
//   - "balancing load across distillers": aggregates queue-length reports into
//     weighted moving averages and piggybacks them on its periodic multicast
//     beacons; front ends make local decisions from these hints.
//   - "spawning new distillers on demand": when a type's average queue crosses
//     threshold H, spawn on a fresh node; disable spawning for D seconds to let the
//     system stabilize (§4.5). Recruit overflow nodes when dedicated ones run out
//     (§2.2.3), and reap overflow workers when the burst subsides.
//   - process-peer duties: restart crashed front ends.
//
// All manager state is soft: if the manager crashes and restarts, workers re-register
// upon seeing beacons from the new incarnation, and front ends keep operating on
// slightly stale cached hints in the meantime (§3.1.8).

#ifndef SRC_SNS_MANAGER_H_
#define SRC_SNS_MANAGER_H_

#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/quorum/membership.h"
#include "src/sns/config.h"
#include "src/sns/launcher.h"
#include "src/sns/messages.h"
#include "src/store/soft_state.h"
#include "src/util/stats.h"

namespace sns {

class ManagerProcess : public Process {
 public:
  // `epoch` is this incarnation's fencing number, allocated monotonically by the
  // launcher. Components ignore beacons below the highest epoch they have seen,
  // and a manager that observes a higher epoch (a rival's beacon, or a
  // registration stamped with one) demotes itself, so split-brain resolves
  // deterministically once a partition heals.
  // `membership` (optional) is the vote-based membership oracle: when set and
  // config.quorum_membership is on, every beacon tick runs a regroup round and
  // the manager only acts (policy, expiry, relaunches) while its side holds a
  // quorum of votes. Null keeps the pre-quorum behavior (always quorate).
  ManagerProcess(const SnsConfig& config, ComponentLauncher* launcher, uint64_t epoch = 1,
                 MembershipService* membership = nullptr);

  void OnStart() override;
  void OnMessage(const Message& msg) override;

  uint64_t epoch() const { return epoch_; }
  bool demoted() const { return demoted_; }
  // True while this manager is on the minority side of a partition: it keeps
  // beaconing (marked quorate=false) but takes no policy actions and its side's
  // front ends refuse to acknowledge writes.
  bool read_only_degraded() const { return read_only_degraded_; }

  // --- Observability -----------------------------------------------------------------
  // Counters live in the cluster's MetricsRegistry under "manager.*" and are
  // cumulative across manager incarnations (the registry outlives the process).
  int64_t beacons_sent() const { return CounterOr0(beacons_sent_); }
  int64_t reports_received() const { return CounterOr0(reports_received_); }
  int64_t spawns_initiated() const { return CounterOr0(spawns_initiated_); }
  int64_t reaps_initiated() const { return CounterOr0(reaps_initiated_); }
  int64_t fe_restarts() const { return CounterOr0(fe_restarts_); }
  int64_t profile_db_failovers() const { return CounterOr0(profile_db_failovers_); }
  int64_t demotions() const { return CounterOr0(demotions_); }
  int64_t quorum_losses() const { return CounterOr0(quorum_losses_); }
  size_t KnownWorkerCount() const;
  size_t KnownFrontEndCount() const;
  size_t KnownWorkerCount(const std::string& type) const;
  // Current smoothed queue average across workers of `type` (the spawn metric).
  double SmoothedQueue(const std::string& type) const;

 private:
  struct WorkerState {
    std::string worker_type;
    bool interchangeable = true;
    Ewma smoothed_queue;
    double last_reported_queue = 0;
    WorkerState() : smoothed_queue(0.3) {}
    explicit WorkerState(double alpha) : smoothed_queue(alpha) {}
  };

  struct FrontEndState {
    int fe_index = -1;
  };

  static int64_t CounterOr0(const Counter* c) { return c != nullptr ? c->value() : 0; }

  void HandleRegister(const RegisterComponentPayload& p);
  void HandleLoadReport(const LoadReportPayload& p);
  // Soft-state refresh of a cache node, front end or profile DB. Registration and
  // load report carry the same facts for these kinds (ports are never reused, so an
  // endpoint's fe_index never changes), so both handlers call it.
  void RefreshPeer(ComponentKind kind, const Endpoint& component, int fe_index,
                   uint64_t generation, SimTime now);
  // A beacon from another manager incarnation arrived (the manager subscribes to
  // its own beacon group exactly to notice rivals). Higher epoch => demote.
  void HandleRivalBeacon(const ManagerBeaconPayload& beacon);
  // Returns true when `observed_epoch` proves a newer incarnation exists and this
  // manager must stop. Initiates the (deferred) self-crash.
  bool FenceAgainst(uint64_t observed_epoch, const char* evidence);
  // Returns true if a spawn was initiated.
  bool HandleSpawnRequest(const SpawnRequestPayload& p);
  // Shared by explicit registration and the implicit load-report path: installs (or
  // renews) the worker's soft-state entry and clears the node's in-flight spawn.
  WorkerState* UpsertWorker(const Endpoint& ep, const std::string& worker_type,
                            bool interchangeable, SimTime now);

  void Beacon();
  void RunPolicy();                 // Spawn / reap decisions, each beacon tick.
  void ExpireSoftState();
  bool TrySpawn(const std::string& type, bool bypass_cooldown);
  // Node selection: least-loaded eligible dedicated node, then overflow pool.
  NodeId PickNodeForWorker(const std::string& type);
  void RemoveWorker(const Endpoint& ep);

  SnsConfig config_;
  ComponentLauncher* launcher_;
  uint64_t epoch_;
  MembershipService* membership_;
  bool read_only_degraded_ = false;
  // Set once a higher epoch is observed: beaconing stops immediately and the
  // process crashes itself on the next event (Crash destroys `this`, so it cannot
  // run inside the message handler that noticed the rival).
  bool demoted_ = false;

  SoftStateTable<Endpoint, WorkerState, EndpointHash> workers_;
  SoftStateTable<Endpoint, FrontEndState, EndpointHash> front_ends_;
  SoftStateTable<Endpoint, bool, EndpointHash> cache_nodes_;
  Endpoint profile_db_;
  SimTime profile_db_last_seen_ = -1;
  // Highest DB incarnation generation seen in a registration/heartbeat; beaconed
  // so a superseded incarnation learns of its replacement and self-demotes.
  uint64_t profile_db_generation_ = 0;

  std::map<std::string, SimTime> last_spawn_;        // Cooldown D per worker type.
  std::map<std::string, SimTime> low_load_since_;    // Reap tracking per type.
  // Nodes with a spawn in flight (launched but not yet registered), so two spawns
  // in the same beacon tick don't pile onto one node. Entries expire with the
  // worker TTL.
  std::map<NodeId, SimTime> pending_placements_;

  uint64_t beacon_seq_ = 0;

  // Registry-backed instruments, bound in OnStart.
  Counter* beacons_sent_ = nullptr;
  Counter* reports_received_ = nullptr;
  Counter* spawns_initiated_ = nullptr;
  Counter* reaps_initiated_ = nullptr;
  Counter* fe_restarts_ = nullptr;
  Counter* profile_db_failovers_ = nullptr;
  Counter* demotions_ = nullptr;
  Counter* quorum_losses_ = nullptr;
  Gauge* known_workers_ = nullptr;
  Gauge* epoch_gauge_ = nullptr;
};

}  // namespace sns

#endif  // SRC_SNS_MANAGER_H_
