// SnsSystem: the reusable "off the shelf" SNS support layer, assembled.
//
// This is the deliverable the paper argues for in §2.2: a service author provides
// (a) a registry of TACC worker factories and (b) front-end dispatch logic, and the
// system supplies scalability (demand spawning, overflow pool), availability
// (process-peer restarts, soft-state recovery), load balancing, caching, the
// customization database, and monitoring. TranSend and HotBot in src/services are
// both just configurations of this class.
//
// SnsSystem also implements ComponentLauncher: it knows the construction recipe for
// every component, making the paper's mutual-restart protocol possible.

#ifndef SRC_SNS_SYSTEM_H_
#define SRC_SNS_SYSTEM_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/net/san.h"
#include "src/obs/artifact.h"
#include "src/obs/availability.h"
#include "src/obs/events.h"
#include "src/quorum/fencing.h"
#include "src/quorum/membership.h"
#include "src/quorum/quorum_disk.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulator.h"
#include "src/sns/cache_node.h"
#include "src/sns/config.h"
#include "src/sns/front_end.h"
#include "src/sns/launcher.h"
#include "src/sns/manager.h"
#include "src/sns/monitor.h"
#include "src/sns/profile_db.h"
#include "src/sns/worker_process.h"
#include "src/store/kvstore.h"
#include "src/tacc/registry.h"

namespace sns {

class FailureInjector;

struct SystemTopology {
  // Node counts (each component class gets its own nodes, as in Figure 1).
  int worker_pool_nodes = 10;   // Dedicated nodes the manager may spawn workers on.
  int overflow_nodes = 0;       // Recruited only under bursts (§2.2.3).
  int front_ends = 1;
  int cache_nodes = 4;          // TranSend ran Harvest workers on four nodes.
  bool with_profile_db = true;
  bool with_monitor = true;
  bool with_origin = false;     // A gateway node to the simulated Internet.

  // SAN characteristics (switched 100 Mb/s Ethernet by default, §4).
  SanConfig san;
  // Front-end NIC: heavier per-message cost models the TCP/kernel processing that
  // dominated FE capacity ("the front end spends more than 70% of its time in the
  // kernel", §4.4); calibrated so one FE segment saturates near the paper's
  // ~70 req/s (§4.6).
  std::optional<LinkConfig> fe_link;
  // The paper's Internet access ran through a 10 Mb/s segment.
  std::optional<LinkConfig> origin_link;

  CacheNodeConfig cache;
  ProfileDbConfig profile_db;

  uint64_t seed = 0xC1A55E5;
};

class SnsSystem : public ComponentLauncher {
 public:
  SnsSystem(const SnsConfig& config, const SystemTopology& topology);
  ~SnsSystem() override;

  SnsSystem(const SnsSystem&) = delete;
  SnsSystem& operator=(const SnsSystem&) = delete;

  // --- Service configuration (before Start) -----------------------------------------
  WorkerRegistry* registry() { return &registry_; }
  // Factory invoked per front end (and per restart) to build its dispatch logic.
  void set_logic_factory(std::function<std::shared_ptr<FrontEndLogic>(int fe_index)> factory) {
    logic_factory_ = std::move(factory);
  }
  // Factory for the origin ("Internet") process, spawned on the origin node.
  void set_origin_factory(std::function<std::unique_ptr<Process>()> factory) {
    origin_factory_ = std::move(factory);
  }
  // Preloads user profiles into the ACID store (before or after Start).
  void SeedProfile(const UserProfile& profile);

  // Builds nodes and spawns the manager, front ends, cache nodes, profile DB,
  // monitor, and origin. Workers are spawned on demand by the manager.
  void Start();
  bool started() const { return started_; }

  // Spawns one worker immediately (tests / pre-warming); normally the manager does
  // this on demand.
  ProcessId StartWorker(const std::string& type);

  // Adds a front end on a fresh node (the §4.6 scalability experiment adds FEs as
  // their network segments saturate). Returns the new fe_index.
  int AddFrontEnd();

  // --- ComponentLauncher ----------------------------------------------------------
  ProcessId LaunchWorker(const std::string& type, NodeId node) override;
  ProcessId RelaunchManager(NodeId requester = kInvalidNode) override;
  ProcessId RelaunchFrontEnd(int fe_index, NodeId requester = kInvalidNode) override;
  ProcessId RelaunchProfileDb(NodeId requester = kInvalidNode) override;

  // --- Operations -------------------------------------------------------------------
  // Hot upgrade (§1.2 / §2.1: "temporarily disable a subset of nodes and then
  // upgrade them in place"): gracefully drains and replaces the workers of `type`
  // one at a time, spaced by `pause` so the survivors absorb the load. The fresh
  // instances come from the (possibly newly re-registered) factory. Returns the
  // number of workers scheduled for replacement.
  int HotUpgradeWorkers(const std::string& type, SimDuration pause = Seconds(2));

  // --- Accessors -------------------------------------------------------------------
  Simulator* sim() { return &sim_; }
  San* san() { return &san_; }
  Cluster* cluster() { return &cluster_; }
  // Cluster-wide observability: the metrics registry and trace collector shared by
  // every component (and surviving component restarts).
  MetricsRegistry* metrics() { return cluster_.metrics(); }
  TraceCollector* tracer() { return cluster_.tracer(); }
  // Flight recorder: the SAN message / fault event log and the periodic metric
  // sampler (created in Start; null before).
  EventLog* event_log() { return &event_log_; }
  TimeSeriesRecorder* recorder() { return recorder_.get(); }
  // Harvest/yield ledger (DESIGN.md §15): clients (playback engines) record every
  // offered request and its resolution here; quorum/fencing transitions and
  // injected faults land on the same timeline via event_log_.
  AvailabilityLedger* availability() { return &availability_; }
  // Forwards every fault `injector` applies onto the flight-recorder timeline.
  void AttachFailureInjector(FailureInjector* injector);
  const SnsConfig& config() const { return config_; }
  const SystemTopology& topology() const { return topology_; }

  ManagerProcess* manager() const;
  ProcessId manager_pid() const { return manager_pid_; }
  // Epoch of the most recently launched manager incarnation (1 = original).
  uint64_t manager_epoch() const { return next_manager_epoch_; }
  FrontEndProcess* front_end(int fe_index) const;
  std::vector<FrontEndProcess*> front_ends() const;
  MonitorProcess* monitor() const;
  std::vector<WorkerProcess*> live_workers() const;
  std::vector<WorkerProcess*> live_workers(const std::string& type) const;
  std::vector<CacheNodeProcess*> cache_node_processes() const;
  ProfileDbProcess* profile_db() const;
  KvStore* profile_store() { return &profile_store_; }
  // Generation of the most recently launched profile-DB incarnation (1 = original).
  uint64_t profile_db_generation() const { return next_profile_db_generation_; }
  // Quorum subsystem (DESIGN.md §14). Always constructed; config_.quorum_membership
  // and config_.stonith_fencing govern whether anything consults/arms them.
  MembershipService* membership() { return membership_.get(); }
  QuorumDisk* quorum_disk() { return quorum_disk_.get(); }
  FenceAgent* fence_agent() { return fence_agent_.get(); }
  StoreReservation* profile_reservation() { return &profile_reservation_; }
  Endpoint origin_endpoint() const { return origin_endpoint_; }
  Process* origin_process() const;

  NodeId manager_node() const { return manager_node_; }
  const std::vector<NodeId>& fe_nodes() const { return fe_nodes_; }
  const std::vector<NodeId>& worker_pool() const { return worker_pool_; }
  const std::vector<NodeId>& overflow_pool() const { return overflow_pool_; }
  NodeId origin_node() const { return origin_node_; }

 private:
  // Registers the per-node CPU gauges ("node.<id>.cpu_util" / ".cpu_backlog_s")
  // with the time-series recorder.
  void AddNodeProbes(NodeId node);
  // Samples the flight recorder every timeseries_interval; the simulator dies
  // with this system, so the tick needs no handle.
  void ScheduleRecorderTick();
  NodeId PickUpNodePreferring(NodeId preferred, NodeId requester) const;
  // True when `requester` has no vantage point (kInvalidNode) or `target` is up and
  // on the requester's side of any SAN partition.
  bool RequesterCanReach(NodeId requester, NodeId target) const;
  // Quorum gate for relaunches: a requester on a minority side of a partition may
  // not promote replacement incumbents. Always true when quorum is off or the
  // requester has no vantage point.
  bool RequesterQuorate(NodeId requester, const char* action);

  SnsConfig config_;
  SystemTopology topology_;
  Simulator sim_;
  San san_;
  Cluster cluster_;
  WorkerRegistry registry_;
  KvStore profile_store_;
  // The quorum disk's backing store is separate from the profile store: it models
  // a dedicated shared-SCSI partition, not the profile database's disk.
  KvStore quorum_disk_store_;
  std::unique_ptr<QuorumDisk> quorum_disk_;
  std::unique_ptr<MembershipService> membership_;
  std::unique_ptr<FenceAgent> fence_agent_;
  StoreReservation profile_reservation_;
  EventLog event_log_;
  AvailabilityLedger availability_;
  std::unique_ptr<TimeSeriesRecorder> recorder_;

  std::function<std::shared_ptr<FrontEndLogic>(int)> logic_factory_;
  std::function<std::unique_ptr<Process>()> origin_factory_;

  bool started_ = false;
  NodeId manager_node_ = kInvalidNode;
  std::vector<NodeId> fe_nodes_;
  std::vector<NodeId> cache_nodes_;
  NodeId profile_db_node_ = kInvalidNode;
  NodeId origin_node_ = kInvalidNode;
  std::vector<NodeId> worker_pool_;
  std::vector<NodeId> overflow_pool_;

  ProcessId manager_pid_ = kInvalidProcess;
  uint64_t next_manager_epoch_ = 0;  // Incremented per manager launch; first is 1.
  std::vector<ProcessId> fe_pids_;
  std::vector<ProcessId> cache_pids_;
  ProcessId profile_db_pid_ = kInvalidProcess;
  uint64_t next_profile_db_generation_ = 0;  // Incremented per DB launch; first is 1.
  ProcessId monitor_pid_ = kInvalidProcess;
  ProcessId origin_pid_ = kInvalidProcess;
  Endpoint origin_endpoint_;
};

// The run-artifact sections of `system` at the current simulated time, under the
// name `bench` (write them with WriteRunArtifact). Without a monitor
// (with_monitor=false topologies) the snapshot is the bare metrics registry.
RunArtifact CollectRunArtifact(SnsSystem* system, const std::string& bench);

}  // namespace sns

#endif  // SRC_SNS_SYSTEM_H_
