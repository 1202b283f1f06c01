// The system-area network: a switched star connecting all cluster nodes.
//
// Reproduces the transport behaviors the paper's architecture depends on:
//   - Reliable point-to-point channels (TCP-like) with connection setup cost. A
//     reliable send to a dead *process* on a live node fails fast ("broken
//     connection", used by the manager to detect distiller crashes, §3.1.3). A send
//     to a dead/partitioned *node* is silently lost, leaving detection to
//     application timeouts (§2.2.4).
//   - Best-effort datagrams and IP multicast groups (the beacon channels). Under
//     link saturation these are dropped, reproducing §4.6's finding that a 10 Mb/s
//     SAN loses the manager's control traffic under load.
//   - Network partitions (§2.2.4's "workers lost because of a SAN partition").
//
// Routing state is kept flat for delivery speed (DESIGN.md §12): node state is a
// dense vector indexed by NodeId, multicast groups a dense vector of *sorted*
// member lists (sorted order makes fan-out deterministic), and the per-endpoint
// handler table an open-addressing FlatMap keyed by the packed (node, port)
// pair. Every per-hop lambda moves the Message through rather than copying it.

#ifndef SRC_NET_SAN_H_
#define SRC_NET_SAN_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/net/link.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/util/flat_map.h"

namespace sns {

struct SanConfig {
  LinkConfig default_link;
  // Extra one-time latency charged when a reliable sender has no cached connection
  // to the destination (three-way handshake + kernel work). The paper measured TCP
  // setup/teardown at ~15 ms of Harvest's 27 ms hit time on its hardware; the
  // Harvest cache protocol forces a fresh connection per request
  // (force_new_connection below).
  SimDuration tcp_setup_cost = Milliseconds(1.0);
  // Wire size of handshake packets charged to both NICs on connection setup.
  int64_t handshake_bytes = 40;
};

class San {
 public:
  San(Simulator* sim, SanConfig config);

  // --- Topology -------------------------------------------------------------
  void AddNode(NodeId node);
  void AddNode(NodeId node, const LinkConfig& link);
  // Replaces both directions' link configuration for a node's NIC.
  void SetNodeLinkConfig(NodeId node, const LinkConfig& link);

  Link* egress(NodeId node);
  Link* ingress(NodeId node);

  // --- Process endpoints ----------------------------------------------------
  void Bind(const Endpoint& ep, MessageHandler handler);
  void Unbind(const Endpoint& ep);

  // --- Sending --------------------------------------------------------------
  struct SendOptions {
    // Harvest cache behavior: open a fresh TCP connection for this request even if
    // one is cached (paper §3.1.5, third deficiency).
    bool force_new_connection = false;
    // Reliable only: invoked (at failure-detection time) if the destination process
    // is not bound although its node is reachable.
    SendFailedHandler on_failed;
  };

  void Send(Message msg) { Send(std::move(msg), SendOptions{}); }
  void Send(Message msg, SendOptions opts);

  // --- Multicast ------------------------------------------------------------
  void JoinGroup(McastGroup group, const Endpoint& ep);
  void LeaveGroup(McastGroup group, const Endpoint& ep);
  // Best-effort delivery to every subscriber except the sender itself, in
  // ascending (node, port) order.
  void SendMulticast(McastGroup group, Message msg);
  size_t GroupSize(McastGroup group) const;

  // --- Failure injection ------------------------------------------------------
  // Nodes in different partition groups cannot exchange traffic. Default group 0.
  void SetPartition(NodeId node, int32_t partition_group);
  // Returns every node to the default group, collapsing all partitions at once.
  void HealPartitions();
  // Returns only the nodes in `partition_group` to the default group, leaving any
  // other concurrent split in place (multi-group chaos schedules heal
  // independently).
  void HealPartition(int32_t partition_group);
  int32_t PartitionGroupOf(NodeId node) const;
  bool Reachable(NodeId a, NodeId b) const;

  // Silently drops every multicast send to `group` until `until` (models the
  // beacon-channel loss of §4.6 as an injectable fault). A later call replaces the
  // group's window.
  void DropMulticastUntil(McastGroup group, SimTime until);

  // A down node neither sends nor receives; all its in-flight traffic is lost.
  void SetNodeUp(NodeId node, bool up);
  bool NodeUp(NodeId node) const;

  // --- Observability ----------------------------------------------------------
  // Mirrors the transport counters below into the registry so monitor snapshots
  // and the time-series recorder see them ("san.messages_delivered", ...).
  void BindMetrics(MetricsRegistry* registry);

  int64_t messages_delivered() const { return messages_delivered_; }
  int64_t datagrams_dropped() const { return datagrams_dropped_; }
  int64_t reliable_failed_fast() const { return reliable_failed_fast_; }
  int64_t messages_lost_unreachable() const { return messages_lost_unreachable_; }
  int64_t multicast_suppressed() const { return multicast_suppressed_; }
  std::vector<NodeId> Nodes() const;

  Simulator* sim() { return sim_; }

 private:
  // Dense per-node slot; a slot with no Link objects is "node not added".
  struct NodeState {
    std::unique_ptr<Link> egress;
    std::unique_ptr<Link> ingress;
    bool up = true;
    int32_t partition_group = 0;
    bool exists() const { return egress != nullptr; }
  };

  // Dense per-group slot. Members are kept sorted so multicast fan-out order is
  // deterministic (ascending (node, port), matching the ordered-set original).
  struct GroupState {
    std::vector<std::pair<NodeId, Port>> members;
    SimTime drop_until = 0;  // 0 = no active suppression window.
  };

  struct ConnKey {
    Endpoint src;
    Endpoint dst;
    bool operator==(const ConnKey& o) const { return src == o.src && dst == o.dst; }
  };
  struct ConnKeyHash {
    size_t operator()(const ConnKey& k) const {
      EndpointHash h;
      return h(k.src) * 1000003u ^ h(k.dst);
    }
  };

  static uint64_t PackEndpoint(const Endpoint& ep) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(ep.node)) << 32) |
           static_cast<uint32_t>(ep.port);
  }

  NodeState* GetNode(NodeId node);
  const NodeState* GetNode(NodeId node) const;

  // Enqueues on the destination's ingress link at `arrival` and schedules final
  // delivery. `setup` adds handshake packets and latency (new reliable connection).
  void DeliverToNode(Message msg, SimTime arrival, bool setup, SendOptions opts);
  void FinalDeliver(const Message& msg, const SendOptions& opts);

  void CountLost() {
    ++messages_lost_unreachable_;
    if (ctr_lost_unreachable_ != nullptr) ctr_lost_unreachable_->Increment();
  }
  void CountDropped() {
    ++datagrams_dropped_;
    if (ctr_datagrams_dropped_ != nullptr) ctr_datagrams_dropped_->Increment();
  }

  Simulator* sim_;
  SanConfig config_;
  std::vector<NodeState> nodes_;    // Indexed by NodeId.
  std::vector<GroupState> groups_;  // Indexed by McastGroup.
  FlatMap<uint64_t, MessageHandler> handlers_;  // Keyed by PackEndpoint().
  std::unordered_set<ConnKey, ConnKeyHash> connections_;

  int64_t messages_delivered_ = 0;
  int64_t datagrams_dropped_ = 0;
  int64_t reliable_failed_fast_ = 0;
  int64_t messages_lost_unreachable_ = 0;
  int64_t multicast_suppressed_ = 0;

  Counter* ctr_delivered_ = nullptr;
  Counter* ctr_datagrams_dropped_ = nullptr;
  Counter* ctr_failed_fast_ = nullptr;
  Counter* ctr_lost_unreachable_ = nullptr;
  Counter* ctr_multicast_suppressed_ = nullptr;
};

}  // namespace sns

#endif  // SRC_NET_SAN_H_
