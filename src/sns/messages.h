// Wire messages exchanged by SNS components.
//
// The protocol follows Figure 1 of the paper: front ends talk to workers through
// manager stubs / worker stubs, the manager beacons its existence and load hints on
// a well-known multicast channel (§3.1.2), components report to the monitor on
// another, and everything else is point-to-point.

#ifndef SRC_SNS_MESSAGES_H_
#define SRC_SNS_MESSAGES_H_

#include <map>
#include <string>
#include <vector>

#include "src/content/content.h"
#include "src/net/message.h"
#include "src/tacc/profile.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace sns {

// Well-known multicast groups.
constexpr McastGroup kGroupManagerBeacon = 1;  // Manager -> stubs & workers & monitor.

// Message type discriminators (Message::type).
enum SnsMsgType : uint32_t {
  kMsgClientRequest = 1,
  kMsgClientResponse,
  kMsgRegisterComponent,
  kMsgLoadReport,
  kMsgManagerBeacon,
  kMsgSpawnRequest,
  kMsgTaskRequest,
  kMsgTaskResponse,
  kMsgCacheGet,
  kMsgCachePut,
  kMsgCacheReply,
  kMsgProfileGet,
  kMsgProfilePut,
  kMsgProfileReply,
  kMsgFetchRequest,
  kMsgFetchResponse,
  kMsgProfilePutAck,
};

enum class ComponentKind {
  kManager,
  kFrontEnd,
  kWorker,
  kCacheNode,
  kProfileDb,
  kMonitor,
  kOrigin,
  kClient,
};

const char* ComponentKindName(ComponentKind kind);

// --- Client <-> front end ------------------------------------------------------------

struct ClientRequestPayload : Payload {
  uint64_t client_request_id = 0;
  std::string url;
  std::string user_id;
  // Extra service inputs (e.g., metasearch query string).
  std::map<std::string, std::string> params;
  // Absolute time after which the client no longer wants the answer. The front end
  // evicts expired requests from its accept queue and propagates the remaining
  // budget on every downstream op, so no component works on a dead request.
  // kTimeNever = the client will wait forever.
  SimTime deadline = kTimeNever;
};

// How the response was produced — used to assert BASE "approximate answer"
// behavior (§3.1.8) in tests and to report degraded service.
enum class ResponseSource {
  kDistilled,        // The requested representation.
  kCacheOriginal,    // Original content (distillation skipped or below threshold).
  kCacheApproximate, // A different distilled variant served under load/failure.
  kPassThrough,      // No distiller exists for this type.
  kError,
};

const char* ResponseSourceName(ResponseSource source);

// Harvest fraction of an answer by provenance (the availability ledger's
// completeness axis, src/obs/availability.h). Weighted against the
// critical-path stage vocabulary: an answer that shed the worker_service stage
// (distillation — the representation the user asked for) keeps the content but
// loses the most valuable stage; an approximate variant additionally loses
// fidelity to the requested quality. Full answers are exactly 1.0.
double ResponseHarvest(ResponseSource source);

struct ClientResponsePayload : Payload {
  uint64_t client_request_id = 0;
  Status status;
  ContentPtr content;
  ResponseSource source = ResponseSource::kDistilled;
  bool cache_hit = false;
};

// --- Registration & load (worker stub / manager stub <-> manager) ---------------------

struct RegisterComponentPayload : Payload {
  ComponentKind kind = ComponentKind::kWorker;
  std::string worker_type;  // For kWorker: the TACC class. For others: role label.
  Endpoint component;       // Where the component receives traffic.
  bool interchangeable = true;
  int fe_index = -1;        // For front ends: identity used for peer restart.
  // The manager epoch the sender last accepted. A manager that receives a
  // registration stamped with a higher epoch knows a newer incarnation exists and
  // demotes itself (split-brain fencing). 0 = sender has not seen any beacon.
  uint64_t manager_epoch = 0;
  // Incarnation number of the sending component itself (today: the profile DB).
  // The manager keeps only the highest generation it has seen, so a fenced-off
  // stale incarnation can never re-enter the beacon after its successor is up.
  uint64_t component_generation = 0;
};

struct LoadReportPayload : Payload {
  ComponentKind kind = ComponentKind::kWorker;
  std::string worker_type;
  Endpoint component;
  double queue_length = 0;       // Paper footnote 2: queue length, optionally weighted.
  int64_t completed_tasks = 0;   // Cumulative, for throughput accounting.
  // Carried so an implicit (re-)registration via load report preserves the worker's
  // affinity class just like an explicit RegisterComponent would.
  bool interchangeable = true;
  int fe_index = -1;
  uint64_t manager_epoch = 0;  // Same fencing role as RegisterComponentPayload's.
  uint64_t component_generation = 0;  // Same role as RegisterComponentPayload's.
};

// One worker's entry in the manager's beaconed load hints.
struct WorkerHint {
  Endpoint endpoint;
  std::string worker_type;
  double smoothed_queue = 0;     // Manager-side weighted moving average.
  bool interchangeable = true;
};

struct ManagerBeaconPayload : Payload {
  Endpoint manager;
  // Incarnation number, allocated monotonically by the launcher. Components accept
  // only the highest epoch they have seen, so after a partition heals, beacons from
  // a stale incarnation cannot flap the soft state back; the stale manager itself
  // demotes on hearing a higher-epoch beacon. Epoch 0 (hand-built beacons in unit
  // tests) fences nothing.
  uint64_t epoch = 0;
  uint64_t beacon_seq = 0;
  std::vector<WorkerHint> workers;
  std::vector<Endpoint> cache_nodes;
  Endpoint profile_db;  // Invalid if none registered.
  // Generation of the profile DB endpoint above; a DB incarnation observing a
  // higher generation in a current-epoch beacon knows it has been superseded
  // across a fenced failover and self-demotes.
  uint64_t profile_db_generation = 0;
  // Quorum state of the beaconing manager's regroup view. A degraded (minority)
  // manager keeps beaconing with quorate=false so its side's front ends fail
  // writes fast instead of timing out, and don't stampede watchdog relaunches.
  bool quorate = true;
  int32_t votes_held = 0;
  int32_t votes_total = 0;
};

// Stub -> manager: no live worker of this type is known; please spawn one.
struct SpawnRequestPayload : Payload {
  std::string worker_type;
};

// --- Task execution (front end <-> worker stub) ---------------------------------------

struct TaskRequestPayload : Payload {
  uint64_t task_id = 0;
  std::string url;
  std::vector<ContentPtr> inputs;
  UserProfile profile;
  std::map<std::string, std::string> args;
  Endpoint reply_to;
  // Remaining budget of the owning client request; workers drop tasks whose
  // deadline has already passed instead of burning CPU on a dead request.
  SimTime deadline = kTimeNever;
};

struct TaskResponsePayload : Payload {
  uint64_t task_id = 0;
  Status status;
  ContentPtr output;
  std::string worker_type;
};

// --- Cache protocol --------------------------------------------------------------------

struct CacheGetPayload : Payload {
  uint64_t op_id = 0;
  std::string key;
  Endpoint reply_to;
  // Expired gets are dropped by the cache node (the requester already counted the
  // op as a miss); kTimeNever = no deadline.
  SimTime deadline = kTimeNever;
};

struct CachePutPayload : Payload {
  std::string key;
  ContentPtr content;
  // True for rebalancer migration pushes (node-to-node), so receivers can
  // account them separately from front-end write traffic.
  bool rebalance = false;
};

// Packs an endpoint into the int64 member id used on the cache consistent-hash
// ring. Shared by the manager stub and the cache nodes' rebalancer so both
// sides derive identical replica chains from the same membership list.
inline int64_t CacheRingMemberId(const Endpoint& ep) {
  return static_cast<int64_t>(
      (static_cast<uint64_t>(static_cast<uint32_t>(ep.node)) << 32) |
      static_cast<uint32_t>(ep.port));
}
inline Endpoint CacheRingMemberEndpoint(int64_t id) {
  return Endpoint{static_cast<NodeId>(static_cast<uint64_t>(id) >> 32),
                  static_cast<Port>(static_cast<uint64_t>(id) & 0xFFFFFFFFULL)};
}

struct CacheReplyPayload : Payload {
  uint64_t op_id = 0;
  bool hit = false;
  ContentPtr content;
};

// --- Profile database (ACID) -------------------------------------------------------------

struct ProfileGetPayload : Payload {
  uint64_t op_id = 0;
  std::string user_id;
  Endpoint reply_to;
};

struct ProfilePutPayload : Payload {
  UserProfile profile;
  // Write-ack contract (DESIGN.md §14): when reply_to is valid the DB replies
  // with a ProfilePutAckPayload carrying op_id after the commit lands (or with
  // the refusal reason). Defaults keep the legacy fire-and-forget shape.
  uint64_t op_id = 0;
  Endpoint reply_to;
};

// DB -> front end: outcome of an acknowledged profile write.
struct ProfilePutAckPayload : Payload {
  uint64_t op_id = 0;
  Status status;  // Ok only after the write is durable in the shared store.
};

struct ProfileReplyPayload : Payload {
  uint64_t op_id = 0;
  bool found = false;
  UserProfile profile;
};

// --- Origin ("the Internet") ---------------------------------------------------------------

struct FetchRequestPayload : Payload {
  uint64_t op_id = 0;
  std::string url;
  Endpoint reply_to;
  SimTime deadline = kTimeNever;
};

struct FetchResponsePayload : Payload {
  uint64_t op_id = 0;
  Status status;
  ContentPtr content;
};

// Approximate wire sizes (bytes) used to drive SAN serialization delays.
int64_t WireSizeOf(const ClientRequestPayload& p);
int64_t WireSizeOf(const ClientResponsePayload& p);
int64_t WireSizeOf(const TaskRequestPayload& p);
int64_t WireSizeOf(const TaskResponsePayload& p);
int64_t WireSizeOf(const ManagerBeaconPayload& p);
int64_t WireSizeOf(const CacheGetPayload& p);
int64_t WireSizeOf(const CachePutPayload& p);
int64_t WireSizeOf(const CacheReplyPayload& p);

}  // namespace sns

#endif  // SRC_SNS_MESSAGES_H_
