// The front end: the service's interface to the outside world (paper §2.1, §3.1.1).
//
// "Front ends maximize system throughput by maintaining state for many simultaneous
// outstanding requests" — each accepted request occupies one thread from a large
// pool (TranSend production ran ~400) and is driven as an asynchronous state
// machine: profile lookup (write-through cached), cache probes, worker dispatch
// through the manager stub, origin fetches, and the final client response.
//
// The front end encapsulates the service-specific dispatch logic behind
// FrontEndLogic, so "the behavior of the service as a whole [is] defined almost
// entirely in the front end" (§2.2.1) while the SNS machinery here stays reusable.
//
// Process-peer duties (§3.1.3): the front end watches manager beacons and restarts
// a silent manager; the manager symmetrically restarts silent front ends.

#ifndef SRC_SNS_FRONT_END_H_
#define SRC_SNS_FRONT_END_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/cluster/process.h"
#include "src/obs/metrics.h"
#include "src/sns/config.h"
#include "src/sns/launcher.h"
#include "src/sns/manager_stub.h"
#include "src/sns/messages.h"
#include "src/store/consistent_hash.h"
#include "src/store/lru_cache.h"
#include "src/tacc/pipeline.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace sns {

class FrontEndProcess;

// Per-request handle given to the service logic. All facility calls are
// asynchronous; callbacks fire only while the request is still live (not yet
// responded, front end still running).
class RequestContext {
 public:
  using ProfileCb = std::function<void(RequestContext*, bool found, const UserProfile&)>;
  using PutCb = std::function<void(RequestContext*, Status)>;
  using CacheCb = std::function<void(RequestContext*, bool hit, ContentPtr)>;
  using ContentCb = std::function<void(RequestContext*, Status, ContentPtr)>;

  const ClientRequestPayload& request() const { return *request_; }
  uint64_t id() const { return id_; }
  SimTime started_at() const { return started_; }
  // Absolute deadline carried by the client request (kTimeNever if none). Facility
  // ops are budget-capped against it and a request never completes after it.
  SimTime deadline() const { return deadline_; }
  // This request's span context; facility messages are stamped with it so cache
  // nodes, workers and the manager record into the same trace.
  const TraceContext& trace() const { return trace_; }
  SimTime now() const;
  Rng* rng();

  // Profile database access with the FE's write-through cache (§3.1.4).
  void GetProfile(ProfileCb cb);
  // Acknowledged write (DESIGN.md §14): `cb` fires with Ok only after the DB
  // commits and acks — the local cache is updated then, not before. With
  // config_.profile_write_acks off this degrades to the legacy fire-and-forget
  // (immediate Ok), the false-ack baseline the chaos regression exercises.
  void PutProfile(const UserProfile& profile, PutCb cb);

  // The profile attached to this request. Once set (typically inside the GetProfile
  // callback), it is automatically delivered to workers with every task — the TACC
  // mass-customization contract (§2.3).
  void SetProfile(UserProfile profile) { profile_ = std::move(profile); }
  const UserProfile& profile() const { return profile_; }

  // Virtual cache: the key space is hashed across all live cache partitions
  // (§3.1.5); a timeout counts as a miss.
  void CacheGet(const std::string& key, CacheCb cb);
  void CachePut(const std::string& key, ContentPtr content);

  // Fetch from the simulated Internet (cache-miss path).
  void Fetch(const std::string& url, ContentCb cb);

  // Ships a task to a worker of `type` chosen by lottery scheduling; on timeout or
  // broken connection, retries on another worker (§3.1.8 "the request will time out
  // and another worker will be chosen"). If no worker is known, asks the manager to
  // spawn one and waits briefly.
  void CallWorker(const std::string& type, std::map<std::string, std::string> args,
                  std::vector<ContentPtr> inputs, ContentCb cb);

  // Chains CallWorker over the stages of a TACC pipeline (§2.3).
  void CallPipeline(const PipelineSpec& spec, std::vector<ContentPtr> inputs, ContentCb cb);

  // Completes the request. Exactly one Respond per request; later facility
  // callbacks are dropped.
  void Respond(const Status& status, ContentPtr content, ResponseSource source, bool cache_hit);

 private:
  friend class FrontEndProcess;

  FrontEndProcess* fe_ = nullptr;
  uint64_t id_ = 0;
  std::shared_ptr<const ClientRequestPayload> request_;
  Endpoint client_;
  SimTime started_ = 0;
  SimTime deadline_ = kTimeNever;
  bool responded_ = false;
  UserProfile profile_;
  TraceContext trace_;
};

// Service-specific dispatch logic (the Service layer of Figure 2).
class FrontEndLogic {
 public:
  virtual ~FrontEndLogic() = default;
  virtual void HandleRequest(RequestContext* ctx) = 0;
};

struct FrontEndOptions {
  int fe_index = 0;
  Endpoint origin;  // The simulated Internet gateway; invalid if the service has none.
  uint64_t seed = 0x5EED;
};

class FrontEndProcess : public Process {
 public:
  FrontEndProcess(const SnsConfig& config, const FrontEndOptions& options,
                  std::shared_ptr<FrontEndLogic> logic, ComponentLauncher* launcher);

  void OnStart() override;
  void OnMessage(const Message& msg) override;

  // --- Observability ------------------------------------------------------------
  int fe_index() const { return options_.fe_index; }
  const ManagerStub& stub() const { return stub_; }
  int active_requests() const { return active_; }
  int queued_requests() const { return static_cast<int>(accept_queue_.size()); }
  int peak_active_requests() const { return peak_active_; }
  // Counters live in the cluster's MetricsRegistry under "fe.<index>.*"; they are
  // cumulative across front-end restarts.
  int64_t completed_requests() const { return CounterOr0(completed_); }
  int64_t error_responses() const { return CounterOr0(errors_); }
  int64_t task_timeouts() const { return CounterOr0(task_timeouts_); }
  int64_t task_retries_used() const { return CounterOr0(task_retries_used_); }
  int64_t manager_restarts_triggered() const { return CounterOr0(manager_restarts_); }
  int64_t requests_shed() const { return CounterOr0(shed_); }
  int64_t deadline_expired() const { return CounterOr0(deadline_expired_); }
  int64_t retries_backoff() const { return CounterOr0(retries_backoff_); }
  int64_t ring_remaps() const { return CounterOr0(ring_remaps_); }
  // Replicated-cache read path: probes issued past the chain head, and repairs
  // (re-puts to replicas that missed) triggered by a non-head hit.
  int64_t cache_failover_reads() const { return CounterOr0(cache_failovers_); }
  int64_t read_repairs() const { return CounterOr0(read_repairs_); }
  int64_t cache_replica_puts() const { return CounterOr0(replica_puts_); }
  const LruCache<std::string, UserProfile>& profile_cache() const { return profile_cache_; }
  const Histogram& latency_histogram() const { return *latency_hist_; }
  const std::map<std::string, int64_t>& responses_by_source() const {
    return responses_by_source_;
  }

  // Accept queue bound; beyond it the FE sheds load with an error (the paper's FEs
  // simply stopped accepting connections when saturated).
  static constexpr size_t kAcceptQueueCapacity = 4000;

 private:
  friend class RequestContext;

  static int64_t CounterOr0(const Counter* c) { return c != nullptr ? c->value() : 0; }

  struct PendingTask {
    uint64_t request_id = 0;
    std::string type;
    std::shared_ptr<TaskRequestPayload> payload;
    RequestContext::ContentCb cb;
    Endpoint worker;
    Endpoint avoid;      // The worker the previous attempt failed on; retries skip it.
    TraceContext trace;  // The owning request's context.
    // Per-attempt span: a fresh child of `trace` for every dispatch, so retries
    // show up as sibling subtrees and the analyzer can see the gaps between them.
    TraceContext attempt_trace;
    SimTime attempt_started = 0;
    int attempts_left = 0;
    int spawn_waits_left = 0;
    EventId timeout = kInvalidEventId;
  };
  struct AcceptedRequest {
    std::shared_ptr<const ClientRequestPayload> request;
    Endpoint client;
    TraceContext trace;  // The client's root context, preserved while queued.
    SimTime enqueued_at = 0;
    SimTime deadline = kTimeNever;
  };
  // Facility calls awaiting a reply: profile get/put, origin fetch and cache
  // probe. All kinds share one table and one lifetime — Track arms the timeout,
  // and whichever of reply or timeout comes first Takes the op. Each kind
  // carries its typed callback plus whatever its reply or timeout fallback needs.
  struct ProfileGetOp {
    static constexpr const char* kSpan = "fe.profile_get";
    RequestContext::ProfileCb cb;
  };
  struct ProfilePutOp {
    static constexpr const char* kSpan = "fe.profile_put";
    RequestContext::PutCb cb;
    UserProfile profile;  // Cached (write-through) only once the DB acks.
  };
  struct FetchOp {
    static constexpr const char* kSpan = "fe.fetch";
    RequestContext::ContentCb cb;
  };
  struct CacheProbeOp {
    static constexpr const char* kSpan = "fe.cache_get";
    std::string key;
    // Replica chain captured at issue time: probe chain[attempt], and on a miss
    // or timeout fail over to the next replica. Each probe gets a fresh op id so
    // a late reply from an abandoned attempt cannot masquerade as the current
    // one.
    std::vector<Endpoint> chain;
    size_t attempt = 0;
    RequestContext::CacheCb cb;
  };
  using FacilityCall = std::variant<ProfileGetOp, ProfilePutOp, FetchOp, CacheProbeOp>;
  struct PendingOp {
    uint64_t request_id = 0;
    // The op's own child span, [send .. reply/timeout]: the server-side span
    // nests inside, so wire time shows as this span's self time.
    TraceContext trace;
    SimTime started = 0;
    EventId timeout = kInvalidEventId;
    FacilityCall call;
  };

  // --- Message handlers -----------------------------------------------------------
  void HandleBeacon(const ManagerBeaconPayload& beacon);
  void HandleClientRequest(const Message& msg);
  void HandleTaskResponse(const Message& msg);
  void HandleCacheReply(const Message& msg);
  void HandleProfileReply(const Message& msg);
  void HandleProfilePutAck(const Message& msg);
  void HandleFetchResponse(const Message& msg);

  // --- Request lifecycle ------------------------------------------------------------
  void StartRequest(std::shared_ptr<const ClientRequestPayload> request, Endpoint client,
                    const TraceContext& client_trace);
  void FinishRequest(RequestContext* ctx, const Status& status, const ContentPtr& content,
                     ResponseSource source, bool cache_hit);
  RequestContext* FindContext(uint64_t request_id);
  // The request's context while it still awaits its response, else null: a
  // facility callback runs only for a live request.
  RequestContext* LiveContext(uint64_t request_id);
  // Dequeues queued requests into free threads, dropping expired entries on the way.
  void DrainAcceptQueue();
  // Evicts every expired entry from the accept queue (the periodic sweep, so an
  // expired request does not wait for a free thread just to be rejected).
  void ExpireAcceptQueue();
  // Responds "deadline exceeded" for a request that died while still queued.
  void ExpireQueuedRequest(const AcceptedRequest& entry);
  // Sends the 96-byte error reply for a request that never reached the logic
  // (dead on arrival, shed, or expired in the accept queue).
  void SendErrorReply(const Endpoint& client, uint64_t client_request_id, Status status,
                      const TraceContext& trace);
  // Time left until `ctx`'s deadline; kTimeNever when the request has none.
  SimDuration RemainingBudget(const RequestContext* ctx) const;
  // An op timeout never extends past the request's remaining deadline budget.
  static SimDuration CapToBudget(SimDuration timeout, SimDuration budget) {
    return budget == kTimeNever ? timeout : std::min(timeout, budget);
  }

  // --- Pending facility calls ----------------------------------------------------------
  // Opens the call's child span of `ctx`, arms its timeout and tracks it under
  // `op_id`; returns the span to stamp on the request message. If no reply
  // Takes the op first, the timeout does and runs OpTimedOut.
  TraceContext Track(uint64_t op_id, RequestContext* ctx, FacilityCall call,
                     SimDuration timeout);
  // Closes a timed-out call's span as "timeout" and runs its kind's fallback.
  void OpTimedOut(PendingOp op);
  // Removes the op tracked under `id` and cancels its timeout; empty if a reply
  // or the timeout already took it.
  template <typename Op>
  std::optional<Op> Take(std::unordered_map<uint64_t, Op>* table, uint64_t id) {
    auto it = table->find(id);
    if (it == table->end()) {
      return std::nullopt;
    }
    std::optional<Op> op(std::move(it->second));
    table->erase(it);
    CancelTimer(op->timeout);
    return op;
  }

  // --- Facilities used by RequestContext ---------------------------------------------
  void DoGetProfile(RequestContext* ctx, RequestContext::ProfileCb cb);
  void DoPutProfile(const UserProfile& profile);
  void DoPutProfile(RequestContext* ctx, const UserProfile& profile,
                    RequestContext::PutCb cb);
  void DoCacheGet(RequestContext* ctx, const std::string& key, RequestContext::CacheCb cb);
  void DoCachePut(RequestContext* ctx, const std::string& key, ContentPtr content);
  // Sends the probe for `probe`'s current attempt under a fresh op id.
  void SendCacheProbe(uint64_t request_id, CacheProbeOp probe);
  // A probe missed or timed out: advance down the chain or complete as a miss.
  void CacheProbeFailed(PendingOp op);
  void SendCachePutTo(const Endpoint& dst, std::shared_ptr<CachePutPayload> payload,
                      const TraceContext& trace);
  void DoFetch(RequestContext* ctx, const std::string& url, RequestContext::ContentCb cb);
  void DoCallWorker(RequestContext* ctx, const std::string& type,
                    std::map<std::string, std::string> args, std::vector<ContentPtr> inputs,
                    RequestContext::ContentCb cb);
  void RunPipelineStage(RequestContext* ctx, std::shared_ptr<const PipelineSpec> spec,
                        size_t stage, ContentPtr current, std::vector<ContentPtr> first_inputs,
                        RequestContext::ContentCb cb);

  // --- Task dispatch internals ---------------------------------------------------------
  void AttemptTask(uint64_t task_id);
  void TaskAttemptFailed(uint64_t task_id, bool worker_dead);
  void FailTask(uint64_t task_id, Status status);
  void ReportWorkerDead(const Endpoint& worker, const std::string& type);

  // --- Housekeeping -----------------------------------------------------------------
  void Heartbeat();
  void Watchdog();

  SnsConfig config_;
  FrontEndOptions options_;
  std::shared_ptr<FrontEndLogic> logic_;
  ComponentLauncher* launcher_;
  Rng rng_;
  ManagerStub stub_;

  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<RequestContext>> contexts_;
  std::deque<AcceptedRequest> accept_queue_;
  int active_ = 0;
  int peak_active_ = 0;

  std::unordered_map<uint64_t, PendingTask> pending_tasks_;
  std::unordered_map<uint64_t, PendingOp> pending_ops_;

  // Write-through (§3.1.4), byte-bounded: millions of distinct users must not
  // grow FE memory without limit.
  LruCache<std::string, UserProfile> profile_cache_;

  // Registry instruments under "fe.<index>.*", bound in OnStart.
  Counter* completed_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* task_timeouts_ = nullptr;
  Counter* task_retries_used_ = nullptr;
  Counter* manager_restarts_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* deadline_expired_ = nullptr;
  Counter* retries_backoff_ = nullptr;
  Counter* ring_remaps_ = nullptr;
  Counter* cache_failovers_ = nullptr;
  Counter* read_repairs_ = nullptr;
  Counter* replica_puts_ = nullptr;
  Gauge* active_gauge_ = nullptr;
  Gauge* queued_gauge_ = nullptr;
  Gauge* profile_cache_gauge_ = nullptr;
  Histogram* latency_hist_ = nullptr;  // Seconds.
  std::map<std::string, int64_t> responses_by_source_;
};

}  // namespace sns

#endif  // SRC_SNS_FRONT_END_H_
