#include "src/sns/front_end.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace sns {

// ---------- RequestContext --------------------------------------------------------

SimTime RequestContext::now() const { return fe_->sim()->now(); }

Rng* RequestContext::rng() { return &fe_->rng_; }

void RequestContext::GetProfile(ProfileCb cb) { fe_->DoGetProfile(this, std::move(cb)); }

void RequestContext::PutProfile(const UserProfile& profile) { fe_->DoPutProfile(profile); }

void RequestContext::PutProfile(const UserProfile& profile, PutCb cb) {
  fe_->DoPutProfile(this, profile, std::move(cb));
}

void RequestContext::CacheGet(const std::string& key, CacheCb cb) {
  fe_->DoCacheGet(this, key, std::move(cb));
}

void RequestContext::CachePut(const std::string& key, ContentPtr content) {
  fe_->DoCachePut(this, key, std::move(content));
}

void RequestContext::Fetch(const std::string& url, ContentCb cb) {
  fe_->DoFetch(this, url, std::move(cb));
}

void RequestContext::CallWorker(const std::string& type, std::map<std::string, std::string> args,
                                std::vector<ContentPtr> inputs, ContentCb cb) {
  fe_->DoCallWorker(this, type, std::move(args), std::move(inputs), std::move(cb));
}

void RequestContext::CallPipeline(const PipelineSpec& spec, std::vector<ContentPtr> inputs,
                                  ContentCb cb) {
  if (spec.empty()) {
    ContentPtr first = inputs.empty() ? nullptr : inputs.front();
    cb(this, Status::Ok(), first);
    return;
  }
  auto shared_spec = std::make_shared<const PipelineSpec>(spec);
  fe_->RunPipelineStage(this, shared_spec, 0, nullptr, std::move(inputs), std::move(cb));
}

void RequestContext::Respond(const Status& status, ContentPtr content, ResponseSource source,
                             bool cache_hit) {
  fe_->FinishRequest(this, status, content, source, cache_hit);
}

// ---------- FrontEndProcess: lifecycle ---------------------------------------------

FrontEndProcess::FrontEndProcess(const SnsConfig& config, const FrontEndOptions& options,
                                 std::shared_ptr<FrontEndLogic> logic,
                                 ComponentLauncher* launcher)
    : Process(StrFormat("front-end-%d", options.fe_index)),
      config_(config),
      options_(options),
      logic_(std::move(logic)),
      launcher_(launcher),
      rng_(options.seed ^ (0x9E3779B9ULL * static_cast<uint64_t>(options.fe_index + 1))),
      stub_(config, &rng_, options.fe_index),
      profile_cache_(config.fe_profile_cache_bytes,
                     [](const UserProfile& p) { return p.WireSize(); }) {}

void FrontEndProcess::OnStart() {
  std::string prefix = StrFormat("fe.%d.", options_.fe_index);
  completed_ = metrics()->GetCounter(prefix + "completed_requests");
  errors_ = metrics()->GetCounter(prefix + "error_responses");
  task_timeouts_ = metrics()->GetCounter(prefix + "task_timeouts");
  task_retries_used_ = metrics()->GetCounter(prefix + "task_retries");
  manager_restarts_ = metrics()->GetCounter(prefix + "manager_restarts");
  shed_ = metrics()->GetCounter(prefix + "requests_shed");
  deadline_expired_ = metrics()->GetCounter(prefix + "deadline_expired");
  retries_backoff_ = metrics()->GetCounter(prefix + "retries_backoff");
  ring_remaps_ = metrics()->GetCounter(prefix + "ring_remaps");
  cache_failovers_ = metrics()->GetCounter(prefix + "cache_failover_reads");
  read_repairs_ = metrics()->GetCounter(prefix + "read_repairs");
  replica_puts_ = metrics()->GetCounter(prefix + "cache_replica_puts");
  active_gauge_ = metrics()->GetGauge(prefix + "active_requests");
  queued_gauge_ = metrics()->GetGauge(prefix + "queued_requests");
  profile_cache_gauge_ = metrics()->GetGauge(prefix + "profile_cache_bytes");
  latency_hist_ = metrics()->GetHistogram(prefix + "latency_s", 0.0, 30.0, 3000);
  JoinGroup(kGroupManagerBeacon);
  int stagger = options_.fe_index % 10;
  Every(Milliseconds(100.0 * stagger), Seconds(1), [this] { Heartbeat(); });
  Every(Milliseconds(500.0 + 137.0 * stagger), Seconds(1), [this] { Watchdog(); });
  Every(Milliseconds(250.0 + 61.0 * stagger), Milliseconds(250), [this] { ExpireAcceptQueue(); });
}

void FrontEndProcess::OnMessage(const Message& msg) {
  switch (msg.type) {
    case kMsgManagerBeacon:
      HandleBeacon(static_cast<const ManagerBeaconPayload&>(*msg.payload));
      break;
    case kMsgClientRequest:
      HandleClientRequest(msg);
      break;
    case kMsgTaskResponse:
      HandleTaskResponse(msg);
      break;
    case kMsgCacheReply:
      HandleCacheReply(msg);
      break;
    case kMsgProfileReply:
      HandleProfileReply(msg);
      break;
    case kMsgProfilePutAck:
      HandleProfilePutAck(msg);
      break;
    case kMsgFetchResponse:
      HandleFetchResponse(msg);
      break;
    default:
      break;
  }
}

void FrontEndProcess::HandleBeacon(const ManagerBeaconPayload& beacon) {
  uint64_t ring_changes = stub_.cache_membership_changes();
  ManagerFollower::Verdict verdict = stub_.OnBeacon(beacon, sim()->now());
  if (verdict == ManagerFollower::Verdict::kStale) {
    return;
  }
  ring_remaps_->Increment(
      static_cast<int64_t>(stub_.cache_membership_changes() - ring_changes));
  if (verdict == ManagerFollower::Verdict::kNew) {
    if (auto msg = stub_.follower().Registration(endpoint())) {
      Send(std::move(*msg));
    }
  }
}

void FrontEndProcess::Heartbeat() {
  if (auto msg = stub_.follower().LoadReport(endpoint(), active_, completed_requests())) {
    Send(std::move(*msg));
  }
}

void FrontEndProcess::Watchdog() {
  // Process-peer fault tolerance: "The front end detects and restarts a crashed
  // manager" (§3.1.3). RelaunchManager is idempotent at the system level, so
  // concurrent detection by several FEs is harmless.
  if (stub_.ManagerSuspectedDead(sim()->now())) {
    SNS_LOG(kWarning, "front-end") << "manager beacons silent for "
                                   << FormatDuration(stub_.BeaconSilence(sim()->now()))
                                   << "; restarting manager";
    manager_restarts_->Increment();
    // From this node's vantage point: an incumbent stranded across a partition
    // must not satisfy the idempotence check, or the reachable side runs
    // managerless for the whole outage.
    launcher_->RelaunchManager(node());
  }
}

// ---------- Request intake ----------------------------------------------------------

void FrontEndProcess::HandleClientRequest(const Message& msg) {
  auto request = std::static_pointer_cast<const ClientRequestPayload>(msg.payload);
  if (request->deadline != kTimeNever && sim()->now() >= request->deadline) {
    // Dead on arrival (e.g. queued behind a saturated FE link): reject without
    // occupying a thread.
    deadline_expired_->Increment();
    RecordSpan(ChildSpan(msg.trace), "fe.request", sim()->now(), "deadline_expired");
    SendErrorReply(msg.src, request->client_request_id,
                   TimeoutError("deadline expired before accept"), msg.trace);
    return;
  }
  if (active_ >= config_.fe_thread_pool_size) {
    if (accept_queue_.size() >= kAcceptQueueCapacity) {
      shed_->Increment();
      RecordSpan(ChildSpan(msg.trace), "fe.request", sim()->now(), "shed");
      SendErrorReply(msg.src, request->client_request_id,
                     ResourceExhaustedError("front end saturated"), msg.trace);
      return;
    }
    SimTime deadline = request->deadline;
    accept_queue_.push_back(
        AcceptedRequest{std::move(request), msg.src, msg.trace, sim()->now(), deadline});
    queued_gauge_->Set(static_cast<double>(accept_queue_.size()));
    return;
  }
  StartRequest(std::move(request), msg.src, msg.trace);
}

void FrontEndProcess::StartRequest(std::shared_ptr<const ClientRequestPayload> request,
                                   Endpoint client, const TraceContext& client_trace) {
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  active_gauge_->Set(active_);
  auto ctx = std::make_unique<RequestContext>();
  ctx->fe_ = this;
  ctx->id_ = next_id_++;
  ctx->request_ = std::move(request);
  ctx->client_ = client;
  ctx->started_ = sim()->now();
  ctx->deadline_ = ctx->request_->deadline;
  // Join the client's trace, or root a fresh one for untraced callers (tests that
  // inject requests directly).
  ctx->trace_ = client_trace.valid() ? ChildSpan(client_trace) : StartTrace();
  RequestContext* raw = ctx.get();
  contexts_[raw->id_] = std::move(ctx);
  // Connection shepherding + dispatch-logic CPU, charged before the logic runs.
  uint64_t id = raw->id_;
  RunOnCpu(config_.fe_cpu_per_request, [this, id] {
    RequestContext* ctx2 = FindContext(id);
    if (ctx2 != nullptr) {
      logic_->HandleRequest(ctx2);
    }
  });
}

RequestContext* FrontEndProcess::FindContext(uint64_t request_id) {
  auto it = contexts_.find(request_id);
  return it == contexts_.end() ? nullptr : it->second.get();
}

RequestContext* FrontEndProcess::LiveContext(uint64_t request_id) {
  RequestContext* ctx = FindContext(request_id);
  return ctx != nullptr && !ctx->responded_ ? ctx : nullptr;
}

void FrontEndProcess::FinishRequest(RequestContext* ctx, const Status& status,
                                    const ContentPtr& content, ResponseSource source,
                                    bool cache_hit) {
  if (ctx->responded_) {
    return;
  }
  ctx->responded_ = true;
  // Deadline backstop: a request never *completes* after its deadline — the client
  // has stopped waiting, so a late success is converted into an explicit timeout
  // (and the content dropped) rather than pretending the work arrived in time.
  // Inclusive comparison: a response finished exactly AT the deadline still has a
  // network trip ahead of it, so the client would observe it late.
  Status final_status = status;
  ContentPtr final_content = content;
  ResponseSource final_source = source;
  bool expired_late = ctx->deadline_ != kTimeNever && sim()->now() >= ctx->deadline_;
  if (expired_late && status.ok()) {
    final_status = TimeoutError("deadline exceeded before completion");
    final_content = nullptr;
    final_source = ResponseSource::kError;
    cache_hit = false;
  }
  if (expired_late) {
    deadline_expired_->Increment();
  }
  auto reply = std::make_shared<ClientResponsePayload>();
  reply->client_request_id = ctx->request_->client_request_id;
  reply->status = final_status;
  reply->content = final_content;
  reply->source = final_source;
  reply->cache_hit = cache_hit;
  Message out;
  out.dst = ctx->client_;
  out.type = kMsgClientResponse;
  out.transport = Transport::kReliable;
  out.size_bytes = WireSizeOf(*reply);
  out.payload = reply;
  out.trace = ctx->trace_;
  Send(std::move(out));

  RecordSpan(ctx->trace_, "fe.request", ctx->started_,
             expired_late ? "deadline_expired" : (final_status.ok() ? "ok" : "error"));
  latency_hist_->Add(ToSeconds(sim()->now() - ctx->started_));
  completed_->Increment();
  if (!final_status.ok()) {
    errors_->Increment();
  }
  ++responses_by_source_[ResponseSourceName(final_source)];

  contexts_.erase(ctx->id_);
  --active_;
  active_gauge_->Set(active_);
  DrainAcceptQueue();
}

void FrontEndProcess::DrainAcceptQueue() {
  while (!accept_queue_.empty() && active_ < config_.fe_thread_pool_size) {
    AcceptedRequest next = std::move(accept_queue_.front());
    accept_queue_.pop_front();
    if (next.deadline != kTimeNever && sim()->now() >= next.deadline) {
      ExpireQueuedRequest(next);
      continue;
    }
    if (sim()->now() > next.enqueued_at) {
      // Sibling of the upcoming fe.request span under the client root: the
      // analyzer charges this window to fe_accept_queue_wait.
      RecordSpan(ChildSpan(next.trace), "fe.queue_wait", next.enqueued_at, "ok");
    }
    StartRequest(std::move(next.request), next.client, next.trace);
  }
  queued_gauge_->Set(static_cast<double>(accept_queue_.size()));
}

void FrontEndProcess::ExpireAcceptQueue() {
  if (accept_queue_.empty()) {
    return;
  }
  SimTime now = sim()->now();
  auto expired = [now](const AcceptedRequest& e) {
    return e.deadline != kTimeNever && now >= e.deadline;
  };
  for (const AcceptedRequest& entry : accept_queue_) {
    if (expired(entry)) {
      ExpireQueuedRequest(entry);
    }
  }
  accept_queue_.erase(std::remove_if(accept_queue_.begin(), accept_queue_.end(), expired),
                      accept_queue_.end());
  queued_gauge_->Set(static_cast<double>(accept_queue_.size()));
}

void FrontEndProcess::ExpireQueuedRequest(const AcceptedRequest& entry) {
  deadline_expired_->Increment();
  // The request died waiting for a thread; record the spans so queue deaths are
  // visible in traces, not just the counter. The whole window was queue wait.
  TraceContext fe_ctx = ChildSpan(entry.trace);
  RecordSpan(ChildSpan(fe_ctx), "fe.queue_wait", entry.enqueued_at, "deadline_expired");
  RecordSpan(fe_ctx, "fe.request", entry.enqueued_at, "deadline_expired");
  SendErrorReply(entry.client, entry.request->client_request_id,
                 TimeoutError("deadline expired in accept queue"), entry.trace);
}

void FrontEndProcess::SendErrorReply(const Endpoint& client, uint64_t client_request_id,
                                     Status status, const TraceContext& trace) {
  auto reply = std::make_shared<ClientResponsePayload>();
  reply->client_request_id = client_request_id;
  reply->status = std::move(status);
  reply->source = ResponseSource::kError;
  Message out;
  out.dst = client;
  out.type = kMsgClientResponse;
  out.transport = Transport::kReliable;
  out.size_bytes = 96;
  out.payload = std::move(reply);
  out.trace = trace;
  Send(std::move(out));
}

SimDuration FrontEndProcess::RemainingBudget(const RequestContext* ctx) const {
  return ctx->deadline_ == kTimeNever ? kTimeNever : ctx->deadline_ - sim()->now();
}

// ---------- Pending facility calls ------------------------------------------------------

TraceContext FrontEndProcess::Track(uint64_t op_id, RequestContext* ctx, FacilityCall call,
                                    SimDuration timeout) {
  PendingOp op;
  op.request_id = ctx->id_;
  op.trace = ChildSpan(ctx->trace_);
  op.started = sim()->now();
  op.call = std::move(call);
  op.timeout = After(timeout, [this, op_id] {
    std::optional<PendingOp> expired = Take(&pending_ops_, op_id);
    if (expired.has_value()) {
      OpTimedOut(std::move(*expired));
    }
  });
  TraceContext trace = op.trace;
  pending_ops_.emplace(op_id, std::move(op));
  return trace;
}

void FrontEndProcess::OpTimedOut(PendingOp op) {
  const char* span = std::visit([](const auto& call) { return call.kSpan; }, op.call);
  RecordSpan(op.trace, span, op.started, "timeout");
  if (std::holds_alternative<CacheProbeOp>(op.call)) {
    CacheProbeFailed(std::move(op));  // A timeout counts as a miss.
    return;
  }
  RequestContext* ctx = LiveContext(op.request_id);
  if (ctx == nullptr) {
    return;
  }
  if (auto* get = std::get_if<ProfileGetOp>(&op.call)) {
    // BASE: fall back to an empty profile rather than failing the request.
    get->cb(ctx, false, UserProfile(ctx->request_->user_id));
  } else if (auto* put = std::get_if<ProfilePutOp>(&op.call)) {
    // Unlike reads there is no BASE fallback: an unacked write is a failure
    // the client must hear about (it may or may not have committed).
    put->cb(ctx, TimeoutError("profile write unacknowledged"));
  } else if (auto* fetch = std::get_if<FetchOp>(&op.call)) {
    fetch->cb(ctx, TimeoutError("origin fetch timed out"), nullptr);
  }
}

// ---------- Profile facility -----------------------------------------------------------

void FrontEndProcess::DoGetProfile(RequestContext* ctx, RequestContext::ProfileCb cb) {
  const std::string& user = ctx->request_->user_id;
  std::optional<UserProfile> cached = profile_cache_.Get(user);
  if (cached.has_value()) {
    cb(ctx, true, *cached);
    return;
  }
  const Endpoint& db = stub_.profile_db();
  SimDuration budget = RemainingBudget(ctx);
  if (!db.valid() || budget <= 0) {
    // No DB, or no time left to ask it: BASE fallback to an empty profile.
    cb(ctx, false, UserProfile(user));
    return;
  }
  uint64_t op_id = next_id_++;
  auto payload = std::make_shared<ProfileGetPayload>();
  payload->op_id = op_id;
  payload->user_id = user;
  payload->reply_to = endpoint();
  Message msg;
  msg.trace = Track(op_id, ctx, ProfileGetOp{std::move(cb)},
                    CapToBudget(config_.profile_timeout, budget));
  msg.dst = db;
  msg.type = kMsgProfileGet;
  msg.transport = Transport::kReliable;
  msg.size_bytes = 64 + static_cast<int64_t>(user.size());
  msg.payload = payload;
  Send(std::move(msg));
}

void FrontEndProcess::HandleProfileReply(const Message& msg) {
  const auto& reply = static_cast<const ProfileReplyPayload&>(*msg.payload);
  std::optional<PendingOp> op = Take(&pending_ops_, reply.op_id);
  if (!op.has_value()) {
    return;  // Timed out earlier.
  }
  RecordSpan(op->trace, ProfileGetOp::kSpan, op->started, reply.found ? "ok" : "miss");
  RequestContext* ctx = LiveContext(op->request_id);
  if (ctx == nullptr) {
    return;
  }
  auto& get = std::get<ProfileGetOp>(op->call);
  if (reply.found) {
    profile_cache_.Put(reply.profile.user_id(), reply.profile);
    profile_cache_gauge_->Set(static_cast<double>(profile_cache_.used_bytes()));
    get.cb(ctx, true, reply.profile);
  } else {
    get.cb(ctx, false, UserProfile(ctx->request_->user_id));
  }
}

void FrontEndProcess::DoPutProfile(const UserProfile& profile) {
  // Write-through: update the local cache and persist to the ACID store.
  profile_cache_.Put(profile.user_id(), profile);
  profile_cache_gauge_->Set(static_cast<double>(profile_cache_.used_bytes()));
  const Endpoint& db = stub_.profile_db();
  if (!db.valid()) {
    return;
  }
  auto payload = std::make_shared<ProfilePutPayload>();
  payload->profile = profile;
  Message msg;
  msg.dst = db;
  msg.type = kMsgProfilePut;
  msg.transport = Transport::kReliable;
  msg.size_bytes = 64 + profile.WireSize();
  msg.payload = payload;
  Send(std::move(msg));
}

void FrontEndProcess::DoPutProfile(RequestContext* ctx, const UserProfile& profile,
                                   RequestContext::PutCb cb) {
  if (!config_.profile_write_acks) {
    // Baseline (pre-§14) contract: fire-and-forget, then tell the caller Ok
    // immediately. If the DB is partitioned away the write silently evaporates
    // after the ack — exactly the false ack the chaos regression demonstrates.
    DoPutProfile(profile);
    cb(ctx, Status::Ok());
    return;
  }
  if (config_.quorum_membership && stub_.ManagerKnown() && !stub_.cluster_quorate()) {
    // The manager itself says it is on a minority side: fail fast rather than
    // burn the request's budget waiting for a DB nack.
    cb(ctx, UnavailableError("cluster not quorate; write refused"));
    return;
  }
  const Endpoint& db = stub_.profile_db();
  SimDuration budget = RemainingBudget(ctx);
  if (!db.valid() || budget <= 0) {
    cb(ctx, UnavailableError("profile db unavailable"));
    return;
  }
  uint64_t op_id = next_id_++;
  auto payload = std::make_shared<ProfilePutPayload>();
  payload->profile = profile;
  payload->op_id = op_id;
  payload->reply_to = endpoint();
  Message msg;
  msg.trace = Track(op_id, ctx, ProfilePutOp{std::move(cb), profile},
                    CapToBudget(config_.profile_timeout, budget));
  msg.dst = db;
  msg.type = kMsgProfilePut;
  msg.transport = Transport::kReliable;
  msg.size_bytes = 64 + profile.WireSize();
  msg.payload = payload;
  Send(std::move(msg));
}

void FrontEndProcess::HandleProfilePutAck(const Message& msg) {
  const auto& ack = static_cast<const ProfilePutAckPayload&>(*msg.payload);
  std::optional<PendingOp> op = Take(&pending_ops_, ack.op_id);
  if (!op.has_value()) {
    return;  // Timed out earlier.
  }
  RecordSpan(op->trace, ProfilePutOp::kSpan, op->started, ack.status.ok() ? "ok" : "refused");
  RequestContext* ctx = LiveContext(op->request_id);
  if (ctx == nullptr) {
    return;
  }
  auto& put = std::get<ProfilePutOp>(op->call);
  if (ack.status.ok()) {
    // Write-through only on a durable commit: a refused write must not leave a
    // phantom profile in the FE cache masking the failure from later reads.
    profile_cache_.Put(put.profile.user_id(), put.profile);
    profile_cache_gauge_->Set(static_cast<double>(profile_cache_.used_bytes()));
  }
  put.cb(ctx, ack.status);
}

// ---------- Cache facility ------------------------------------------------------------

void FrontEndProcess::DoCacheGet(RequestContext* ctx, const std::string& key,
                                 RequestContext::CacheCb cb) {
  std::vector<Endpoint> chain = stub_.CacheChainForKey(key);
  SimDuration budget = RemainingBudget(ctx);
  if (chain.empty() || budget <= 0) {
    cb(ctx, false, nullptr);  // No time to probe == miss (caching is an optimization).
    return;
  }
  SendCacheProbe(ctx->id_, CacheProbeOp{key, std::move(chain), 0, std::move(cb)});
}

void FrontEndProcess::SendCacheProbe(uint64_t request_id, CacheProbeOp probe) {
  RequestContext* ctx = LiveContext(request_id);
  if (ctx == nullptr) {
    return;
  }
  SimDuration budget = RemainingBudget(ctx);
  if (budget <= 0) {
    // Out of deadline budget mid-chain: the request machinery will convert the
    // late completion anyway; report the op as a miss now.
    probe.cb(ctx, false, nullptr);
    return;
  }
  // Fresh op id per probe: a late reply from an abandoned attempt must not be
  // taken for the current one.
  uint64_t op_id = next_id_++;
  auto payload = std::make_shared<CacheGetPayload>();
  payload->op_id = op_id;
  payload->key = probe.key;
  payload->reply_to = endpoint();
  payload->deadline = ctx->deadline_;
  Message msg;
  msg.dst = probe.chain[probe.attempt];
  msg.trace = Track(op_id, ctx, std::move(probe), CapToBudget(config_.cache_timeout, budget));
  msg.type = kMsgCacheGet;
  msg.transport = Transport::kReliable;
  msg.size_bytes = WireSizeOf(*payload);
  msg.payload = payload;
  // Harvest's protocol: a fresh TCP connection per cache request (§3.1.5).
  San::SendOptions opts;
  opts.force_new_connection = true;
  Send(std::move(msg), std::move(opts));
}

void FrontEndProcess::CacheProbeFailed(PendingOp op) {
  auto& probe = std::get<CacheProbeOp>(op.call);
  if (probe.attempt + 1 < probe.chain.size()) {
    // Fail over down the replica chain: the next replica may hold the key (the
    // head may be dead, cold after a membership change, or have evicted it).
    ++probe.attempt;
    cache_failovers_->Increment();
    SendCacheProbe(op.request_id, std::move(probe));
    return;
  }
  RequestContext* ctx = LiveContext(op.request_id);
  if (ctx != nullptr) {
    probe.cb(ctx, false, nullptr);  // Whole chain missed or timed out.
  }
}

void FrontEndProcess::HandleCacheReply(const Message& msg) {
  const auto& reply = static_cast<const CacheReplyPayload&>(*msg.payload);
  std::optional<PendingOp> op = Take(&pending_ops_, reply.op_id);
  if (!op.has_value()) {
    return;  // Probe already abandoned (timeout advanced the chain).
  }
  RecordSpan(op->trace, CacheProbeOp::kSpan, op->started, reply.hit ? "hit" : "miss");
  if (!reply.hit) {
    CacheProbeFailed(std::move(*op));
    return;
  }
  RequestContext* ctx = LiveContext(op->request_id);
  if (ctx == nullptr) {
    return;
  }
  auto& probe = std::get<CacheProbeOp>(op->call);
  if (probe.attempt > 0 && reply.content != nullptr) {
    // Read-repair: a non-head replica answered, so every replica earlier in the
    // chain is missing the key (miss, eviction, or death — a put to a dead
    // endpoint is dropped by the SAN). Re-put so the next read hits the head.
    read_repairs_->Increment();
    for (size_t i = 0; i < probe.attempt; ++i) {
      auto repair = std::make_shared<CachePutPayload>();
      repair->key = probe.key;
      repair->content = reply.content;
      SendCachePutTo(probe.chain[i], std::move(repair), ChildSpan(ctx->trace_));
    }
  }
  probe.cb(ctx, true, reply.content);
}

void FrontEndProcess::SendCachePutTo(const Endpoint& dst,
                                     std::shared_ptr<CachePutPayload> payload,
                                     const TraceContext& trace) {
  Message msg;
  msg.dst = dst;
  msg.type = kMsgCachePut;
  msg.transport = Transport::kReliable;
  msg.size_bytes = WireSizeOf(*payload);
  msg.payload = std::move(payload);
  msg.trace = trace;
  San::SendOptions opts;
  opts.force_new_connection = true;
  Send(std::move(msg), std::move(opts));
}

void FrontEndProcess::DoCachePut(RequestContext* ctx, const std::string& key,
                                 ContentPtr content) {
  std::vector<Endpoint> chain = stub_.CacheChainForKey(key);
  if (chain.empty() || content == nullptr) {
    return;
  }
  // Fire-and-forget to every replica in the chain: record a zero-length marker
  // at the send so the puts show up in the trace without ever appearing on the
  // request's critical path (the server-side cache.put children clip to zero
  // inside the analyzer's walk).
  TraceContext put_ctx = ChildSpan(ctx->trace_);
  RecordSpan(put_ctx, "fe.cache_put", sim()->now(), "ok");
  for (size_t i = 0; i < chain.size(); ++i) {
    auto payload = std::make_shared<CachePutPayload>();
    payload->key = key;
    payload->content = content;
    if (i > 0) {
      replica_puts_->Increment();
    }
    SendCachePutTo(chain[i], std::move(payload), put_ctx);
  }
}

// ---------- Origin fetch facility --------------------------------------------------------

void FrontEndProcess::DoFetch(RequestContext* ctx, const std::string& url,
                              RequestContext::ContentCb cb) {
  if (!options_.origin.valid()) {
    cb(ctx, UnavailableError("no origin configured"), nullptr);
    return;
  }
  SimDuration budget = RemainingBudget(ctx);
  if (budget <= 0) {
    cb(ctx, TimeoutError("deadline exceeded before origin fetch"), nullptr);
    return;
  }
  uint64_t op_id = next_id_++;
  auto payload = std::make_shared<FetchRequestPayload>();
  payload->op_id = op_id;
  payload->url = url;
  payload->reply_to = endpoint();
  payload->deadline = ctx->deadline_;
  Message msg;
  msg.trace =
      Track(op_id, ctx, FetchOp{std::move(cb)}, CapToBudget(config_.fetch_timeout, budget));
  msg.dst = options_.origin;
  msg.type = kMsgFetchRequest;
  msg.transport = Transport::kReliable;
  msg.size_bytes = 96 + static_cast<int64_t>(url.size());
  msg.payload = payload;
  Send(std::move(msg));
}

void FrontEndProcess::HandleFetchResponse(const Message& msg) {
  const auto& reply = static_cast<const FetchResponsePayload&>(*msg.payload);
  std::optional<PendingOp> op = Take(&pending_ops_, reply.op_id);
  if (!op.has_value()) {
    return;
  }
  RecordSpan(op->trace, FetchOp::kSpan, op->started, reply.status.ok() ? "ok" : "error");
  RequestContext* ctx = LiveContext(op->request_id);
  if (ctx == nullptr) {
    return;
  }
  std::get<FetchOp>(op->call).cb(ctx, reply.status, reply.content);
}

// ---------- Worker dispatch ---------------------------------------------------------------

void FrontEndProcess::DoCallWorker(RequestContext* ctx, const std::string& type,
                                   std::map<std::string, std::string> args,
                                   std::vector<ContentPtr> inputs,
                                   RequestContext::ContentCb cb) {
  uint64_t task_id = next_id_++;
  auto payload = std::make_shared<TaskRequestPayload>();
  payload->task_id = task_id;
  payload->url = ctx->request_->url;
  payload->inputs = std::move(inputs);
  payload->profile = ctx->profile_;  // TACC: profiles ride along automatically (§2.3).
  payload->args = std::move(args);
  payload->reply_to = endpoint();
  payload->deadline = ctx->deadline_;

  PendingTask task;
  task.request_id = ctx->id_;
  task.type = type;
  task.payload = std::move(payload);
  task.cb = std::move(cb);
  task.trace = ctx->trace_;
  task.attempts_left = config_.task_retries + 1;
  task.spawn_waits_left = 20;
  pending_tasks_[task_id] = std::move(task);
  AttemptTask(task_id);
}

void FrontEndProcess::RunPipelineStage(RequestContext* ctx,
                                       std::shared_ptr<const PipelineSpec> spec, size_t stage,
                                       ContentPtr current, std::vector<ContentPtr> first_inputs,
                                       RequestContext::ContentCb cb) {
  if (stage >= spec->stages.size()) {
    cb(ctx, Status::Ok(), current);
    return;
  }
  const PipelineStage& s = spec->stages[stage];
  std::vector<ContentPtr> inputs =
      stage == 0 ? std::move(first_inputs) : std::vector<ContentPtr>{current};
  auto args = s.args;
  DoCallWorker(ctx, s.worker_type, std::move(args), std::move(inputs),
               [this, spec, stage, cb](RequestContext* ctx2, Status status, ContentPtr output) {
                 if (!status.ok()) {
                   cb(ctx2, std::move(status), nullptr);
                   return;
                 }
                 RunPipelineStage(ctx2, spec, stage + 1, std::move(output), {}, cb);
               });
}

void FrontEndProcess::AttemptTask(uint64_t task_id) {
  auto it = pending_tasks_.find(task_id);
  if (it == pending_tasks_.end()) {
    return;
  }
  PendingTask& task = it->second;
  RequestContext* ctx = LiveContext(task.request_id);
  if (ctx == nullptr) {
    pending_tasks_.erase(it);
    return;
  }
  SimDuration budget = RemainingBudget(ctx);
  if (budget <= 0) {
    FailTask(task_id, TimeoutError("deadline exceeded before task dispatch"));
    return;
  }
  const Endpoint* exclude = task.avoid.valid() ? &task.avoid : nullptr;
  auto worker = stub_.PickWorker(task.type, sim()->now(), exclude);
  if (!worker.has_value()) {
    // No live worker known: ask the manager to spawn one and retry shortly
    // ("the manager ... locates an appropriate distiller, spawning a new one if
    // necessary", §3.1.2).
    if (task.spawn_waits_left-- <= 0) {
      FailTask(task_id, UnavailableError("no worker of type " + task.type));
      return;
    }
    // The wait-for-spawn window gets its own span so the analyzer can charge it
    // to manager_stub_lookup; the spawn message nests the manager's span under it.
    TraceContext spawn_ctx = ChildSpan(task.trace);
    SimTime spawn_started = sim()->now();
    if (stub_.ManagerKnown()) {
      auto payload = std::make_shared<SpawnRequestPayload>();
      payload->worker_type = task.type;
      Message msg;
      msg.dst = stub_.manager();
      msg.type = kMsgSpawnRequest;
      msg.transport = Transport::kReliable;
      msg.size_bytes = 64;
      msg.payload = payload;
      msg.trace = spawn_ctx;
      Send(std::move(msg));
    }
    After(Milliseconds(300), [this, task_id, spawn_ctx, spawn_started] {
      RecordSpan(spawn_ctx, "fe.spawn_wait", spawn_started, "ok");
      AttemptTask(task_id);
    });
    return;
  }

  task.worker = *worker;
  task.attempt_trace = ChildSpan(task.trace);
  task.attempt_started = sim()->now();
  stub_.NoteTaskSent(*worker);
  task.timeout = After(CapToBudget(config_.task_timeout, budget), [this, task_id] {
    auto it2 = pending_tasks_.find(task_id);
    if (it2 == pending_tasks_.end()) {
      return;
    }
    task_timeouts_->Increment();
    RecordSpan(it2->second.attempt_trace, "fe.task_attempt", it2->second.attempt_started,
               "timeout");
    stub_.NoteTaskDone(it2->second.worker);
    TaskAttemptFailed(task_id, /*worker_dead=*/false);
  });

  Message msg;
  msg.dst = *worker;
  msg.type = kMsgTaskRequest;
  msg.transport = Transport::kReliable;
  msg.size_bytes = WireSizeOf(*task.payload);
  msg.payload = task.payload;
  msg.trace = task.attempt_trace;
  San::SendOptions opts;
  opts.on_failed = [this, task_id](const Message&) {
    // Broken connection: the worker process is gone (§3.1.3 fast failure detection).
    auto it2 = pending_tasks_.find(task_id);
    if (it2 == pending_tasks_.end()) {
      return;
    }
    CancelTimer(it2->second.timeout);
    RecordSpan(it2->second.attempt_trace, "fe.task_attempt", it2->second.attempt_started,
               "broken");
    stub_.NoteTaskDone(it2->second.worker);
    TaskAttemptFailed(task_id, /*worker_dead=*/true);
  };
  Send(std::move(msg), std::move(opts));
}

void FrontEndProcess::TaskAttemptFailed(uint64_t task_id, bool worker_dead) {
  auto it = pending_tasks_.find(task_id);
  if (it == pending_tasks_.end()) {
    return;
  }
  PendingTask& task = it->second;
  // The next attempt avoids the worker that just failed: re-picking it instantly
  // would hammer the very node whose overload caused the timeout.
  task.avoid = task.worker;
  if (worker_dead && stub_.NoteWorkerDead(task.worker)) {
    ReportWorkerDead(task.worker, task.type);
  }
  if (--task.attempts_left <= 0) {
    FailTask(task_id, TimeoutError("worker " + task.type + " did not respond"));
    return;
  }
  task_retries_used_->Increment();
  if (worker_dead) {
    // Broken connection: the worker is gone, not overloaded. Retrying elsewhere
    // immediately is safe (the dead worker was already dropped from the stub).
    AttemptTask(task_id);
    return;
  }
  // Timeout: back off exponentially with ±50% jitter before retrying, so a burst
  // of timed-out tasks does not stampede the surviving workers in lockstep.
  int retry_index = config_.task_retries + 1 - task.attempts_left;  // 1st retry = 1.
  double scale = std::pow(2.0, retry_index - 1) * rng_.Uniform(0.5, 1.5);
  auto delay = static_cast<SimDuration>(
      static_cast<double>(config_.task_retry_backoff_base) * scale);
  delay = std::min(delay, config_.task_retry_backoff_max);
  RequestContext* ctx = FindContext(task.request_id);
  if (ctx != nullptr) {
    SimDuration budget = RemainingBudget(ctx);
    if (budget != kTimeNever && budget <= delay) {
      // No time to wait out the backoff and run the task: fail now instead of
      // holding the thread until the deadline kills it anyway.
      FailTask(task_id, TimeoutError("deadline exceeded during retry backoff"));
      return;
    }
  }
  retries_backoff_->Increment();
  // The deliberate idle is its own span: the analyzer charges the gap between
  // attempts to retry_backoff_idle instead of leaving it unattributed.
  TraceContext backoff_ctx = ChildSpan(task.trace);
  SimTime backoff_started = sim()->now();
  After(delay, [this, task_id, backoff_ctx, backoff_started] {
    RecordSpan(backoff_ctx, "fe.retry_backoff", backoff_started, "ok");
    AttemptTask(task_id);
  });
}

void FrontEndProcess::FailTask(uint64_t task_id, Status status) {
  std::optional<PendingTask> task = Take(&pending_tasks_, task_id);
  if (!task.has_value()) {
    return;
  }
  RequestContext* ctx = LiveContext(task->request_id);
  if (ctx != nullptr) {
    task->cb(ctx, std::move(status), nullptr);
  }
}

void FrontEndProcess::ReportWorkerDead(const Endpoint& worker, const std::string& type) {
  if (!stub_.ManagerKnown()) {
    return;
  }
  auto payload = std::make_shared<LoadReportPayload>();
  payload->kind = ComponentKind::kWorker;
  payload->worker_type = type;
  payload->component = worker;
  payload->queue_length = -1;  // Sentinel: observed dead.
  Message msg;
  msg.dst = stub_.manager();
  msg.type = kMsgLoadReport;
  msg.transport = Transport::kReliable;
  msg.size_bytes = 80;
  msg.payload = payload;
  Send(std::move(msg));
}

void FrontEndProcess::HandleTaskResponse(const Message& msg) {
  const auto& reply = static_cast<const TaskResponsePayload&>(*msg.payload);
  auto it = pending_tasks_.find(reply.task_id);
  if (it == pending_tasks_.end()) {
    // The task already finished (answered, failed or gave up). A task keeps one
    // id across attempts, so a late reply from an earlier attempt still lands
    // while the task is pending; only replies after it finished are dropped.
    return;
  }
  if (reply.status.code() == StatusCode::kResourceExhausted &&
      it->second.attempts_left > 1) {
    // Overload rejection: the worker refused the task without running it (queue
    // full, or the backlog cannot meet the deadline). Retry on another worker
    // through the same backoff discipline as a timeout.
    CancelTimer(it->second.timeout);
    RecordSpan(it->second.attempt_trace, "fe.task_attempt", it->second.attempt_started,
               "rejected");
    stub_.NoteTaskDone(it->second.worker);
    TaskAttemptFailed(reply.task_id, /*worker_dead=*/false);
    return;
  }
  std::optional<PendingTask> task = Take(&pending_tasks_, reply.task_id);
  RecordSpan(task->attempt_trace, "fe.task_attempt", task->attempt_started,
             reply.status.ok() ? "ok" : "error");
  stub_.NoteTaskDone(task->worker);
  RequestContext* ctx = LiveContext(task->request_id);
  if (ctx == nullptr) {
    return;
  }
  task->cb(ctx, reply.status, reply.output);
}

}  // namespace sns
