#include "src/sns/profile_db.h"

#include "src/util/logging.h"

namespace sns {

ProfileDbProcess::ProfileDbProcess(const SnsConfig& sns_config, const ProfileDbConfig& config,
                                   KvStore* store)
    : Process("profile-db"),
      config_(config),
      store_(store),
      follower_(sns_config.manager_epoch_fencing,
                {.kind = ComponentKind::kProfileDb, .generation = config.generation}) {}

void ProfileDbProcess::OnStart() {
  writes_nonquorate_ = metrics()->GetCounter("profiledb.writes_nonquorate");
  writes_rejected_counter_ = metrics()->GetCounter("profiledb.writes_rejected");
  superseded_counter_ = metrics()->GetCounter("profiledb.superseded");
  JoinGroup(kGroupManagerBeacon);
  // ACID recovery: replay the WAL from "disk" before serving (§3.1.3 contrasts this
  // with the soft-state components, which need no such step).
  auto recovered = store_->Recover();
  if (recovered.ok()) {
    SNS_LOG(kInfo, "profile-db") << "generation " << config_.generation << " recovered "
                                 << *recovered << " WAL records";
  }
  // Take the store reservation: from here on, commits from older generations
  // bounce at the bus (the storage-side half of fencing).
  if (config_.reservation != nullptr) {
    config_.reservation->Claim(config_.generation);
  }
  Every(Milliseconds(123.0), Seconds(1), [this] { Heartbeat(); });
}

void ProfileDbProcess::Heartbeat() {
  if (superseded_) {
    return;  // A superseded incarnation never reports.
  }
  if (auto msg = follower_.LoadReport(endpoint(), 0, 0)) {
    Send(std::move(*msg));
  }
}

void ProfileDbProcess::Supersede(const char* evidence) {
  if (superseded_) {
    return;
  }
  superseded_ = true;
  superseded_counter_->Increment();
  SNS_LOG(kWarning, "profile-db") << "generation " << config_.generation
                                  << " superseded via " << evidence << "; self-demoting";
  // Crash destroys this process object; defer it out of the current dispatch.
  After(0, [owner = cluster(), me = pid()] { owner->Crash(me); });
}

void ProfileDbProcess::OnMessage(const Message& msg) {
  if (superseded_) {
    return;
  }
  switch (msg.type) {
    case kMsgManagerBeacon: {
      const auto& beacon = static_cast<const ManagerBeaconPayload&>(*msg.payload);
      ManagerFollower::Verdict verdict = follower_.Follow(beacon);
      if (verdict == ManagerFollower::Verdict::kStale) {
        break;
      }
      if (config_.generation > 0 && beacon.profile_db_generation > config_.generation) {
        Supersede("beacon generation");
        break;
      }
      if (verdict == ManagerFollower::Verdict::kNew) {
        if (auto out = follower_.Registration(endpoint())) {
          Send(std::move(*out));
        }
      }
      break;
    }
    case kMsgProfileGet:
      HandleGet(msg);
      break;
    case kMsgProfilePut:
      HandlePut(msg);
      break;
    default:
      break;
  }
}

void ProfileDbProcess::HandleGet(const Message& msg) {
  auto get = std::static_pointer_cast<const ProfileGetPayload>(msg.payload);
  RunOnCpu(config_.read_latency, [this, get] {
    ++reads_;
    auto reply = std::make_shared<ProfileReplyPayload>();
    reply->op_id = get->op_id;
    auto record = store_->Get(get->user_id);
    if (record.has_value()) {
      auto profile = UserProfile::Deserialize(get->user_id, *record);
      if (profile.ok()) {
        reply->found = true;
        reply->profile = *profile;
      }
    }
    Message out;
    out.dst = get->reply_to;
    out.type = kMsgProfileReply;
    out.transport = Transport::kReliable;
    out.size_bytes = 64 + reply->profile.WireSize();
    out.payload = reply;
    Send(std::move(out));
  });
}

void ProfileDbProcess::HandlePut(const Message& msg) {
  auto put = std::static_pointer_cast<const ProfilePutPayload>(msg.payload);
  RunOnCpu(config_.commit_latency, [this, put] {
    // The write-ack contract (DESIGN.md §14): evaluate quorum and the store
    // reservation at the commit instant, not at arrival — the partition may
    // have happened while this write sat in the CPU queue.
    Status status = Status::Ok();
    bool quorate = true;
    if (config_.membership != nullptr) {
      quorate = config_.membership->Regroup(node(), sim()->now()).quorate;
    }
    if (config_.reservation != nullptr &&
        !config_.reservation->HeldBy(config_.generation)) {
      // A newer incarnation reserved the store: this write must not land, and
      // this incarnation must die rather than race its successor.
      status = UnavailableError("profile db superseded; write refused");
      ++writes_rejected_;
      writes_rejected_counter_->Increment();
      Supersede("store reservation");
    } else if (config_.quorum_write_gate && !quorate) {
      // Minority side: refusing here (rather than committing and hoping) is
      // what makes "no minority partition ever acknowledges a write" hold.
      status = UnavailableError("profile db not quorate; write refused");
      ++writes_rejected_;
      writes_rejected_counter_->Increment();
    } else {
      ++writes_;
      if (!quorate) {
        // Only reachable with the gate off (the pre-quorum baseline): a
        // minority-side commit the campaign invariant flags as a violation.
        writes_nonquorate_->Increment();
      }
      store_->Put(put->profile.user_id(), put->profile.Serialize());
    }
    if (put->reply_to.valid()) {
      auto ack = std::make_shared<ProfilePutAckPayload>();
      ack->op_id = put->op_id;
      ack->status = status;
      Message out;
      out.dst = put->reply_to;
      out.type = kMsgProfilePutAck;
      out.transport = Transport::kReliable;
      out.size_bytes = 64;
      out.payload = ack;
      Send(std::move(out));
    }
  });
}

}  // namespace sns
