#include "src/sns/manager_follower.h"

#include <algorithm>
#include <memory>

namespace sns {

ManagerFollower::Verdict ManagerFollower::Follow(const ManagerBeaconPayload& beacon) {
  if (epoch_fencing_ && beacon.epoch < epoch_) {
    // After a partition heals, the stranded manager may beacon a few more times
    // before it demotes; acting on those would flap every view back.
    ++fenced_beacons_;
    return Verdict::kStale;
  }
  epoch_ = beacon.epoch;
  if (beacon.manager == manager_) {
    return Verdict::kSame;
  }
  manager_ = beacon.manager;
  return Verdict::kNew;
}

template <typename P>
std::optional<Message> ManagerFollower::Stamp(std::shared_ptr<P> payload, const Endpoint& self,
                                              uint32_t type, Transport transport,
                                              int64_t base_bytes) const {
  if (!known()) {
    return std::nullopt;
  }
  payload->kind = identity_.kind;
  payload->worker_type = identity_.worker_type;
  payload->component = self;
  payload->interchangeable = identity_.interchangeable;
  payload->fe_index = identity_.fe_index;
  payload->manager_epoch = epoch_;
  payload->component_generation = identity_.generation;
  Message msg;
  msg.dst = manager_;
  msg.type = type;
  msg.transport = transport;
  msg.size_bytes = base_bytes + static_cast<int64_t>(identity_.worker_type.size());
  msg.payload = std::move(payload);
  return msg;
}

std::optional<Message> ManagerFollower::Registration(const Endpoint& self) const {
  return Stamp(std::make_shared<RegisterComponentPayload>(), self, kMsgRegisterComponent,
               Transport::kReliable, 96);
}

std::optional<Message> ManagerFollower::LoadReport(const Endpoint& self, double queue_length,
                                                   int64_t completed_tasks) const {
  auto report = std::make_shared<LoadReportPayload>();
  report->queue_length = queue_length;
  report->completed_tasks = completed_tasks;
  return Stamp(std::move(report), self, kMsgLoadReport, Transport::kDatagram, 80);
}

uint64_t SyncCacheRing(std::vector<Endpoint> beaconed, std::vector<Endpoint>* members,
                       ConsistentHashRing* ring) {
  std::sort(beaconed.begin(), beaconed.end(), [](const Endpoint& a, const Endpoint& b) {
    return a.node != b.node ? a.node < b.node : a.port < b.port;
  });
  uint64_t changes = 0;
  for (const Endpoint& ep : *members) {
    if (std::find(beaconed.begin(), beaconed.end(), ep) == beaconed.end()) {
      ring->RemoveMember(CacheRingMemberId(ep));
      ++changes;
    }
  }
  for (const Endpoint& ep : beaconed) {
    if (!ring->HasMember(CacheRingMemberId(ep))) {
      ring->AddMember(CacheRingMemberId(ep));
      ++changes;
    }
  }
  *members = std::move(beaconed);
  return changes;
}

}  // namespace sns
