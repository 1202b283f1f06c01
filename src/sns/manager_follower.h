// The component side of the soft-state protocol (paper §3.1.3): every component
// learns the manager from its beacons, registers with each new incarnation and
// re-reports its load on a timer, so a restarted manager rebuilds its state with
// no recovery code. ManagerFollower is that one membership rule (MSCS-style),
// shared by the front end's stub, workers, cache nodes, the profile DB and the
// monitor, plus the stamping of what a component sends the manager.

#ifndef SRC_SNS_MANAGER_FOLLOWER_H_
#define SRC_SNS_MANAGER_FOLLOWER_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sns/messages.h"
#include "src/store/consistent_hash.h"

namespace sns {

// A component as the manager's soft state records it; fixed for the component's
// life, so its registrations and load reports all carry the same.
struct ComponentIdentity {
  ComponentKind kind = ComponentKind::kWorker;
  std::string worker_type{};  // Workers only: the TACC class.
  bool interchangeable = true;
  int fe_index = -1;
  uint64_t generation = 0;  // Profile DB incarnation.
};

class ManagerFollower {
 public:
  enum class Verdict {
    kStale,  // Lower epoch than the highest accepted (fencing on): ignore it.
    kSame,   // The followed manager; its epoch is adopted.
    kNew,    // A new manager endpoint (first sighting or restart): re-register.
  };

  ManagerFollower(bool epoch_fencing, ComponentIdentity identity)
      : epoch_fencing_(epoch_fencing), identity_(std::move(identity)) {}

  Verdict Follow(const ManagerBeaconPayload& beacon);

  bool known() const { return manager_.valid(); }
  const Endpoint& manager() const { return manager_; }
  // Epoch of the last accepted beacon, stamped onto registrations and reports so a
  // stale manager hearing them learns it has been superseded.
  uint64_t epoch() const { return epoch_; }
  uint64_t fenced_beacons() const { return fenced_beacons_; }

  // Registration (reliable) and load report (best-effort datagram: soft state
  // tolerates loss) to the followed manager from `self`, stamped with the epoch
  // and this component's identity; 96 B and 80 B plus the worker type.
  // nullopt while no manager is known.
  std::optional<Message> Registration(const Endpoint& self) const;
  std::optional<Message> LoadReport(const Endpoint& self, double queue_length,
                                    int64_t completed_tasks) const;

 private:
  template <typename P>
  std::optional<Message> Stamp(std::shared_ptr<P> payload, const Endpoint& self,
                               uint32_t type, Transport transport, int64_t base_bytes) const;

  bool epoch_fencing_;
  ComponentIdentity identity_;
  Endpoint manager_;
  uint64_t epoch_ = 0;
  uint64_t fenced_beacons_ = 0;
};

// The one cache-ring mirror, shared by the manager stub and every cache node so
// all derive identical replica chains: makes `ring` and `members` (sorted by
// node, port) match the beaconed membership, adding and removing only the nodes
// that changed so survivors keep their keys. Returns joins plus leaves.
uint64_t SyncCacheRing(std::vector<Endpoint> beaconed, std::vector<Endpoint>* members,
                       ConsistentHashRing* ring);

}  // namespace sns

#endif  // SRC_SNS_MANAGER_FOLLOWER_H_
