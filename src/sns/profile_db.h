// The user-profile database process: the deliberately ACID component (§3.1.4).
//
// TranSend used gdbm; "user preference reads are much more frequent than writes,
// and the reads are absorbed by a write-through cache in the front end." Writes pay
// a WAL commit (fsync) latency; the store survives process crashes by log replay.

#ifndef SRC_SNS_PROFILE_DB_H_
#define SRC_SNS_PROFILE_DB_H_


#include "src/cluster/process.h"
#include "src/quorum/fencing.h"
#include "src/quorum/membership.h"
#include "src/sns/config.h"
#include "src/sns/manager_follower.h"
#include "src/sns/messages.h"
#include "src/store/kvstore.h"
#include "src/tacc/profile.h"

namespace sns {

struct ProfileDbConfig {
  SimDuration read_latency = Microseconds(400);   // Index lookup, page cached.
  SimDuration commit_latency = Milliseconds(6);   // WAL append + fsync.
  // Incarnation number, allocated monotonically by the launcher across fenced
  // failovers. 0 (unit tests, hand-built processes) disables generation fencing.
  uint64_t generation = 0;
  // Quorum oracle (owned by SnsSystem). When set, every commit runs a regroup
  // round from the DB's node at the commit instant; a write applied while
  // non-quorate bumps profiledb.writes_nonquorate, and with `quorum_write_gate`
  // set it is refused outright (nacked, nothing hits the store). Null keeps the
  // pre-quorum behavior.
  MembershipService* membership = nullptr;
  bool quorum_write_gate = false;
  // SCSI-reserve analog on the shared store: a commit from an incarnation that
  // lost the reservation to a newer generation is refused and the stale
  // incarnation self-demotes. Null = unreserved store.
  StoreReservation* reservation = nullptr;
};

class ProfileDbProcess : public Process {
 public:
  // The KvStore outlives the process (it is the "disk"): on a crash+respawn the new
  // incarnation recovers from the same store's WAL.
  ProfileDbProcess(const SnsConfig& sns_config, const ProfileDbConfig& config, KvStore* store);

  void OnStart() override;
  void OnMessage(const Message& msg) override;

  const ManagerFollower& follower() const { return follower_; }
  int64_t reads() const { return reads_; }
  int64_t writes() const { return writes_; }
  int64_t writes_rejected() const { return writes_rejected_; }
  uint64_t generation() const { return config_.generation; }

 private:
  void HandleGet(const Message& msg);
  void HandlePut(const Message& msg);
  void Heartbeat();
  // A current-epoch beacon advertised a newer DB generation: this incarnation
  // was failed over while stranded. Stop serving and self-crash (deferred).
  void Supersede(const char* evidence);

  ProfileDbConfig config_;
  KvStore* store_;
  ManagerFollower follower_;
  bool superseded_ = false;
  int64_t reads_ = 0;
  int64_t writes_ = 0;
  int64_t writes_rejected_ = 0;
  Counter* writes_nonquorate_ = nullptr;
  Counter* writes_rejected_counter_ = nullptr;
  Counter* superseded_counter_ = nullptr;
};

}  // namespace sns

#endif  // SRC_SNS_PROFILE_DB_H_
