// Consistent hashing of a key space across cache partitions.
//
// Paper §3.1.5: "the manager stub can manage a number of separate cache nodes as a
// single virtual cache, hashing the key space across the separate caches and
// automatically re-hashing when cache nodes are added or removed." A ring with
// virtual nodes keeps the re-hashed fraction near 1/n on membership change.

#ifndef SRC_STORE_CONSISTENT_HASH_H_
#define SRC_STORE_CONSISTENT_HASH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace sns {

class ConsistentHashRing {
 public:
  // Maps (member, vnode) to a ring point. Injectable so tests can force point
  // collisions deterministically; production rings use the default FNV mix.
  using PointHashFn = std::function<uint64_t(int64_t member, int vnode)>;

  // vnodes: virtual points per member; more points = smoother balance.
  explicit ConsistentHashRing(int vnodes = 64) : vnodes_(vnodes) {}
  ConsistentHashRing(int vnodes, PointHashFn point_hash)
      : vnodes_(vnodes), point_hash_(std::move(point_hash)) {}

  void AddMember(int64_t member);
  void RemoveMember(int64_t member);
  bool HasMember(int64_t member) const { return members_.count(member) > 0; }
  size_t PointCount() const { return ring_.size(); }
  std::vector<int64_t> Members() const;

  // Member owning `key`; nullopt when the ring is empty.
  std::optional<int64_t> Lookup(const std::string& key) const;
  std::optional<int64_t> LookupHash(uint64_t hash) const;

  // The first `n` distinct members encountered clockwise from the key's position —
  // usable for replication / failover chains.
  std::vector<int64_t> LookupN(const std::string& key, size_t n) const;

 private:
  uint64_t PointHash(int64_t member, int vnode) const;

  int vnodes_;
  PointHashFn point_hash_;  // Empty = default FNV point hash.
  std::set<int64_t> members_;
  // Ring points ordered by (point, member). Keying on the pair makes insertion
  // collision-safe: two members whose vnodes hash to the same point both keep
  // their entries (deterministically tie-broken by member id), and removal
  // erases exactly the departing member's points. A plain point->member map
  // silently dropped one side of every collision, and RemoveMember then deleted
  // the survivor's vnode for good.
  std::set<std::pair<uint64_t, int64_t>> ring_;
};

}  // namespace sns

#endif  // SRC_STORE_CONSISTENT_HASH_H_
