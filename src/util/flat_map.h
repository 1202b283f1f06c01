// Open-addressing hash map for integer keys on simulator hot paths.
//
// The SAN resolves a message handler on every single delivery; with
// std::unordered_map that lookup is a bucket-pointer chase per hop. FlatMap
// stores control+slots in one flat array with linear probing, so the common
// hit touches one or two cache lines. Deliberately minimal: integer keys only,
// no iterator stability across rehash, values must be movable. Iteration order
// is unspecified — callers needing deterministic order must sort (the SAN only
// iterates for shutdown-style bookkeeping, never on delivery paths).

#ifndef SRC_UTIL_FLAT_MAP_H_
#define SRC_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace sns {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K> && sizeof(K) <= 8,
                "FlatMap supports integer keys only");

 public:
  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Inserts or overwrites.
  void Set(K key, V value) {
    if ((size_ + tombstones_ + 1) * 4 >= capacity() * 3) Grow();
    size_t i = FindSlot(key);
    Slot& s = slots_[i];
    if (s.state == kFull) {
      s.value = std::move(value);
      return;
    }
    if (s.state == kTombstone) --tombstones_;
    s.state = kFull;
    s.key = key;
    s.value = std::move(value);
    ++size_;
  }

  V* Find(K key) {
    if (capacity() == 0) return nullptr;
    size_t mask = capacity() - 1;
    size_t i = Hash(key) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.state == kEmpty) return nullptr;
      if (s.state == kFull && s.key == key) return &s.value;
      i = (i + 1) & mask;
    }
  }
  const V* Find(K key) const { return const_cast<FlatMap*>(this)->Find(key); }

  bool Erase(K key) {
    if (capacity() == 0) return false;
    size_t mask = capacity() - 1;
    size_t i = Hash(key) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.state == kEmpty) return false;
      if (s.state == kFull && s.key == key) {
        s.state = kTombstone;
        s.value = V();
        --size_;
        ++tombstones_;
        return true;
      }
      i = (i + 1) & mask;
    }
  }

  void Clear() {
    slots_.clear();
    size_ = 0;
    tombstones_ = 0;
  }

 private:
  enum State : uint8_t { kEmpty = 0, kTombstone, kFull };
  struct Slot {
    K key{};
    V value{};
    State state = kEmpty;
  };

  size_t capacity() const { return slots_.size(); }

  static size_t Hash(K key) {
    // splitmix64 finalizer: cheap, full-avalanche mixing for sequential ids.
    uint64_t x = static_cast<uint64_t>(key);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }

  // First matching-or-insertable slot for `key` (prefers a tombstone on miss).
  size_t FindSlot(K key) const {
    size_t mask = capacity() - 1;
    size_t i = Hash(key) & mask;
    size_t first_tomb = SIZE_MAX;
    while (true) {
      const Slot& s = slots_[i];
      if (s.state == kFull && s.key == key) return i;
      if (s.state == kTombstone && first_tomb == SIZE_MAX) first_tomb = i;
      if (s.state == kEmpty) return first_tomb != SIZE_MAX ? first_tomb : i;
      i = (i + 1) & mask;
    }
  }

  void Grow() {
    size_t new_cap = capacity() == 0 ? 16 : capacity() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    size_ = 0;
    tombstones_ = 0;
    for (Slot& s : old) {
      if (s.state == kFull) Set(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace sns

#endif  // SRC_UTIL_FLAT_MAP_H_
