// Open-addressing hash map keyed by uint64. Its users: the simulator's
// in-flight table of cache transfers (sim/simulator.hpp), the disk model's
// per-file base addresses (sim/storage.hpp), the buffer cache's pid -> owner
// table and per-file state (read-ahead detector and finger, sim/cache.hpp),
// and the test-only per-block ReferenceCache (tests/reference_cache.hpp).
// The buffer cache keeps its ordered anchor index in util::SortedMap64.
//
// Compared to std::unordered_map this stores slots in one flat array (no
// per-node allocation) and probes linearly (cache-friendly). erase() uses
// backward-shift deletion: the entries after the erased slot that probed
// past it move back, so the table never holds tombstones. A steady
// insert/erase workload — exactly what the in-flight table does once per
// cache transfer — therefore never rehashes; the table allocates only when
// the live population grows past three quarters of its slots.
//
// Contract: pointers returned by find()/emplace() are invalidated by any
// subsequent emplace() (rehash) or erase() (backward shift) — use them
// immediately, don't hold them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace craysim::util {

/// Finalizer of splitmix64: cheap, well-mixed 64-bit hash.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename V>
class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` live entries without rehashing on the way.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;  // keep load factor <= 0.75
    if (cap > slots_.size()) rehash(cap);
  }

  [[nodiscard]] V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key, mask);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.full) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Inserts `key` if absent (value-initialized) and returns its value slot.
  V& emplace(std::uint64_t key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(key, mask);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.full) {
        slot.full = true;
        slot.key = key;
        slot.value = V{};
        ++size_;
        return slot.value;
      }
      if (slot.key == key) return slot.value;
    }
  }

  bool erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = home(key, mask);
    for (;; hole = (hole + 1) & mask) {
      if (!slots_[hole].full) return false;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: walk the probe run after the hole and move back every
    // entry whose probe path crosses it, so find() never meets a gap before
    // its key.
    for (std::size_t i = (hole + 1) & mask; slots_[i].full; i = (i + 1) & mask) {
      const std::size_t want = home(slots_[i].key, mask);
      if (((hole - want) & mask) < ((i - want) & mask)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole].full = false;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool full = false;
  };
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] static std::size_t home(std::uint64_t key, std::size_t mask) {
    return static_cast<std::size_t>(mix64(key)) & mask;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    const std::size_t mask = new_capacity - 1;
    for (Slot& slot : old) {
      if (!slot.full) continue;
      std::size_t i = home(slot.key, mask);
      while (slots_[i].full) i = (i + 1) & mask;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace craysim::util
