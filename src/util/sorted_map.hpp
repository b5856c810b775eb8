// Ordered map from uint64 keys to uint32 values, tuned for the buffer
// cache's extent index (first block key -> extent slot).
//
// A two-level B+-tree: a directory of leaf first keys over sorted leaves of
// at most kLeafMax entries. A lookup binary-searches two contiguous arrays
// instead of chasing a red-black tree's pointers, and an insert or erase
// shifts entries inside one leaf instead of allocating or freeing a node.
// Leaves that fall under a quarter full merge with a neighbour, so the
// directory stays within a small multiple of size() / kLeafMax entries.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

namespace craysim::util {

class SortedMap64 {
 public:
  static constexpr std::uint32_t kNoValue = 0xffffffffu;
  static constexpr std::uint64_t kNoKey = std::numeric_limits<std::uint64_t>::max();

  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
  };

  /// What surrounds a probe key: the value of the greatest key <= it
  /// (kNoValue when none) and the least key > it (kNoKey when none).
  struct Around {
    std::uint32_t floor = kNoValue;
    std::uint64_t next = kNoKey;
  };

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] Around around(std::uint64_t key) const {
    Around result;
    const std::size_t dir = upper(firsts_, key);
    if (dir == 0) {
      if (!firsts_.empty()) result.next = firsts_.front();
      return result;
    }
    const Leaf& leaf = *leaves_[dir - 1];
    // The leaf's first key is <= key, so `at` is past the beginning.
    const std::size_t at = upper(leaf.keys, key);
    result.floor = leaf.values[at - 1];
    if (at < leaf.keys.size()) {
      result.next = leaf.keys[at];
    } else if (dir < firsts_.size()) {
      result.next = firsts_[dir];
    }
    return result;
  }

  /// The entry with the least key >= `key`, if any.
  [[nodiscard]] std::optional<Entry> ceil(std::uint64_t key) const {
    if (firsts_.empty()) return std::nullopt;
    const std::size_t i = leaf_index(key);
    const Leaf& leaf = *leaves_[i];
    std::size_t at = upper(leaf.keys, key);
    if (at > 0 && leaf.keys[at - 1] == key) --at;
    if (at < leaf.keys.size()) return Entry{leaf.keys[at], leaf.values[at]};
    if (i + 1 < leaves_.size()) return Entry{firsts_[i + 1], leaves_[i + 1]->values.front()};
    return std::nullopt;
  }

  /// Adds `key`, which must be absent.
  void insert(std::uint64_t key, std::uint32_t value) {
    ++size_;
    if (firsts_.empty()) {
      firsts_.push_back(key);
      leaves_.push_back(std::make_unique<Leaf>(Leaf{{key}, {value}}));
      return;
    }
    const std::size_t i = leaf_index(key);
    Leaf& leaf = *leaves_[i];
    const std::size_t at = upper(leaf.keys, key);
    assert(at == 0 || leaf.keys[at - 1] != key);
    leaf.keys.insert(leaf.keys.begin() + static_cast<std::ptrdiff_t>(at), key);
    leaf.values.insert(leaf.values.begin() + static_cast<std::ptrdiff_t>(at), value);
    if (at == 0) firsts_[i] = key;
    if (leaf.keys.size() > kLeafMax) split(i);
  }

  /// Removes `key`, which must be present.
  void erase(std::uint64_t key) {
    const std::size_t i = leaf_index(key);
    Leaf& leaf = *leaves_[i];
    const std::size_t at = position(leaf, key);
    leaf.keys.erase(leaf.keys.begin() + static_cast<std::ptrdiff_t>(at));
    leaf.values.erase(leaf.values.begin() + static_cast<std::ptrdiff_t>(at));
    --size_;
    if (leaf.keys.empty()) {
      drop_leaf(i);
      return;
    }
    if (at == 0) firsts_[i] = leaf.keys.front();
    if (leaf.keys.size() < kLeafMax / 4) {
      if (i + 1 < leaves_.size() && fits(i)) {
        merge(i);
      } else if (i > 0 && fits(i - 1)) {
        merge(i - 1);
      }
    }
  }

  /// Changes present key `from` to `to`. No other key may lie between them,
  /// so the order is unchanged.
  void rekey(std::uint64_t from, std::uint64_t to) {
    const std::size_t i = leaf_index(from);
    Leaf& leaf = *leaves_[i];
    const std::size_t at = position(leaf, from);
    assert(at + 1 < leaf.keys.size() ? to < leaf.keys[at + 1]
                                     : i + 1 == firsts_.size() || to < firsts_[i + 1]);
    leaf.keys[at] = to;
    if (at == 0) firsts_[i] = to;
  }

 private:
  static constexpr std::size_t kLeafMax = 128;

  struct Leaf {
    std::vector<std::uint64_t> keys;    ///< ascending
    std::vector<std::uint32_t> values;  ///< values[i] belongs to keys[i]
  };

  /// Index of the first of `keys` greater than `key` (keys.size() when none).
  [[nodiscard]] static std::size_t upper(const std::vector<std::uint64_t>& keys,
                                         std::uint64_t key) {
    return static_cast<std::size_t>(std::upper_bound(keys.begin(), keys.end(), key) -
                                    keys.begin());
  }

  /// The leaf whose key range holds `key`: the last one whose first key is
  /// <= key, or the first leaf. Pre-condition: not empty.
  [[nodiscard]] std::size_t leaf_index(std::uint64_t key) const {
    const std::size_t dir = upper(firsts_, key);
    return dir == 0 ? 0 : dir - 1;
  }

  /// Where present key `key` sits in `leaf`.
  [[nodiscard]] static std::size_t position(const Leaf& leaf, std::uint64_t key) {
    const std::size_t at = upper(leaf.keys, key);
    assert(at > 0 && leaf.keys[at - 1] == key);
    return at - 1;
  }

  void split(std::size_t i) {
    Leaf& leaf = *leaves_[i];
    const auto half = static_cast<std::ptrdiff_t>(leaf.keys.size() / 2);
    auto back = std::make_unique<Leaf>();
    back->keys.assign(leaf.keys.begin() + half, leaf.keys.end());
    back->values.assign(leaf.values.begin() + half, leaf.values.end());
    leaf.keys.resize(static_cast<std::size_t>(half));
    leaf.values.resize(static_cast<std::size_t>(half));
    const auto at = static_cast<std::ptrdiff_t>(i) + 1;
    firsts_.insert(firsts_.begin() + at, back->keys.front());
    leaves_.insert(leaves_.begin() + at, std::move(back));
  }

  /// Do leaves i and i + 1 fit in one leaf?
  [[nodiscard]] bool fits(std::size_t i) const {
    return leaves_[i]->keys.size() + leaves_[i + 1]->keys.size() <= kLeafMax;
  }

  /// Folds leaf i + 1 into leaf i.
  void merge(std::size_t i) {
    Leaf& front = *leaves_[i];
    const Leaf& back = *leaves_[i + 1];
    front.keys.insert(front.keys.end(), back.keys.begin(), back.keys.end());
    front.values.insert(front.values.end(), back.values.begin(), back.values.end());
    drop_leaf(i + 1);
  }

  void drop_leaf(std::size_t i) {
    const auto at = static_cast<std::ptrdiff_t>(i);
    firsts_.erase(firsts_.begin() + at);
    leaves_.erase(leaves_.begin() + at);
  }

  std::vector<std::uint64_t> firsts_;          ///< first key of each leaf, ascending
  std::vector<std::unique_ptr<Leaf>> leaves_;  ///< same order as firsts_
  std::size_t size_ = 0;
};

}  // namespace craysim::util
