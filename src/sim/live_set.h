// The simulator's live set: which process ids are alive, with O(1)
// membership and count and O(log N) order statistics.
//
// One bit per id in 64-bit words, plus a Fenwick (binary indexed) tree
// over the per-word popcounts.  nth(k) — "the k-th live id in id order"
// — descends the tree to the word holding it, then selects the bit
// inside that word; rank(id) is a prefix sum plus one masked popcount.
// This is what keeps the Get_Contact_Node() oracle O(log N) per join:
// it draws an index into the live set and asks for that peer.  Iteration
// (for_each) walks the words and visits ids in ascending order, the
// order nth() and rank() count in.
#ifndef DRT_SIM_LIVE_SET_H
#define DRT_SIM_LIVE_SET_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/expect.h"

namespace drt::sim {

class live_set {
 public:
  std::size_t count() const { return count_; }

  bool contains(std::uint32_t id) const {
    const std::size_t w = id >> 6;
    return w < words_.size() && ((words_[w] >> (id & 63)) & 1) != 0;
  }

  /// Mark `id` alive (no-op when it already is).  Ids may arrive in any
  /// order; the word array and the tree grow to cover them.
  void insert(std::uint32_t id) {
    const std::size_t w = id >> 6;
    if (w >= words_.size()) grow(w + 1);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((words_[w] & bit) != 0) return;
    words_[w] |= bit;
    ++count_;
    for (std::size_t i = w + 1; i < tree_.size(); i += i & (0 - i)) {
      ++tree_[i];
    }
  }

  /// Mark `id` dead (no-op when it is not alive).
  void erase(std::uint32_t id) {
    if (!contains(id)) return;
    const std::size_t w = id >> 6;
    words_[w] &= ~(std::uint64_t{1} << (id & 63));
    --count_;
    for (std::size_t i = w + 1; i < tree_.size(); i += i & (0 - i)) {
      --tree_[i];
    }
  }

  /// Live ids strictly below `id`.
  std::size_t rank(std::uint32_t id) const {
    std::size_t w = id >> 6;
    if (w >= words_.size()) return count_;
    std::size_t r = static_cast<std::size_t>(std::popcount(
        words_[w] & ((std::uint64_t{1} << (id & 63)) - 1)));
    for (; w > 0; w -= w & (0 - w)) r += tree_[w];
    return r;
  }

  /// The k-th live id in ascending id order (k is 0-based, < count()).
  std::uint32_t nth(std::size_t k) const {
    DRT_EXPECT(k < count_);
    // Fenwick descent: tree_ has a power-of-two capacity, so every probe
    // below stays in range and lands on the word holding the k-th bit.
    std::size_t pos = 0;
    for (std::size_t step = tree_.size() / 2; step > 0; step >>= 1) {
      if (tree_[pos + step] <= k) {
        pos += step;
        k -= tree_[pos];
      }
    }
    return static_cast<std::uint32_t>(pos * 64 + select(words_[pos], k));
  }

  /// Visit every live id in ascending order.  The visitor may return
  /// void, or bool with false meaning "stop early".
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const auto id =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        if constexpr (std::is_void_v<std::invoke_result_t<Fn&,
                                                          std::uint32_t>>) {
          fn(id);
        } else {
          if (!fn(id)) return;
        }
      }
    }
  }

 private:
  /// Index of the k-th set bit of `x` (k < popcount(x)): narrow by
  /// halves, 32/16/8/4/2/1 bits at a time.
  static unsigned select(std::uint64_t x, std::size_t k) {
    unsigned base = 0;
    for (unsigned half = 32; half > 0; half >>= 1) {
      const std::uint64_t low = x & ((std::uint64_t{1} << half) - 1);
      const auto n = static_cast<std::size_t>(std::popcount(low));
      if (k >= n) {
        k -= n;
        x >>= half;
        base += half;
      } else {
        x = low;
      }
    }
    return base;
  }

  /// Cover `words` words.  The tree's capacity doubles and is rebuilt in
  /// O(capacity) when it runs out, so growth is amortized O(1) per word.
  void grow(std::size_t words) {
    words_.resize(words, 0);
    if (words < tree_.size()) return;
    std::size_t cap = tree_.size() > 1 ? tree_.size() - 1 : 1;
    while (cap < words) cap *= 2;
    tree_.assign(cap + 1, 0);
    for (std::size_t i = 1; i <= cap; ++i) {
      if (i <= words_.size()) {
        tree_[i] += static_cast<std::uint32_t>(std::popcount(words_[i - 1]));
      }
      const std::size_t parent = i + (i & (0 - i));
      if (parent <= cap) tree_[parent] += tree_[i];
    }
  }

  std::vector<std::uint64_t> words_;   ///< bit id%64 of word id/64
  std::vector<std::uint32_t> tree_;    ///< Fenwick, 1-based, 2^j + 1 slots
  std::size_t count_ = 0;
};

}  // namespace drt::sim

#endif  // DRT_SIM_LIVE_SET_H
