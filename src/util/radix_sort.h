// Radix sort for index lists.
//
// The adaptive-epoch helpers sort lists of global indices, and the Chaos
// inspector sorts dereference batches of (global, position) pairs: keys
// that are non-negative and bounded by the array size.  A stable LSD radix
// sort with 11-bit digits orders such a list in as many counting passes as
// its largest key needs (two for keys below 2^22), against the O(n log n)
// comparisons of std::sort.  Bare keys come out in exactly std::sort's
// order; items carrying a payload keep their input order among equal keys,
// so pairs listed with ascending positions come out in std::sort's pair
// order.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace mc {

/// Sorts `items` ascending by `keyOf(item)` in place, stably.  Every key
/// must be non-negative (mc::Error otherwise, and `items` is left
/// unchanged); the number of passes is the number of 11-bit digits of the
/// largest key.  The default projection sorts bare keys.
template <typename Item, typename KeyOf = std::identity>
void radixSort(std::vector<Item>& items, KeyOf keyOf = {}) {
  using T = std::remove_cvref_t<std::invoke_result_t<KeyOf&, const Item&>>;
  static_assert(std::is_integral_v<T> && std::is_signed_v<T>,
                "index keys are signed; the sort rejects negative ones");
  using U = std::make_unsigned_t<T>;
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr U kMask = static_cast<U>(kBuckets - 1);
  const auto key = [&keyOf](const Item& item) {
    return static_cast<U>(keyOf(item));
  };
  U top = 0;
  for (const Item& item : items) {
    const T k = keyOf(item);
    MC_REQUIRE(k >= 0, "radix sort key %lld is negative",
               static_cast<long long>(k));
    top |= static_cast<U>(k);
  }
  if (top == 0) return;  // no items, or all keys zero
  std::vector<Item> scratch(items.size());
  std::array<std::size_t, kBuckets> start{};
  constexpr int kKeyBits = std::numeric_limits<U>::digits;
  for (int shift = 0; shift < kKeyBits && (top >> shift) != 0;
       shift += kDigitBits) {
    start.fill(0);
    for (const Item& item : items) ++start[(key(item) >> shift) & kMask];
    std::size_t sum = 0;
    for (std::size_t& s : start) {
      const std::size_t c = s;
      s = sum;
      sum += c;
    }
    for (const Item& item : items) {
      scratch[start[(key(item) >> shift) & kMask]++] = item;
    }
    items.swap(scratch);
  }
}

}  // namespace mc
