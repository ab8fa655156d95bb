// Radix sort for index lists.
//
// The adaptive-epoch helpers sort lists of global indices: keys that are
// non-negative and bounded by the array size.  A stable LSD radix sort
// with 11-bit digits orders such a list in as many counting passes as its
// largest key needs (two for keys below 2^22), against the O(n log n)
// comparisons of std::sort, and gives exactly std::sort's order.
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace mc {

/// Sorts `keys` ascending in place.  Every key must be non-negative
/// (mc::Error otherwise, and `keys` is left unchanged); the number of
/// passes is the number of 11-bit digits of the largest key.
template <typename T>
void radixSort(std::vector<T>& keys) {
  static_assert(std::is_integral_v<T> && std::is_signed_v<T>,
                "index keys are signed; the sort rejects negative ones");
  using U = std::make_unsigned_t<T>;
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr U kMask = static_cast<U>(kBuckets - 1);
  U top = 0;
  for (const T k : keys) {
    MC_REQUIRE(k >= 0, "radix sort key %lld is negative",
               static_cast<long long>(k));
    top |= static_cast<U>(k);
  }
  if (top == 0) return;  // no keys, or all zero
  std::vector<T> scratch(keys.size());
  std::array<std::size_t, kBuckets> start{};
  constexpr int kKeyBits = std::numeric_limits<U>::digits;
  for (int shift = 0; shift < kKeyBits && (top >> shift) != 0;
       shift += kDigitBits) {
    start.fill(0);
    for (const T k : keys) ++start[(static_cast<U>(k) >> shift) & kMask];
    std::size_t sum = 0;
    for (std::size_t& s : start) {
      const std::size_t c = s;
      s = sum;
      sum += c;
    }
    for (const T k : keys) {
      scratch[start[(static_cast<U>(k) >> shift) & kMask]++] = k;
    }
    keys.swap(scratch);
  }
}

}  // namespace mc
