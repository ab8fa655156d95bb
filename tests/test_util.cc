// Unit tests for src/util.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/format.h"
#include "util/hash.h"
#include "util/radix_sort.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace mc {
namespace {

TEST(Format, Basic) {
  EXPECT_EQ(strprintf("x=%d y=%s", 7, "ab"), "x=7 y=ab");
  EXPECT_EQ(strprintf("%.2f", 1.2345), "1.23");
}

TEST(Format, Empty) { EXPECT_EQ(strprintf("%s", ""), ""); }

TEST(Format, Long) {
  std::string big(10000, 'z');
  EXPECT_EQ(strprintf("%s", big.c_str()).size(), 10000u);
}

TEST(Error, RequirePassesThrough) {
  EXPECT_NO_THROW(MC_REQUIRE(1 + 1 == 2));
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    MC_REQUIRE(false, "bad value %d", 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad value 42"), std::string::npos);
    EXPECT_NE(what.find("requirement failed"), std::string::npos);
  }
}

TEST(Error, RequireThrowsWithoutMessage) {
  EXPECT_THROW(MC_REQUIRE(false), Error);
}

TEST(Stats, EmptyIsExplicit) {
  // An empty accumulator must be distinguishable from a real zero: NaN, not
  // 0.0 (the accounting bug fixed with the observability layer).
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.stddev()));
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(Stats, KnownValues) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(11);
  auto p = r.permutation(257);
  std::vector<bool> seen(257, false);
  for (auto x : p) {
    ASSERT_LT(x, 257u);
    EXPECT_FALSE(seen[x]);
    seen[x] = true;
  }
}

TEST(Rng, PermutationNotIdentity) {
  Rng r(13);
  auto p = r.permutation(100);
  bool moved = false;
  for (std::uint64_t i = 0; i < 100; ++i) moved |= (p[i] != i);
  EXPECT_TRUE(moved);
}

TEST(Table, RendersAligned) {
  AsciiTable t;
  t.header({"method", "P=2", "P=4"});
  t.row({"chaos", "1099", "830"});
  t.row({"meta-chaos", "1509", "832"});
  const std::string out = t.render();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("meta-chaos"), std::string::npos);
  // Columns align: both data rows place "P=2" numbers at the same offset.
  const auto l1 = out.find("1099");
  const auto l2 = out.find("1509");
  const auto row1 = out.rfind('\n', l1);
  const auto row2 = out.rfind('\n', l2);
  EXPECT_EQ(l1 - row1, l2 - row2);
}

TEST(Table, SeparatorLine) {
  AsciiTable t;
  t.row({"a", "b"});
  t.separator();
  t.row({"c", "d"});
  EXPECT_NE(t.render().find("---"), std::string::npos);
}

using KeyPos = std::pair<std::int64_t, std::uint32_t>;

std::int64_t keyOf(const KeyPos& item) { return item.first; }

/// radixSort must give std::sort's order, on bare keys and, sorting by
/// key alone, on (key, position) pairs listed with ascending positions.
void expectSortsLikeStdSort(std::vector<std::int64_t> keys) {
  std::vector<KeyPos> pairs;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    pairs.emplace_back(keys[i], static_cast<std::uint32_t>(i));
  }
  std::vector<KeyPos> wantPairs = pairs;
  std::sort(wantPairs.begin(), wantPairs.end());
  radixSort(pairs, keyOf);
  EXPECT_EQ(pairs, wantPairs);
  std::vector<std::int64_t> want = keys;
  std::sort(want.begin(), want.end());
  radixSort(keys);
  EXPECT_EQ(keys, want);
}

TEST(RadixSort, EmptyAndOneKey) {
  expectSortsLikeStdSort({});
  expectSortsLikeStdSort({0});
  expectSortsLikeStdSort({12345});
}

TEST(RadixSort, SortedReversedAndDuplicates) {
  std::vector<std::int64_t> up(5000);
  for (std::size_t i = 0; i < up.size(); ++i) {
    up[i] = static_cast<std::int64_t>(3 * i);
  }
  expectSortsLikeStdSort(up);
  std::vector<std::int64_t> down(up.rbegin(), up.rend());
  expectSortsLikeStdSort(down);
  expectSortsLikeStdSort({7, 3, 7, 0, 3, 3, 0, 7, 1});
  expectSortsLikeStdSort(std::vector<std::int64_t>(100, 0));
  expectSortsLikeStdSort(std::vector<std::int64_t>(100, 777));
  expectSortsLikeStdSort(std::vector<std::int64_t>(100, std::int64_t{1} << 40));
}

TEST(RadixSort, DuplicateHeavyBatches) {
  Rng rng(23);
  for (const std::uint64_t distinct : {2u, 17u, 300u, 5000u}) {
    std::vector<std::int64_t> keys(6000);
    for (std::int64_t& k : keys) {
      k = static_cast<std::int64_t>(rng.below(distinct));
    }
    expectSortsLikeStdSort(keys);
  }
}

TEST(RadixSort, KeysNeedingOneTwoThreeAndSixPasses) {
  Rng rng(17);
  // Largest key below 2^11 (one pass), below 2^22 (two passes), below 2^33
  // (three passes), and up to INT64_MAX (six passes).
  for (const std::uint64_t bound :
       {std::uint64_t{1} << 11, std::uint64_t{1} << 22, std::uint64_t{1} << 33,
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())}) {
    std::vector<std::int64_t> keys;
    for (int i = 0; i < 3000; ++i) {
      keys.push_back(static_cast<std::int64_t>(rng.below(bound)));
    }
    keys.push_back(static_cast<std::int64_t>(bound - 1));
    keys.push_back(0);
    expectSortsLikeStdSort(keys);
  }
  expectSortsLikeStdSort(
      {std::numeric_limits<std::int64_t>::max(), 0, 1, 1 << 20,
       std::numeric_limits<std::int64_t>::max() - 1});
}

TEST(RadixSort, NegativeKeyThrowsAndLeavesKeys) {
  std::vector<std::int64_t> keys{4, 2, -1, 9};
  const std::vector<std::int64_t> before = keys;
  EXPECT_THROW(radixSort(keys), Error);
  EXPECT_EQ(keys, before);
  std::vector<std::int64_t> one{-5};
  EXPECT_THROW(radixSort(one), Error);
  std::vector<KeyPos> pairs{{4, 0}, {2, 1}, {-1, 2}, {9, 3}};
  const std::vector<KeyPos> pairsBefore = pairs;
  EXPECT_THROW(radixSort(pairs, keyOf), Error);
  EXPECT_EQ(pairs, pairsBefore);
}


/// A 100-byte stream with no repeated word.
std::vector<unsigned char> patternBytes() {
  std::vector<unsigned char> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  return data;
}

/// The digest of `data` fed as pieces cut at the ascending offsets `cuts`,
/// with an empty bytes() call at every cut.
HashStream::Digest digestCut(const std::vector<unsigned char>& data,
                             const std::vector<std::size_t>& cuts) {
  HashStream h;
  std::size_t from = 0;
  for (const std::size_t to : cuts) {
    h.bytes(data.data() + from, to - from);
    h.bytes(data.data() + to, 0);
    from = to;
  }
  h.bytes(data.data() + from, data.size() - from);
  h.bytes(nullptr, 0);
  return h.digest();
}

TEST(HashStream, EveryCutGivesOneDigest) {
  const std::vector<unsigned char> data = patternBytes();
  const HashStream::Digest want = digestCut(data, {});
  // Every one and two cuts, inside words and on their edges.
  for (std::size_t i = 0; i <= data.size(); ++i) {
    EXPECT_EQ(digestCut(data, {i}), want) << "cut at " << i;
    for (std::size_t j = i; j <= data.size(); ++j) {
      ASSERT_EQ(digestCut(data, {i, j}), want) << "cuts at " << i << ", " << j;
    }
  }
  // A byte at a time.
  std::vector<std::size_t> all(data.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  EXPECT_EQ(digestCut(data, all), want);
  // pod and podSpan feed the same bytes as bytes() does.
  HashStream typed;
  std::uint32_t head = 0;
  std::memcpy(&head, data.data(), sizeof(head));
  typed.pod(head);
  typed.pod(data[4]);
  typed.bytes(data.data() + 5, data.size() - 5);
  EXPECT_EQ(typed.digest(), want);
  // digest() reads a copy of the partial word: asking early changes nothing.
  HashStream early;
  early.bytes(data.data(), 13);
  (void)early.digest();
  early.bytes(data.data() + 13, data.size() - 13);
  EXPECT_EQ(early.digest(), want);
}

TEST(HashStream, LengthPrefixesSeparateFields) {
  // The stream has no call boundaries: these are one stream.
  HashStream rawWhole;
  rawWhole.bytes("ab", 2);
  HashStream rawSplit;
  rawSplit.bytes("a", 1);
  rawSplit.bytes("b", 1);
  EXPECT_EQ(rawWhole.digest(), rawSplit.digest());
  // str and podSpan prefix their length, which keeps fields apart.
  HashStream whole;
  whole.str("ab");
  HashStream split;
  split.str("a");
  split.str("b");
  EXPECT_NE(whole.digest(), split.digest());
  const std::vector<std::int64_t> ab{1, 2};
  HashStream spanWhole;
  spanWhole.podSpan(std::span<const std::int64_t>(ab));
  HashStream spanSplit;
  spanSplit.podSpan(std::span<const std::int64_t>(ab).first(1));
  spanSplit.podSpan(std::span<const std::int64_t>(ab).last(1));
  EXPECT_NE(spanWhole.digest(), spanSplit.digest());
  // The length fold keeps a stream apart from its zero-padded extension.
  HashStream empty;
  HashStream zero;
  zero.pod(std::uint8_t{0});
  EXPECT_NE(empty.digest(), zero.digest());
  HashStream a;
  a.bytes("a", 1);
  HashStream aZero;
  aZero.bytes("a\0", 2);
  EXPECT_NE(a.digest(), aZero.digest());
}

// Pinned digests: cache keys, table fingerprints and blob checksums are
// these values, and snapshots persist them, so a compiler or host change
// that moved one would silently re-key every snapshot.
TEST(HashStream, KnownAnswers) {
  const auto digestOf = [](const void* data, std::size_t n) {
    HashStream h;
    h.bytes(data, n);
    return h.digest();
  };
  using D = HashStream::Digest;
  EXPECT_EQ(digestOf(nullptr, 0),
            (D{0xf52a15e9a9b5e89bULL, 0x7716003d5c5baea8ULL}));
  EXPECT_EQ(digestOf("abc", 3),
            (D{0x9f6a94e6cb47493bULL, 0x0ccc9a94b902b02cULL}));
  EXPECT_EQ(digestOf("abcdefgh", 8),
            (D{0xcab92ec623c0e43cULL, 0xf5bf1f51f558b546ULL}));
  EXPECT_EQ(digestOf("mc-blob-payload", 15),
            (D{0xf50855036f168776ULL, 0xb8f653137623d399ULL}));
  const std::vector<unsigned char> data = patternBytes();
  EXPECT_EQ(digestOf(data.data(), data.size()),
            (D{0x39094b848b56cb20ULL, 0x02984a875f64d94aULL}));
}

}  // namespace
}  // namespace mc
