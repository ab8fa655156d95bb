// Content hashing for cache keys.
//
// HashStream accumulates a 128-bit digest of the byte stream fed into it.
// The schedule caches key on digests of (distribution descriptor, regions,
// method), so a key collision would silently alias two different
// communication schedules; 128 bits keeps that probability negligible at
// any realistic cache population.  The hash is deterministic across runs
// and hosts — part of the reproduction contract, like Rng.
//
// Construction: the stream is read as little-endian 64-bit words, and each
// word feeds two independent multiply–rotate lanes (xxHash64's round in
// lane a; another prime pair and rotation in lane b), so index lists and
// blob payloads digest a word per round, not a byte.  A partial word is
// buffered, so the digest depends only on the concatenated bytes, however
// bytes/pod/podSpan/str calls cut them; the trailing partial word is
// zero-padded, and the total length folded into the finalizer keeps a
// stream apart from its zero-padded extension.  Call boundaries leave no
// trace: ("ab") and ("a", "b") stay apart only because str and podSpan
// prefix their length.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>

namespace mc {

class HashStream {
 public:
  using Digest = std::array<std::uint64_t, 2>;

  void bytes(const void* data, std::size_t n) {
    if (n == 0) return;
    const auto* p = static_cast<const unsigned char*>(data);
    len_ += n;
    if (fill_ != 0) {
      const std::size_t take = n < kWord - fill_ ? n : kWord - fill_;
      std::memcpy(pending_.data() + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ < kWord) return;
      round(a_, b_, load(pending_.data()));
      fill_ = 0;
    }
    std::uint64_t a = a_;
    std::uint64_t b = b_;
    for (; n >= kWord; n -= kWord, p += kWord) round(a, b, load(p));
    a_ = a;
    b_ = b;
    std::memcpy(pending_.data(), p, n);
    fill_ = n;
  }

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(T));
  }

  template <typename T>
  void podSpan(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }

  void str(std::string_view s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }

  Digest digest() const {
    std::uint64_t a = a_;
    std::uint64_t b = b_;
    if (fill_ != 0) {
      std::array<unsigned char, kWord> last{};
      std::memcpy(last.data(), pending_.data(), fill_);
      round(a, b, load(last.data()));
    }
    Digest d{a ^ len_, b + 0x9e3779b97f4a7c15ULL * (len_ + 1)};
    d[0] = mix(d[0]);
    d[1] = mix(d[1] ^ d[0]);
    return d;
  }

 private:
  static constexpr std::size_t kWord = sizeof(std::uint64_t);

  static std::uint64_t load(const unsigned char* p) {
    std::uint64_t w = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&w, p, kWord);
    } else {
      for (std::size_t i = kWord; i-- > 0;) w = (w << 8) | p[i];
    }
    return w;
  }

  static void round(std::uint64_t& a, std::uint64_t& b, std::uint64_t w) {
    a = std::rotl(a + w * 0xc2b2ae3d27d4eb4fULL, 31) * 0x9e3779b185ebca87ULL;
    b = std::rotl(b + w * 0x85ebca77c2b2ae63ULL, 27) * 0x165667b19e3779f9ULL;
  }

  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t a_ = 0xcbf29ce484222325ULL;
  std::uint64_t b_ = 0x84222325cbf29ce4ULL;
  std::uint64_t len_ = 0;
  std::array<unsigned char, kWord> pending_{};  // the partial word
  std::size_t fill_ = 0;                        // bytes held in pending_
};

}  // namespace mc
