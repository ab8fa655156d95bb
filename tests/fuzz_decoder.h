// Byte-level fuzz properties for decoders of bytes that arrive from another
// program, a file or a client.
//
//   * Framed blobs (util/blob_io.h): every strict prefix and every
//     single-byte flip must throw mc::Error — the frame covers its header
//     with field checks and its payload with a checksum.
//   * Unframed payloads (region sets, library descriptors, the duplication
//     bundle): every strict prefix must throw mc::Error, and every
//     single-byte flip must either decode or throw mc::Error — never
//     another exception type, and never undefined behaviour (run the
//     suites under the asan/ubsan preset to check the latter).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <span>
#include <vector>

#include "util/error.h"

namespace mc {

/// Every strict prefix of `blob` must be rejected with mc::Error: the
/// reader checks every count against the bytes that remain, so truncation
/// can never crash or trigger a huge allocation.
template <typename ReadFn>
void expectEveryPrefixRejected(const std::vector<std::byte>& blob,
                               ReadFn&& read) {
  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    EXPECT_THROW(read(std::span<const std::byte>(blob.data(), keep)), Error)
        << "kept " << keep << " of " << blob.size() << " bytes";
  }
}

/// Every single-byte corruption of a framed blob must be rejected too.
template <typename ReadFn>
void expectEveryByteFlipRejected(const std::vector<std::byte>& blob,
                                 ReadFn&& read) {
  for (std::size_t at = 0; at < blob.size(); ++at) {
    std::vector<std::byte> bad = blob;
    bad[at] ^= std::byte{0x40};
    EXPECT_THROW(read(bad), Error) << "flipped byte " << at;
  }
}

/// The unframed-payload property: `decode` receives every strict prefix of
/// `blob` (each must throw mc::Error) and every single-byte flip of it with
/// masks 0x01, 0x40 and 0x80 (each must decode or throw mc::Error).
/// `decode` should also use what it decoded the way a caller would (e.g.
/// numElements() on a set), so undefined behaviour there shows under the
/// sanitizers.
template <typename DecodeFn>
void fuzzDecoder(const std::vector<std::byte>& blob, DecodeFn&& decode) {
  expectEveryPrefixRejected(blob, decode);
  for (std::size_t at = 0; at < blob.size(); ++at) {
    for (const std::byte mask :
         {std::byte{0x01}, std::byte{0x40}, std::byte{0x80}}) {
      std::vector<std::byte> bad = blob;
      bad[at] ^= mask;
      try {
        decode(std::span<const std::byte>(bad));
      } catch (const Error&) {
        // Rejected: fine.
      } catch (const std::exception& e) {
        ADD_FAILURE() << "flipping byte " << at << " with mask "
                      << static_cast<int>(mask) << " threw " << e.what();
      }
    }
  }
}

}  // namespace mc
