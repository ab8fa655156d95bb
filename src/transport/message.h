// Message representation for the virtual-processor transport.
#pragma once

#include <cstddef>
#include <vector>

namespace mc::transport {

/// Wildcards for receive matching (MPI_ANY_SOURCE / MPI_ANY_TAG analogues).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// A buffered message in flight or queued at its destination.
struct Message {
  int srcGlobal = 0;                ///< global rank of the sender
  int tag = 0;                      ///< user or collective tag
  double arrival = 0.0;             ///< virtual arrival time at the receiver
  std::vector<std::byte> payload;   ///< owned copy of the data

  std::size_t size() const { return payload.size(); }
};

}  // namespace mc::transport
