// Meta-Chaos adapter for the Multiblock Parti library.
//
// Region type: a regular array section; linearization: row-major over the
// section's index tuples.  Ownership is closed-form from the block
// decomposition, so the run inquiry answers any range without
// communication — for a cooperation chunk owner's own chunk as for the
// duplication method's whole set — and the descriptor serializes to a few
// dozen bytes.
#pragma once

#include "core/adapter.h"
#include "parti/dist_array.h"

namespace mc::core {

class PartiAdapter final : public LibraryAdapter {
 public:
  std::string name() const override { return "parti"; }
  void validate(const DistObject& obj, const SetOfRegions& set) const override;
  bool supportsLocalEnumeration(const DistObject&) const override {
    return true;
  }
  /// O(runs): one callback per (section row x owner block) segment, split
  /// along the last dimension with the closed-form block boundaries.
  void enumerateRangeRuns(const DistObject& obj, const SetOfRegions& set,
                          layout::Index linLo, layout::Index linHi,
                          const RunFn& fn) const override;
  std::uint64_t localFingerprint(const DistObject& obj) const override;
  std::vector<std::byte> serializeDesc(const DistObject& obj,
                                       transport::Comm& comm) const override;
  DistObject deserializeDesc(std::span<const std::byte> bytes) const override;

  /// Convenience: wraps a Parti array's descriptor as a DistObject.
  template <typename T>
  static DistObject describe(const parti::BlockDistArray<T>& array) {
    return DistObject("parti",
                      std::make_shared<const parti::PartiDesc>(array.desc()));
  }
};

}  // namespace mc::core
