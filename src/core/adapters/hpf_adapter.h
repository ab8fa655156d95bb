// Meta-Chaos adapter for the HPF runtime library.
//
// Region type: a regular array section (HPF array subsections, exactly the
// paper's CreateRegion_HPF example); linearization: row-major over the
// section.  All three HPF distribution patterns are closed-form, so the run
// inquiry answers any range locally and descriptors are tiny.
#pragma once

#include "core/adapter.h"
#include "hpfrt/hpf_array.h"

namespace mc::core {

class HpfAdapter final : public LibraryAdapter {
 public:
  std::string name() const override { return "hpf"; }
  void validate(const DistObject& obj, const SetOfRegions& set) const override;
  bool supportsLocalEnumeration(const DistObject&) const override {
    return true;
  }
  /// O(runs): splits section rows along the last dimension at the
  /// closed-form BLOCK / CYCLIC / CYCLIC(k) ownership boundaries.
  void enumerateRangeRuns(const DistObject& obj, const SetOfRegions& set,
                          layout::Index linLo, layout::Index linHi,
                          const RunFn& fn) const override;
  std::uint64_t localFingerprint(const DistObject& obj) const override;
  std::vector<std::byte> serializeDesc(const DistObject& obj,
                                       transport::Comm& comm) const override;
  DistObject deserializeDesc(std::span<const std::byte> bytes) const override;

  template <typename T>
  static DistObject describe(const hpfrt::HpfArray<T>& array) {
    return DistObject("hpf",
                      std::make_shared<const hpfrt::HpfDist>(array.dist()));
  }
};

}  // namespace mc::core
