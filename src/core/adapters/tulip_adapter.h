// Meta-Chaos adapter for the pC++/Tulip runtime.
//
// Region type: a range of collection element indices; linearization:
// ascending element order within the range.  The paper reports that the
// pC++ group wrote this adapter "in a few days"; accordingly it is the
// smallest of the four.
#pragma once

#include "core/adapter.h"
#include "tulip/collection.h"

namespace mc::core {

class TulipAdapter final : public LibraryAdapter {
 public:
  std::string name() const override { return "pc++"; }
  void validate(const DistObject& obj, const SetOfRegions& set) const override;
  bool supportsLocalEnumeration(const DistObject&) const override {
    return true;
  }
  /// O(runs): one callback per ownership block of each element range.
  void enumerateRangeRuns(const DistObject& obj, const SetOfRegions& set,
                          layout::Index linLo, layout::Index linHi,
                          const RunFn& fn) const override;
  std::uint64_t localFingerprint(const DistObject& obj) const override;
  std::vector<std::byte> serializeDesc(const DistObject& obj,
                                       transport::Comm& comm) const override;
  DistObject deserializeDesc(std::span<const std::byte> bytes) const override;

  template <typename T>
  static DistObject describe(const tulip::Collection<T>& coll) {
    return DistObject("pc++",
                      std::make_shared<const tulip::TulipDesc>(coll.desc()));
  }
};

}  // namespace mc::core
