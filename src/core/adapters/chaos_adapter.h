// Meta-Chaos adapter for the Chaos library.
//
// Region type: an explicit set of global array indices; linearization: the
// listed order.  Ownership lives in the translation table, which makes this
// the *expensive* adapter — the costs the paper's Tables 1-4 revolve
// around:
//
//  * with a distributed table, ownership queries require communication, so
//    enumerateChunkRuns is overridden with a collective lookup: each
//    processor dereferences its own chunk of the linearization in one
//    batched, cached exchange with the table's home processors (this is
//    why the paper's two-program schedule times drop almost linearly with
//    more Chaos-side processors, Table 3);
//  * the local run inquiry, enumerateRangeRuns (the duplication method
//    asks it for the whole set), needs the whole table: it answers only
//    for a replicated table, and serializing the descriptor ships
//    O(array size) data — the reason the paper calls duplication
//    impractical for Chaos data across programs.
#pragma once

#include "chaos/irreg_array.h"
#include "core/adapter.h"

namespace mc::core {

class ChaosAdapter final : public LibraryAdapter {
 public:
  std::string name() const override { return "chaos"; }
  void validate(const DistObject& obj, const SetOfRegions& set) const override;
  bool supportsLocalEnumeration(const DistObject& obj) const override;
  void enumerateRangeRuns(const DistObject& obj, const SetOfRegions& set,
                          layout::Index linLo, layout::Index linHi,
                          const RunFn& fn) const override;
  void enumerateChunkRuns(const DistObject& obj, const SetOfRegions& set,
                          layout::Index linLo, layout::Index linHi,
                          transport::Comm& comm,
                          const RunFn& fn) const override;
  double modeledElementDereferenceCost(const DistObject& obj) const override;
  std::uint64_t localFingerprint(const DistObject& obj) const override;
  std::vector<std::byte> serializeDesc(const DistObject& obj,
                                       transport::Comm& comm) const override;
  DistObject deserializeDesc(std::span<const std::byte> bytes) const override;

  template <typename T>
  static DistObject describe(const chaos::IrregArray<T>& array) {
    return DistObject("chaos", array.tablePtr());
  }
};

}  // namespace mc::core
