// IrregArray: a Chaos-style irregularly distributed 1-D array.
//
// Each processor holds the elements a partitioner assigned to it, in local
// order; a shared TranslationTable maps global indices to (owner, offset).
// Off-processor references are resolved by the localize inspector
// (chaos/localize.h), which numbers every reference in one local index
// space: owned offsets, then ghost slots appended after the owned elements
// — the classic Chaos storage layout.  The array stores that layout: its
// storage is the owned elements followed by a ghost area, which
// withGhosts() sizes on first use, so an irregular loop addresses owned
// and gathered values through one base pointer (chaos::EdgeSweep).
// Everything else (raw(), localCount(), local(), fillByGlobal,
// gatherGlobal, snapshots, remap) sees the owned elements only.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "chaos/ttable.h"
#include "transport/comm.h"

namespace mc::chaos {

template <typename T>
class IrregArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Collective: `myGlobals` is this processor's assignment (local order);
  /// the table must have been built from the same assignment.
  IrregArray(transport::Comm& comm,
             std::shared_ptr<const TranslationTable> table,
             std::vector<layout::Index> myGlobals)
      : comm_(&comm), table_(std::move(table)), myGlobals_(std::move(myGlobals)) {
    MC_REQUIRE(table_ != nullptr);
    MC_REQUIRE(static_cast<layout::Index>(myGlobals_.size()) ==
                   table_->localCount(comm.rank()),
               "assignment size %zu does not match the translation table "
               "(%lld local elements)",
               myGlobals_.size(),
               static_cast<long long>(table_->localCount(comm.rank())));
    data_.assign(myGlobals_.size(), T{});
  }

  transport::Comm& comm() const { return *comm_; }
  const TranslationTable& table() const { return *table_; }
  std::shared_ptr<const TranslationTable> tablePtr() const { return table_; }
  layout::Index globalSize() const { return table_->globalSize(); }
  layout::Index localCount() const {
    return static_cast<layout::Index>(myGlobals_.size());
  }
  std::span<const layout::Index> myGlobals() const { return myGlobals_; }

  /// The owned elements.
  std::span<T> raw() { return std::span<T>(data_).first(myGlobals_.size()); }
  std::span<const T> raw() const {
    return std::span<const T>(data_).first(myGlobals_.size());
  }
  T& local(layout::Index i) { return data_[static_cast<size_t>(i)]; }
  const T& local(layout::Index i) const { return data_[static_cast<size_t>(i)]; }

  /// The local index space [0, localCount() + ghostCount): the owned
  /// elements followed by `ghostCount` ghost slots, whose values are
  /// unspecified until a gather fills them.  Grows the storage on first use;
  /// a growth invalidates spans earlier raw() and withGhosts() calls
  /// returned.
  std::span<T> withGhosts(layout::Index ghostCount) {
    MC_REQUIRE(ghostCount >= 0, "negative ghost count %lld",
               static_cast<long long>(ghostCount));
    const size_t extent = myGlobals_.size() + static_cast<size_t>(ghostCount);
    if (data_.size() < extent) data_.resize(extent, T{});
    return std::span<T>(data_).first(extent);
  }

  /// Sets every owned element to fn(globalIndex).
  template <typename F>
  void fillByGlobal(F&& fn) {
    for (size_t i = 0; i < myGlobals_.size(); ++i) {
      data_[i] = fn(myGlobals_[i]);
    }
  }

  /// Collective test/debug oracle: the full array in global-index order on
  /// every processor.
  std::vector<T> gatherGlobal() const {
    struct Pair {
      layout::Index global;
      T value;
    };
    std::vector<Pair> mine;
    mine.reserve(myGlobals_.size());
    for (size_t i = 0; i < myGlobals_.size(); ++i) {
      mine.push_back(Pair{myGlobals_[i], data_[i]});
    }
    auto rows = comm_->allgather<Pair>(std::span<const Pair>(mine));
    std::vector<T> out(static_cast<size_t>(globalSize()), T{});
    for (const auto& row : rows) {
      for (const Pair& p : row) out[static_cast<size_t>(p.global)] = p.value;
    }
    return out;
  }

 private:
  transport::Comm* comm_;
  std::shared_ptr<const TranslationTable> table_;
  std::vector<layout::Index> myGlobals_;
  std::vector<T> data_;  // owned elements, then the ghost area
};

}  // namespace mc::chaos
