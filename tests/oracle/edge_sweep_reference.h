// The two-buffer Chaos edge sweep, kept as chaos::oracle::EdgeSweepReference.
//
// chaos::EdgeSweep compiles its edges into 32-bit endpoint streams over the
// local index space [0, owned + ghost) and sweeps through one base pointer
// per array, gathering into x's ghost area and accumulating into y's.  The
// reference here keeps the edge-id lists and separate ghost buffers, and
// decides owned-or-ghost for every boundary-edge endpoint (valueAt /
// addAt).  It binds the same schedules, runs the same split-phase overlap
// and applies the edges in the same order (interior, then boundary, each in
// edge order), so both must leave x and y bitwise the same; only the cost
// differs.  Test-only oracle for test_chaos and the baseline leg of
// bench/micro_data_move's edge-sweep case.
#pragma once

#include <algorithm>
#include <optional>

#include "chaos/localize.h"

namespace mc::chaos::oracle {

template <typename T>
class EdgeSweepReference {
 public:
  /// Collective inspector; same contract as chaos::EdgeSweep.
  EdgeSweepReference(transport::Comm& comm, const TranslationTable& table,
                     std::span<const layout::Index> ia,
                     std::span<const layout::Index> ib)
      : comm_(&comm), nLocalEdges_(static_cast<layout::Index>(ia.size())) {
    MC_REQUIRE(ia.size() == ib.size());
    std::vector<layout::Index> refs;
    refs.reserve(ia.size() + ib.size());
    refs.insert(refs.end(), ia.begin(), ia.end());
    refs.insert(refs.end(), ib.begin(), ib.end());
    loc_ = localize(comm, table, refs);
    ownedCount_ = table.localCount(comm.rank());
    comm_->compute([&] {
      for (layout::Index e = 0; e < nLocalEdges_; ++e) {
        const layout::Index a = loc_.localIndices[static_cast<size_t>(e)];
        const layout::Index b =
            loc_.localIndices[static_cast<size_t>(e + nLocalEdges_)];
        (a < ownedCount_ && b < ownedCount_ ? interiorEdges_ : boundaryEdges_)
            .push_back(e);
      }
    });
  }

  // The executors point into loc_ once bound.
  EdgeSweepReference(const EdgeSweepReference&) = delete;
  EdgeSweepReference& operator=(const EdgeSweepReference&) = delete;

  /// Collective executor: one forall sweep over owned storage plus the
  /// sweep-private ghost buffers.
  void run(IrregArray<T>& x, IrregArray<T>& y) {
    MC_REQUIRE(x.localCount() == ownedCount_ && y.localCount() == ownedCount_,
               "x/y do not match the inspected distribution");
    if (!gatherExec_) {
      gatherExec_.emplace(*comm_, loc_.gatherSched);
      scatterExec_.emplace(*comm_, loc_.scatterAddSched);
    }
    xGhost_.assign(static_cast<size_t>(loc_.ghostCount), T{});
    yGhost_.assign(static_cast<size_t>(loc_.ghostCount), T{});
    auto pending = gatherExec_->start(x.raw());
    const auto& li = loc_.localIndices;
    const std::span<const T> xo = x.raw();
    const std::span<T> yo = y.raw();
    constexpr std::size_t kChunk = 4096;  // edges per poll
    for (std::size_t at = 0; at < interiorEdges_.size(); at += kChunk) {
      const std::size_t end = std::min(interiorEdges_.size(), at + kChunk);
      comm_->compute([&] {
        for (std::size_t k = at; k < end; ++k) {
          const layout::Index e = interiorEdges_[k];
          const layout::Index a = li[static_cast<size_t>(e)];
          const layout::Index b = li[static_cast<size_t>(e + nLocalEdges_)];
          const T contrib = (xo[static_cast<size_t>(a)] +
                             xo[static_cast<size_t>(b)]) / T{4};
          yo[static_cast<size_t>(a)] += contrib;
          yo[static_cast<size_t>(b)] += contrib;
        }
      });
      pending.poll();
    }
    pending.finish(xGhost_);
    comm_->compute([&] {
      for (const layout::Index e : boundaryEdges_) {
        const layout::Index a = li[static_cast<size_t>(e)];
        const layout::Index b = li[static_cast<size_t>(e + nLocalEdges_)];
        const T contrib = (valueAt(x, a) + valueAt(x, b)) / T{4};
        addAt(y, a, contrib);
        addAt(y, b, contrib);
      }
    });
    scatterExec_->runAdd(yGhost_, y.raw());
  }

 private:
  T valueAt(const IrregArray<T>& x, layout::Index i) const {
    return i < ownedCount_
               ? x.raw()[static_cast<size_t>(i)]
               : xGhost_[static_cast<size_t>(i - ownedCount_)];
  }
  void addAt(IrregArray<T>& y, layout::Index i, T v) {
    if (i < ownedCount_) {
      y.raw()[static_cast<size_t>(i)] += v;
    } else {
      yGhost_[static_cast<size_t>(i - ownedCount_)] += v;
    }
  }

  transport::Comm* comm_;
  layout::Index nLocalEdges_ = 0;
  layout::Index ownedCount_ = 0;
  Localized loc_;
  std::vector<layout::Index> interiorEdges_;  // both endpoints owned
  std::vector<layout::Index> boundaryEdges_;  // at least one ghost endpoint
  std::optional<sched::Executor<T>> gatherExec_;
  std::optional<sched::Executor<T>> scatterExec_;
  std::vector<T> xGhost_;
  std::vector<T> yGhost_;
};

}  // namespace mc::chaos::oracle
