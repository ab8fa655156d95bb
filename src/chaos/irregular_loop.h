// The unstructured-mesh edge sweep of the paper's Figure 1 (Loop 3):
//
//   forall (e = 1:Nedges)
//     y(ia(e)) = y(ia(e)) + (x(ia(e)) + x(ib(e))) / 4
//     y(ib(e)) = y(ib(e)) + (x(ia(e)) + x(ib(e))) / 4
//
// x and y are node arrays with the *same* irregular distribution; ia/ib are
// block-distributed edge endpoint arrays.  The inspector localizes the
// endpoint references once and compiles them into 32-bit endpoint streams
// over the local index space [0, owned + ghost) (chaos/localize.h); the
// executor then, per time-step, gathers the off-processor x values into
// x's ghost area, runs the local edge loop over one base pointer per array
// (remote y contributions accumulate in y's ghost area), and scatter-adds
// those contributions back to their owners.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "chaos/localize.h"
#include "obs/span.h"

namespace mc::chaos {

template <typename T>
class EdgeSweep {
 public:
  /// Collective inspector.  `ia`/`ib` are the calling processor's slice of
  /// the edge arrays (global node indices).  x and y must share `table`'s
  /// distribution.  Throws mc::Error when the local index space (owned
  /// elements plus ghost slots) reaches 2^32, past the endpoint streams.
  EdgeSweep(transport::Comm& comm, const TranslationTable& table,
            std::span<const layout::Index> ia,
            std::span<const layout::Index> ib)
      : comm_(&comm) {
    MC_REQUIRE(ia.size() == ib.size());
    std::vector<layout::Index> refs;
    refs.reserve(ia.size() + ib.size());
    refs.insert(refs.end(), ia.begin(), ia.end());
    refs.insert(refs.end(), ib.begin(), ib.end());
    loc_ = localize(comm, table, refs);
    ownedCount_ = table.localCount(comm.rank());
    MC_REQUIRE(ownedCount_ + loc_.ghostCount <= layout::Index{UINT32_MAX},
               "local index space of %lld elements (owned + ghost) does not "
               "fit the 32-bit endpoint streams",
               static_cast<long long>(ownedCount_ + loc_.ghostCount));
    // Compile the edges once (inspector side), each class in edge order: an
    // *interior* edge has both endpoints owned, so it reads no gathered
    // ghost value — the executor computes interior edges while the gather
    // is in flight and defers the rest to after finish.
    comm_->compute([&] {
      const std::span<const layout::Index> la(loc_.localIndices.data(),
                                              ia.size());
      const std::span<const layout::Index> lb(
          loc_.localIndices.data() + ia.size(), ib.size());
      const auto isInterior = [&](size_t e) {
        return la[e] < ownedCount_ && lb[e] < ownedCount_;
      };
      size_t nInterior = 0;
      for (size_t e = 0; e < la.size(); ++e) nInterior += isInterior(e);
      interior_.reserve(nInterior);
      boundary_.reserve(la.size() - nInterior);
      for (size_t e = 0; e < la.size(); ++e) {
        (isInterior(e) ? interior_ : boundary_).push(la[e], lb[e]);
      }
    });
  }

  // The executors bind to loc_'s schedules on the first sweep; a copy or a
  // move would keep running against the source's.
  EdgeSweep(const EdgeSweep&) = delete;
  EdgeSweep& operator=(const EdgeSweep&) = delete;
  EdgeSweep(EdgeSweep&&) = delete;
  EdgeSweep& operator=(EdgeSweep&&) = delete;

  const Localized& localized() const { return loc_; }
  size_t interiorEdges() const { return interior_.a.size(); }
  size_t boundaryEdges() const { return boundary_.a.size(); }

  /// Collective executor: one forall sweep; x and y must be distinct
  /// arrays (mc::Error otherwise).  The gather and scatter-add executors
  /// bind lazily on the first sweep and persist across sweeps, so
  /// steady-state iterations reuse their message buffers (zero payload
  /// copies / allocations; see sched::Executor).  The first sweep grows x's
  /// and y's ghost areas (IrregArray::withGhosts), which invalidates spans
  /// their raw() returned before it.
  ///
  /// Split-phase overlap: the gather *starts*, the interior edges (both
  /// endpoints owned — they read no gathered value) run in chunks with a
  /// poll between chunks, then the gather finishes into x's ghost area and
  /// the boundary edges run.  Edges apply in a fixed order (interior in
  /// edge order, then boundary in edge order), so results are
  /// deterministic run to run; the order differs from the plain e=0..N
  /// loop, so sums may differ from it by floating-point reassociation only.
  void run(IrregArray<T>& x, IrregArray<T>& y) {
    MC_REQUIRE(&x != &y,
               "x and y must be distinct arrays: y's ghost area collects "
               "contributions while x's holds the gathered values");
    MC_REQUIRE(x.localCount() == ownedCount_ && y.localCount() == ownedCount_,
               "x/y do not match the inspected distribution");
    if (!gatherExec_) {
      gatherExec_.emplace(*comm_, loc_.gatherSched);
      scatterExec_.emplace(*comm_, loc_.scatterAddSched);
    }
    const auto owned = static_cast<size_t>(ownedCount_);
    const std::span<T> xs = x.withGhosts(loc_.ghostCount);
    const std::span<T> ys = y.withGhosts(loc_.ghostCount);
    std::ranges::fill(ys.subspan(owned), T{});
    auto pending = gatherExec_->start(xs.first(owned));
    // Interior edges overlap the in-flight gather (trace: this compute span
    // runs beside the gather's recvWait).
    obs::ScopedSpan interiorSpan(obs::phase::kCompute);
    constexpr size_t kChunk = 4096;  // edges per poll
    for (size_t at = 0; at < interior_.a.size(); at += kChunk) {
      const size_t end = std::min(interior_.a.size(), at + kChunk);
      comm_->compute([&] { interior_.sweep(at, end, xs.data(), ys.data()); });
      pending.poll();
    }
    interiorSpan.end();
    pending.finish(xs.subspan(owned));
    obs::ScopedSpan boundarySpan(obs::phase::kCompute);
    comm_->compute([&] {
      boundary_.sweep(0, boundary_.a.size(), xs.data(), ys.data());
    });
    boundarySpan.end();
    scatterExec_->runAdd(ys.subspan(owned), ys.first(owned));
  }

 private:
  /// One edge class compiled for the executor: edge k's endpoints as local
  /// indices into [0, owned + ghost), in edge order.
  struct EndpointStreams {
    std::vector<std::uint32_t> a, b;

    void reserve(size_t n) {
      a.reserve(n);
      b.reserve(n);
    }
    void push(layout::Index ea, layout::Index eb) {
      a.push_back(static_cast<std::uint32_t>(ea));
      b.push_back(static_cast<std::uint32_t>(eb));
    }
    /// The Figure-1 update for edges [lo, hi), over one base pointer per
    /// array: owned and ghost endpoints take the same path.
    void sweep(size_t lo, size_t hi, const T* X, T* Y) const {
      const std::uint32_t* ea = a.data();
      const std::uint32_t* eb = b.data();
      for (size_t k = lo; k < hi; ++k) {
        const std::uint32_t i = ea[k];
        const std::uint32_t j = eb[k];
        const T contrib = (X[i] + X[j]) / T{4};
        Y[i] += contrib;
        Y[j] += contrib;
      }
    }
  };

  transport::Comm* comm_;
  layout::Index ownedCount_ = 0;
  Localized loc_;
  EndpointStreams interior_;  // both endpoints owned
  EndpointStreams boundary_;  // at least one ghost endpoint
  // Bound lazily on the first run() against loc_'s schedules.
  std::optional<sched::Executor<T>> gatherExec_;
  std::optional<sched::Executor<T>> scatterExec_;
};

}  // namespace mc::chaos
