// Distributed matrix–vector multiply: the HPF computational server of the
// paper's Section 5.4.
//
// The matrix is distributed (BLOCK, *) — rows blocked over all processors,
// columns on-processor — and the operand/result vectors are BLOCK
// distributed.  One multiply is:
//   1. assemble the full operand vector (internal communication that grows
//      with the processor count — the reason the paper's HPF server stops
//      speeding up beyond 8 processes),
//   2. local dense dgemv over the owned row block,
//   3. the result vector is naturally BLOCK distributed by rows.
//
// The assembly is a split-phase overlap pipeline (MatvecEngine): each
// processor *starts* a direct peer exchange of operand blocks, computes the
// partial product over its locally owned columns while the blocks are in
// flight (polling between row chunks), then finishes the exchange and
// accumulates the remote columns in ascending column order — deterministic
// regardless of message arrival.  Sums reassociate (owned columns first),
// so results may differ from a straight c=0..n-1 loop by floating-point
// rounding only.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "hpfrt/hpf_array.h"
#include "obs/span.h"
#include "sched/executor.h"
#include "sched/serialize.h"

namespace mc::hpfrt {

/// The canonical server-side distributions for an n x n matvec on `nprocs`.
inline HpfDist matvecMatrixDist(layout::Index n, int nprocs) {
  return HpfDist(layout::Shape::of({n, n}),
                 {DimDist{DistKind::kBlock, nprocs, 1},
                  DimDist{DistKind::kBlock, 1, 1}});
}
inline HpfDist matvecVectorDist(layout::Index n, int nprocs) {
  return HpfDist(layout::Shape::of({n}),
                 {DimDist{DistKind::kBlock, nprocs, 1}});
}

/// Persistent split-phase matvec executor for the server's steady-state
/// loop (many multiplies against one operand distribution).  The inspector
/// side — the operand-assembly schedule (one block exchange per peer pair)
/// and the owned/remote column classification — runs once at construction;
/// every multiply() then overlaps the exchange with the owned-column
/// partial product and reuses its message buffers (zero steady-state
/// payload copies or allocations; see sched::Executor).
template <typename T>
class MatvecEngine {
 public:
  /// Collective.  `x` fixes the operand distribution; later multiplies
  /// must pass an operand with this same distribution.
  explicit MatvecEngine(const HpfArray<T>& x)
      : comm_(&x.comm()), n_(x.globalShape()[0]) {
    MC_REQUIRE(x.globalShape().rank == 1, "matvec operand must be 1-D");
    transport::Comm& comm = *comm_;
    comm.compute([&] {
      const int np = comm.size();
      const int me = comm.rank();
      // (local offset, global index) of every processor's owned elements,
      // in ascending local-offset order — the pack/unpack order both sides
      // derive from the replicated distribution.
      std::vector<std::vector<std::pair<layout::Index, layout::Index>>>
          owned(static_cast<size_t>(np));
      for (int p = 0; p < np; ++p) {
        x.dist().forEachOwned(
            p, [&](const layout::Point& pt, layout::Index off) {
              owned[static_cast<size_t>(p)].emplace_back(off, pt[0]);
            });
        std::sort(owned[static_cast<size_t>(p)].begin(),
                  owned[static_cast<size_t>(p)].end());
      }
      const auto& mine = owned[static_cast<size_t>(me)];
      for (int p = 0; p < np; ++p) {
        if (p == me || owned[static_cast<size_t>(p)].empty()) continue;
        sched::OffsetPlan plan;
        plan.peer = p;
        for (const auto& [off, g] : owned[static_cast<size_t>(p)]) {
          // Unpack straight into `full`.
          sched::appendOffsetRun(plan.runs, sched::OffsetRun{g, 1, 0});
        }
        sched_.recvs.push_back(std::move(plan));
      }
      if (!mine.empty()) {
        std::vector<sched::OffsetRun> mySrc;
        for (const auto& [off, g] : mine) {
          sched::appendOffsetRun(mySrc, sched::OffsetRun{off, 1, 0});
        }
        for (int p = 0; p < np; ++p) {
          if (p == me) continue;
          sched_.sends.push_back(sched::OffsetPlan{p, {}, mySrc});
        }
      }
      sched_.bufferLocalCopies = false;
      // Owned columns (ascending global) for the overlapped partial
      // product, and the complementary remote column ranges for the finish
      // pass.
      ownCols_.reserve(mine.size());
      for (const auto& [off, g] : mine) ownCols_.emplace_back(g, off);
      std::sort(ownCols_.begin(), ownCols_.end());
      layout::Index at = 0;
      for (const auto& [g, off] : ownCols_) {
        if (at < g) remoteRanges_.emplace_back(at, g);
        at = g + 1;
      }
      if (at < n_) remoteRanges_.emplace_back(at, n_);
      localLen_ = x.dist().localShape(me).numElements();
    });
  }

  /// y = A * x (collective); see matvec() below for the shape contract.
  /// A batch of one.
  void multiply(const HpfArray<T>& A, const HpfArray<T>& x, HpfArray<T>& y) {
    MC_REQUIRE(A.globalShape().rank == 2 && x.globalShape().rank == 1 &&
               y.globalShape().rank == 1);
    MC_REQUIRE(A.globalShape()[1] == n_ && x.globalShape()[0] == n_ &&
               y.globalShape()[0] == A.globalShape()[0]);
    multiplyBatch(A, x.raw(), y.raw(), 1);
  }

  /// Batched multiply: y_j = A * x_j for k operand vectors, `xs` holding
  /// vector j's local operand block at [j*localLen, (j+1)*localLen) and
  /// `ys` receiving vector j's owned rows at [j*myRows, (j+1)*myRows).
  /// The operand assembly is ONE fused exchange (sched::batchReplicate):
  /// each peer pair still exchanges a single message, now carrying all k
  /// blocks — a batch of compatible requests costs one exchange's latency.
  /// Per (row, vector) the accumulation starts from zero, adds the owned
  /// columns in ascending global order, then the remote columns in
  /// ascending order, so every y_j is bitwise identical to a multiply() on
  /// x_j alone, for any k and any batch composition.  `pollHook`, when
  /// given, runs between row chunks — the compute server polls the *next*
  /// staged batch's receives there, so batch k+1's operand blocks drain
  /// under batch k's compute.
  void multiplyBatch(const HpfArray<T>& A, std::span<const T> xs,
                     std::span<T> ys, int k,
                     const std::function<void()>& pollHook = {}) {
    transport::Comm& comm = *comm_;
    MC_REQUIRE(k >= 1);
    MC_REQUIRE(A.globalShape().rank == 2 && A.globalShape()[1] == n_);
    MC_REQUIRE(A.dist().dims()[1].procs == 1,
               "matvec requires a (BLOCK, *) matrix distribution");
    const layout::Index myRows = A.dist().localShape(comm.rank())[0];
    MC_REQUIRE(static_cast<layout::Index>(xs.size()) == k * localLen_,
               "xs must hold k local operand blocks");
    MC_REQUIRE(static_cast<layout::Index>(ys.size()) == k * myRows,
               "ys must hold k owned-row blocks");
    const std::span<const T> a = A.raw();
    BatchExec& be = batchExec(k);
    fullBatch_.resize(static_cast<size_t>(k) * static_cast<size_t>(n_));

    auto pending = be.exec->start(xs);
    obs::ScopedSpan ownedSpan(obs::phase::kCompute);
    constexpr layout::Index kRowChunk = 32;
    for (layout::Index r0 = 0; r0 < myRows; r0 += kRowChunk) {
      const layout::Index r1 = std::min(myRows, r0 + kRowChunk);
      comm.compute([&] {
        for (layout::Index r = r0; r < r1; ++r) {
          const size_t rowBase = static_cast<size_t>(r * n_);
          for (int j = 0; j < k; ++j) {
            const T* xo = xs.data() + static_cast<size_t>(j) *
                                          static_cast<size_t>(localLen_);
            T acc{};
            for (const auto& [g, off] : ownCols_) {
              acc += a[rowBase + static_cast<size_t>(g)] *
                     xo[static_cast<size_t>(off)];
            }
            ys[static_cast<size_t>(j) * static_cast<size_t>(myRows) +
               static_cast<size_t>(r)] = acc;
          }
        }
      });
      pending.poll();
      if (pollHook) pollHook();
    }
    ownedSpan.end();
    pending.finish(fullBatch_);

    obs::ScopedSpan remoteSpan(obs::phase::kCompute);
    comm.compute([&] {
      for (layout::Index r = 0; r < myRows; ++r) {
        const size_t rowBase = static_cast<size_t>(r * n_);
        for (int j = 0; j < k; ++j) {
          const T* full = fullBatch_.data() +
                          static_cast<size_t>(j) * static_cast<size_t>(n_);
          T acc = ys[static_cast<size_t>(j) * static_cast<size_t>(myRows) +
                     static_cast<size_t>(r)];
          for (const auto& [lo, hi] : remoteRanges_) {
            for (layout::Index c = lo; c < hi; ++c) {
              acc += a[rowBase + static_cast<size_t>(c)] *
                     full[static_cast<size_t>(c)];
            }
          }
          ys[static_cast<size_t>(j) * static_cast<size_t>(myRows) +
             static_cast<size_t>(r)] = acc;
        }
      }
    });
  }

  layout::Index operandLocalLen() const { return localLen_; }

 private:
  /// Per-batch-size fused schedule + executor, built once per k and kept
  /// (unique_ptr: executors hold pointers into their schedule, so entries
  /// must never relocate).
  struct BatchExec {
    sched::Schedule sched;
    std::optional<sched::Executor<T>> exec;
  };
  BatchExec& batchExec(int k) {
    std::unique_ptr<BatchExec>& be = batchExecs_[k];
    if (!be) {
      comm_->compute([&] {
        be = std::make_unique<BatchExec>();
        be->sched = sched::batchReplicate(sched_, k, localLen_, n_);
      });
      be->exec.emplace(*comm_, be->sched);
    }
    return *be;
  }

  transport::Comm* comm_;
  layout::Index n_;
  sched::Schedule sched_;  // operand-block exchange (no local transfers)
  std::vector<std::pair<layout::Index, layout::Index>> ownCols_;  // (global, off)
  std::vector<std::pair<layout::Index, layout::Index>> remoteRanges_;  // [lo,hi)
  layout::Index localLen_ = 0;  // operand elements owned by this rank
  std::map<int, std::unique_ptr<BatchExec>> batchExecs_;  // by batch size
  std::vector<T> fullBatch_;  // k assembled operands, back to back
};

/// y = A * x (collective).  A must be (BLOCK, *) and x, y BLOCK with the
/// same processor count; y's distribution must match A's row distribution.
/// One-shot form over MatvecEngine — server loops should hold an engine.
template <typename T>
void matvec(const HpfArray<T>& A, const HpfArray<T>& x, HpfArray<T>& y) {
  MatvecEngine<T> engine(x);
  engine.multiply(A, x, y);
}

}  // namespace mc::hpfrt
