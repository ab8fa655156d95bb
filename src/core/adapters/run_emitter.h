// Coalescing emitter for adapter run enumeration.
//
// Every LibraryAdapter::enumerateRangeRuns, and Chaos's enumerateChunkRuns
// over a distributed table, produce candidate runs: one per (section row x
// ownership block) segment for the regular libraries, one per element for
// Chaos.  Those candidates can be mergeable across row, region or element
// boundaries (e.g. a whole-array section on one processor is a single
// arithmetic run).  RunEmitter buffers the most recent run and merges
// in-order additions through sched::appendRun on LinRun — same owner,
// contiguous linearization positions, exact offset-progression
// continuation — so the stream it forwards to the RunFn is identical no
// matter how the adapter cut its segments.
//
// The emitter keeps a reference to the callback, so the callback must
// outlive it: pass a named RunFn (an adapter's `fn` parameter).  Passing a
// lambda would bind a temporary std::function that dies at the end of the
// declaration; that constructor is deleted.
#pragma once

#include "core/adapter.h"

namespace mc::core {

class RunEmitter {
 public:
  explicit RunEmitter(const LibraryAdapter::RunFn& fn) : tail_{fn, {}, false} {}
  RunEmitter(LibraryAdapter::RunFn&&) = delete;

  /// Adds positions [lin, lin+count) owned by `owner` at offsets
  /// off + k*offStride.  Additions must arrive in linearization order.
  void add(layout::Index lin, int owner, layout::Index off,
           layout::Index count, layout::Index offStride) {
    sched::appendRun(tail_, LinRun{lin, off, count, offStride, owner});
  }

  /// Emits the buffered run; call once after the last add().
  void flush() {
    tail_.emit();
    tail_.open = false;
  }

 private:
  /// A one-run lane for appendRun: starting a new run forwards the old one.
  struct Tail {
    using value_type = LinRun;
    const LibraryAdapter::RunFn& fn;
    LinRun run;
    bool open = false;

    bool empty() const { return !open; }
    LinRun& back() { return run; }
    void push_back(const LinRun& next) {
      emit();
      run = next;
      open = true;
    }
    void emit() const {
      if (open) {
        fn(run.lin, static_cast<int>(run.owner), run.off, run.count,
           run.offStride);
      }
    }
  };

  Tail tail_;
};

}  // namespace mc::core
