// Coalescing emitter for adapter run enumeration.
//
// Adapters that override LibraryAdapter::enumerateRangeRuns produce one
// candidate run per (section row x ownership block) segment.  Those
// segments are already maximal in the common case, but can be mergeable
// across row or region boundaries (e.g. a whole-array section on one
// processor is a single arithmetic run).  RunEmitter buffers the most
// recent run and merges in-order additions through sched::appendRun — same
// owner, contiguous linearization positions, exact offset-progression
// continuation — so the stream it forwards to the RunFn is identical no
// matter how the adapter cut its segments.  The default enumerateRangeRuns
// feeds it one element at a time.
#pragma once

#include "core/adapter.h"

namespace mc::core {

class RunEmitter {
 public:
  explicit RunEmitter(const LibraryAdapter::RunFn& fn) : tail_{fn, {}, false} {}

  /// Adds positions [lin, lin+count) owned by `owner` at offsets
  /// off + k*offStride.  Additions must arrive in linearization order.
  void add(layout::Index lin, int owner, layout::Index off,
           layout::Index count, layout::Index offStride) {
    sched::appendRun(tail_, Run{lin, off, count, offStride, owner});
  }

  /// Emits the buffered run; call once after the last add().
  void flush() {
    tail_.emit();
    tail_.open = false;
  }

 private:
  /// A LinRun keyed by its owner.
  struct Run {
    layout::Index lin = 0;
    layout::Index off = 0;
    layout::Index count = 0;
    layout::Index offStride = 0;
    layout::Index owner = 0;
    static constexpr sched::RunShape<Run, 1> kShape{
        {{{&Run::off, &Run::offStride}}}, &Run::lin, &Run::owner};
  };

  /// A one-run lane for appendRun: starting a new run forwards the old one.
  struct Tail {
    using value_type = Run;
    const LibraryAdapter::RunFn& fn;
    Run run;
    bool open = false;

    bool empty() const { return !open; }
    Run& back() { return run; }
    void push_back(const Run& next) {
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
