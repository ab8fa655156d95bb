// One-call region copies with automatic schedule reuse.
//
// copyRegions is the "just move the data" entry point: it looks the
// schedule up in the calling rank's ScheduleCache (building and caching it
// on the first call) and executes it through dataMove, which keeps the
// executor it binds with the cached schedule.  A time-step loop can
// therefore call copyRegions every iteration and still pay the schedule
// build and the executor bind exactly once — the amortization pattern the
// paper's Figure 15 break-even analysis assumes, without the call site
// hand-managing schedule lifetimes.
#pragma once

#include "core/data_move.h"
#include "core/schedule_cache.h"

namespace mc::core {

/// Intra-program cached copy.  Collective over the program.
template <typename T>
void copyRegions(transport::Comm& comm, const DistObject& srcObj,
                 const SetOfRegions& srcSet, std::span<const T> src,
                 const DistObject& dstObj, const SetOfRegions& dstSet,
                 std::span<T> dst, Method method = Method::kCooperation,
                 ScheduleCache* cache = nullptr) {
  ScheduleCache& c = cache != nullptr ? *cache : defaultScheduleCache();
  const auto sched = c.getOrBuild(comm, srcObj, srcSet, dstObj, dstSet, method);
  dataMove<T>(comm, *sched, src, dst);
}

}  // namespace mc::core
