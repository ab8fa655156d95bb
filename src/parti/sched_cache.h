// Cached Parti schedule builders.
//
// Parti builds are pure local computation, so caching needs no
// cross-processor agreement: every rank keys on the same replicated
// descriptor state and therefore hits and misses in lockstep.  The cache is
// per virtual processor (thread_local), like the rank's arrays themselves;
// cached schedules come back run-compressed, so a reused ghost fill
// executes memcpy-wise from the second time-step on.
#pragma once

#include "parti/dist_array.h"
#include "parti/schedule.h"
#include "sched/schedule_cache.h"

namespace mc::parti {

/// The calling rank's cache of Parti-built schedules.
sched::KeyedCache<Schedule>& partiScheduleCache();

/// Cached buildGhostSchedule.
std::shared_ptr<const Schedule> cachedGhostSchedule(const PartiDesc& desc,
                                                    int myProc);

/// Contribution of a Parti descriptor to a cache key.
void hashPartiDesc(HashStream& h, const PartiDesc& desc);

}  // namespace mc::parti
