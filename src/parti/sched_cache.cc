#include "parti/sched_cache.h"

#include "layout/section_hash.h"
#include "obs/metrics.h"
#include "parti/ghost.h"

namespace mc::parti {

sched::KeyedCache<Schedule>& partiScheduleCache() {
  thread_local sched::KeyedCache<Schedule> cache;
  thread_local bool registered = [] {
    obs::registerCacheMetrics(obs::threadRegistry(), "parti.sched_cache",
                              cache);
    return true;
  }();
  (void)registered;
  return cache;
}

void hashPartiDesc(HashStream& h, const PartiDesc& desc) {
  layout::hashShape(h, desc.decomp.globalShape());
  for (int g : desc.decomp.grid()) h.pod(g);
  h.pod(desc.ghost);
}

std::shared_ptr<const Schedule> cachedGhostSchedule(const PartiDesc& desc,
                                                    int myProc) {
  HashStream h;
  h.str("parti-ghost");
  hashPartiDesc(h, desc);
  h.pod(myProc);
  return partiScheduleCache().getOrBuild(h.digest(), [&] {
    auto built = std::make_shared<Schedule>(buildGhostSchedule(desc, myProc));
    built->compress();
    return built;
  });
}

}  // namespace mc::parti
