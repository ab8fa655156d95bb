#include "core/registry.h"

#include <mutex>

#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/run_emitter.h"
#include "core/adapters/tulip_adapter.h"

namespace mc::core {

std::vector<LinLoc> LibraryAdapter::enumerateOwned(
    const DistObject& obj, const SetOfRegions& set,
    transport::Comm& comm) const {
  MC_REQUIRE(supportsLocalEnumeration(obj),
             "library '%s' cannot enumerate ownership locally; the adapter "
             "must override enumerateOwned",
             name().c_str());
  std::vector<LinLoc> out;
  const int me = comm.rank();
  enumerateAll(obj, set,
               [&](layout::Index lin, int owner, layout::Index offset) {
                 if (owner == me) out.push_back(LinLoc{lin, offset});
               });
  return out;  // enumerateAll visits in order, so `out` is sorted by lin
}

void LibraryAdapter::enumerateRange(
    const DistObject& obj, const SetOfRegions& set, layout::Index linLo,
    layout::Index linHi,
    const std::function<void(layout::Index, int, layout::Index)>& fn) const {
  MC_REQUIRE(supportsLocalEnumeration(obj),
             "library '%s' cannot enumerate ownership locally",
             name().c_str());
  enumerateAll(obj, set, [&](layout::Index lin, int owner,
                             layout::Index offset) {
    if (lin >= linLo && lin < linHi) fn(lin, owner, offset);
  });
}

std::vector<LinRun> LibraryAdapter::enumerateOwnedRuns(
    const DistObject& obj, const SetOfRegions& set,
    transport::Comm& comm) const {
  std::vector<LinRun> out;
  if (supportsLocalEnumeration(obj)) {
    // Locally enumerable descriptors need no communication at all: filter
    // the run stream down to this processor's runs.
    const int me = comm.rank();
    enumerateRangeRuns(obj, set, 0, set.numElements(),
                       [&](layout::Index lin, int owner, layout::Index off,
                           layout::Index count, layout::Index offStride) {
                         if (owner != me) return;
                         sched::appendRun(out,
                                          LinRun{lin, off, count, offStride});
                       });
    return out;
  }
  // Dereference requires communication (Chaos with a distributed table):
  // run the collective element enumeration and coalesce its sorted output.
  for (const LinLoc& ll : enumerateOwned(obj, set, comm)) {
    sched::appendRun(out, LinRun{ll.lin, ll.offset, 1, 0});
  }
  return out;
}

void LibraryAdapter::enumerateRangeRuns(const DistObject& obj,
                                        const SetOfRegions& set,
                                        layout::Index linLo,
                                        layout::Index linHi,
                                        const RunFn& fn) const {
  // Element-wise fallback: the streaming emitter, fed one element at a
  // time.  O(linHi - linLo) time but O(1) extra memory; adapters with
  // analytic distributions override this with O(runs) enumeration.
  RunEmitter emit(fn);
  enumerateRange(obj, set, linLo, linHi,
                 [&](layout::Index lin, int owner, layout::Index off) {
                   emit.add(lin, owner, off, 1, 0);
                 });
  emit.flush();
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(std::unique_ptr<LibraryAdapter> adapter) {
  MC_REQUIRE(adapter != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = adapter->name();
  MC_REQUIRE(adapters_.find(key) == adapters_.end(),
             "library '%s' is already registered", key.c_str());
  adapters_.emplace(key, std::move(adapter));
}

bool Registry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return adapters_.find(name) != adapters_.end();
}

const LibraryAdapter& Registry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = adapters_.find(name);
  MC_REQUIRE(it != adapters_.end(), "no adapter registered for library '%s'",
             name.c_str());
  return *it->second;
}

void registerBuiltinAdapters() {
  static std::once_flag once;
  std::call_once(once, [] {
    Registry& r = Registry::instance();
    r.add(std::make_unique<PartiAdapter>());
    r.add(std::make_unique<HpfAdapter>());
    r.add(std::make_unique<ChaosAdapter>());
    r.add(std::make_unique<TulipAdapter>());
  });
}

}  // namespace mc::core
