#include "core/registry.h"

#include <mutex>

#include "core/adapters/chaos_adapter.h"
#include "core/adapters/hpf_adapter.h"
#include "core/adapters/parti_adapter.h"
#include "core/adapters/tulip_adapter.h"

namespace mc::core {

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

const LibraryAdapter& adapterFor(const DistObject& obj) {
  registerBuiltinAdapters();
  return Registry::instance().get(obj.library());
}

}  // namespace mc::core
