// Registry of library adapters.
//
// Adding a new data parallel library to Meta-Chaos is exactly one call:
// register its adapter.  No other library's code changes — the
// extensibility argument of the paper's Section 3.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/adapter.h"

namespace mc::core {

class Registry {
 public:
  /// The process-wide registry (shared by all virtual processors).
  static Registry& instance();

  /// Registers `adapter` under adapter->name().  Idempotent per name:
  /// re-registering an existing name is rejected.
  void add(std::unique_ptr<LibraryAdapter> adapter);

  const LibraryAdapter& get(const std::string& name) const;

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<LibraryAdapter>> adapters_;
};

/// Registers the four built-in adapters (parti, hpf, chaos, pc++) exactly
/// once per process; safe to call from every virtual processor.
void registerBuiltinAdapters();

/// The registered adapter for `obj`'s library, after registering the
/// built-ins; throws mc::Error for an unknown library.
const LibraryAdapter& adapterFor(const DistObject& obj);

}  // namespace mc::core
