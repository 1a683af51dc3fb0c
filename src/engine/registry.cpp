#include "engine/registry.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "engine/auto_backend.hpp"
#include "engine/backends.hpp"

namespace rtnn::engine {

BackendRegistry::BackendRegistry() {
  // Built-ins are registered here rather than through global initializers
  // so static-library dead-stripping can never drop them.
  add("brute_force", [] { return std::make_unique<BruteForceBackend>(); });
  add("grid", [] { return std::make_unique<GridBackend>(); });
  add("octree", [] { return std::make_unique<OctreeBackend>(); });
  add("fastrnn", [] { return std::make_unique<FastRnnBackend>(); });
  add("rtnn", [] { return std::make_unique<RtnnBackend>(); });
  add("auto", [] { return std::make_unique<AutoBackend>(); });
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(const std::string& name, Factory factory) {
  for (auto& [existing, f] : factories_) {
    if (existing == name) {
      f = std::move(factory);
      return;
    }
  }
  factories_.emplace_back(name, std::move(factory));
}

bool BackendRegistry::contains(std::string_view name) const {
  return std::any_of(factories_.begin(), factories_.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

std::unique_ptr<SearchBackend> BackendRegistry::create(std::string_view name) const {
  for (const auto& [registered, factory] : factories_) {
    if (registered == name) return factory();
  }
  throw Error("unknown search backend: " + std::string(name));
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) result.push_back(name);
  std::sort(result.begin(), result.end());
  return result;
}

std::unique_ptr<SearchBackend> make_backend(std::string_view name) {
  return BackendRegistry::instance().create(name);
}

}  // namespace rtnn::engine
