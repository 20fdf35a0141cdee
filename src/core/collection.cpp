#include "core/collection.hpp"

#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace cx {

namespace {

struct MapRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, MapFn> maps;

  MapRegistry() {
    // "block": contiguous row-major blocks of roughly equal size — the
    // default placement for dense arrays (keeps neighbors together).
    maps["block"] = [](const Index& idx, const CollectionInfo& info,
                       int num_pes) {
      const std::uint64_t n = dense_size(info.dims);
      if (n == 0) return 0;
      const std::uint64_t lin = linearize(idx, info.dims);
      return static_cast<int>(lin * static_cast<std::uint64_t>(num_pes) / n);
    };
    // "hash": scatter by index hash (default for sparse arrays).
    maps["hash"] = [](const Index& idx, const CollectionInfo&, int num_pes) {
      return static_cast<int>(idx.hash() % static_cast<std::uint64_t>(num_pes));
    };
    // "rr": round robin over the linearized index.
    maps["rr"] = [](const Index& idx, const CollectionInfo& info,
                    int num_pes) {
      if (info.kind == CollectionKind::Array) {
        return static_cast<int>(linearize(idx, info.dims) %
                                static_cast<std::uint64_t>(num_pes));
      }
      return static_cast<int>(idx.hash() % static_cast<std::uint64_t>(num_pes));
    };
  }

  static MapRegistry& instance() {
    static MapRegistry r;
    return r;
  }
};

}  // namespace

void register_map(const std::string& name, MapFn fn) {
  auto& r = MapRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.maps[name] = std::move(fn);
}

std::uint64_t linearize(const Index& idx, const Index& dims) {
  std::uint64_t lin = 0;
  for (int i = 0; i < dims.ndims(); ++i) {
    lin = lin * static_cast<std::uint64_t>(dims[i]) +
          static_cast<std::uint64_t>(idx[i]);
  }
  return lin;
}

std::uint64_t dense_size(const Index& dims) {
  std::uint64_t n = 1;
  for (int i = 0; i < dims.ndims(); ++i) {
    n *= static_cast<std::uint64_t>(dims[i]);
  }
  return dims.ndims() == 0 ? 0 : n;
}

int home_pe(const CollectionInfo& info, const Index& idx, int num_pes) {
  return home_pe(info, resolve_map(info), idx, num_pes);
}

MapFn resolve_map(const CollectionInfo& info) {
  switch (info.kind) {
    case CollectionKind::Singleton:
    case CollectionKind::Group:
      return {};
    case CollectionKind::Array:
    case CollectionKind::SparseArray: {
      // Copy under the lock: a concurrent register_map of the same name
      // replaces the registry's entry in place.
      auto& r = MapRegistry::instance();
      std::lock_guard<std::mutex> lock(r.mutex);
      const auto it = r.maps.find(info.map_name);
      if (it == r.maps.end()) {
        throw std::out_of_range("unknown placement map: " + info.map_name);
      }
      return it->second;
    }
  }
  return {};
}

int home_pe(const CollectionInfo& info, const MapFn& map, const Index& idx,
            int num_pes) {
  switch (info.kind) {
    case CollectionKind::Singleton:
      return info.fixed_pe;
    case CollectionKind::Group:
      return idx[0];
    case CollectionKind::Array:
    case CollectionKind::SparseArray:
      return map(idx, info, num_pes);
  }
  return 0;
}

}  // namespace cx
