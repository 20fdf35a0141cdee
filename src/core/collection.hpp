#pragma once
// Collection metadata and element-placement maps (paper §II-C, §II-G).
//
// Every PE holds a copy of each collection's metadata (delivered by the
// creation broadcast). The placement map gives the *home* PE of an index:
// the PE an element starts on, and the PE that always knows the element's
// current location after migrations.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/index.hpp"
#include "pup/pup.hpp"

namespace cx {

struct CollectionInfo {
  CollectionId id = kInvalidCollection;
  CollectionKind kind = CollectionKind::Array;
  Index dims;           ///< dense array shape (unused for other kinds)
  int ndims = 1;        ///< index arity (sparse arrays fix this up front)
  std::uint64_t size = 0;  ///< element count; sparse: set by done_inserting
  FactoryId ctor = 0;
  std::vector<std::byte> ctor_args;
  std::string map_name = "block";
  std::int32_t fixed_pe = -1;  ///< singleton placement
  bool inserting = false;      ///< sparse array still accepting inserts

  void pup(pup::Er& p) {
    p | id;
    p | kind;
    p | dims;
    p | ndims;
    p | size;
    p | ctor;
    p | ctor_args;
    p | map_name;
    p | fixed_pe;
    p | inserting;
  }
};

/// Placement map: index -> PE. Equivalent of the paper's ArrayMap chares
/// (§II-G1), registered by name.
using MapFn = std::function<int(const Index& idx, const CollectionInfo& info,
                                int num_pes)>;

/// Register a custom placement map under `name` (process-global).
void register_map(const std::string& name, MapFn fn);

/// Row-major linearization of a dense index.
std::uint64_t linearize(const Index& idx, const Index& dims);

/// Number of elements of a dense shape.
std::uint64_t dense_size(const Index& dims);

/// Home/initial PE of an element (map-based; singleton/group are fixed).
/// Looks the map up by name on every call; the runtime resolves it once
/// per collection instead (resolve_map below).
int home_pe(const CollectionInfo& info, const Index& idx, int num_pes);

/// The placement map of `info`, copied out of the registry so later
/// home_pe calls skip the registry lock and name lookup. Empty for
/// singletons and groups, whose placement is fixed; throws
/// std::out_of_range for an unknown map name.
MapFn resolve_map(const CollectionInfo& info);

/// home_pe with the map already resolved by resolve_map(info).
int home_pe(const CollectionInfo& info, const MapFn& map, const Index& idx,
            int num_pes);

}  // namespace cx
