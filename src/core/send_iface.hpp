#pragma once
// Internal interface between the header-only proxy/creation templates and
// the Runtime (implemented in runtime.cpp). Applications use proxy.hpp
// and charm.hpp, never this header directly.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ids.hpp"
#include "core/index.hpp"
#include "core/reduction.hpp"

namespace cx {

class Chare;

namespace detail {

/// Arguments in transit: the live tuple plus a PUP traversal used only
/// if the message leaves the process-local fast path (paper §II-D:
/// same-PE sends pass arguments by reference and skip serialization
/// entirely). The traversal lets the wire builder size and pack the
/// tuple — including cpy::Value ndarrays, whose pup is one contiguous
/// bytes() call — directly into the message buffer.
struct ArgsCarrier {
  std::shared_ptr<void> tuple;
  void (*pup)(void* tuple, pup::Er& p) = nullptr;
};

/// Enable/disable the same-PE by-reference fast path (paper §II-D);
/// disabling forces serialization on every send (ablation studies).
bool local_fastpath_enabled() noexcept;
void set_local_fastpath(bool on) noexcept;

/// Point-to-point entry-method send. `nominal_bytes`, when nonzero, is
/// the payload size charged to cost models regardless of actual size.
void proxy_send(CollectionId coll, const Index& idx, EpId ep,
                ArgsCarrier args, const ReplyTo& reply,
                std::uint64_t nominal_bytes = 0);

/// Broadcast an entry method to every element of a collection. If `reply`
/// is valid it is fulfilled (empty) once every element has executed.
void proxy_broadcast(CollectionId coll, EpId ep, ArgsCarrier args,
                     const ReplyTo& reply);

/// Create a collection; returns its id immediately (creation is async).
CollectionId create_collection(CollectionKind kind, const Index& dims,
                               int ndims, FactoryId ctor,
                               std::vector<std::byte> ctor_args,
                               const std::string& map_name, int fixed_pe);

/// Insert one element into a sparse array (paper §II-G: ckInsert).
void sparse_insert(CollectionId coll, const Index& idx, FactoryId ctor,
                   std::vector<std::byte> ctor_args, int on_pe);

/// Finish sparse insertion (ckDoneInserting): waits (via quiescence) for
/// all in-flight inserts, establishes the final size on every PE, then
/// fulfills `reply`.
void sparse_done_inserting(CollectionId coll, const ReplyTo& reply);

/// Contribute packed data to the current reduction of `chare`'s
/// collection (paper §II-F).
void contribute_bytes(Chare& chare, std::vector<std::byte> value,
                      CombineId combiner, const Callback& target);

// ---- sections (sections.cpp) ---------------------------------------------

/// What a SectionProxy needs to operate: the id, the deduplicated
/// member count, and the section tree's root PE (first involved PE).
struct SectionHandle {
  std::uint64_t id = 0;
  std::uint64_t size = 0;
  std::int32_t root = -1;
};

/// Build a section over `members` of `coll`: allocates the id, computes
/// the spanning tree over the members' home PEs, and ships the spec
/// down that tree. Returns immediately (construction is async; early
/// multicasts/contributions stash at nodes that don't know the section
/// yet).
SectionHandle section_create(CollectionId coll, std::vector<Index> members);

/// Multicast an entry method over a section. If `reply` is valid it is
/// fulfilled (empty) once every member has executed.
void section_broadcast(std::uint64_t sect, CollectionId coll,
                       std::int32_t root, EpId ep, ArgsCarrier args,
                       const ReplyTo& reply);

/// Contribute packed data to a section-scoped reduction. The fragment
/// routes through the element's home PE — its delegate node in the
/// section tree — so it works unchanged from a migrated element.
void section_contribute_bytes(Chare& chare, std::uint64_t sect,
                              std::vector<std::byte> value,
                              CombineId combiner, const Callback& target);

/// Argument-tuple PUP traversal instantiated per tuple type.
template <typename Tuple>
void pup_tuple(void* t, pup::Er& p) {
  p | *static_cast<Tuple*>(t);
}

}  // namespace detail
}  // namespace cx
