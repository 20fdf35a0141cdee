#pragma once
// Proxies — handles for remote method invocation (paper §II-D).
//
//   auto workers = cx::create_array<Worker>({100});
//   workers[7].send<&Worker::work>(data);          // fire-and-forget
//   auto f = workers[7].call<&Worker::result>();   // ret=True: a future
//   workers.broadcast<&Worker::start>(args);       // whole collection
//
// Calls return immediately; arguments are serialized only if the target
// lives on a different PE — same-PE sends hand the argument tuple over by
// reference (the paper's CharmPy-specific optimization). Proxies are
// plain values: copyable, PUPable, and passable as entry-method
// arguments.

#include <type_traits>
#include <utility>

#include "core/future.hpp"
#include "core/registry.hpp"
#include "core/send_iface.hpp"

namespace cx {

namespace detail {

template <auto M, typename C, typename... Us>
ArgsCarrier make_args(Us&&... us) {
  using Traits = MethodTraits<decltype(M)>;
  static_assert(std::is_base_of_v<typename Traits::Class, C>,
                "entry method does not belong to this proxy's chare type");
  using Tuple = typename Traits::ArgsTuple;
  auto t = std::make_shared<Tuple>(std::forward<Us>(us)...);
  return ArgsCarrier{std::move(t), &pup_tuple<Tuple>};
}

template <auto M>
using RetOf = typename MethodTraits<decltype(M)>::Ret;

}  // namespace detail

/// Proxy to one element of a collection (or to a singleton chare).
template <typename C>
class ElementProxy {
 public:
  ElementProxy() = default;
  ElementProxy(CollectionId coll, const Index& idx)
      : coll_(coll), idx_(idx) {}

  /// Invoke entry method M asynchronously; returns immediately.
  template <auto M, typename... Us>
  void send(Us&&... us) const {
    detail::proxy_send(coll_, idx_, ep_id<M>(),
                       detail::make_args<M, C>(std::forward<Us>(us)...), {});
  }

  /// send() with an explicit nominal payload size for cost models —
  /// used by modeled-kernel simulation runs shipping token payloads.
  template <auto M, typename... Us>
  void send_sized(std::uint64_t nominal_bytes, Us&&... us) const {
    detail::proxy_send(coll_, idx_, ep_id<M>(),
                       detail::make_args<M, C>(std::forward<Us>(us)...), {},
                       nominal_bytes);
  }

  /// Invoke M and obtain a Future for its return value (ret=True).
  template <auto M, typename... Us>
  [[nodiscard]] Future<detail::RetOf<M>> call(Us&&... us) const {
    detail::FutureHandle h = detail::make_future_handle();
    detail::proxy_send(coll_, idx_, ep_id<M>(),
                       detail::make_args<M, C>(std::forward<Us>(us)...),
                       h.slot());
    return Future<detail::RetOf<M>>(std::move(h));
  }

  /// Callback that invokes M on this element (reduction targets).
  template <auto M>
  [[nodiscard]] Callback callback() const {
    return Callback::to_element(coll_, idx_, ep_id<M>());
  }

  [[nodiscard]] CollectionId collection() const noexcept { return coll_; }
  [[nodiscard]] const Index& index() const noexcept { return idx_; }
  [[nodiscard]] bool valid() const noexcept {
    return coll_ != kInvalidCollection;
  }

  bool operator==(const ElementProxy& o) const {
    return coll_ == o.coll_ && idx_ == o.idx_;
  }

  void pup(pup::Er& p) {
    p | coll_;
    p | idx_;
  }

 private:
  CollectionId coll_ = kInvalidCollection;
  Index idx_;
};

/// Proxy to a *section* — an arbitrary index subset of a chare array
/// (obtained from CollectionProxy::section). Multicasts travel a k-ary
/// spanning tree over just the PEs hosting members; section-scoped
/// reductions climb the same tree. Plain value: copyable, PUPable,
/// passable as an entry-method argument — members typically receive
/// their section proxy that way and contribute to it.
template <typename C>
class SectionProxy {
 public:
  SectionProxy() = default;

  /// Invoke M on every member of the section (multicast).
  template <auto M, typename... Us>
  void broadcast(Us&&... us) const {
    detail::section_broadcast(sect_, coll_, root_, ep_id<M>(),
                              detail::make_args<M, C>(std::forward<Us>(us)...),
                              {});
  }

  /// Multicast M and obtain a future that completes (with no value)
  /// once every member has executed it.
  template <auto M, typename... Us>
  [[nodiscard]] Future<void> broadcast_done(Us&&... us) const {
    detail::FutureHandle h = detail::make_future_handle();
    detail::section_broadcast(sect_, coll_, root_, ep_id<M>(),
                              detail::make_args<M, C>(std::forward<Us>(us)...),
                              h.slot());
    return Future<void>(std::move(h));
  }

  /// The section id (distinct namespace from collection ids).
  [[nodiscard]] std::uint64_t section_id() const noexcept { return sect_; }
  [[nodiscard]] CollectionId collection() const noexcept { return coll_; }
  /// Number of (deduplicated) members.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool valid() const noexcept { return sect_ != 0; }

  bool operator==(const SectionProxy& o) const {
    return sect_ == o.sect_ && coll_ == o.coll_;
  }

  void pup(pup::Er& p) {
    p | sect_;
    p | coll_;
    p | size_;
    p | root_;
  }

 private:
  template <typename>
  friend class CollectionProxy;

  SectionProxy(std::uint64_t sect, CollectionId coll, std::uint64_t size,
               std::int32_t root)
      : sect_(sect), coll_(coll), size_(size), root_(root) {}

  std::uint64_t sect_ = 0;
  CollectionId coll_ = kInvalidCollection;
  std::uint64_t size_ = 0;
  std::int32_t root_ = -1;
};

/// Proxy to a whole collection (Array or Group).
template <typename C>
class CollectionProxy {
 public:
  CollectionProxy() = default;
  explicit CollectionProxy(CollectionId coll) : coll_(coll) {}

  /// Proxy to a single member.
  ElementProxy<C> operator[](const Index& idx) const {
    return ElementProxy<C>(coll_, idx);
  }

  /// Invoke M on every member (broadcast).
  template <auto M, typename... Us>
  void broadcast(Us&&... us) const {
    detail::proxy_broadcast(coll_, ep_id<M>(),
                            detail::make_args<M, C>(std::forward<Us>(us)...),
                            {});
  }

  /// Broadcast M and obtain a future that completes (with no value) once
  /// every member has executed it (paper §II-D: futures on broadcasts).
  template <auto M, typename... Us>
  [[nodiscard]] Future<void> broadcast_done(Us&&... us) const {
    detail::FutureHandle h = detail::make_future_handle();
    detail::proxy_broadcast(coll_, ep_id<M>(),
                            detail::make_args<M, C>(std::forward<Us>(us)...),
                            h.slot());
    return Future<void>(std::move(h));
  }

  /// Callback that broadcasts M to the collection (reduction targets).
  template <auto M>
  [[nodiscard]] Callback callback() const {
    return Callback::to_broadcast(coll_, ep_id<M>());
  }

  /// Insert an element into a sparse array (paper: ckInsert). `on_pe`
  /// -1 places it by the collection's map.
  template <typename... Us>
  void insert(const Index& idx, Us&&... us) const {
    auto args = std::make_tuple(std::decay_t<Us>(std::forward<Us>(us))...);
    detail::sparse_insert(coll_, idx, factory_id<C, std::decay_t<Us>...>(),
                          pup::to_bytes(args), /*on_pe=*/-1);
  }

  template <typename... Us>
  void insert_on(int pe, const Index& idx, Us&&... us) const {
    auto args = std::make_tuple(std::decay_t<Us>(std::forward<Us>(us))...);
    detail::sparse_insert(coll_, idx, factory_id<C, std::decay_t<Us>...>(),
                          pup::to_bytes(args), pe);
  }

  /// Build a section over an arbitrary index subset of this array.
  /// Creation is asynchronous; the returned proxy is usable
  /// immediately (early operations are stashed until the section's
  /// build reaches the involved PEs).
  [[nodiscard]] SectionProxy<C> section(std::vector<Index> indices) const {
    const detail::SectionHandle h =
        detail::section_create(coll_, std::move(indices));
    return SectionProxy<C>(h.id, coll_, h.size, h.root);
  }

  /// Finish sparse insertion (paper: ckDoneInserting). The returned
  /// future completes once every in-flight insert has landed and every
  /// PE knows the final size; broadcast/reduce only after that.
  Future<void> done_inserting() const {
    detail::FutureHandle h = detail::make_future_handle();
    detail::sparse_done_inserting(coll_, h.slot());
    return Future<void>(std::move(h));
  }

  [[nodiscard]] CollectionId id() const noexcept { return coll_; }
  [[nodiscard]] bool valid() const noexcept {
    return coll_ != kInvalidCollection;
  }

  bool operator==(const CollectionProxy& o) const { return coll_ == o.coll_; }

  void pup(pup::Er& p) { p | coll_; }

 private:
  CollectionId coll_ = kInvalidCollection;
};

}  // namespace cx
