#pragma once
// Entry-method and constructor registration.
//
// Charm++ requires interface (.ci) files processed by a translator; the
// paper's model removes that step. Here, C++17 `template<auto>` plays the
// role of Python reflection: the first use of `ep_id<&MyChare::foo>()`
// registers an invoker able to (a) unpack the argument tuple from a
// message and (b) apply the member function, sending the return value to
// a reply future when requested (the `ret=True` path).
//
// Per-entry-method attributes (paper §II-E, §II-H):
//   set_threaded<&C::m>()      — run in a fiber; may block on futures/wait
//   set_when<&C::m>(predicate) — deliver only when predicate(chare, args)
//                                holds; otherwise buffer at the receiver.

#include <functional>
#include <initializer_list>
#include <memory>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/id_table.hpp"
#include "core/ids.hpp"
#include "core/when.hpp"
#include "pup/pup.hpp"

namespace cx {

class Chare;

namespace detail {

/// Deliver a packed return value to a future (defined in runtime.cpp).
void reply_with_bytes(const ReplyTo& reply, std::vector<std::byte>&& bytes);

template <typename T>
void send_reply(const ReplyTo& reply, T& value) {
  if (!reply.valid()) return;
  reply_with_bytes(reply, pup::to_bytes(value));
}

inline void send_empty_reply(const ReplyTo& reply) {
  if (!reply.valid()) return;
  reply_with_bytes(reply, {});
}

template <typename T>
struct MethodTraits;

template <typename C, typename R, typename... As>
struct MethodTraits<R (C::*)(As...)> {
  using Class = C;
  using Ret = R;
  using ArgsTuple = std::tuple<std::decay_t<As>...>;
};

}  // namespace detail

/// Type-erased registered entry method.
struct EpInfo {
  /// Unpack the serialized argument tuple into a heap allocation.
  std::shared_ptr<void> (*unpack)(pup::Unpacker& u) = nullptr;
  /// PUP-traverse an argument tuple: sizing and packing passes walk the
  /// live tuple, so the wire builder can serialize it straight into the
  /// message buffer (no intermediate vector). Also used to forward
  /// buffered messages when their target chare migrates.
  void (*pup_args)(void* args_tuple, pup::Er& p) = nullptr;
  /// Apply the method; consumes the tuple's contents (move).
  void (*invoke)(Chare* obj, void* args_tuple, const ReplyTo& reply) = nullptr;
  /// Run inside a fiber so the method may suspend.
  bool threaded = false;
  /// Optional delivery predicate (the `when` decorator).
  std::function<bool(Chare*, void*)> when;
  /// Static dependency set of the when condition (set_when_deps<M>):
  /// every message of this entry method reads the same attributes.
  std::shared_ptr<const WhenDeps> when_deps_static;
  /// Per-message dependency extractor (set_when_deps_fn<M>): the dynamic
  /// layer resolves the target method from the message and returns its
  /// condition's deps. May return nullptr (unknown → conservative).
  /// The returned pointer must stay valid for the process lifetime.
  std::function<const WhenDeps*(Chare*, void*)> when_deps;
};

/// Type-erased chare factories.
struct FactoryInfo {
  /// Construct from packed constructor arguments.
  Chare* (*construct)(const void* data, std::size_t len) = nullptr;
  /// Default-construct (for migration; null if not default-constructible).
  Chare* (*construct_default)() = nullptr;
};

/// Global append-only registry (process-wide; ids are stable across
/// Runtime instances, which matters for tests running many runtimes).
/// Both tables are IdTables: registration appends under a mutex, and
/// the per-message lookups read without one.
class Registry {
 public:
  static Registry& instance();

  EpId add_ep(EpInfo info) { return eps_.append(std::move(info)); }
  FactoryId add_factory(FactoryInfo info) {
    return factories_.append(info);
  }

  /// Throws std::out_of_range for an id that was never registered.
  [[nodiscard]] const EpInfo& ep(EpId id) const { return eps_.at(id); }
  [[nodiscard]] EpInfo& mutable_ep(EpId id);
  [[nodiscard]] const FactoryInfo& factory(FactoryId id) const {
    return factories_.at(id);
  }

 private:
  IdTable<EpInfo> eps_{"entry method"};
  IdTable<FactoryInfo> factories_{"chare factory"};
};

namespace detail {

template <auto M>
EpId register_ep() {
  using Traits = MethodTraits<decltype(M)>;
  using C = typename Traits::Class;
  using Ret = typename Traits::Ret;
  using Tuple = typename Traits::ArgsTuple;
  EpInfo info;
  info.unpack = +[](pup::Unpacker& u) -> std::shared_ptr<void> {
    auto t = std::make_shared<Tuple>();
    u | *t;
    return t;
  };
  info.pup_args = +[](void* args_tuple, pup::Er& p) {
    p | *static_cast<Tuple*>(args_tuple);
  };
  info.invoke = +[](Chare* obj, void* args_tuple, const ReplyTo& reply) {
    auto& t = *static_cast<Tuple*>(args_tuple);
    C* self = static_cast<C*>(obj);
    if constexpr (std::is_void_v<Ret>) {
      std::apply(
          [&](auto&... as) { (self->*M)(std::move(as)...); }, t);
      send_empty_reply(reply);
    } else {
      Ret r = std::apply(
          [&](auto&... as) { return (self->*M)(std::move(as)...); }, t);
      send_reply(reply, r);
    }
  };
  return Registry::instance().add_ep(std::move(info));
}

template <typename C, typename... CArgs>
FactoryId register_factory() {
  FactoryInfo info;
  info.construct = +[](const void* data, std::size_t len) -> Chare* {
    using Tuple = std::tuple<std::decay_t<CArgs>...>;
    pup::Unpacker u(data, len);
    Tuple t;
    u | t;
    return std::apply(
        [](auto&... as) -> Chare* { return new C(std::move(as)...); }, t);
  };
  if constexpr (std::is_default_constructible_v<C>) {
    info.construct_default = +[]() -> Chare* { return new C(); };
  }
  return Registry::instance().add_factory(info);
}

}  // namespace detail

template <auto M>
EpId ep_id();
template <typename C, typename... CArgs>
FactoryId factory_id();

namespace detail {

// Registration must happen at static-initialization time, not on first
// use: the socket backend runs one copy of the binary per OS
// process, and entry-method / factory ids travel inside messages, so
// every rank must assign identical ids. Lazy first-use registration
// orders ids by control flow (the driver rank touches proxies that
// worker ranks never do); these registrar objects instead force every
// instantiated id to register during static init, whose order is fixed
// by the binary — identical across ranks exec'ing the same executable.
// The guarded function-local static in ep_id()/factory_id() keeps
// things correct even for calls that run before a registrar does
// (e.g. other static initializers).
template <auto M>
struct EpAutoReg {
  EpAutoReg() { (void)cx::ep_id<M>(); }
};
template <auto M>
inline EpAutoReg<M> ep_auto_reg{};

template <typename C, typename... CArgs>
struct FactoryAutoReg {
  FactoryAutoReg() { (void)cx::factory_id<C, CArgs...>(); }
};
template <typename C, typename... CArgs>
inline FactoryAutoReg<C, CArgs...> factory_auto_reg{};

}  // namespace detail

/// Stable id for entry method M; registered during static init (the
/// odr-use of the registrar below pins the registration to program
/// startup so ids agree across socket-job ranks).
template <auto M>
EpId ep_id() {
  (void)&detail::ep_auto_reg<M>;
  static const EpId id = detail::register_ep<M>();
  return id;
}

/// Stable id for constructing C from (CArgs...); registered during
/// static init like ep_id().
template <typename C, typename... CArgs>
FactoryId factory_id() {
  (void)&detail::factory_auto_reg<C, CArgs...>;
  static const FactoryId id = detail::register_factory<C, CArgs...>();
  return id;
}

/// Mark entry method M as threaded (may call Future::get(), wait(), ...).
template <auto M>
void set_threaded(bool on = true) {
  Registry::instance().mutable_ep(ep_id<M>()).threaded = on;
}

/// Attach a `when` delivery predicate to entry method M. The predicate
/// sees the chare and the (already unpacked) arguments; the message is
/// buffered at the receiver until it returns true (paper §II-E).
template <auto M, typename F>
void set_when(F&& f) {
  using Traits = detail::MethodTraits<decltype(M)>;
  using C = typename Traits::Class;
  using Tuple = typename Traits::ArgsTuple;
  Registry::instance().mutable_ep(ep_id<M>()).when =
      [fn = std::forward<F>(f)](Chare* obj, void* args_tuple) -> bool {
    auto& t = *static_cast<Tuple*>(args_tuple);
    return std::apply(
        [&](auto&... as) { return fn(static_cast<C&>(*obj), as...); }, t);
  };
}

/// Remove a previously attached `when` predicate (and its deps).
template <auto M>
void clear_when() {
  EpInfo& info = Registry::instance().mutable_ep(ep_id<M>());
  info.when = nullptr;
  info.when_deps_static = nullptr;
  info.when_deps = nullptr;
}

/// Declare the chare attributes M's when predicate reads. A chare whose
/// predicate has declared deps must call mark_when_dirty(attr_key("x"))
/// whenever it writes one of them; in exchange, buffered messages are
/// only re-tested when a dependency actually changed instead of after
/// every entry method. Without this call the engine stays conservative.
template <auto M>
void set_when_deps(WhenDeps deps) {
  deps.known = true;
  Registry::instance().mutable_ep(ep_id<M>()).when_deps_static =
      std::make_shared<const WhenDeps>(std::move(deps));
}

/// Convenience: declare deps by attribute name.
template <auto M>
void set_when_deps(std::initializer_list<std::string_view> names) {
  WhenDeps d;
  for (const auto n : names) d.add(attr_key(n));
  set_when_deps<M>(std::move(d));
}

/// Attach a per-message dependency extractor: `f(chare, args...)` returns
/// the condition deps of that particular message (process-lifetime
/// pointer), or nullptr for "unknown". Used by the dynamic model layer,
/// where one universal entry method carries many differently-guarded
/// target methods.
template <auto M, typename F>
void set_when_deps_fn(F&& f) {
  using Traits = detail::MethodTraits<decltype(M)>;
  using C = typename Traits::Class;
  using Tuple = typename Traits::ArgsTuple;
  Registry::instance().mutable_ep(ep_id<M>()).when_deps =
      [fn = std::forward<F>(f)](Chare* obj,
                                void* args_tuple) -> const WhenDeps* {
    auto& t = *static_cast<Tuple*>(args_tuple);
    return std::apply(
        [&](auto&... as) { return fn(static_cast<C&>(*obj), as...); }, t);
  };
}

}  // namespace cx
