#pragma once
// Dynamic proxies and creation functions — the user-facing API of the
// model layer, mirroring the paper's syntax:
//
//   Python (paper)                       C++ (this layer)
//   ------------------------------------ --------------------------------
//   proxy = Chare(MyChare, onPE=-1)      auto p = cpy::create_chare("MyChare", -1, args)
//   proxy = Group(Worker)                auto g = cpy::create_group("Worker", args)
//   proxy = Array(C, (20,20))            auto a = cpy::create_array("C", {20,20}, args)
//   proxy.SayHi('Hello')                 p.send("SayHi", {"Hello"})
//   f = proxy.getValue(ret=True)         auto f = p.call("getValue", {})
//   elem = proxy[index]                  auto e = a[idx]
//   self.contribute(d, R.sum, t)         self.contribute_value(d, "sum", t)

#include <string>
#include <utility>

#include "model/dchare.hpp"

namespace cpy {

// A dynamic proxy resolves its class once: when it is made (from a
// name, or from the chare or collection it came from) and when it is
// unpacked. A send then reads the method's threaded flag from the
// class's lock-free method table.

class DElement {
 public:
  DElement() = default;
  DElement(cx::ElementProxy<DChare> p, std::string cls)
      : p_(p), cls_(std::move(cls)), methods_(find_class(cls_)) {}
  DElement(cx::ElementProxy<DChare> p, std::string cls,
           const MethodTable* methods)
      : p_(p), cls_(std::move(cls)), methods_(methods) {}

  /// Asynchronous invocation by method name; returns immediately.
  void send(const std::string& method, Args args = {}) const {
    if (is_threaded(method)) {
      p_.send<&DChare::dyn_call_threaded>(method, std::move(args));
    } else {
      p_.send<&DChare::dyn_call>(method, std::move(args));
    }
  }

  /// send() with an explicit nominal payload size (modeled-kernel runs).
  void send_sized(const std::string& method, Args args,
                  std::uint64_t nominal_bytes) const {
    if (is_threaded(method)) {
      p_.send_sized<&DChare::dyn_call_threaded>(nominal_bytes, method,
                                                std::move(args));
    } else {
      p_.send_sized<&DChare::dyn_call>(nominal_bytes, method,
                                       std::move(args));
    }
  }

  /// Invocation with a return-value future (paper: ret=True).
  [[nodiscard]] cx::Future<Value> call(const std::string& method,
                                       Args args = {}) const {
    if (is_threaded(method)) {
      return p_.call<&DChare::dyn_call_threaded>(method, std::move(args));
    }
    return p_.call<&DChare::dyn_call>(method, std::move(args));
  }

  /// Reduction target invoking `method` on this element.
  [[nodiscard]] DTarget target(const std::string& method) const {
    DTarget t;
    t.raw = p_.callback<&DChare::dyn_result>();
    t.wrap_method = true;
    t.method = method;
    return t;
  }

  [[nodiscard]] const cx::ElementProxy<DChare>& raw() const noexcept {
    return p_;
  }
  [[nodiscard]] const std::string& dclass() const noexcept { return cls_; }
  [[nodiscard]] const cx::Index& index() const noexcept {
    return p_.index();
  }

  void pup(pup::Er& p) {
    p_.pup(p);
    p | cls_;
    if (p.unpacking()) methods_ = find_class(cls_);
  }

 private:
  [[nodiscard]] bool is_threaded(const std::string& method) const {
    const MethodDef* def = find_method(methods_, method);
    return def != nullptr && def->threaded;
  }

  cx::ElementProxy<DChare> p_;
  std::string cls_;
  const MethodTable* methods_ = nullptr;
};

class DCollection {
 public:
  DCollection() = default;
  DCollection(cx::CollectionProxy<DChare> p, std::string cls)
      : p_(p), cls_(std::move(cls)), methods_(find_class(cls_)) {}
  DCollection(cx::CollectionProxy<DChare> p, std::string cls,
              const MethodTable* methods)
      : p_(p), cls_(std::move(cls)), methods_(methods) {}

  DElement operator[](const cx::Index& idx) const {
    return DElement(p_[idx], cls_, methods_);
  }

  /// Broadcast a method to every member.
  void broadcast(const std::string& method, Args args = {}) const {
    if (is_threaded(method)) {
      p_.broadcast<&DChare::dyn_call_threaded>(method, std::move(args));
    } else {
      p_.broadcast<&DChare::dyn_call>(method, std::move(args));
    }
  }

  /// Broadcast with a completion future (resolves to nothing once every
  /// member executed the method).
  [[nodiscard]] cx::Future<void> broadcast_done(const std::string& method,
                                                Args args = {}) const {
    if (is_threaded(method)) {
      return p_.broadcast_done<&DChare::dyn_call_threaded>(method,
                                                           std::move(args));
    }
    return p_.broadcast_done<&DChare::dyn_call>(method, std::move(args));
  }

  /// Reduction target broadcasting `method` (result goes to all members).
  [[nodiscard]] DTarget target(const std::string& method) const {
    DTarget t;
    t.raw = p_.callback<&DChare::dyn_result>();
    t.wrap_method = true;
    t.method = method;
    return t;
  }

  /// Sparse arrays: insert an element (ckInsert), optionally on a PE.
  void insert(const cx::Index& idx, Args ctor_args = {}) const {
    p_.insert(idx, cls_, std::move(ctor_args));
  }
  void insert_on(int pe, const cx::Index& idx, Args ctor_args = {}) const {
    p_.insert_on(pe, idx, cls_, std::move(ctor_args));
  }
  [[nodiscard]] cx::Future<void> done_inserting() const {
    return p_.done_inserting();
  }

  [[nodiscard]] const cx::CollectionProxy<DChare>& raw() const noexcept {
    return p_;
  }
  [[nodiscard]] const std::string& dclass() const noexcept { return cls_; }

  void pup(pup::Er& p) {
    p_.pup(p);
    p | cls_;
    if (p.unpacking()) methods_ = find_class(cls_);
  }

 private:
  [[nodiscard]] bool is_threaded(const std::string& method) const {
    const MethodDef* def = find_method(methods_, method);
    return def != nullptr && def->threaded;
  }

  cx::CollectionProxy<DChare> p_;
  std::string cls_;
  const MethodTable* methods_ = nullptr;
};

// ---------------------------------------------------------------------------
// Creation (paper §II-B/C/G)

namespace detail {
inline void require_class(const std::string& cls) {
  // The class registry is process-global, so an unknown name can be
  // rejected synchronously at the creation site (a Python NameError).
  if (!class_exists(cls)) {
    throw std::runtime_error("NameError: dynamic class '" + cls +
                             "' is not registered");
  }
}
}  // namespace detail

inline DElement create_chare(const std::string& cls, int on_pe = -1,
                             Args ctor_args = {}) {
  detail::require_class(cls);
  auto p = cx::create_chare<DChare>(on_pe, cls, std::move(ctor_args));
  return DElement(p, cls);
}

inline DCollection create_group(const std::string& cls,
                                Args ctor_args = {}) {
  detail::require_class(cls);
  auto p = cx::create_group<DChare>(cls, std::move(ctor_args));
  return DCollection(p, cls);
}

inline DCollection create_array(const std::string& cls,
                                const cx::Index& dims, Args ctor_args = {},
                                const std::string& map = "block") {
  detail::require_class(cls);
  cx::ArrayOptions opts;
  opts.map = map;
  auto p = cx::create_array_opts<DChare>(dims, opts, cls,
                                         std::move(ctor_args));
  return DCollection(p, cls);
}

inline DCollection create_sparse_array(const std::string& cls, int ndims,
                                       const std::string& map = "hash") {
  detail::require_class(cls);
  auto p = cx::create_sparse<DChare>(ndims, map);
  return DCollection(p, cls);
}

/// Proxy to the chare currently executing (thisProxy of the paper).
inline DElement proxy_of(const DChare& self) {
  return DElement(
      cx::ElementProxy<DChare>(self.collection(), self.this_index()),
      self.dclass(), self.method_table());
}

/// Proxy to the whole collection of the executing chare.
inline DCollection collection_proxy_of(const DChare& self) {
  return DCollection(cx::CollectionProxy<DChare>(self.collection()),
                     self.dclass(), self.method_table());
}

/// Reduction target from a future.
inline DTarget to_target(const cx::Future<Value>& f) {
  return DTarget::to_future(f.slot());
}

// ---------------------------------------------------------------------------
// Proxies as Values (paper §II-D: proxies can be passed as arguments).

inline Value to_value(const DElement& e) {
  ProxyRef r;
  r.coll = e.raw().collection();
  r.idx = e.raw().index();
  r.is_element = true;
  r.cls = e.dclass();
  return Value(std::move(r));
}

inline Value to_value(const DCollection& c) {
  ProxyRef r;
  r.coll = c.raw().id();
  r.is_element = false;
  r.cls = c.dclass();
  return Value(std::move(r));
}

inline DElement element_from(const Value& v) {
  const ProxyRef& r = v.as_proxy();
  if (!r.is_element) {
    throw std::runtime_error("TypeError: collection proxy, expected element");
  }
  return DElement(cx::ElementProxy<DChare>(r.coll, r.idx), r.cls);
}

inline DCollection collection_from(const Value& v) {
  const ProxyRef& r = v.as_proxy();
  return DCollection(cx::CollectionProxy<DChare>(r.coll), r.cls);
}

/// Boxed futures: a future travels inside a Value as its packed slot
/// (bytes), so dynamic methods can receive and later fulfill futures —
/// the paper's "futures can be sent to other chares" (§II-H3).
inline Value to_value(const cx::Future<Value>& f) {
  cx::ReplyTo slot = f.slot();
  return Value(pup::to_bytes(slot));
}

inline cx::Future<Value> future_from(const Value& v) {
  return cx::Future<Value>(pup::from_bytes<cx::ReplyTo>(v.as_bytes()));
}

}  // namespace cpy
