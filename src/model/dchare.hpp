#pragma once
// DChare — the dynamic chare of the model layer.
//
// Every dynamic chare is an instance of one C++ class whose behaviour is
// given by its DClass (method table looked up by name) and whose state
// lives in an attribute dict — exactly how Python objects work, which is
// what gives this layer CharmPy's flexibility (a class usable for
// singletons, groups and any array; automatic migration serialization of
// the whole attribute dict; `when`/`wait` conditions evaluated against
// attributes by name).
//
// Inside a method, `self["x"]` reads/writes attributes:
//
//   cls.def("recvData", {"data"}, [](cpy::DChare& self, cpy::Args& a) {
//     self["msg_count"] = self["msg_count"].as_int() + 1;
//     return cpy::Value::none();
//   });

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/charm.hpp"
#include "model/dclass.hpp"
#include "model/value.hpp"

namespace cpy {

/// Reduction target: a future, or a (possibly broadcast) entry method.
struct DTarget {
  cx::Callback raw;
  bool wrap_method = false;  ///< value travels as (method, value)
  std::string method;

  static DTarget to_future(const cx::ReplyTo& slot) {
    DTarget t;
    t.raw = cx::Callback::to_future(slot);
    return t;
  }
};

namespace detail {

/// Open-addressed table from a name to an entry pointing into node-based
/// storage owned elsewhere (the attribute dict, the method registry).
/// Linear probing over a power-of-two capacity kept at most half full;
/// it grows by doubling. A probe matches on the cx::attr_key hash and
/// then compares the name itself, so two names whose hashes collide
/// never alias. `E` has a `key`, `bool empty() const` and
/// `std::string_view name() const`.
template <typename E>
class NameIndex {
 public:
  [[nodiscard]] const E* find(cx::AttrKey key,
                              std::string_view name) const noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = key & mask;; i = (i + 1) & mask) {
      const E& e = slots_[i];
      if (e.empty()) return nullptr;
      if (e.key == key && e.name() == name) return &e;
    }
  }

  /// Add an entry whose name is not in the table yet.
  void insert(const E& e) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<E> old(std::max<std::size_t>(8, 2 * slots_.size()));
      old.swap(slots_);
      for (const E& o : old) {
        if (!o.empty()) place(o);
      }
    }
    place(e);
    ++size_;
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
  }

 private:
  void place(const E& e) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = e.key & mask;
    while (!slots_[i].empty()) i = (i + 1) & mask;
    slots_[i] = e;
  }

  std::vector<E> slots_;
  std::size_t size_ = 0;
};

}  // namespace detail

class DChare : public cx::Chare {
 public:
  DChare() = default;  ///< migration path (state arrives via pup)

  /// Construction: binds the instance to its dynamic class and calls
  /// "__init__" with `ctor_args` if defined.
  DChare(std::string cls, Args ctor_args);

  /// Universal entry methods: dispatch by method name. The runtime picks
  /// the threaded variant for methods declared with def_threaded.
  Value dyn_call(std::string method, Args args);
  Value dyn_call_threaded(std::string method, Args args);

  /// Reduction-result delivery: invokes `tagged.first` with the result.
  void dyn_result(std::pair<std::string, Value> tagged);

  // --- state ---------------------------------------------------------------

  /// Attribute access (creates the attribute on write, like Python).
  /// Every access marks the attribute dirty for the when engine, since
  /// the returned reference may be written through.
  /// Always inlined, so a literal name's hash folds at compile time.
  [[gnu::always_inline]] Value& operator[](std::string_view name) {
    return attr(cx::attr_key(name), name);
  }
  [[nodiscard]] bool has_attr(const std::string& name) const;
  /// Lookup for condition evaluation: never creates the attribute and
  /// marks nothing dirty. `key` is cx::attr_key(name). Null if unset.
  [[nodiscard]] const Value* find_attr(cx::AttrKey key,
                                       std::string_view name);
  /// The whole attribute dict as a Value (shared reference). Read it
  /// only: the attribute index points into its nodes.
  [[nodiscard]] const Value& attrs() const noexcept { return attrs_; }

  [[nodiscard]] const std::string& dclass() const noexcept { return cls_; }

  /// Method lookup through this instance's cache: one global-registry
  /// resolution per method name for the lifetime of the instance
  /// (MethodDef storage is node-based, so the pointers stay valid and
  /// see later redefinitions in place). Returns nullptr if unknown;
  /// misses are not cached, so methods defined later are still found.
  [[nodiscard]] const MethodDef* find_method_cached(
      std::string_view method) const;

  /// Automatic migration serialization: class name + attribute dict.
  void pup(pup::Er& p) override;

  /// Calls the dynamic method "resumeFromSync" after load balancing.
  void resume_from_sync() override;

  // --- services for method bodies -------------------------------------------

  /// Suspend until a condition over `self` holds (threaded methods only).
  /// Paper §II-H2: self.wait('condition').
  void wait_until(const std::string& condition);

  /// Contribute to a reduction (paper §II-F). Reducer names: "sum",
  /// "product", "min", "max", "gather", "concat", or a custom name
  /// registered with add_dyn_reducer.
  void contribute_value(const Value& data, const std::string& reducer,
                        const DTarget& target);

  /// Empty reduction (barrier): data=None, reducer=None of the paper.
  void barrier(const DTarget& target) {
    contribute_value(Value::none(), "none", target);
  }

  /// Re-exposed chare services (protected in cx::Chare).
  void migrate_to(int pe) { migrate(pe); }
  void sync() { at_sync(); }

  /// Per-message overhead charged to the simulated clock by dyn_call,
  /// modeling the interpreter/dispatch cost of the dynamic layer (no-op
  /// on the threaded backend, where the real cost is already paid).
  static void set_sim_dispatch_overhead(double seconds) noexcept;
  static double sim_dispatch_overhead() noexcept;

 private:
  /// One attribute: its dict node and its dirty-clock tick slot.
  struct AttrEntry {
    cx::AttrKey key = 0;
    Dict::value_type* node = nullptr;
    std::uint64_t* tick = nullptr;
    [[nodiscard]] bool empty() const noexcept { return node == nullptr; }
    [[nodiscard]] std::string_view name() const noexcept {
      return node->first;
    }
  };
  struct MethodEntry {
    cx::AttrKey key = 0;
    const MethodDef* def = nullptr;
    [[nodiscard]] bool empty() const noexcept { return def == nullptr; }
    [[nodiscard]] std::string_view name() const noexcept {
      return def->name;
    }
  };

  const MethodDef& resolve(const std::string& method) const;
  /// operator[] with the name's hash given: `key` is cx::attr_key(name).
  Value& attr(cx::AttrKey key, std::string_view name);
  AttrEntry index_attr(cx::AttrKey key, Dict::value_type& node);

  std::string cls_;
  /// The storage of record (pup, attrs(), repr); attr_index_ points
  /// into its nodes, which std::map keeps address-stable.
  Value attrs_ = Value::dict({});
  /// Attribute index (not pupped: unpacking replaces the dict nodes, so
  /// pup clears it and it refills on the next accesses).
  detail::NameIndex<AttrEntry> attr_index_;
  /// Per-instance method resolution cache (positive entries only; not
  /// pupped — it repopulates after migration).
  mutable detail::NameIndex<MethodEntry> method_index_;
};

}  // namespace cpy
