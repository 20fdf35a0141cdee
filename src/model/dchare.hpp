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

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "core/charm.hpp"
#include "model/dclass.hpp"
#include "model/name_index.hpp"
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
  /// The class, resolved at construction and on unpack.
  [[nodiscard]] const MethodTable* method_table() const noexcept {
    return methods_;
  }

  /// Lock-free method lookup in this instance's class; nullptr if
  /// unknown. Methods defined later are found too.
  [[nodiscard]] const MethodDef* lookup_method(std::string_view method) const {
    return find_method(methods_, method);
  }

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

  const MethodDef& resolve(const std::string& method) const;
  /// operator[] with the name's hash given: `key` is cx::attr_key(name).
  Value& attr(cx::AttrKey key, std::string_view name);
  AttrEntry index_attr(cx::AttrKey key, Dict::value_type& node);

  std::string cls_;
  const MethodTable* methods_ = nullptr;
  /// The storage of record (pup, attrs(), repr); attr_index_ points
  /// into its nodes, which std::map keeps address-stable.
  Value attrs_ = Value::dict({});
  /// Attribute index (not pupped: unpacking replaces the dict nodes, so
  /// pup clears it and it refills on the next accesses).
  detail::NameIndex<AttrEntry> attr_index_;
};

}  // namespace cpy
