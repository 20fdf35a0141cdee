#pragma once
// Dynamic chare classes (the model layer's class objects).
//
// In CharmPy a chare class is a plain Python class: methods are found by
// reflection, @when/@threaded are decorators. Here a DClass describes a
// dynamic class as data — method table, parameter names (needed so `when`
// conditions can reference arguments by name), threaded flags and
// compiled when-conditions:
//
//   cpy::DClass cls("Worker");
//   cls.def("__init__", {"master"}, [](cpy::DChare& self, cpy::Args& a) {
//       self["master"] = a[0];
//       return cpy::Value::none();
//     });
//   cls.def("recv", {"iter", "data"}, ...).when("recv", "self.iter == iter");
//   cls.def_threaded("run", {}, ...);
//
// Classes register globally by name at construction; instances are
// created with cpy::create_chare / create_group / create_array.
//
// Definitions take the registry's mutex; lookups do not. Each class's
// methods sit in a lock-free PublishedIndex, and so do the classes
// themselves, so a send or a dispatch never waits on a definition made
// by another PE (pool.cpp defines its classes lazily, mid-run).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/expr.hpp"
#include "model/value.hpp"

namespace cpy {

class DChare;

using MethodFn = std::function<Value(DChare& self, Args& args)>;

struct MethodDef {
  std::string name;
  std::vector<std::string> params;
  MethodFn fn;
  bool threaded = false;
  bool has_when = false;
  Expr when_cond;
  /// Dependency set of when_cond (shared with the compiled Expr); the
  /// delivery engine uses it to skip re-tests of buffered messages
  /// whose `self.<attr>` reads did not change.
  std::shared_ptr<const cx::WhenDeps> when_deps;
};

/// A registered class's method table. Resolve it once by name with
/// find_class() and keep the pointer: it stays valid for the process
/// lifetime and sees methods defined later.
class MethodTable;

class DClass {
 public:
  /// Create (or reopen) the class `name` in the global registry.
  explicit DClass(std::string name);

  /// Define a method. Parameter names are used by `when` conditions.
  /// A new method is published fully formed (threaded flag included);
  /// redefining an existing one overwrites its MethodDef in place, which
  /// must not race with dispatches of that method.
  DClass& def(const std::string& method, std::vector<std::string> params,
              MethodFn fn);

  /// Define a threaded method (may block on futures / wait()).
  DClass& def_threaded(const std::string& method,
                       std::vector<std::string> params, MethodFn fn);

  /// Attach a when-condition string to a method (the @when decorator).
  /// The condition is compiled once, here.
  DClass& when(const std::string& method, const std::string& condition);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  DClass& define(const std::string& method, std::vector<std::string> params,
                 MethodFn fn, bool threaded);

  std::string name_;
  MethodTable* table_;
};

/// The class `cls`, or nullptr if it is not registered. Lock-free.
const MethodTable* find_class(std::string_view cls);

/// Look up a method of a resolved class (null `cls` finds nothing).
/// Lock-free. The returned pointer stays valid for the process lifetime.
const MethodDef* find_method(const MethodTable* cls, std::string_view method);

/// Look up a method by class name; nullptr if the class or method is
/// unknown.
const MethodDef* find_method(const std::string& cls,
                             const std::string& method);

/// True if the class exists in the registry.
bool class_exists(const std::string& cls);

namespace detail {
/// How often the class registry's mutex has been taken. Only
/// definitions take it; tests read this to show that no send or
/// dispatch does.
std::uint64_t class_registry_locks() noexcept;
}  // namespace detail

}  // namespace cpy
