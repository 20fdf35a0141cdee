#pragma once
// Expression engine for `when` / `wait` condition strings (paper §II-E,
// §II-H2). CharmPy evaluates standard Python conditionals like
//
//   "self.iter == iter"        "x + z == self.x"
//   "self.ready"               "self.msg_count == len(self.neighbors)"
//   "0 <= iter < self.n"       (chained comparison, Python semantics)
//
// against the chare's state and the entry method's arguments. This is the
// C++ rendering: a Pratt parser compiles the condition once into an AST;
// evaluation resolves `self.attr` in the chare's attribute dict and bare
// names in the entry method's named arguments.
//
// Supported grammar: or/and/not; comparisons == != < <= > >= including
// Python chained comparisons (`a < b <= c` evaluates each operand once,
// left to right, short-circuiting on the first failure); + - * / %;
// unary -; literals (ints, floats, 'strings', True/False/None); attribute
// access (self.x, nested dicts); indexing a[i]; builtin calls len(), abs(),
// min(,), max(,).
//
// Each compiled condition also carries the set of `self.<attr>` names it
// reads (cx::WhenDeps), extracted from the AST at compile time. The
// delivery engine uses it to skip re-testing buffered messages whose
// dependencies did not change (see core/when.hpp).

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/when.hpp"
#include "model/value.hpp"

namespace cpy {

/// Resolves a bare identifier during evaluation ("self" included).
using NameResolver = std::function<Value(const std::string&)>;

class DChare;

/// Non-allocating evaluation context — the hot-path alternative to
/// NameResolver (which costs a std::function allocation per test).
/// `self` resolves to the attribute dict; bare names resolve
/// positionally through params/args; `fallback` (optional) handles
/// anything else. With `chare` set, `self.x` reads go through the
/// chare's attribute index (DChare::find_attr) instead of the dict.
struct EvalCtx {
  const Value* self = nullptr;
  DChare* chare = nullptr;
  const std::vector<std::string>* params = nullptr;
  const Args* args = nullptr;
  const NameResolver* fallback = nullptr;
};

class Expr {
 public:
  /// Compile a condition string; throws std::runtime_error on syntax
  /// errors (with position information, including trailing unconsumed
  /// input).
  static Expr compile(const std::string& source);

  /// Compile through the global source-string cache (shared by @when
  /// and wait_until call sites; compiling the same string twice returns
  /// the same shared AST).
  static const Expr& compile_cached(const std::string& source);

  /// Number of distinct sources in the compile cache (for tests).
  static std::size_t compile_cache_size();

  // Copies share the immutable AST (cheap shared_ptr copy).
  Expr() = default;

  [[nodiscard]] bool valid() const noexcept { return root_ != nullptr; }

  /// Evaluate to a Value.
  [[nodiscard]] Value eval(const EvalCtx& ctx) const;
  [[nodiscard]] Value eval(const NameResolver& names) const;

  /// Evaluate and apply Python truthiness.
  [[nodiscard]] bool test(const EvalCtx& ctx) const {
    return eval(ctx).truthy();
  }
  [[nodiscard]] bool test(const NameResolver& names) const {
    return eval(names).truthy();
  }

  /// The `self.<attr>` names this condition reads, extracted from the
  /// AST at compile time. `known == false` when the condition uses bare
  /// `self` (computed attribute access) and the reads cannot be bounded.
  /// Null only for a default-constructed Expr.
  [[nodiscard]] const std::shared_ptr<const cx::WhenDeps>& deps()
      const noexcept {
    return deps_;
  }

  [[nodiscard]] const std::string& source() const noexcept { return src_; }

  struct Node;

 private:
  std::shared_ptr<const Node> root_;
  std::shared_ptr<const cx::WhenDeps> deps_;
  std::string src_;
};

/// Convenience resolver over a chare attribute dict + named arguments.
/// `self` resolves to the attribute dict; argument names resolve
/// positionally through `param_names`/`args`.
NameResolver make_resolver(const Value& self_attrs,
                           const std::vector<std::string>& param_names,
                           const Args& args);

}  // namespace cpy
