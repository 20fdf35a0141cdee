#pragma once
// Dynamic reducers over cpy::Value (paper §II-F).
//
// Reducers are named; built-ins: "sum", "product", "min", "max",
// "gather", "concat", "first" (and "none" as an alias of "first", used by
// empty/barrier reductions). "sum"/"min"/"max"/"product" operate
// element-wise on numeric arrays and lists — the NumPy behaviour the
// paper relies on ("in many cases data will be a NumPy array").
//
// Custom reducers (paper §II-F1: Reducer.addReducer) fold pairwise:
//   cpy::add_dyn_reducer("longest", [](Value& a, const Value& b) {
//     if (b.length() > a.length()) a = b;
//   });

#include <cstdint>
#include <functional>
#include <string>

#include "core/reduction.hpp"
#include "model/value.hpp"

namespace cpy {

/// Pairwise fold of a contribution into the accumulator.
using DynFold = std::function<void(Value& acc, const Value& x)>;

/// Register a custom reducer under `name`.
void add_dyn_reducer(const std::string& name, DynFold fold);

/// Core combiner id for reducing plain Values (future targets).
cx::CombineId value_combiner(const std::string& name);

/// Core combiner id for reducing (method, Value) pairs — used when the
/// reduction target is an entry method, so the method name travels with
/// the data.
cx::CombineId tagged_combiner(const std::string& name);

namespace detail {
/// How often the reducer registry's mutex has been taken. Only
/// registrations take it; tests read this to show that no
/// contribute_value does.
std::uint64_t dyn_registry_locks() noexcept;
}  // namespace detail

}  // namespace cpy
