#pragma once
// Reductions (paper §II-F): asynchronous, multiple in flight, built-in
// and user-defined reducers, results deliverable to entry methods,
// broadcasts or futures.
//
// A reducer is a *combiner id* into a process-global registry of binary
// combine functions over packed values. Built-in reducers are obtained
// from lazily-registering templates:
//
//   cx::reducer::sum<double>()      cx::reducer::max<int>()
//   cx::reducer::sum<std::vector<double>>()   // element-wise, the NumPy case
//   cx::reducer::gather<T>()        // values sorted by element index
//   cx::reducer::none()             // empty reduction (barrier)
//
// Custom reducers: cx::add_reducer<T>(binary_fn) -> CombineId.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/id_table.hpp"
#include "core/ids.hpp"
#include "core/index.hpp"
#include "pup/pup.hpp"

namespace cx {

using CombineId = std::uint32_t;
constexpr CombineId kNoCombine = 0xffffffffu;  ///< empty (barrier) reduction

/// Binary combine over packed values; must be associative+commutative.
using CombineFn =
    std::function<std::vector<std::byte>(const std::vector<std::byte>&,
                                         const std::vector<std::byte>&)>;

/// Process-global combiner registry. An IdTable: references stay valid
/// while other threads register combiners lazily, and combine() reads
/// without a lock.
class CombinerRegistry {
 public:
  static CombinerRegistry& instance();
  CombineId add(CombineFn fn) { return fns_.append(std::move(fn)); }
  /// Throws std::out_of_range for an id that was never registered.
  [[nodiscard]] const CombineFn& get(CombineId id) const {
    return fns_.at(id);
  }

 private:
  IdTable<CombineFn> fns_{"reduction combiner"};
};

/// Register a typed binary reducer; `fn(T& acc, const T& x)` folds x into
/// acc. This is the user-defined reducer hook of paper §II-F1.
template <typename T, typename F>
CombineId add_reducer(F&& fn) {
  return CombinerRegistry::instance().add(
      [f = std::forward<F>(fn)](const std::vector<std::byte>& a,
                                const std::vector<std::byte>& b) {
        T ta = pup::from_bytes<T>(a);
        T tb = pup::from_bytes<T>(b);
        f(ta, tb);
        return pup::to_bytes(ta);
      });
}

namespace detail {

template <typename T, typename Op>
void apply_elementwise(T& a, const T& b, Op op) {
  op(a, b);
}

template <typename U, typename Op>
void apply_elementwise(std::vector<U>& a, const std::vector<U>& b, Op op) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(
        "reduction: mismatched vector lengths (accumulator has " +
        std::to_string(a.size()) + " elements, contribution has " +
        std::to_string(b.size()) + ")");
  }
  for (std::size_t i = 0; i < a.size(); ++i) op(a[i], b[i]);
}

template <typename T, typename Op>
CombineId arithmetic_combiner();

// Combiner ids travel inside reduction fragments, so every socket-job
// rank must assign identical ids. As with ep_id (registry.hpp), these
// registrars pin registration to static-init time — ordered by the
// binary, not by which rank's control flow touches a reducer first.
template <typename T, typename Op>
struct CombinerAutoReg {
  CombinerAutoReg() { (void)arithmetic_combiner<T, Op>(); }
};
template <typename T, typename Op>
inline CombinerAutoReg<T, Op> combiner_auto_reg{};

template <typename T, typename Op>
CombineId arithmetic_combiner() {
  (void)&combiner_auto_reg<T, Op>;
  static const CombineId id = add_reducer<T>([](T& a, const T& b) {
    apply_elementwise(a, b, Op{});
  });
  return id;
}

struct SumOp {
  template <typename U>
  void operator()(U& a, const U& b) const {
    a += b;
  }
};
struct ProdOp {
  template <typename U>
  void operator()(U& a, const U& b) const {
    a *= b;
  }
};
struct MinOp {
  template <typename U>
  void operator()(U& a, const U& b) const {
    a = std::min(a, b);
  }
};
struct MaxOp {
  template <typename U>
  void operator()(U& a, const U& b) const {
    a = std::max(a, b);
  }
};
struct AndOp {
  template <typename U>
  void operator()(U& a, const U& b) const {
    a = a && b;
  }
};
struct OrOp {
  template <typename U>
  void operator()(U& a, const U& b) const {
    a = a || b;
  }
};

}  // namespace detail

/// Run a registered combiner and, if it throws std::invalid_argument
/// (e.g. apply_elementwise on mismatched vector lengths), rethrow with
/// the contributing element's collection and index attached. The fold
/// handlers route every combine through this so a bad contribution is
/// attributable instead of a bare "mismatched lengths".
inline std::vector<std::byte> checked_combine(CombineId combiner,
                                              const std::vector<std::byte>& acc,
                                              const std::vector<std::byte>& value,
                                              CollectionId coll,
                                              const Index& contributor) {
  try {
    return CombinerRegistry::instance().get(combiner)(acc, value);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(e.what()) + " [collection " +
                                std::to_string(coll) + ", contributing element " +
                                contributor.to_string() + "]");
  }
}

namespace reducer {

template <typename T>
CombineId sum() {
  return detail::arithmetic_combiner<T, detail::SumOp>();
}
template <typename T>
CombineId product() {
  return detail::arithmetic_combiner<T, detail::ProdOp>();
}
template <typename T>
CombineId min() {
  return detail::arithmetic_combiner<T, detail::MinOp>();
}
template <typename T>
CombineId max() {
  return detail::arithmetic_combiner<T, detail::MaxOp>();
}
template <typename T>
CombineId logical_and() {
  return detail::arithmetic_combiner<T, detail::AndOp>();
}
template <typename T>
CombineId logical_or() {
  return detail::arithmetic_combiner<T, detail::OrOp>();
}

template <typename T>
CombineId gather();

namespace detail {
template <typename T>
struct GatherAutoReg {
  GatherAutoReg() { (void)cx::reducer::gather<T>(); }
};
template <typename T>
inline GatherAutoReg<T> gather_auto_reg{};
}  // namespace detail

/// Gather: the target receives std::vector<std::pair<Index, T>> sorted by
/// index (CharmPy's gather returns contributions sorted by element index).
/// Registered at static init like the arithmetic combiners.
template <typename T>
CombineId gather() {
  (void)&detail::gather_auto_reg<T>;
  using Item = std::pair<Index, T>;
  static const CombineId id =
      add_reducer<std::vector<Item>>([](std::vector<Item>& a,
                                        const std::vector<Item>& b) {
        a.insert(a.end(), b.begin(), b.end());
        std::sort(a.begin(), a.end(), [](const Item& x, const Item& y) {
          return x.first < y.first;
        });
      });
  return id;
}

/// Empty reduction: pure synchronization (paper: data=None, reducer=None).
inline CombineId none() { return kNoCombine; }

}  // namespace reducer

// ---------------------------------------------------------------------------
// Callback: where a reduction result (or broadcast completion) goes.

struct Callback {
  enum class Kind : std::uint8_t {
    Ignore = 0,
    Future = 1,      ///< fulfill a future (paper §II-H3)
    Element = 2,     ///< invoke an entry method on one element
    Broadcast = 3,   ///< invoke an entry method on every element
    SparseCount = 4  ///< runtime-internal: finalize sparse insertion
  };

  Kind kind = Kind::Ignore;
  ReplyTo future;            // Kind::Future
  CollectionId coll = kInvalidCollection;  // Element/Broadcast
  Index idx;                 // Element
  EpId ep = 0;               // Element/Broadcast

  static Callback ignore() { return {}; }

  static Callback to_future(const ReplyTo& f) {
    Callback c;
    c.kind = Kind::Future;
    c.future = f;
    return c;
  }

  static Callback to_element(CollectionId coll, const Index& idx, EpId ep) {
    Callback c;
    c.kind = Kind::Element;
    c.coll = coll;
    c.idx = idx;
    c.ep = ep;
    return c;
  }

  static Callback to_broadcast(CollectionId coll, EpId ep) {
    Callback c;
    c.kind = Kind::Broadcast;
    c.coll = coll;
    c.ep = ep;
    return c;
  }

  void pup(pup::Er& p) {
    p | kind;
    p | future;
    p | coll;
    p | idx;
    p | ep;
  }
};

}  // namespace cx
