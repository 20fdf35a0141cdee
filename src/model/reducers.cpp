#include "model/reducers.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace cpy {

namespace {

void fold_numeric(Value& a, const Value& b, double (*op)(double, double),
                  std::int64_t (*iop)(std::int64_t, std::int64_t)) {
  if (a.kind() == Kind::F64Array && b.kind() == Kind::F64Array) {
    auto& xa = *a.as_f64_array();
    const auto& xb = *b.as_f64_array();
    if (xa.size() != xb.size()) {
      throw std::runtime_error("reducer: array length mismatch");
    }
    for (std::size_t i = 0; i < xa.data.size(); ++i) {
      xa.data[i] = op(xa.data[i], xb.data[i]);
    }
    return;
  }
  if (a.kind() == Kind::I64Array && b.kind() == Kind::I64Array) {
    auto& xa = *a.as_i64_array();
    const auto& xb = *b.as_i64_array();
    if (xa.size() != xb.size()) {
      throw std::runtime_error("reducer: array length mismatch");
    }
    for (std::size_t i = 0; i < xa.data.size(); ++i) {
      xa.data[i] = iop(xa.data[i], xb.data[i]);
    }
    return;
  }
  if ((a.kind() == Kind::List || a.kind() == Kind::Tuple) &&
      (b.kind() == Kind::List || b.kind() == Kind::Tuple)) {
    auto& xs = a.as_list();
    const auto& ys = b.as_list();
    if (xs.size() != ys.size()) {
      throw std::runtime_error("reducer: list length mismatch");
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
      fold_numeric(xs[i], ys[i], op, iop);
    }
    return;
  }
  if (a.kind() == Kind::Int && b.kind() == Kind::Int) {
    a = Value(iop(a.as_int(), b.as_int()));
    return;
  }
  a = Value(op(a.as_real(), b.as_real()));
}

struct DynRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, DynFold> folds;
  std::unordered_map<std::string, cx::CombineId> value_ids;
  std::unordered_map<std::string, cx::CombineId> tagged_ids;

  DynRegistry() {
    folds["sum"] = [](Value& a, const Value& b) {
      fold_numeric(a, b, [](double x, double y) { return x + y; },
                   [](std::int64_t x, std::int64_t y) { return x + y; });
    };
    folds["product"] = [](Value& a, const Value& b) {
      fold_numeric(a, b, [](double x, double y) { return x * y; },
                   [](std::int64_t x, std::int64_t y) { return x * y; });
    };
    folds["min"] = [](Value& a, const Value& b) {
      fold_numeric(a, b, [](double x, double y) { return std::min(x, y); },
                   [](std::int64_t x, std::int64_t y) {
                     return std::min(x, y);
                   });
    };
    folds["max"] = [](Value& a, const Value& b) {
      fold_numeric(a, b, [](double x, double y) { return std::max(x, y); },
                   [](std::int64_t x, std::int64_t y) {
                     return std::max(x, y);
                   });
    };
    // gather: lists of (index, value) tuples merged and kept sorted.
    folds["gather"] = [](Value& a, const Value& b) {
      auto& xs = a.as_list();
      const auto& ys = b.as_list();
      xs.insert(xs.end(), ys.begin(), ys.end());
      std::sort(xs.begin(), xs.end(), [](const Value& p, const Value& q) {
        return p.compare(q) < 0;
      });
    };
    // concat: unordered list concatenation.
    folds["concat"] = [](Value& a, const Value& b) {
      auto& xs = a.as_list();
      const auto& ys = b.as_list();
      xs.insert(xs.end(), ys.begin(), ys.end());
    };
    folds["first"] = [](Value&, const Value&) {};
    folds["none"] = folds["first"];
  }

  static DynRegistry& instance() {
    static DynRegistry r;
    return r;
  }

  /// Register the cx combiners for `name` (both Value and tagged
  /// flavors). Caller holds `mutex`.
  void register_combiners(const std::string& name) {
    const auto it = folds.find(name);
    if (it == folds.end()) {
      throw std::out_of_range("unknown reducer: " + name);
    }
    if (value_ids.count(name) == 0) {
      const DynFold fold = it->second;
      value_ids[name] = cx::add_reducer<Value>(
          [fold](Value& a, const Value& b) { fold(a, b); });
    }
    if (tagged_ids.count(name) == 0) {
      const DynFold fold = it->second;
      using Tagged = std::pair<std::string, Value>;
      tagged_ids[name] = cx::add_reducer<Tagged>(
          [fold](Tagged& a, const Tagged& b) { fold(a.second, b.second); });
    }
  }
};

// Combiner ids travel in reduction fragments, so the ranks of a socket
// job must agree on them. Register the built-in folds' combiners eagerly —
// in a fixed (alphabetical) order, at static init — instead of on first
// use, where the order would depend on which rank's control flow asked
// for which reducer first.
const bool g_builtins_registered = [] {
  auto& r = DynRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const char* name : {"concat", "first", "gather", "max", "min",
                           "none", "product", "sum"}) {
    r.register_combiners(name);
  }
  return true;
}();

}  // namespace

void add_dyn_reducer(const std::string& name, DynFold fold) {
  auto& r = DynRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.folds[name] = std::move(fold);
  // Eager combiner registration: user reducers are added symmetrically
  // on every rank (pre-run application code), so registering here keeps
  // the id assignment identical across processes.
  r.register_combiners(name);
}

cx::CombineId value_combiner(const std::string& name) {
  auto& r = DynRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto cached = r.value_ids.find(name);
  if (cached != r.value_ids.end()) return cached->second;
  r.register_combiners(name);
  return r.value_ids.at(name);
}

cx::CombineId tagged_combiner(const std::string& name) {
  auto& r = DynRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto cached = r.tagged_ids.find(name);
  if (cached != r.tagged_ids.end()) return cached->second;
  r.register_combiners(name);
  return r.tagged_ids.at(name);
}

}  // namespace cpy
