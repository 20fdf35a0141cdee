#include "model/reducers.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "model/name_index.hpp"

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

/// The two core combiners registered for one reducer name.
struct Combiners {
  std::string name;
  cx::CombineId value = 0;
  cx::CombineId tagged = 0;
};

struct CombinerEntry {
  cx::AttrKey key = 0;
  const Combiners* c = nullptr;
  [[nodiscard]] bool empty() const noexcept { return c == nullptr; }
  [[nodiscard]] std::string_view name() const noexcept { return c->name; }
};

/// Reducer folds and their combiner ids. Only registration takes the
/// mutex; contribute_value resolves a name through `index` without it.
struct DynRegistry {
  std::mutex mutex;
  std::atomic<std::uint64_t> locks{0};
  std::unordered_map<std::string, DynFold> folds;
  /// Written under `mutex`; a deque never moves its elements.
  std::deque<Combiners> combiners;
  detail::PublishedIndex<CombinerEntry> index;

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

  [[nodiscard]] std::unique_lock<std::mutex> lock() {
    locks.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(mutex);
  }

  /// The combiners of `name` (both Value and tagged flavors),
  /// registered on first use. Caller holds lock().
  const Combiners& register_combiners(const std::string& name) {
    const cx::AttrKey key = cx::attr_key(name);
    if (const CombinerEntry* e = index.find(key, name)) return *e->c;
    const auto it = folds.find(name);
    if (it == folds.end()) {
      throw std::out_of_range("unknown reducer: " + name);
    }
    const DynFold fold = it->second;
    using Tagged = std::pair<std::string, Value>;
    // Braced initializers run in order: the Value id first.
    combiners.push_back(Combiners{
        name,
        cx::add_reducer<Value>(
            [fold](Value& a, const Value& b) { fold(a, b); }),
        cx::add_reducer<Tagged>([fold](Tagged& a, const Tagged& b) {
          fold(a.second, b.second);
        })});
    index.put({key, &combiners.back()});
    return combiners.back();
  }
};

// Combiner ids travel in reduction fragments, so the ranks of a socket
// job must agree on them. Register the built-in folds' combiners eagerly —
// in a fixed (alphabetical) order, at static init — instead of on first
// use, where the order would depend on which rank's control flow asked
// for which reducer first.
const bool g_builtins_registered = [] {
  auto& r = DynRegistry::instance();
  const auto lock = r.lock();
  for (const char* name : {"concat", "first", "gather", "max", "min",
                           "none", "product", "sum"}) {
    r.register_combiners(name);
  }
  return true;
}();

const Combiners& combiners_of(const std::string& name) {
  auto& r = DynRegistry::instance();
  if (const CombinerEntry* e = r.index.find(cx::attr_key(name), name)) {
    return *e->c;
  }
  const auto lock = r.lock();
  return r.register_combiners(name);
}

}  // namespace

void add_dyn_reducer(const std::string& name, DynFold fold) {
  auto& r = DynRegistry::instance();
  const auto lock = r.lock();
  r.folds[name] = std::move(fold);
  // Eager combiner registration: user reducers are added symmetrically
  // on every rank (pre-run application code), so registering here keeps
  // the id assignment identical across processes.
  r.register_combiners(name);
}

cx::CombineId value_combiner(const std::string& name) {
  return combiners_of(name).value;
}

cx::CombineId tagged_combiner(const std::string& name) {
  return combiners_of(name).tagged;
}

namespace detail {
std::uint64_t dyn_registry_locks() noexcept {
  return DynRegistry::instance().locks.load(std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace cpy
