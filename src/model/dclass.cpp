#include "model/dclass.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>

#include "model/name_index.hpp"

namespace cpy {

namespace {

struct MethodEntry {
  cx::AttrKey key = 0;
  const MethodDef* def = nullptr;
  [[nodiscard]] bool empty() const noexcept { return def == nullptr; }
  [[nodiscard]] std::string_view name() const noexcept { return def->name; }
};

}  // namespace

class MethodTable {
 public:
  explicit MethodTable(std::string n) : name(std::move(n)) {}

  const std::string name;
  /// Written under the registry mutex. std::map is node-based, so
  /// MethodDef addresses stay stable.
  std::map<std::string, MethodDef> defs;
  /// What lookups search: one entry per method in `defs`.
  detail::PublishedIndex<MethodEntry> index;
};

namespace {

struct ClassEntry {
  cx::AttrKey key = 0;
  MethodTable* table = nullptr;
  [[nodiscard]] bool empty() const noexcept { return table == nullptr; }
  [[nodiscard]] std::string_view name() const noexcept {
    return table->name;
  }
};

struct ClassRegistry {
  std::mutex mutex;
  std::atomic<std::uint64_t> locks{0};
  /// Owns every class; written under `mutex`.
  std::vector<std::unique_ptr<MethodTable>> tables;
  detail::PublishedIndex<ClassEntry> index;

  static ClassRegistry& instance() {
    static ClassRegistry r;
    return r;
  }

  [[nodiscard]] std::unique_lock<std::mutex> lock() {
    locks.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(mutex);
  }

  /// Caller holds lock().
  MethodTable& get_or_create(const std::string& name) {
    const cx::AttrKey key = cx::attr_key(name);
    if (const ClassEntry* e = index.find(key, name)) return *e->table;
    tables.push_back(std::make_unique<MethodTable>(name));
    MethodTable* t = tables.back().get();
    index.insert({key, t});
    return *t;
  }
};

/// Dependency sets of replaced when-conditions. Buffered messages hold
/// raw pointers into their condition's deps; redefining a condition
/// must keep the old set alive until the (epoch-triggered) rebucket.
/// Written under the registry mutex.
std::vector<std::shared_ptr<const cx::WhenDeps>>& retired_deps() {
  static auto* v = new std::vector<std::shared_ptr<const cx::WhenDeps>>();
  return *v;
}

}  // namespace

DClass::DClass(std::string name) : name_(std::move(name)) {
  auto& reg = ClassRegistry::instance();
  const auto lock = reg.lock();
  table_ = &reg.get_or_create(name_);
}

DClass& DClass::def(const std::string& method,
                    std::vector<std::string> params, MethodFn fn) {
  return define(method, std::move(params), std::move(fn), false);
}

DClass& DClass::def_threaded(const std::string& method,
                             std::vector<std::string> params, MethodFn fn) {
  return define(method, std::move(params), std::move(fn), true);
}

DClass& DClass::define(const std::string& method,
                       std::vector<std::string> params, MethodFn fn,
                       bool threaded) {
  const auto lock = ClassRegistry::instance().lock();
  const auto [it, fresh] = table_->defs.try_emplace(method);
  MethodDef& d = it->second;
  d.name = method;
  d.params = std::move(params);
  d.fn = std::move(fn);
  // def() of an existing method keeps its threaded flag.
  if (threaded) d.threaded = true;
  if (fresh) table_->index.insert({cx::attr_key(method), &d});
  return *this;
}

DClass& DClass::when(const std::string& method,
                     const std::string& condition) {
  const auto lock = ClassRegistry::instance().lock();
  const auto it = table_->defs.find(method);
  if (it == table_->defs.end()) {
    throw std::logic_error("when('" + condition + "'): class " + name_ +
                           " has no method " + method +
                           " (define it first)");
  }
  // Shared compile cache: @when and wait_until sites with the same
  // source string reuse one AST + dependency set.
  const Expr& compiled = Expr::compile_cached(condition);
  MethodDef& d = it->second;
  if (d.has_when && d.when_deps != nullptr && d.when_deps != compiled.deps()) {
    retired_deps().push_back(d.when_deps);
  }
  d.when_cond = compiled;
  d.has_when = true;
  d.when_deps = compiled.deps();
  // Condition (re)definition can change which buffered messages are
  // eligible without any chare state changing.
  cx::bump_when_config_epoch();
  return *this;
}

const MethodTable* find_class(std::string_view cls) {
  const ClassEntry* e =
      ClassRegistry::instance().index.find(cx::attr_key(cls), cls);
  return e == nullptr ? nullptr : e->table;
}

const MethodDef* find_method(const MethodTable* cls,
                             std::string_view method) {
  if (cls == nullptr) return nullptr;
  const MethodEntry* e = cls->index.find(cx::attr_key(method), method);
  return e == nullptr ? nullptr : e->def;
}

const MethodDef* find_method(const std::string& cls,
                             const std::string& method) {
  return find_method(find_class(cls), method);
}

bool class_exists(const std::string& cls) {
  return find_class(cls) != nullptr;
}

namespace detail {
std::uint64_t class_registry_locks() noexcept {
  return ClassRegistry::instance().locks.load(std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace cpy
