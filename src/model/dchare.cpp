#include "model/dchare.hpp"

#include <atomic>
#include <functional>
#include <stdexcept>

#include "model/reducers.hpp"
#include "trace/trace.hpp"

namespace cpy {

namespace {

std::atomic<double> g_dispatch_overhead{0.0};

/// Shared when-predicate for both dyn_call entry methods: evaluate the
/// target method's compiled condition against self attributes and named
/// arguments (paper §II-E). Hot path: method resolution is a lock-free
/// lookup in the chare's class, and evaluation goes through the
/// non-allocating EvalCtx (no std::function resolver per test).
bool dyn_when(DChare& self, const std::string& method, const Args& args) {
  const MethodDef* def = self.lookup_method(method);
  if (def == nullptr || !def->has_when) return true;
  EvalCtx ctx;
  ctx.self = &self.attrs();
  ctx.chare = &self;
  ctx.params = &def->params;
  ctx.args = &args;
  return def->when_cond.test(ctx);
}

/// Per-message dependency extractor: the condition deps of the message's
/// target method, so the delivery engine can skip re-testing buffered
/// messages whose `self.<attr>` reads did not change.
const cx::WhenDeps* dyn_when_deps(DChare& self, const std::string& method,
                                  const Args& /*args*/) {
  const MethodDef* def = self.lookup_method(method);
  if (def == nullptr || !def->has_when) return nullptr;
  return def->when_deps.get();
}

/// One-time glue: install the when predicate, its dependency extractor
/// and the threaded flag on the universal entry methods.
struct DynGlue {
  DynGlue() {
    auto pred = [](DChare& c, const std::string& m, const Args& a) {
      return dyn_when(c, m, a);
    };
    auto deps = [](DChare& c, const std::string& m, const Args& a) {
      return dyn_when_deps(c, m, a);
    };
    cx::set_when<&DChare::dyn_call>(pred);
    cx::set_when<&DChare::dyn_call_threaded>(pred);
    cx::set_when_deps_fn<&DChare::dyn_call>(deps);
    cx::set_when_deps_fn<&DChare::dyn_call_threaded>(deps);
    cx::set_threaded<&DChare::dyn_call_threaded>();
  }
};
const DynGlue glue;

Value index_value(const cx::Index& idx) {
  List items;
  for (int i = 0; i < idx.ndims(); ++i) {
    items.emplace_back(static_cast<std::int64_t>(idx[i]));
  }
  return Value::tuple(std::move(items));
}

}  // namespace

DChare::DChare(std::string cls, Args ctor_args)
    : cls_(std::move(cls)), methods_(find_class(cls_)) {
  if (methods_ == nullptr) {
    throw std::runtime_error("NameError: dynamic class '" + cls_ +
                             "' is not registered");
  }
  (*this)["thisIndex"] = index_value(this_index());
  if (const MethodDef* init = lookup_method("__init__")) {
    init->fn(*this, ctor_args);
  }
}

Value DChare::dyn_call(std::string method, Args args) {
  cx::charge(g_dispatch_overhead.load(std::memory_order_relaxed));
  CX_TRACE_EVENT(cx::my_pe(), cx::now(),
                 cx::trace::EventKind::DynDispatch,
                 std::hash<std::string>{}(method), 0);
  const MethodDef& def = resolve(method);
  return def.fn(*this, args);
}

Value DChare::dyn_call_threaded(std::string method, Args args) {
  return dyn_call(std::move(method), std::move(args));
}

void DChare::dyn_result(std::pair<std::string, Value> tagged) {
  Args args;
  args.push_back(std::move(tagged.second));
  (void)dyn_call(std::move(tagged.first), std::move(args));
}

DChare::AttrEntry DChare::index_attr(cx::AttrKey key,
                                     Dict::value_type& node) {
  const AttrEntry e{key, &node, when_dirty_slot(key)};
  attr_index_.insert(e);
  return e;
}

Value& DChare::attr(cx::AttrKey key, std::string_view name) {
  const AttrEntry* hit = attr_index_.find(key, name);
  const AttrEntry e =
      hit != nullptr
          ? *hit
          : index_attr(key,
                       *attrs_.as_dict().try_emplace(std::string(name)).first);
  mark_when_dirty_slot(e.tick);
  return e.node->second;
}

const Value* DChare::find_attr(cx::AttrKey key, std::string_view name) {
  if (const AttrEntry* hit = attr_index_.find(key, name)) {
    return &hit->node->second;
  }
  Dict& d = attrs_.as_dict();
  const auto it = d.find(std::string(name));
  if (it == d.end()) return nullptr;
  return &index_attr(key, *it).node->second;
}

bool DChare::has_attr(const std::string& name) const {
  return attrs_.as_dict().count(name) != 0;
}

void DChare::pup(pup::Er& p) {
  p | cls_;
  attrs_.pup(p);
  if (p.unpacking()) {
    methods_ = find_class(cls_);
    // The index points into the dict this just replaced; it refills on
    // the next lookups.
    attr_index_.clear();
  }
}

void DChare::resume_from_sync() {
  if (lookup_method("resumeFromSync") != nullptr) {
    Args none;
    (void)dyn_call("resumeFromSync", std::move(none));
  }
}

void DChare::wait_until(const std::string& condition) {
  // Compiled through the global source-string cache (shared with @when
  // conditions): repeated wait sites evaluate a shared AST instead of
  // re-parsing per call.
  const Expr expr = Expr::compile_cached(condition);
  wait([this, expr]() {
    EvalCtx ctx;
    ctx.self = &attrs_;
    ctx.chare = this;
    return expr.test(ctx);
  });
}

void DChare::contribute_value(const Value& data, const std::string& reducer,
                              const DTarget& target) {
  if (target.wrap_method) {
    std::pair<std::string, Value> tagged(target.method, data);
    cx::detail::contribute_bytes(*this, pup::to_bytes(tagged),
                                 tagged_combiner(reducer), target.raw);
  } else {
    Value copy = data;
    cx::detail::contribute_bytes(*this, pup::to_bytes(copy),
                                 value_combiner(reducer), target.raw);
  }
}

void DChare::set_sim_dispatch_overhead(double seconds) noexcept {
  g_dispatch_overhead.store(seconds, std::memory_order_relaxed);
}

double DChare::sim_dispatch_overhead() noexcept {
  return g_dispatch_overhead.load(std::memory_order_relaxed);
}

const MethodDef& DChare::resolve(const std::string& method) const {
  const MethodDef* def = lookup_method(method);
  if (def == nullptr) {
    throw std::runtime_error("AttributeError: class '" + cls_ +
                             "' has no method '" + method + "'");
  }
  return *def;
}

}  // namespace cpy
