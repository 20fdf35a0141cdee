// Entry-method delivery: fibers, the condition-aware when-buffering
// engine, the pooled LocalEnvelope fast path (paper §II-D: same-PE
// sends pass the live argument tuple by reference, no serialization),
// and proxy_send.

#include <atomic>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/runtime_impl.hpp"

namespace cx {

// ---- when-engine switches -------------------------------------------------

namespace {

std::atomic<bool> g_when_dirty{true};
std::atomic<std::uint64_t> g_when_epoch{0};

}  // namespace

bool when_dirty_tracking_enabled() noexcept {
  return g_when_dirty.load(std::memory_order_relaxed);
}

void set_when_dirty_tracking(bool on) noexcept {
  g_when_dirty.store(on, std::memory_order_relaxed);
}

std::uint64_t when_config_epoch() noexcept {
  return g_when_epoch.load(std::memory_order_relaxed);
}

void bump_when_config_epoch() noexcept {
  g_when_epoch.fetch_add(1, std::memory_order_relaxed);
}

// ---- LocalEnvelope pool ---------------------------------------------------
// Every local resume/timer/entry send used to make_shared a fresh
// envelope; now they recycle through a per-thread free list. Envelopes
// are acquired on the sending thread and released on the receiving PE's
// thread — for same-PE traffic (all of it except the Start envelope)
// that is the same cache.

namespace {

constexpr std::size_t kEnvCacheCap = 256;

struct EnvCache {
  std::vector<LocalEnvelope*> free;
  ~EnvCache() {
    for (LocalEnvelope* e : free) delete e;
  }
};

thread_local EnvCache t_env_cache;

}  // namespace

LocalEnvelope* acquire_envelope() {
  auto& w = cx::trace::detail::g_wire;
  if (wire::pool_enabled() && !t_env_cache.free.empty()) {
    LocalEnvelope* e = t_env_cache.free.back();
    t_env_cache.free.pop_back();
    w.env_hits.fetch_add(1, std::memory_order_relaxed);
    return e;
  }
  w.env_allocs.fetch_add(1, std::memory_order_relaxed);
  return new LocalEnvelope();
}

void release_envelope(LocalEnvelope* env) noexcept {
  if (env == nullptr) return;
  if (wire::pool_enabled() && t_env_cache.free.size() < kEnvCacheCap) {
    env->reset();
    t_env_cache.free.push_back(env);
    return;
  }
  delete env;
}

void drop_envelope(void* env) noexcept {
  release_envelope(static_cast<LocalEnvelope*>(env));
}

// ---- shared topology helpers ---------------------------------------------

void tree_children(int self, int root, int num_pes, std::vector<int>& out) {
  tree::binomial_children(self, root, num_pes, out);
}

void Runtime::Impl::forward_tree(std::uint32_t handler, int root,
                                 const wire::Buffer& payload) {
  std::vector<int> kids;
  tree_children(mype(), root, P, kids);
  for (const int k : kids) rt_send(wire::clone_payload(handler, k, payload));
}

Index delinearize(std::uint64_t lin, const Index& dims) {
  Index idx = dims;  // same arity
  for (int i = dims.ndims() - 1; i >= 0; --i) {
    idx[i] = static_cast<int>(lin % static_cast<std::uint64_t>(dims[i]));
    lin /= static_cast<std::uint64_t>(dims[i]);
  }
  return idx;
}

// ---- fibers ---------------------------------------------------------------

void Runtime::Impl::run_fiber(std::function<void()> body, Chare* owner) {
  auto fib = std::make_unique<Fiber>(std::move(body));
  Fiber* f = fib.get();
  me().fibers[f] = FiberRec{std::move(fib), owner};
  resume_fiber(f);
}

void Runtime::Impl::resume_fiber(Fiber* f) {
  auto& ps = me();
  const auto it = ps.fibers.find(f);
  if (it == ps.fibers.end()) return;  // already completed
  Chare* owner = it->second.owner;
  const double t0 = machine->now();
  CX_TRACE_EVENT(mype(), t0, cx::trace::EventKind::FiberResume, 0, 0);
  f->resume();
  const double dt = machine->now() - t0;
  if (owner) owner->load_ += dt;
  if (f->done()) {
    ps.fibers.erase(f);
  } else {
    CX_TRACE_EVENT(mype(), machine->now(),
                   cx::trace::EventKind::FiberSuspend, 0, 0);
  }
  if (owner) post_execute(owner);
}

// ---- delivery / execution -------------------------------------------------

void Runtime::Impl::deliver(Chare* obj, const EpInfo& info, EpId ep,
                            std::shared_ptr<void> tuple, const ReplyTo& reply,
                            const ReplyTo& bdone) {
  if (info.when) {
    cx::trace::detail::g_when.tests.fetch_add(1, std::memory_order_relaxed);
    if (!info.when(obj, tuple.get())) {
      buffer_invoke(obj, info, ep, std::move(tuple), reply, bdone);
      return;
    }
  }
  execute(obj, info, ep, std::move(tuple), reply, bdone);
}

/// Resolve the dependency set of `ep`'s when condition for this message,
/// or nullptr when the engine must stay conservative (no info, analysis
/// gave up, or tracking disabled).
const WhenDeps* Runtime::Impl::resolve_when_deps(const EpInfo& info,
                                                 Chare* obj, void* args) {
  if (!when_dirty_tracking_enabled() || !info.when) return nullptr;
  const WhenDeps* deps = nullptr;
  if (info.when_deps) {
    deps = info.when_deps(obj, args);
  } else if (info.when_deps_static) {
    deps = info.when_deps_static.get();
  }
  if (deps != nullptr && !deps->known) deps = nullptr;
  return deps;
}

/// Attach dependency bookkeeping to a pending delivery: cache direct
/// dirty-clock slot pointers when the set is small, fall back to the
/// any_since scan otherwise.
void Runtime::Impl::bind_dep_slots(Chare* obj, PendingInvoke& pi) {
  pi.n_slots = 0;
  if (pi.deps == nullptr) return;
  const auto& attrs = pi.deps->attrs;
  if (attrs.size() > pi.dep_slots.size()) {
    pi.n_slots = PendingInvoke::kSlowDeps;
    return;
  }
  pi.n_slots = static_cast<std::uint8_t>(attrs.size());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    pi.dep_slots[i] = obj->dirty_.slot_for(attrs[i]);
  }
}

/// Park a delivery whose when condition just failed.
void Runtime::Impl::buffer_invoke(Chare* obj, const EpInfo& info, EpId ep,
                                  std::shared_ptr<void> tuple,
                                  const ReplyTo& reply, const ReplyTo& bdone) {
  WhenBuffer& buf = obj->buffered_;
  if (buf.empty()) obj->when_epoch_seen_ = when_config_epoch();
  PendingInvoke pi;
  pi.ep = ep;
  pi.args = std::move(tuple);
  pi.reply = reply;
  pi.bcast_done = bdone;
  pi.seq = buf.next_seq++;
  pi.deps = resolve_when_deps(info, obj, pi.args.get());
  pi.tested_at = obj->dirty_.now();
  bind_dep_slots(obj, pi);
  if (pi.deps == nullptr) buf.unknown++;
  WhenBuffer::Bucket& b = buf.bucket_for(ep, pi.deps);
  if (b.q.empty()) b.floor = pi.tested_at;
  b.q.push_back(std::move(pi));
  buf.total++;
  auto& w = cx::trace::detail::g_when;
  w.buffered.fetch_add(1, std::memory_order_relaxed);
  w.raise_high_water(buf.total);
  CX_TRACE_EVENT(mype(), machine->now(), cx::trace::EventKind::WhenBuffer,
                 obj->coll_, buf.total);
}

/// Conservative rebuild after a when-configuration change (set_when /
/// clear_when / dyn condition redefinition): re-extract every buffered
/// message's deps and force one fresh test of each.
void Runtime::Impl::rebucket_buffered(Chare* obj) {
  WhenBuffer& buf = obj->buffered_;
  std::vector<PendingInvoke> all;
  all.reserve(buf.total);
  buf.for_each_in_order(
      [&](PendingInvoke& pi) { all.push_back(std::move(pi)); });
  buf.clear();
  auto& reg = Registry::instance();
  for (auto& pi : all) {
    const EpInfo& info = reg.ep(pi.ep);
    pi.deps = resolve_when_deps(info, obj, pi.args.get());
    pi.tested_at = 0;  // force a test under the (possibly new) condition
    bind_dep_slots(obj, pi);
    if (pi.deps == nullptr) buf.unknown++;
    WhenBuffer::Bucket& b = buf.bucket_for(pi.ep, pi.deps);
    b.floor = 0;
    b.q.push_back(std::move(pi));
    buf.total++;
  }
  obj->last_retest_clock_ = 0;
}

/// Drain every when-buffered message that became eligible. Replaces the
/// seed's retry-all rescan: buckets whose dependency set saw no dirty
/// mark since their last failed test are skipped with one clock check,
/// and individual messages are filtered through cached slot pointers.
/// Delivery order is unchanged — among simultaneously-eligible messages
/// the earliest-arrived (minimum seq) executes first, exactly like the
/// seed's front-to-back rescan.
void Runtime::Impl::retest_buffered(Chare* obj) {
  WhenBuffer& buf = obj->buffered_;
  if (buf.empty()) return;
  const bool tracking = when_dirty_tracking_enabled();
  if (obj->when_epoch_seen_ != when_config_epoch()) {
    obj->when_epoch_seen_ = when_config_epoch();
    rebucket_buffered(obj);
  }
  std::uint64_t n_tests = 0, n_hits = 0, n_skipped = 0;
  auto& reg = Registry::instance();
  while (!buf.empty()) {
    if (tracking && buf.unknown == 0 &&
        obj->dirty_.now() == obj->last_retest_clock_) {
      break;  // nothing any tracked condition reads changed since last pass
    }
    const std::uint64_t now = obj->dirty_.now();
    PendingInvoke* best = nullptr;
    WhenBuffer::Bucket* best_bucket = nullptr;
    std::size_t best_pos = 0;
    for (auto& b : buf.buckets) {
      if (b.q.empty()) continue;
      const EpInfo& info = reg.ep(b.ep);
      if (!info.when) {
        // Predicate cleared while buffered: the whole bucket is eligible.
        if (best == nullptr || b.q.front().seq < best->seq) {
          best = &b.q.front();
          best_bucket = &b;
          best_pos = 0;
        }
        continue;
      }
      const bool filter = tracking && b.deps != nullptr;
      if (filter && b.floor > 0 && !obj->dirty_.any_since(*b.deps, b.floor)) {
        // No dependency changed since every message here last failed.
        n_skipped += b.q.size();
        b.floor = now;
        continue;
      }
      bool walked_all = true;
      for (std::size_t pos = 0; pos < b.q.size(); ++pos) {
        PendingInvoke& pi = b.q[pos];
        if (best != nullptr && pi.seq > best->seq) {
          walked_all = false;
          break;  // q is seq-ascending: nothing further can beat best
        }
        if (filter && pi.tested_at > 0) {
          bool candidate;
          if (pi.n_slots == PendingInvoke::kSlowDeps) {
            candidate = obj->dirty_.any_since(*pi.deps, pi.tested_at);
          } else {
            candidate = false;
            for (std::uint8_t i = 0; i < pi.n_slots; ++i) {
              if (*pi.dep_slots[i] > pi.tested_at) {
                candidate = true;
                break;
              }
            }
          }
          if (!candidate) {
            // Deps unchanged since the last failed test, so the
            // condition still fails; stamping the current tick is safe.
            pi.tested_at = now;
            ++n_skipped;
            continue;
          }
        }
        ++n_tests;
        if (info.when(obj, pi.args.get())) {
          best = &pi;
          best_bucket = &b;
          best_pos = pos;
          break;  // seq-ascending: first passer is this bucket's earliest
        }
        pi.tested_at = now;
      }
      if (walked_all && best_bucket != &b) b.floor = now;
    }
    if (best == nullptr) {
      obj->last_retest_clock_ = obj->dirty_.now();
      break;
    }
    PendingInvoke pi = std::move(*best);
    best_bucket->q.erase(best_bucket->q.begin() +
                         static_cast<std::ptrdiff_t>(best_pos));
    buf.total--;
    if (pi.deps == nullptr) buf.unknown--;
    ++n_hits;
    execute(obj, reg.ep(pi.ep), pi.ep, std::move(pi.args), pi.reply,
            pi.bcast_done);
  }
  if (n_tests + n_hits + n_skipped != 0) {
    auto& w = cx::trace::detail::g_when;
    w.tests.fetch_add(n_tests, std::memory_order_relaxed);
    w.hits.fetch_add(n_hits, std::memory_order_relaxed);
    w.skipped.fetch_add(n_skipped, std::memory_order_relaxed);
  }
}

void Runtime::Impl::execute(Chare* obj, const EpInfo& info, EpId ep,
                            std::shared_ptr<void> tuple, const ReplyTo& reply,
                            const ReplyTo& bdone) {
  const CollectionId coll = obj->coll_;
  auto body = [this, obj, invoke = info.invoke, tuple = std::move(tuple),
               reply, bdone, coll]() {
    invoke(obj, tuple.get(), reply);
    if (bdone.valid()) {
      BcastDoneHeader h;
      h.coll = coll;
      h.reply = bdone;
      h.count = 1;
      rt_send(wire::make_msg(h_bcast_done, static_cast<int>(coll) % P, h));
    }
  };
  if (info.threaded) {
    obj->active_fibers_++;
    run_fiber(
        [this, body = std::move(body), obj, coll, ep]() {
          // The recorded span covers the whole threaded entry, including
          // any time suspended on futures/wait (see FiberSuspend events).
          const double t0 = machine->now();
          CX_TRACE_EVENT(mype(), t0, cx::trace::EventKind::EntryBegin,
                         coll, ep);
          body();
          const double t1 = machine->now();
          CX_TRACE_EVENT(mype(), t1, cx::trace::EventKind::EntryEnd, ep,
                         static_cast<std::uint64_t>((t1 - t0) * 1e9));
          obj->active_fibers_--;
        },
        obj);
  } else {
    const double t0 = machine->now();
    CX_TRACE_EVENT(mype(), t0, cx::trace::EventKind::EntryBegin, coll, ep);
    body();
    const double t1 = machine->now();
    obj->load_ += t1 - t0;
    CX_TRACE_EVENT(mype(), t1, cx::trace::EventKind::EntryEnd, ep,
                   static_cast<std::uint64_t>((t1 - t0) * 1e9));
    post_execute(obj);
  }
}

/// After any entry method runs on `obj`: drain newly-eligible
/// when-buffered messages, re-check wait() conditions, perform deferred
/// migration / AtSync.
void Runtime::Impl::post_execute(Chare* obj) {
  if (obj->post_active_) return;
  obj->post_active_ = true;
  retest_buffered(obj);
  for (auto& w : obj->waits_) {
    if (!w.scheduled && w.cond()) {
      w.scheduled = true;
      send_resume(w.fiber);
    }
  }
  obj->post_active_ = false;
  if (obj->sync_pending_) {
    obj->sync_pending_ = false;
    ChareLoadRecord rec;
    rec.coll = obj->coll_;
    rec.idx = obj->idx_;
    rec.pe = mype();
    rec.load = obj->load_;
    rt_send(wire::make_msg(h_lb_sync, 0, rec));
  }
  if (obj->migrate_pending_ && obj->active_fibers_ == 0) {
    obj->migrate_pending_ = false;
    do_migrate(obj, obj->migrate_to_, obj->migrate_for_lb_);
  }
}

// ---- handlers -------------------------------------------------------------

void Runtime::Impl::on_local(MessagePtr msg) {
  EnvelopePtr env(static_cast<LocalEnvelope*>(msg->take_local()));
  if (env->kind == LocalEnvelope::Kind::Timer) {
    // Timers ride on Machine::send_after, which is uncounted: no
    // processed++ here, or quiescence detection would never settle.
    auto& ps = me();
    const auto it = ps.timer_waiters.find(env->timer_token);
    if (it == ps.timer_waiters.end()) return;  // disarmed: value arrived
    Fiber* f = it->second;
    ps.timer_waiters.erase(it);
    resume_fiber(f);
    return;
  }
  if (env->kind == LocalEnvelope::Kind::Post) {
    // Posts (cx::post_after) ride Machine::send_after like timers:
    // uncounted, so an armed periodic callback never holds off
    // quiescence detection.
    run_fiber(std::move(env->fn), nullptr);
    return;
  }
  me().processed++;
  switch (env->kind) {
    case LocalEnvelope::Kind::Start:
      run_fiber(std::move(env->fn), nullptr);
      return;
    case LocalEnvelope::Kind::Resume:
      resume_fiber(env->fiber);
      return;
    case LocalEnvelope::Kind::Entry: {
      auto& ps = me();
      const auto it = ps.colls.find(env->coll);
      auto to_remote = [&]() {
        EntryHeader h;
        h.coll = env->coll;
        h.idx = env->idx;
        h.ep = env->ep;
        h.reply = env->reply;
        h.bcast_done = env->bcast_done;
        return wire::make_msg_pup(h_entry, mype(), h, [&](pup::Er& p) {
          env->pup_args(env->tuple.get(), p);
        });
      };
      if (it == ps.colls.end()) {
        stash_msg(env->coll, to_remote());
        return;
      }
      CollMeta& cm = it->second;
      if (Chare* obj = find_local(cm, env->idx)) {
        deliver(obj, Registry::instance().ep(env->ep), env->ep,
                std::move(env->tuple), env->reply, env->bcast_done);
      } else {
        // Element moved between send and delivery: fall back to bytes.
        route_entry_msg(cm, env->idx, to_remote());
      }
      return;
    }
    case LocalEnvelope::Kind::Timer:
    case LocalEnvelope::Kind::Post:
      return;  // handled above
  }
}

void Runtime::Impl::on_entry(MessagePtr msg) {
  me().processed++;
  pup::Unpacker u(msg->data.data(), msg->data.size());
  EntryHeader h;
  u | h;
  auto& ps = me();
  const auto it = ps.colls.find(h.coll);
  if (it == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  CollMeta& cm = it->second;
  if (Chare* obj = find_local(cm, h.idx)) {
    const EpInfo& info = Registry::instance().ep(h.ep);
    auto tuple = info.unpack(u);
    deliver(obj, info, h.ep, std::move(tuple), h.reply, h.bcast_done);
  } else {
    route_entry_msg(cm, h.idx, std::move(msg));
  }
}

// ---- scheduled callbacks --------------------------------------------------

void post_after(double delay_s, std::function<void()> fn) {
  auto& I = Runtime::current().impl();
  const int pe = I.mype();
  assert(pe >= 0 && "post_after outside of a PE context");
  LocalEnvelope* env = acquire_envelope();
  env->kind = LocalEnvelope::Kind::Post;
  env->fn = std::move(fn);
  I.machine->send_after(I.wrap_local(env, pe), delay_s);
}

// ---- point-to-point sends (bridge from the header-only proxies) -----------

namespace detail {

void proxy_send(CollectionId coll, const Index& idx, EpId ep,
                ArgsCarrier args, const ReplyTo& reply,
                std::uint64_t nominal_bytes) {
  auto& I = Runtime::current().impl();
  auto& ps = I.me();
  const auto it = ps.colls.find(coll);
  if (local_fastpath_enabled() && it != ps.colls.end() &&
      it->second.elements.count(idx) != 0) {
    // Same-PE fast path: hand the live tuple over, no serialization
    // (paper §II-D). The caller gave up ownership of the arguments.
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Entry;
    env->coll = coll;
    env->idx = idx;
    env->ep = ep;
    env->tuple = std::move(args.tuple);
    env->pup_args = args.pup;
    env->reply = reply;
    I.send_local(I.mype(), env);
    return;
  }
  EntryHeader h;
  h.coll = coll;
  h.idx = idx;
  h.ep = ep;
  h.reply = reply;
  auto msg = wire::make_msg_pup(I.h_entry, I.mype(), h, [&](pup::Er& p) {
    args.pup(args.tuple.get(), p);
  });
  msg->size_override = nominal_bytes;
  if (it == ps.colls.end()) {
    I.stash_msg(coll, std::move(msg));
    return;
  }
  if (it->second.elements.count(idx) != 0) {
    // Local element but the by-reference fast path is disabled: deliver
    // the packed message through the scheduler (full serialize cycle).
    I.rt_send(std::move(msg));
    return;
  }
  I.route_entry_msg(it->second, idx, std::move(msg));
}

}  // namespace detail
}  // namespace cx
