// Collectives and completion plumbing: broadcasts (binomial tree),
// reductions (paper §II-F), futures and callbacks, and the sparse-array
// size-establishment protocol (paper §II-G).

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/future.hpp"
#include "core/runtime_impl.hpp"

namespace cx {

// ---- futures / callbacks --------------------------------------------------

void Runtime::Impl::fulfill_future(FutureId fid,
                                   std::vector<std::byte>&& bytes) {
  auto& ps = me();
  Fiber* f = nullptr;
  const auto it = ps.futures.find(fid);
  if (it != ps.futures.end()) {
    detail::FutureState& st = *it->second;
    st.value = std::move(bytes);
    f = st.waiter;
    st.waiter = nullptr;
  } else {
    // No local handle holds this future any more (a discarded call<>()
    // reply, an injected duplicate, a value after its timed-out future
    // died): nobody can read it, so drop it instead of keeping a slot.
    cx::trace::note_future_late_drop();
  }
  // Send the wake envelope even when no fiber is suspended right now
  // (f == nullptr makes the delivery a no-op): whether the consumer
  // happened to be between two timed waits when the value landed — or
  // had already let the future go — must not change the counted-message
  // ledger: the quiescence counters are checkpointed, and the chaos tier
  // compares them across runs.
  send_resume(f);
}

void Runtime::Impl::send_future_bytes(const ReplyTo& f,
                                      std::vector<std::byte>&& bytes) {
  if (!f.valid()) return;
  if (f.pe == mype()) {
    fulfill_future(f.fid, std::move(bytes));
    return;
  }
  FutureHeader h;
  h.fid = f.fid;
  rt_send(wire::make_msg(h_future, f.pe, h, bytes));
}

void Runtime::Impl::deliver_callback(const Callback& cb,
                                     std::vector<std::byte>&& bytes) {
  switch (cb.kind) {
    case Callback::Kind::Ignore:
      return;
    case Callback::Kind::Future:
      send_future_bytes(cb.future, std::move(bytes));
      return;
    case Callback::Kind::Element: {
      EntryHeader h;
      h.coll = cb.coll;
      h.idx = cb.idx;
      h.ep = cb.ep;
      rt_send(wire::make_msg(h_entry, mype(), h, bytes));
      return;
    }
    case Callback::Kind::Broadcast: {
      BcastHeader h;
      h.coll = cb.coll;
      h.ep = cb.ep;
      h.root = mype();
      rt_send(wire::make_msg(h_bcast, mype(), h, bytes));
      return;
    }
    case Callback::Kind::SparseCount: {
      // All inserts have landed (quiescence): count elements per PE.
      DoneInsertingHeader h;
      h.coll = cb.coll;
      h.root = mype();
      h.reply = cb.future;
      rt_send(wire::make_msg(h_done_inserting, mype(), h));
      return;
    }
  }
}

// ---- handlers -------------------------------------------------------------

void Runtime::Impl::on_bcast(MessagePtr msg) {
  me().processed++;
  std::size_t args_off = 0;
  const BcastHeader h = wire::read_header<BcastHeader>(msg->data, &args_off);
  auto& ps = me();
  const auto it = ps.colls.find(h.coll);
  if (h.root != -2) forward_tree(h_bcast, h.root, msg->data);
  if (it == ps.colls.end()) {
    // Keep local delivery for later; mark as forward-complete.
    BcastHeader h2 = h;
    h2.root = -2;
    stash_msg(h.coll,
              wire::make_msg(h_bcast, mype(), h2,
                             msg->data.data() + args_off,
                             msg->data.size() - args_off));
    return;
  }
  CollMeta& cm = it->second;
  const EpInfo& info = Registry::instance().ep(h.ep);
  // Deliver to each local element with a freshly unpacked argument tuple.
  std::vector<Chare*> local;
  local.reserve(cm.elements.size());
  for (auto& [idx, obj] : cm.elements) local.push_back(obj.get());
  for (Chare* obj : local) {
    pup::Unpacker ue(msg->data.data(), msg->data.size());
    BcastHeader dummy;
    ue | dummy;
    auto tuple = info.unpack(ue);
    deliver(obj, info, h.ep, std::move(tuple), {}, h.reply);
  }
}

void Runtime::Impl::on_bcast_done(MessagePtr msg) {
  me().processed++;
  BcastDoneHeader h = pup::from_bytes<BcastDoneHeader>(msg->data);
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  const auto key = std::make_pair(h.reply.pe, h.reply.fid);
  auto& count = ps.bcast_done_root[key];
  count += h.count;
  // A proper-subset section multicast registers its own (smaller)
  // completion expectation; whole-collection broadcasts — and
  // all-members sections, which never register one — fire at info.size.
  const auto eit = ps.bcast_expect.find(key);
  const std::uint64_t expected =
      eit != ps.bcast_expect.end() ? eit->second : cit->second.info.size;
  if (count >= expected) {
    ps.bcast_done_root.erase(key);
    if (eit != ps.bcast_expect.end()) ps.bcast_expect.erase(eit);
    send_future_bytes(h.reply, {});
  }
}

void Runtime::Impl::on_reduce(MessagePtr msg) {
  me().processed++;
  pup::Unpacker u(msg->data.data(), msg->data.size());
  ReduceHeader h;
  u | h;
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  std::vector<std::byte> value(msg->data.begin() + static_cast<long>(u.offset()),
                               msg->data.end());
  auto& rs = ps.red_root[{h.coll, h.red_no}];
  rs.count += h.count;
  if (h.combiner != kNoCombine) {
    if (!rs.has_acc) {
      rs.acc = std::move(value);
      rs.has_acc = true;
      rs.combiner = h.combiner;
    } else {
      rs.acc = checked_combine(h.combiner, rs.acc, value, h.coll,
                               h.contributor);
    }
  }
  if (h.cb.kind != Callback::Kind::Ignore) rs.cb = h.cb;
  const auto& info = cit->second.info;
  if (!info.inserting && rs.count >= info.size) {
    Callback cb = rs.cb;
    std::vector<std::byte> acc = std::move(rs.acc);
    ps.red_root.erase({h.coll, h.red_no});
    CX_TRACE_EVENT(mype(), machine->now(),
                   cx::trace::EventKind::RedDeliver, h.coll, h.red_no);
    deliver_callback(cb, std::move(acc));
  }
}

void Runtime::Impl::on_future(MessagePtr msg) {
  me().processed++;
  std::size_t off = 0;
  const FutureHeader h = wire::read_header<FutureHeader>(msg->data, &off);
  std::vector<std::byte> value(msg->data.begin() + static_cast<long>(off),
                               msg->data.end());
  fulfill_future(h.fid, std::move(value));
}

void Runtime::Impl::on_done_inserting(MessagePtr msg) {
  me().processed++;
  DoneInsertingHeader h = pup::from_bytes<DoneInsertingHeader>(msg->data);
  forward_tree(h_done_inserting, h.root, msg->data);
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  const std::uint64_t n =
      cit == ps.colls.end() ? 0 : cit->second.elements.size();
  InsertCountHeader ch;
  ch.coll = h.coll;
  ch.count = n;
  ch.reply = h.reply;
  rt_send(wire::make_msg(h_insert_count, static_cast<int>(h.coll) % P, ch));
}

void Runtime::Impl::on_insert_count(MessagePtr msg) {
  me().processed++;
  InsertCountHeader h = pup::from_bytes<InsertCountHeader>(msg->data);
  auto& ps = me();
  auto& [total, reports] = ps.ins_count[h.coll];
  total += h.count;
  reports++;
  if (reports == P) {
    SetSizeHeader sh;
    sh.coll = h.coll;
    sh.size = total;
    sh.root = mype();
    sh.reply = h.reply;
    ps.ins_count.erase(h.coll);
    rt_send(wire::make_msg(h_set_size, mype(), sh));
  }
}

void Runtime::Impl::on_set_size(MessagePtr msg) {
  me().processed++;
  SetSizeHeader h = pup::from_bytes<SetSizeHeader>(msg->data);
  forward_tree(h_set_size, h.root, msg->data);
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  cit->second.info.size = h.size;
  cit->second.info.inserting = false;
  SizeAckHeader ack;
  ack.coll = h.coll;
  ack.reply = h.reply;
  rt_send(wire::make_msg(h_size_ack, static_cast<int>(h.coll) % P, ack));
  // Reductions rooted here may now be complete.
  if (static_cast<int>(h.coll) % P == mype()) {
    std::vector<std::pair<CollectionId, std::uint32_t>> fire;
    for (auto& [key, rs] : ps.red_root) {
      if (key.first == h.coll && rs.count >= h.size) fire.push_back(key);
    }
    for (const auto& key : fire) {
      auto node = ps.red_root.extract(key);
      deliver_callback(node.mapped().cb, std::move(node.mapped().acc));
    }
  }
}

void Runtime::Impl::on_size_ack(MessagePtr msg) {
  me().processed++;
  SizeAckHeader h = pup::from_bytes<SizeAckHeader>(msg->data);
  auto& acks = me().size_acks[h.coll];
  if (++acks == P) {
    me().size_acks.erase(h.coll);
    send_future_bytes(h.reply, {});
  }
}

// ---- bridge from the header-only templates --------------------------------

namespace detail {

void reply_with_bytes(const ReplyTo& reply, std::vector<std::byte>&& bytes) {
  Runtime::current().impl().send_future_bytes(reply, std::move(bytes));
}

void proxy_broadcast(CollectionId coll, EpId ep, ArgsCarrier args,
                     const ReplyTo& reply) {
  auto& I = Runtime::current().impl();
  BcastHeader h;
  h.coll = coll;
  h.ep = ep;
  h.reply = reply;
  h.root = I.mype();
  I.rt_send(wire::make_msg_pup(I.h_bcast, I.mype(), h, [&](pup::Er& p) {
    args.pup(args.tuple.get(), p);
  }));
}

void sparse_done_inserting(CollectionId coll, const ReplyTo& reply) {
  // Finalizing the size is only meaningful once every in-flight insert
  // has landed; quiescence detection guarantees exactly that.
  Callback c;
  c.kind = Callback::Kind::SparseCount;
  c.coll = coll;
  c.future = reply;
  Runtime::current().start_quiescence(c);
}

void contribute_bytes(Chare& chare, std::vector<std::byte> value,
                      CombineId combiner, const Callback& target) {
  auto& I = Runtime::current().impl();
  ReduceHeader h;
  h.coll = chare.collection();
  h.red_no = I.next_red_no(chare);
  CX_TRACE_EVENT(I.mype(), I.machine->now(),
                 cx::trace::EventKind::RedContribute, h.coll, h.red_no);
  h.combiner = combiner;
  h.cb = target;
  h.count = 1;
  h.contributor = chare.this_index();
  I.rt_send(
      wire::make_msg(I.h_reduce, static_cast<int>(h.coll) % I.P, h, value));
}

namespace {

using StatePtr = std::shared_ptr<FutureState>;

/// The state a read through `slot` works on: the handle's own share, or
/// — for a handle unpacked from bytes — the live state its id names on
/// the creating PE. Reads never create a table entry.
StatePtr reader_state(const ReplyTo& slot, const StatePtr& own,
                      const char* op) {
  auto& I = Runtime::current().impl();
  if (slot.pe != I.mype()) {
    throw std::logic_error(std::string(op) + " must run on the creating PE");
  }
  if (own) return own;
  const auto it = I.me().futures.find(slot.fid);
  if (it == I.me().futures.end()) {
    throw std::logic_error(std::string(op) +
                           ": no handle on the creating PE holds this "
                           "future's value any more");
  }
  return it->second->shared_from_this();
}

Fiber* current_fiber(const char* op) {
  Fiber* cur = Fiber::current();
  if (cur == nullptr) {
    throw std::logic_error(std::string(op) +
                           " requires a threaded entry method");
  }
  return cur;
}

/// Suspend the current fiber until `st` holds a value.
void wait_value(FutureState& st) {
  while (!st.value.has_value()) {
    Fiber* cur = current_fiber("Future::get()");
    if (st.table == nullptr) {
      // Unlinked and empty: no value can reach it any more.
      throw std::logic_error(
          "Future::get(): the future was discarded by a restore");
    }
    st.waiter = cur;
    Fiber::yield();
  }
}

}  // namespace

FutureHandle make_future_handle() {
  auto& I = Runtime::current().impl();
  auto& ps = I.me();
  ReplyTo r;
  r.pe = I.mype();
  // Skip ids still held: after a restore rolls next_future back, a
  // future with a suspended reader may sit above the counter.
  do {
    r.fid = ++ps.next_future;
  } while (ps.futures.count(r.fid) != 0);
  auto st = std::make_shared<FutureState>();
  st->fid = r.fid;
  st->table = &ps.futures;
  ps.futures.emplace(r.fid, st.get());
  return FutureHandle(r, std::move(st));
}

std::vector<std::byte> FutureHandle::get() const& {
  const StatePtr st = reader_state(slot_, state_, "Future::get()");
  wait_value(*st);
  return *st->value;
}

std::vector<std::byte> FutureHandle::get() && {
  const StatePtr st = reader_state(slot_, state_, "Future::get()");
  wait_value(*st);
  state_.reset();
  // Sole owner left: nobody can read the value again, so take it; the
  // state (and its table entry) dies with `st` on return.
  if (st.use_count() == 1) return std::move(*st->value);
  return *st->value;
}

std::optional<std::vector<std::byte>> FutureHandle::get_for(
    double timeout_s) const {
  const StatePtr st = reader_state(slot_, state_, "Future::get_for()");
  if (st->value.has_value()) return *st->value;
  Fiber* cur = current_fiber("Future::get_for()");
  // Arm a deadline: an uncounted self-timer delivered via send_after.
  auto& I = Runtime::current().impl();
  auto& ps = I.me();
  const std::uint64_t token = ++ps.next_timer_token;
  ps.timer_waiters[token] = cur;
  {
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Timer;
    env->timer_token = token;
    I.machine->send_after(I.wrap_local(env, I.mype()), timeout_s);
  }
  for (;;) {
    if (st->value.has_value()) {
      // Disarm: the timer event may still fire, but its token lookup
      // will miss and the delivery no-ops.
      ps.timer_waiters.erase(token);
      return *st->value;
    }
    st->waiter = cur;
    Fiber::yield();
    if (ps.timer_waiters.count(token) == 0) {
      // The deadline fired (it erased its own token before resuming us).
      if (st->value.has_value()) return *st->value;  // lost race: value won
      st->waiter = nullptr;
      // Timed out: the future stays valid for a late value — unless a
      // restore rolled next_future back below its id. Then give the id
      // up, as a never-diverged run does not hold it: fids are pupped
      // inside callbacks, so a post-rollback make_future_handle that
      // skipped it would skew checkpoint digests.
      if (st->fid > ps.next_future) st->unlink();
      return std::nullopt;
    }
  }
}

bool FutureHandle::ready() const {
  auto& I = Runtime::current().impl();
  if (slot_.pe != I.mype()) return false;
  if (state_) return state_->value.has_value();
  const auto it = I.me().futures.find(slot_.fid);
  return it != I.me().futures.end() && it->second->value.has_value();
}

void FutureHandle::send(std::vector<std::byte>&& bytes) const {
  Runtime::current().impl().send_future_bytes(slot_, std::move(bytes));
}

}  // namespace detail
}  // namespace cx
