// Fault-tolerance handlers (failure notification, liveness heartbeats,
// checkpoint/restore collectives, the auto-recovery coordinator) and
// the cx::ft public API. The collectives must walk the scheduler's live
// per-PE state, so they live in core/, not ft/. All ft traffic is
// uncounted control traffic: no processed++.
//
// Shared coordinator state (Impl::ftst) can be touched from different
// PE threads across a coordinator failover, so the failed set, the
// recovery state machine, callbacks and restore-ack counts take
// ftst.mu; callbacks themselves always run outside the lock.

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/future.hpp"
#include "core/runtime_impl.hpp"
#include "util/log.hpp"

namespace cx {

namespace {

/// Bound for collective waits during recovery: generous multiples of
/// the settle delay, floored per backend.
double recover_wait_bound(bool simulated, double settle_s) noexcept {
  return std::max(4.0 * settle_s, simulated ? 1.0e-3 : 0.25);
}

constexpr std::uint64_t ns(double seconds) noexcept {
  return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
}

}  // namespace

void Runtime::Impl::on_ft_failure(MessagePtr msg) {
  FtFailureHeader h = pup::from_bytes<FtFailureHeader>(msg->data);
  const int pe = h.failure.pe;
  if (pe < 0 || pe >= P) return;
  std::vector<std::function<void(const cx::ft::PeFailure&)>> cbs;
  {
    std::lock_guard<std::mutex> lk(ftst.mu);
    if (!ftst.failed.insert(pe).second) return;  // already known
    cbs = ftst.callbacks;  // run outside the lock (a cb may re-enter)
  }
  CX_LOG_WARN("cx::ft: PE ", pe, " failed (",
              cx::ft::failure_kind_name(h.failure.kind),
              ") at t=", h.failure.time);
  // Its local checkpoint memory died with it; the buddy copy remains.
  cx::ft::CheckpointStore::instance().drop_primary(pe);
  for (auto& cb : cbs) cb(h.failure);
  if (!cfg.machine.faults.auto_recover || exiting.load()) return;
  // Auto-recovery: start (or adopt) a round on this PE's scheduler.
  std::uint64_t round = 0;
  {
    std::lock_guard<std::mutex> lk(ftst.mu);
    if (ftst.rec.phase == cx::ft::RecoveryPhase::Idle) {
      round = ftst.rec.begin(mype(), machine->now());
    } else if (ftst.rec.owner != mype() &&
               (ftst.rec.owner < 0 || machine->pe_failed(ftst.rec.owner) ||
                ftst.rec.owner == pe)) {
      // The coordinator driving the current round is itself a casualty:
      // take over with a fresh round. Its driver fiber — possibly
      // revived later by restore — sees the stale round stamp and exits.
      round = ftst.rec.begin(mype(), machine->now());
    } else {
      // A round is in flight on a live coordinator: mark it dirty so it
      // loops (re-notify, re-settle, re-restore) before finishing.
      ftst.rec.dirty = true;
      return;
    }
  }
  run_fiber([this, round] { auto_recover_driver(round); }, nullptr);
}

void Runtime::Impl::auto_recover_driver(std::uint64_t round) {
  const bool sim = machine->is_simulated();
  const auto& fcfg = cfg.machine.faults;
  const double settle = cx::ft::effective_settle(fcfg.settle_s, sim);
  const double bound = recover_wait_bound(sim, settle);
  double t0 = 0.0;
  {
    std::lock_guard<std::mutex> lk(ftst.mu);
    if (ftst.rec.round != round) return;  // superseded before we ran
    t0 = ftst.rec.t0;
  }
  for (int attempt = 0;; ++attempt) {
    if (exiting.load()) return;
    // Phase 1: broadcast the failure notice to every live PE so their
    // detectors reset and the casualty's in-flight traffic is distrusted.
    FtNoticeHeader n;
    n.round = round;
    n.coordinator = mype();
    {
      std::lock_guard<std::mutex> lk(ftst.mu);
      if (ftst.rec.round != round) return;
      ftst.rec.phase = cx::ft::RecoveryPhase::Notifying;
      ftst.rec.dirty = false;
      n.failed_pe = ftst.failed.empty() ? -1 : *ftst.failed.begin();
    }
    for (int pe = 0; pe < P; ++pe) {
      if (pe == mype() || machine->pe_failed(pe)) continue;
      raw_send(wire::make_msg(h_ft_notice, pe, n));
    }
    if (live_cfg.enabled()) {
      live[static_cast<std::size_t>(mype())].pred.reset(machine->now());
    }
    // Phase 2: settle — let pre-failure in-flight traffic drain or die
    // before rolling state back under it.
    {
      std::lock_guard<std::mutex> lk(ftst.mu);
      if (ftst.rec.round != round) return;
      ftst.rec.phase = cx::ft::RecoveryPhase::Settling;
    }
    ft_sleep(settle);
    // Phase 3: collective restore from the newest complete checkpoint.
    {
      std::lock_guard<std::mutex> lk(ftst.mu);
      if (ftst.rec.round != round) return;
      ftst.rec.phase = cx::ft::RecoveryPhase::Restoring;
    }
    const cx::ft::RestoreStatus st = ft::restore(bound);
    if (st == cx::ft::RestoreStatus::NoCheckpoint) {
      // Satellite contract: no checkpoint -> clean abort with a
      // diagnostic, never a hang or an uncaught throw.
      CX_LOG_ERROR(
          "cx::ft: auto-recover found no complete checkpoint to roll "
          "back to; aborting the run (call cx::ft::checkpoint() at "
          "least once before the first failure)");
      {
        std::lock_guard<std::mutex> lk(ftst.mu);
        if (ftst.rec.round == round) ftst.rec.finish();
      }
      exiting.store(true);
      machine->stop();
      return;
    }
    bool done = false;
    {
      std::lock_guard<std::mutex> lk(ftst.mu);
      if (ftst.rec.round != round) return;
      done = st == cx::ft::RestoreStatus::Ok && !ftst.rec.dirty &&
             ftst.failed.empty();
      if (done) ftst.rec.finish();
    }
    if (done) break;
    if (attempt + 1 >= fcfg.retry.max_attempts) {
      CX_LOG_ERROR("cx::ft: auto-recovery did not converge after ",
                   attempt + 1, " rounds; aborting the run");
      {
        std::lock_guard<std::mutex> lk(ftst.mu);
        if (ftst.rec.round == round) ftst.rec.finish();
      }
      exiting.store(true);
      machine->stop();
      return;
    }
  }
  const double now = machine->now();
  const double mttr = now - t0;
  CX_TRACE_EVENT(mype(), now, cx::trace::EventKind::FtRecover, round,
                 ns(mttr));
  ftst.completed_rounds.fetch_add(1, std::memory_order_relaxed);
  CX_LOG_WARN("cx::ft: auto-recovery round ", round, " complete (MTTR ",
              mttr, "s)");
  // Tell every PE the round is over so suspended timed waits re-check
  // state promptly (the counter increment above happens-before these
  // sends, so a woken driver reads the new round count).
  {
    FtNoticeHeader d;
    d.round = round;
    d.coordinator = mype();
    for (int pe = 0; pe < P; ++pe) {
      raw_send(wire::make_msg(h_ft_round_done, pe, d));
    }
  }
  std::vector<std::function<void(std::uint64_t)>> cbs;
  {
    std::lock_guard<std::mutex> lk(ftst.mu);
    cbs = ftst.recovery_callbacks;
  }
  for (auto& cb : cbs) cb(round);
}

void Runtime::Impl::wake_armed_timers() {
  // Each armed token is re-fired as a fresh Timer envelope — uncounted
  // (digest-safe) and idempotent (the original deadline's delivery
  // finds the token gone and no-ops).
  auto& ps = me();
  for (const auto& [token, fib] : ps.timer_waiters) {
    (void)fib;
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Timer;
    env->timer_token = token;
    machine->send_after(wrap_local(env, mype()), 0.0);
  }
}

void Runtime::Impl::on_ft_round_done(MessagePtr msg) {
  (void)pup::from_bytes<FtNoticeHeader>(msg->data);
  // A recovery round just finished somewhere: fibers suspended in timed
  // waits (phase drivers mid get_for slice) should re-check
  // cx::ft::recoveries() now rather than at their next deadline — a
  // slice can be seconds of virtual time, and every idle second is
  // heartbeat traffic the DES has to churn through.
  wake_armed_timers();
  if (live_cfg.enabled()) {
    // The round just revived its casualties, but a revived predecessor
    // needs a beat in flight before it stops looking silent. Restart
    // the grace period so the monitor does not re-declare it (and
    // trigger a whole spurious second round) in that window.
    live[static_cast<std::size_t>(mype())].pred.reset(machine->now());
  }
}

void Runtime::Impl::ft_sleep(double seconds) {
  // A pure timer wait on the timer-token mechanism — deliberately NOT a
  // future: future ids (PeState.next_future) are pupped into checkpoint
  // blobs, so an id burned here by the recovery machinery would make a
  // recovered run's digest diverge from a fault-free one. Timer tokens
  // are runtime-local and never checkpointed. Loops against an absolute
  // deadline because a recovery wake-all may resume the fiber early.
  Fiber* cur = Fiber::current();
  const double t_end = machine->now() + seconds;
  for (;;) {
    const double left = t_end - machine->now();
    if (left <= 0.0) return;
    auto& ps = me();
    const std::uint64_t token = ++ps.next_timer_token;
    ps.timer_waiters[token] = cur;
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Timer;
    env->timer_token = token;
    machine->send_after(wrap_local(env, mype()), left);
    while (me().timer_waiters.count(token) != 0) Fiber::yield();
  }
}

// ---------------------------------------------------------------------------
// Liveness: heartbeat tick chains and the accrual detector

void Runtime::Impl::arm_hb_tick(int pe) {
  auto m = std::make_unique<Message>();
  m->handler = h_hb_tick;
  m->dst_pe = pe;
  m->ft_seq = live[static_cast<std::size_t>(pe)].tick_gen;
  m->ft_flags = cxm::kFtBestEffort;
  m->wire_flags = cxm::kWireNoAgg;
  machine->send_after(std::move(m), live_cfg.interval_s);
}

void Runtime::Impl::on_hb_tick(MessagePtr msg) {
  if (!live_cfg.enabled() || P < 2) return;
  const int pe = mype();
  auto& L = live[static_cast<std::size_t>(pe)];
  if (msg->ft_seq != L.tick_gen) return;  // stale chain from before a revive
  if (exiting.load()) return;             // let the chain die: DES must drain
  const double now = machine->now();
  const int pred = cx::ft::hb_predecessor(pe, P);
  const int succ = cx::ft::hb_successor(pe, P);
  if (L.pred.last_seen < 0.0) {
    // First tick of this chain: grace-arm the detector so a peer that
    // has not beaten *yet* is not instantly suspected.
    L.pred.reset(now);
  }
  // Beat our successor (best-effort: lost beats are superseded).
  HeartbeatHeader hh;
  hh.src = pe;
  hh.seq = ++L.hb_seq;
  auto beat = wire::make_msg(h_heartbeat, succ, hh);
  beat->ft_flags = cxm::kFtBestEffort;
  raw_send(std::move(beat));
  // Check our predecessor's silence. Gate on what the *runtime* knows,
  // not machine->pe_failed(): a silently-hung PE already shows as
  // failed to the DES injector the moment the script fires, and that
  // must not suppress the very declaration that tells the recovery
  // pipeline about it. fail_pe dedupes, so re-declaring while the
  // notice is in flight is a no-op.
  bool known;
  {
    std::lock_guard<std::mutex> lk(ftst.mu);
    known = ftst.failed.count(pred) != 0;
  }
  if (known) {
    // Recovery owns the casualty. Hold the detector in its grace
    // period rather than letting suspicion accrue against a PE that is
    // about to be revived: the revive clears the failed set a restore
    // round-trip before the first new beat can arrive, and a stale
    // detector firing in that window would dirty the round and buy a
    // whole spurious second rollback.
    L.pred.reset(now);
  } else if (L.pred.suspect(now, live_cfg)) {
    const double silence = now - L.pred.last_seen;
    CX_TRACE_EVENT(pe, now, cx::trace::EventKind::FtDetect,
                   static_cast<std::uint64_t>(pred), ns(silence));
    CX_LOG_WARN("cx::ft: PE ", pe, " heartbeat detector declares PE ", pred,
                " hung (silent for ", silence, "s)");
    machine->declare_failed(pred, cx::ft::FailureKind::Hung);
  }
  arm_hb_tick(pe);
}

void Runtime::Impl::on_heartbeat(MessagePtr msg) {
  if (!live_cfg.enabled()) return;
  const HeartbeatHeader h = pup::from_bytes<HeartbeatHeader>(msg->data);
  const int pe = mype();
  if (h.src != cx::ft::hb_predecessor(pe, P)) return;  // not our link
  live[static_cast<std::size_t>(pe)].pred.heartbeat(machine->now());
}

void Runtime::Impl::on_ft_notice(MessagePtr msg) {
  const FtNoticeHeader h = pup::from_bytes<FtNoticeHeader>(msg->data);
  CX_TRACE_EVENT(mype(), machine->now(), cx::trace::EventKind::FtNotice,
                 static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(h.failed_pe)),
                 h.round);
  if (live_cfg.enabled()) {
    // Recovery is handling the casualty: restart the grace period so
    // the monitor of the dead PE does not re-declare it every tick.
    live[static_cast<std::size_t>(mype())].pred.reset(machine->now());
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / restore collectives

void Runtime::Impl::on_ckpt(MessagePtr msg) {
  CkptHeader h = pup::from_bytes<CkptHeader>(msg->data);
  auto& ps = me();
  PeBlob blob;
  blob.created = ps.created;
  blob.processed = ps.processed;
  blob.next_future = ps.next_future;
  std::vector<CollectionId> cids;
  cids.reserve(ps.colls.size());
  for (auto& [cid, cm] : ps.colls) cids.push_back(cid);
  std::sort(cids.begin(), cids.end());
  for (const CollectionId cid : cids) {
    CollMeta& cm = ps.colls.at(cid);
    CollBlob cb;
    cb.info = cm.info;
    std::vector<Index> order;
    order.reserve(cm.elements.size());
    for (auto& [idx, obj] : cm.elements) order.push_back(idx);
    std::sort(order.begin(), order.end());
    for (const Index& idx : order) {
      Chare* obj = cm.elements.at(idx).get();
      ElementBlob eb;
      eb.idx = idx;
      eb.red_no = obj->red_no_;
      eb.sect_seq = obj->sect_seq_;
      pup::Sizer sz;
      obj->pup(sz);
      eb.state.resize(sz.size());
      pup::Packer pk(eb.state.data(), eb.state.size());
      obj->pup(pk);
      cb.elements.push_back(std::move(eb));
    }
    order.clear();
    for (auto& [idx, pe] : cm.overrides) order.push_back(idx);
    std::sort(order.begin(), order.end());
    for (const Index& idx : order) {
      cb.overrides.push_back({idx, cm.overrides.at(idx)});
    }
    blob.colls.push_back(std::move(cb));
  }
  for (auto& [key, rs] : ps.red_root) {
    RedBlob rb;
    rb.coll = key.first;
    rb.red_no = key.second;
    rb.count = rs.count;
    rb.has_acc = rs.has_acc;
    rb.acc = rs.acc;
    rb.combiner = rs.combiner;
    rb.cb = rs.cb;
    blob.reductions.push_back(std::move(rb));
  }
  // Sections and in-flight section reductions (both std::maps: ordered,
  // so the blob packs deterministically). The present/away delivery
  // split is a cache and is not captured — restore rebuilds it lazily.
  for (auto& [sid, sm] : ps.sections) {
    (void)sid;
    SectBlob sb;
    sb.spec = sm.spec;
    sb.epoch = sm.epoch;
    blob.sections.push_back(std::move(sb));
  }
  for (auto& [key, rs] : ps.sect_red) {
    SectRedBlob sb;
    sb.sect = key.first;
    sb.seq = key.second;
    sb.count = rs.count;
    sb.has_acc = rs.has_acc;
    sb.acc = rs.acc;
    sb.combiner = rs.combiner;
    sb.cb = rs.cb;
    blob.sect_reductions.push_back(std::move(sb));
  }
  blob.next_sect = ps.next_sect;
  auto bytes = pup::to_bytes(blob);
  CX_TRACE_EVENT(mype(), machine->now(), cx::trace::EventKind::FtCheckpoint,
                 h.epoch, bytes.size());
  cx::ft::CheckpointStore::instance().store(mype(), h.epoch,
                                            std::move(bytes));
  CkptAckHeader a;
  a.epoch = h.epoch;
  a.reply = h.reply;
  raw_send(wire::make_msg(h_ckpt_ack, h.reply.pe, a));
}

void Runtime::Impl::on_ckpt_ack(MessagePtr msg) {
  CkptAckHeader h = pup::from_bytes<CkptAckHeader>(msg->data);
  if (++ftst.ckpt_acks[h.epoch] < P) return;
  ftst.ckpt_acks.erase(h.epoch);
  // Uncounted timer-token wake, not a future fulfillment: checkpoint
  // machinery must leave no footprint in the quiescence counters it is
  // itself snapshotting (see the restore ack path for the full story).
  std::lock_guard<std::mutex> lk(ftst.mu);
  if (ftst.ckpt_wait_epoch != h.epoch) return;  // abandoned epoch
  ftst.ckpt_done = true;
  if (ftst.ckpt_waiter != nullptr) {
    auto& ps = me();
    const std::uint64_t token = ++ps.next_timer_token;
    ps.timer_waiters[token] = ftst.ckpt_waiter;
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Timer;
    env->timer_token = token;
    machine->send_after(wrap_local(env, mype()), 0.0);
  }
}

void Runtime::Impl::on_restore(MessagePtr msg) {
  RestoreHeader h = pup::from_bytes<RestoreHeader>(msg->data);
  auto& ps = me();
  // Discard post-checkpoint scheduler state. Futures and live fibers
  // survive: the restore driver itself is suspended on one.
  ps.colls.clear();
  ps.stash.clear();
  ps.red_root.clear();
  ps.bcast_done_root.clear();
  // Like bcast_done_root: completion expectations describe post-
  // checkpoint multicasts, and a replayed broadcast re-registers its
  // own (same reply fid — next_future rolls back below).
  ps.bcast_expect.clear();
  ps.sections.clear();
  ps.sect_red.clear();
  ps.sect_stash.clear();
  ps.ins_count.clear();
  ps.size_acks.clear();
  if (mype() == 0) {
    lb.clear();
    qd = QdState{};
  }
  const auto bytes = cx::ft::CheckpointStore::instance().latest(mype());
  if (!bytes.empty()) {
    PeBlob blob = pup::from_bytes<PeBlob>(bytes);
    for (auto& cb : blob.colls) {
      CollMeta& cm = ps.colls[cb.info.id];
      cm.install(cb.info);
      const auto& fac = Registry::instance().factory(cb.info.ctor);
      if (fac.construct_default == nullptr) {
        CX_LOG_ERROR("chare type of collection ", cb.info.id,
                     " is not default-constructible; cannot restore");
        throw std::logic_error(
            "restore requires default-constructible chares");
      }
      for (auto& eb : cb.elements) {
        staged_coll() = cb.info.id;
        staged_idx() = eb.idx;
        Chare* obj = fac.construct_default();
        staged_coll() = kInvalidCollection;
        pup::Unpacker u(eb.state.data(), eb.state.size());
        obj->pup(u);
        obj->red_no_ = eb.red_no;
        obj->sect_seq_ = eb.sect_seq;
        obj->load_ = 0.0;
        cm.elements[eb.idx].reset(obj);
        obj->on_migrated();
      }
      for (auto& ob : cb.overrides) cm.overrides[ob.idx] = ob.pe;
    }
    for (auto& rb : blob.reductions) {
      RedState rs;
      rs.count = rb.count;
      rs.has_acc = rb.has_acc;
      rs.acc = rb.acc;
      rs.combiner = rb.combiner;
      rs.cb = rb.cb;
      ps.red_root[{rb.coll, rb.red_no}] = std::move(rs);
    }
    // Sections: re-derive home membership from the restored collection
    // info; the present/away split rebuilds lazily on the next
    // multicast (exactly like a post-migration repair).
    for (auto& sb : blob.sections) {
      SectMeta sm;
      sm.spec = sb.spec;
      sm.epoch = sb.epoch;
      const auto cit = ps.colls.find(sb.spec.coll);
      if (cit != ps.colls.end()) {
        for (const Index& m : sm.spec.members) {
          if (cit->second.home(m, P) == mype()) {
            sm.home_members.push_back(m);
          }
        }
      }
      ps.sections[sm.spec.id] = std::move(sm);
    }
    for (auto& sb : blob.sect_reductions) {
      RedState rs;
      rs.count = sb.count;
      rs.has_acc = sb.has_acc;
      rs.acc = sb.acc;
      rs.combiner = sb.combiner;
      rs.cb = sb.cb;
      ps.sect_red[{sb.sect, sb.seq}] = std::move(rs);
    }
    ps.next_sect = blob.next_sect;
    // Roll the quiescence counters back too, so created/processed match
    // a run that never diverged from this checkpoint.
    ps.created = blob.created;
    ps.processed = blob.processed;
    // Same for the future-id counter: element state PUPs callbacks,
    // which embed future ids, so a restored run must re-issue the ids a
    // never-diverged run would (the digest tests compare them). Stale
    // post-checkpoint futures leave the table (their handles keep the
    // state, but a value for the re-issued id no longer reaches them);
    // one with a suspended reader survives, and make_future_handle
    // skips over any survivor when reallocating.
    for (auto it = ps.futures.begin(); it != ps.futures.end();) {
      detail::FutureState* st = (it++)->second;
      if (st->fid > blob.next_future && st->waiter == nullptr) st->unlink();
    }
    ps.next_future = blob.next_future;
  }
  // Wake every armed Future::get_for deadline early: a phase driver
  // suspended on a long timeout must observe the rollback now, not
  // minutes from now. Drivers whose wait is still valid just loop and
  // re-arm.
  wake_armed_timers();
  // Restart this PE's heartbeat chain under a fresh generation: a
  // revived PE's old chain died with it, and live PEs' old chains are
  // retired by the generation check — exactly one chain per PE after
  // every restore, on both backends.
  if (live_cfg.enabled()) {
    auto& L = live[static_cast<std::size_t>(mype())];
    ++L.tick_gen;
    L.pred.reset(machine->now());
    arm_hb_tick(mype());
  }
  CX_TRACE_EVENT(mype(), machine->now(), cx::trace::EventKind::FtRestore,
                 h.epoch, bytes.size());
  RestoreAckHeader a;
  a.reply = h.reply;
  raw_send(wire::make_msg(h_restore_ack, h.reply.pe, a));
}

void Runtime::Impl::on_restore_ack(MessagePtr msg) {
  RestoreAckHeader h = pup::from_bytes<RestoreAckHeader>(msg->data);
  bool complete = false;
  {
    std::lock_guard<std::mutex> lk(ftst.mu);
    const auto it = ftst.restore_acks.find({h.reply.pe, h.reply.fid});
    if (it == ftst.restore_acks.end()) return;  // abandoned round: ignore
    if (++it->second >= P) {
      ftst.restore_acks.erase(it);
      complete = true;
    }
  }
  if (!complete) return;
  // Wake the restore driver through an uncounted timer token, never a
  // future: this fires after the rollback reset the quiescence
  // counters, so a counted resume here would permanently skew them
  // against a fault-free run. Spurious (the driver may already be past
  // its flag check) but loop-guarded waits tolerate that.
  std::lock_guard<std::mutex> lk(ftst.mu);
  ftst.restore_done = true;
  if (ftst.restore_waiter != nullptr) {
    auto& ps = me();
    const std::uint64_t token = ++ps.next_timer_token;
    ps.timer_waiters[token] = ftst.restore_waiter;
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Timer;
    env->timer_token = token;
    machine->send_after(wrap_local(env, mype()), 0.0);
  }
}

// ---------------------------------------------------------------------------
// cx::ft public API (declared in ft/ft.hpp; lives here because the
// collectives must walk the scheduler's live per-PE state)

namespace ft {

std::uint64_t checkpoint() {
  auto& I = Runtime::current().impl();
  const auto& fcfg = I.cfg.machine.faults;
  const bool sim = I.machine->is_simulated();
  const double settle = effective_settle(fcfg.settle_s, sim);
  double bound = recover_wait_bound(sim, settle);
  if (I.live_cfg.enabled()) {
    // A silent hang mid-checkpoint is only noticed by the heartbeat
    // layer: wait at least that long before declaring the epoch dead.
    bound = std::max(bound, 2.0 * I.live_cfg.detection_bound());
  }
  const std::uint64_t rounds0 =
      I.ftst.completed_rounds.load(std::memory_order_relaxed);
  Fiber* cur = Fiber::current();
  for (int attempt = 0;; ++attempt) {
    const std::uint64_t epoch = ++I.ftst.next_epoch;
    {
      // The ack wait rides a flag plus the timer-token mechanism, NOT a
      // future: future ids and the quiescence counters are part of the
      // very blobs this collective stores, so the machinery must not
      // touch them (a fault-free and a recovered run would otherwise
      // disagree on the ledger — the chaos digests compare it).
      std::lock_guard<std::mutex> lk(I.ftst.mu);
      I.ftst.ckpt_wait_epoch = epoch;
      I.ftst.ckpt_done = false;
      I.ftst.ckpt_waiter = cur;
    }
    CkptHeader h;
    h.epoch = epoch;
    h.reply.pe = I.mype();  // ack destination; not a future
    h.reply.fid = 0;
    for (int pe = 0; pe < I.P; ++pe) {
      I.raw_send(wire::make_msg(I.h_ckpt, pe, h));
    }
    if (!fcfg.auto_recover) {
      for (;;) {  // blocks the driver fiber until the completion wake
        {
          std::lock_guard<std::mutex> lk(I.ftst.mu);
          if (I.ftst.ckpt_done) break;
        }
        Fiber::yield();
      }
      std::lock_guard<std::mutex> lk(I.ftst.mu);
      I.ftst.ckpt_waiter = nullptr;
      I.ftst.ckpt_wait_epoch = 0;
      return epoch;
    }
    // Under auto-recover a PE crashing mid-checkpoint means its ack
    // never comes: bound the wait, discard the partial epoch (the
    // store only serves *complete* epochs, so it was never visible),
    // wait out the recovery, and retake under a fresh epoch.
    bool ok = true;
    const double t_end = I.machine->now() + bound;
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(I.ftst.mu);
        if (I.ftst.ckpt_done) break;
      }
      const double left = t_end - I.machine->now();
      if (left <= 0.0) {
        ok = false;
        break;
      }
      {
        auto& ps = I.me();
        const std::uint64_t token = ++ps.next_timer_token;
        ps.timer_waiters[token] = cur;
        LocalEnvelope* env = acquire_envelope();
        env->kind = LocalEnvelope::Kind::Timer;
        env->timer_token = token;
        I.machine->send_after(I.wrap_local(env, I.mype()), left);
        Fiber::yield();
        I.me().timer_waiters.erase(token);  // disarm on early wake
      }
      // Woken early (completion, a recovery wake-all, or a round-done
      // notice): if a rollback is in flight this epoch is already
      // dead — stop waiting for it.
      std::lock_guard<std::mutex> lk(I.ftst.mu);
      if (I.ftst.ckpt_done) break;
      if (!I.ftst.failed.empty() ||
          I.ftst.rec.phase != RecoveryPhase::Idle) {
        ok = false;
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lk(I.ftst.mu);
      I.ftst.ckpt_waiter = nullptr;
      I.ftst.ckpt_wait_epoch = 0;
    }
    I.ftst.ckpt_acks.erase(epoch);  // late stale acks die on lookup
    if (ok) return epoch;
    if (attempt + 1 >= fcfg.retry.max_attempts) {
      throw std::runtime_error(
          "cx::ft::checkpoint(): could not complete a checkpoint under "
          "repeated failures");
    }
    // Wait for recovery to go idle (all PEs live) before retaking.
    for (;;) {
      bool idle;
      {
        std::lock_guard<std::mutex> lk(I.ftst.mu);
        idle = I.ftst.rec.phase == RecoveryPhase::Idle &&
               I.ftst.failed.empty();
      }
      if (idle || I.exiting.load()) break;
      I.ft_sleep(settle);
    }
    if (I.exiting.load()) return 0;
    // If a recovery round completed while we waited, every PE was just
    // reconstructed bit-for-bit from a complete stored epoch and no app
    // message has run since (the driver fiber held the PE): that epoch
    // IS a checkpoint of the current state. Return it instead of
    // retaking — a retake would store identical bytes under a fresh
    // epoch, burning a future id and a completion resume that a
    // fault-free run never spends (the chaos tier's digest-equality
    // assertions would see the skew).
    const std::uint64_t restored =
        I.ftst.last_restored.load(std::memory_order_relaxed);
    if (restored != 0 &&
        I.ftst.completed_rounds.load(std::memory_order_relaxed) != rounds0) {
      return restored;
    }
  }
}

RestoreStatus restore(double timeout_s) {
  auto& I = Runtime::current().impl();
  const std::uint64_t epoch = CheckpointStore::instance().latest_epoch();
  if (epoch == 0) return RestoreStatus::NoCheckpoint;
  // Bring dead PEs back first so the restore collective reaches them.
  {
    std::lock_guard<std::mutex> lk(I.ftst.mu);
    const std::vector<int> dead(I.ftst.failed.begin(), I.ftst.failed.end());
    for (const int pe : dead) I.machine->revive_pe(pe);
    I.ftst.failed.clear();
  }
  // The ack wait rides a flag plus the timer-token mechanism, NOT a
  // future: the restore handler rolls next_future back to the blob
  // value, so a future id burned by the machinery itself would make
  // post-rollback allocations diverge from a never-diverged run's.
  Fiber* cur = Fiber::current();
  ReplyTo reply;
  reply.pe = I.mype();
  {
    // Pre-register the ack count (the id part is a restore round tag,
    // not a future id): acks for any other (abandoned) round miss this
    // key and are ignored.
    std::lock_guard<std::mutex> lk(I.ftst.mu);
    reply.fid = ++I.ftst.restore_rounds;
    I.ftst.restore_acks[{reply.pe, reply.fid}] = 0;
    I.ftst.restore_done = false;
    I.ftst.restore_waiter = cur;
  }
  RestoreHeader h;
  h.epoch = epoch;
  h.reply = reply;
  for (int pe = 0; pe < I.P; ++pe) {
    I.raw_send(wire::make_msg(I.h_restore, pe, h));
  }
  bool ok = true;
  const double t_end =
      timeout_s > 0.0 ? I.machine->now() + timeout_s : 0.0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(I.ftst.mu);
      if (I.ftst.restore_done) break;
    }
    if (timeout_s <= 0.0) {
      Fiber::yield();  // resumed by the completion wake
      continue;
    }
    const double left = t_end - I.machine->now();
    if (left <= 0.0) {
      ok = false;
      break;
    }
    auto& ps = I.me();
    const std::uint64_t token = ++ps.next_timer_token;
    ps.timer_waiters[token] = cur;
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Timer;
    env->timer_token = token;
    I.machine->send_after(I.wrap_local(env, I.mype()), left);
    Fiber::yield();
    // Disarm if the completion wake (or a wake-all) beat the deadline.
    I.me().timer_waiters.erase(token);
  }
  {
    std::lock_guard<std::mutex> lk(I.ftst.mu);
    I.ftst.restore_waiter = nullptr;
    I.ftst.restore_acks.erase({reply.pe, reply.fid});  // no-op on success
  }
  if (ok) {
    I.ftst.last_restored.store(epoch, std::memory_order_relaxed);
  }
  return ok ? RestoreStatus::Ok : RestoreStatus::Timeout;
}

std::uint64_t last_restored_epoch() {
  return Runtime::current().impl().ftst.last_restored.load(
      std::memory_order_relaxed);
}

std::uint64_t checkpoint_digest() {
  return CheckpointStore::instance().digest();
}

void set_checkpoint_dir(const std::string& dir) {
  CheckpointStore::instance().set_disk_dir(dir);
}

void on_failure(std::function<void(const PeFailure&)> cb) {
  auto& I = Runtime::current().impl();
  std::lock_guard<std::mutex> lk(I.ftst.mu);
  I.ftst.callbacks.push_back(std::move(cb));
}

void on_recovery(std::function<void(std::uint64_t)> cb) {
  auto& I = Runtime::current().impl();
  std::lock_guard<std::mutex> lk(I.ftst.mu);
  I.ftst.recovery_callbacks.push_back(std::move(cb));
}

std::uint64_t recoveries() {
  return Runtime::current().impl().ftst.completed_rounds.load(
      std::memory_order_relaxed);
}

std::vector<int> failed_pes() {
  auto& I = Runtime::current().impl();
  std::lock_guard<std::mutex> lk(I.ftst.mu);
  return {I.ftst.failed.begin(), I.ftst.failed.end()};
}

bool auto_recover_enabled() {
  return Runtime::current().impl().cfg.machine.faults.auto_recover;
}

RetryPolicy retry_policy() {
  return Runtime::current().impl().cfg.machine.faults.retry;
}

}  // namespace ft
}  // namespace cx
