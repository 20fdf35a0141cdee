#include "machine/threaded_machine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "machine/link.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace cxm {

namespace {
thread_local int t_current_pe = -1;

/// Payload bytes copied in user space on the way to a socket. The frame
/// path copies none; the copies counted here are the ones cx::ft makes
/// of remote sends (the pending copy, retransmits, injected duplicates).
void count_tx_copy(std::size_t n) {
  cx::trace::detail::g_wire.net_tx_copy_bytes.fetch_add(
      n, std::memory_order_relaxed);
}

/// The job a machine for `cfg` joins: a single-process run is rank 0 of
/// 1 hosting every PE. Throws std::invalid_argument on a bad geometry.
SocketParams job_of(const MachineConfig& cfg) {
  if (cfg.backend != Backend::Socket) {
    if (cfg.num_pes < 1) throw std::invalid_argument("num_pes must be >= 1");
    SocketParams p;
    p.ppn = cfg.num_pes;
    return p;
  }
  const SocketParams& p = cfg.socket;
  if (p.nranks < 1 || p.ppn < 1 || p.rank < 0 || p.rank >= p.nranks) {
    throw std::invalid_argument("socket job: bad geometry");
  }
  return p;
}
}  // namespace

ThreadedMachine::ThreadedMachine(const MachineConfig& cfg)
    : ThreadedMachine(cfg, job_of(cfg)) {}

ThreadedMachine::ThreadedMachine(const MachineConfig& cfg,
                                 const SocketParams& job)
    : PipelineMachine(job.nranks * job.ppn, job.ppn),
      rank_(job.rank),
      nranks_(job.nranks),
      ppn_(job.ppn),
      num_pes_(job.nranks * job.ppn),
      pe_base_(job.rank * job.ppn),
      ft_(cfg.faults),
      crashed_(static_cast<std::size_t>(num_pes_)),
      unreachable_(crashed_.size()),
      hung_(crashed_.size()) {
  if (ft_.scripted()) {
    throw std::invalid_argument(
        "--ft-script needs the simulator (--backend sim); on the threaded "
        "and socket backends crash or hang a PE with "
        "Machine::inject_kill/inject_hang");
  }
  for (int i = 0; i < ppn_; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  ft_enabled_ = ft_.enabled();
  if (ft_enabled_) {
    for (int pe = pe_base_; pe < pe_base_ + ppn_; ++pe) {
      ft_pes_.push_back(std::make_unique<PeFt>(ft_, pe));
    }
  }
  if (cfg.backend == Backend::Socket) {
    link_ = std::make_unique<Link>(*this, cfg.socket);
  }
}

ThreadedMachine::~ThreadedMachine() = default;

int ThreadedMachine::current_pe() const noexcept { return t_current_pe; }

void ThreadedMachine::enqueue(int dst, MessagePtr msg) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.push_back(std::move(msg));
  }
  mb.cv.notify_one();
}

void ThreadedMachine::enqueue_delayed(int dst, MessagePtr msg,
                                      double deadline) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.delayed.emplace(deadline, std::move(msg));
  }
  mb.cv.notify_one();  // the PE re-bounds its wait by the new deadline
}

void ThreadedMachine::deliver(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (is_local(dst)) {
    enqueue(dst, std::move(msg));
  } else {
    link_->ship(std::move(msg));
  }
}

void ThreadedMachine::send(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send: bad destination PE");
  }
  const int src = t_current_pe;
  msg->src_pe = src;
  if (msg->local != nullptr && !is_local(dst)) {
    // The runtime's location layer only takes the by-reference path for
    // same-process destinations; reaching here is a routing bug.
    throw std::logic_error(
        "send: local-payload message addressed to a remote PE");
  }
  // No flush timers here: pe_loop's idle hook seals open batches before
  // the scheduler ever sleeps.
  if (agg_on_ && src >= 0 &&
      aggregate(lidx(src), msg, 0.0) != Aggregated::No) {
    drain_agg(lidx(src));
    return;
  }
  note_send(*msg);
  if (ft_enabled_ && src >= 0 && dst != src && !msg->local) {
    PeFt& me = *ft_pes_[lidx(src)];
    const bool remote = !is_local(dst);
    if (ft_.reliable && msg->ft_flags == 0) {
      const cx::ft::PendingSend& p = enroll(me.sw, me.inj, *msg, now());
      me.sw.arm(dst, p.seq, p.deadline);
      if (remote) count_tx_copy(p.data.size());
    }
    if (ft_.injecting()) {
      const cx::ft::FaultInjector::Decision d = me.inj.on_wire();
      if (d.drop) {
        CX_TRACE_EVENT(src, now(), cx::trace::EventKind::FtDrop,
                       kDropInjected, msg->ft_seq);
        return;  // lost on the wire; the pending copy recovers it
      }
      if (d.dup) {
        if (remote) count_tx_copy(msg->data.size());
        deliver(std::make_unique<Message>(*msg));
      }
      if (d.extra_delay > 0.0 && !remote) {
        enqueue_delayed(dst, std::move(msg), now() + d.extra_delay);
        return;
      }
    }
  }
  deliver(std::move(msg));
}

void ThreadedMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send_after: bad destination PE");
  }
  if (!is_local(dst)) {
    // Every runtime timer (future deadlines, heartbeat ticks, pool
    // beats) is self-directed; a remote timer has no owner clock.
    throw std::logic_error("send_after: destination PE is remote");
  }
  msg->src_pe = t_current_pe;
  // A timer delivery, not a network message: no trace, no injection.
  enqueue_delayed(dst, std::move(msg), now() + delay_s);
}

double ThreadedMachine::now() const { return cxu::wall_time() - epoch_; }

void ThreadedMachine::compute(double seconds) {
  const double end = cxu::wall_time() + seconds;
  while (cxu::wall_time() < end) {
    // busy spin: models synthetic compute load on a real core
  }
}

void ThreadedMachine::charge(double) {
  // Real work already consumed real time; nothing to do.
}

void ThreadedMachine::wake(int pe) {
  if (!is_local(pe)) return;
  Mailbox& mb = *mailboxes_[lidx(pe)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
  }
  mb.cv.notify_all();
}

void ThreadedMachine::inject_kill(int pe) {
  if (link_) link_->broadcast(cxnet::ControlOp::Kill, pe);
  apply_kill(pe);
}

void ThreadedMachine::inject_hang(int pe) {
  if (link_) link_->broadcast(cxnet::ControlOp::Hang, pe);
  apply_hang(pe);
}

void ThreadedMachine::revive_pe(int pe) {
  if (link_) link_->broadcast(cxnet::ControlOp::Revive, pe);
  apply_revive(pe);
}

void ThreadedMachine::apply_kill(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  if (crashed_[static_cast<std::size_t>(pe)].exchange(
          true, std::memory_order_relaxed)) {
    return;
  }
  any_failed_.store(true, std::memory_order_release);
  wake(pe);  // so it starts discarding its backlog promptly
  notify_failure_once(pe, cx::ft::FailureKind::Crashed, t_current_pe, now());
}

void ThreadedMachine::apply_hang(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  if (hung_[static_cast<std::size_t>(pe)].exchange(
          true, std::memory_order_relaxed)) {
    return;
  }
  any_failed_.store(true, std::memory_order_release);
  // Wake the PE so it parks promptly. Silent by design: peers must
  // discover the hang themselves (retransmit give-up or heartbeats).
  wake(pe);
}

void ThreadedMachine::declare_failed(int pe, cx::ft::FailureKind kind) {
  // Declared on external evidence (heartbeat silence): every rank's
  // liveness layer reaches its own verdict, so no broadcast — the
  // runtime's ft_notice round spreads the news at the protocol layer.
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  any_failed_.store(true, std::memory_order_release);
  if (kind == cx::ft::FailureKind::Crashed) {
    crashed_[i].store(true, std::memory_order_relaxed);
  } else if (!hung_[i].load(std::memory_order_relaxed)) {
    // Declared dead without a local hang flag: mark unreachable so all
    // traffic to it stops.
    unreachable_[i].store(true, std::memory_order_relaxed);
  }
  wake(pe);
  notify_failure_once(pe, kind, t_current_pe, now());
}

void ThreadedMachine::apply_revive(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  auto clear_flags = [&] {
    crashed_[i].store(false, std::memory_order_relaxed);
    unreachable_[i].store(false, std::memory_order_relaxed);
    hung_[i].store(false, std::memory_order_relaxed);
  };
  if (is_local(pe)) {
    // Discard everything the PE accumulated while down (a hung PE's
    // mailbox kept filling): restore rebuilds application state, so
    // pre-failure messages must not resurface in the revived PE.
    Mailbox& mb = *mailboxes_[lidx(pe)];
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.clear();
    mb.delayed.clear();
    clear_flags();
    mb.cv.notify_all();
  } else {
    clear_flags();
  }
  clear_failure_notice(pe);
}

bool ThreadedMachine::pe_failed(int pe) const noexcept {
  if (pe < 0 || pe >= num_pes_) return false;
  const auto i = static_cast<std::size_t>(pe);
  return crashed_[i].load(std::memory_order_relaxed) ||
         unreachable_[i].load(std::memory_order_relaxed) ||
         hung_[i].load(std::memory_order_relaxed);
}

void ThreadedMachine::retransmit_due(int pe, PeFt& me) {
  // Heap-driven: pop due deadlines off the sender's min-heap instead of
  // scanning every pending send. Stale heap entries (acked, abandoned,
  // or superseded by a later retransmit) are pruned lazily.
  const double tnow = now();
  for (;;) {
    me.sw.prune_due();
    if (me.sw.due.empty()) return;
    const cx::ft::SenderWindow::DueEntry e = me.sw.due.top();
    const auto di = static_cast<std::size_t>(e.dst);
    if (crashed_[di].load(std::memory_order_relaxed) ||
        unreachable_[di].load(std::memory_order_relaxed)) {
      // Known-dead peer: retrying only generates noise.
      me.sw.due.pop();
      me.sw.abandon(e.dst);
      continue;
    }
    if (e.deadline > tnow) return;  // nothing (valid) due yet
    me.sw.due.pop();
    auto it = me.sw.pending.find({e.dst, e.seq});
    if (it == me.sw.pending.end()) continue;  // raced away; harmless
    cx::ft::PendingSend& p = it->second;
    if (p.attempts >= ft_.retry.max_attempts) {
      unreachable_[di].store(true, std::memory_order_relaxed);
      any_failed_.store(true, std::memory_order_release);
      me.sw.abandon(e.dst);
      notify_failure_once(e.dst, cx::ft::FailureKind::Unreachable, pe, now());
      continue;
    }
    MessagePtr copy = retransmit(pe, p, me.inj, tnow);
    me.sw.arm(e.dst, e.seq, p.deadline);
    if (!is_local(e.dst)) count_tx_copy(copy->data.size());
    send(std::move(copy));  // flags are set: no re-enrollment in send()
  }
}

void ThreadedMachine::run() {
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  epoch_ = cxu::wall_time();
  if (link_) link_->start();
  std::vector<std::thread> threads;
  for (int pe = pe_base_; pe < pe_base_ + ppn_; ++pe) {
    threads.emplace_back([this, pe] { pe_loop(pe); });
  }
  for (auto& t : threads) t.join();
  if (link_) link_->finish();
  running_ = false;
}

void ThreadedMachine::stop() { request_stop(true); }

void ThreadedMachine::request_stop(bool broadcast) {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (broadcast && link_) link_->broadcast(cxnet::ControlOp::Stop, -1);
  for (auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lock(mb->mutex);
    mb->cv.notify_all();
  }
}

void ThreadedMachine::pe_loop(int pe) {
  t_current_pe = pe;
  cxu::set_log_pe(pe);
  const std::size_t li = lidx(pe);
  const auto gi = static_cast<std::size_t>(pe);
  Mailbox& mb = *mailboxes_[li];
  PeFt* me = ft_enabled_ ? ft_pes_[li].get() : nullptr;
  constexpr double kNever = cx::ft::SenderWindow::kNever;
  while (true) {
    MessagePtr msg;
    bool stopping = false;
    bool flush_idle = false;
    double idle_s = -1.0;
    {
      std::unique_lock<std::mutex> lock(mb.mutex);
      for (;;) {
        if (any_failed_.load(std::memory_order_relaxed) &&
            hung_[gi].load(std::memory_order_relaxed)) {
          // A hung PE parks: it drains nothing, acks nothing, fires no
          // retransmits — total silence until revive_pe() or stop().
          // Its unacked sends and open batches die with it (own-thread
          // state, so only the owner may clear them).
          if (me && !me->sw.pending.empty()) {
            me->sw.pending.clear();
            while (!me->sw.due.empty()) me->sw.due.pop();
          }
          if (agg_on_ && aggs_[li]) aggs_[li].reset();
          if (stop_.load(std::memory_order_acquire)) {
            stopping = true;
            break;
          }
          mb.cv.wait(lock);
          continue;
        }
        const double tnow = now();
        // Promote deferred deliveries that have come due.
        while (!mb.delayed.empty() && mb.delayed.begin()->first <= tnow) {
          mb.queue.push_back(std::move(mb.delayed.begin()->second));
          mb.delayed.erase(mb.delayed.begin());
        }
        if (!mb.queue.empty()) break;
        if (stop_.load(std::memory_order_acquire)) {
          stopping = true;
          break;
        }
        if (agg_on_ && aggs_[li] && aggs_[li]->has_pending()) {
          // Idle hook: out of work with open batches — seal and send
          // them (outside the mailbox lock) before going to sleep.
          flush_idle = true;
          break;
        }
        // The scheduler is about to sleep: bound the wait by the next
        // deferred delivery and (with ft on) the next retransmit
        // deadline of our own unacked sends.
        double dl = mb.delayed.empty() ? kNever : mb.delayed.begin()->first;
        if (me) dl = std::min(dl, me->sw.next_deadline());
        if (dl <= tnow) break;  // a retransmit is due; handle below
        const double t0 = cxu::wall_time();
        if (dl >= kNever) {
          mb.cv.wait(lock);
        } else {
          mb.cv.wait_for(lock, std::chrono::duration<double>(dl - tnow));
        }
        const double waited = cxu::wall_time() - t0;
        idle_s = (idle_s < 0.0 ? 0.0 : idle_s) + waited;
      }
      if (!mb.queue.empty()) {
        msg = std::move(mb.queue.front());
        mb.queue.pop_front();
      }
    }
    if (idle_s >= 0.0) {
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::Idle,
                     static_cast<std::uint64_t>(idle_s * 1e9), 0);
    }
    if (me && !me->sw.pending.empty()) retransmit_due(pe, *me);
    const bool crashed = any_failed_.load(std::memory_order_relaxed) &&
                         crashed_[gi].load(std::memory_order_relaxed);
    if (!msg) {
      if (stopping) break;
      if (flush_idle) {
        if (crashed) {
          // A crashed PE's unsent batches die with it (like its
          // mailbox backlog) — drop them instead of spinning.
          aggs_[li].reset();
        } else {
          agg(li).flush_all(cx::wire::AggFlush::Idle);
          drain_agg(li);
        }
      }
      continue;  // woke only to flush batches / service retransmits
    }
    if (crashed) {
      // A crashed PE drains its mailbox but processes — and acks —
      // nothing, so peers see it as dead.
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop, kDropDeadDst,
                     msg->ft_seq);
      continue;
    }
    if (receive(pe, std::move(msg), me, 0.0) == Received::Dispatched &&
        stop_.load(std::memory_order_acquire)) {
      // Finish promptly on stop; remaining queued messages are dropped by
      // design (mirrors charm.exit() semantics).
      break;
    }
  }
  t_current_pe = -1;
  cxu::set_log_pe(-1);
}

}  // namespace cxm
