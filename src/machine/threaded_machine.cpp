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
    : PipelineMachine(job.nranks * job.ppn, job.rank * job.ppn, job.ppn,
                      cfg.faults, Streams::PerPe),
      rank_(job.rank),
      nranks_(job.nranks) {
  if (ft_.scripted()) {
    throw std::invalid_argument(
        "--ft-script needs the simulator (--backend sim); on the threaded "
        "and socket backends crash or hang a PE with "
        "Machine::inject_kill/inject_hang");
  }
  for (int i = 0; i < local_pes_; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  if (cfg.backend == Backend::Socket) {
    link_ = std::make_unique<Link>(*this, cfg.socket);
  }
  // cxrun starts every rank on this host, so count the whole job's
  // threads: each rank's PEs plus its comm thread.
  const unsigned threads = static_cast<unsigned>(nranks_) *
                           static_cast<unsigned>(local_pes_ + (link_ ? 1 : 0));
  const unsigned cores = std::thread::hardware_concurrency();
  poll_ = cores > 0 && threads <= cores;
}

ThreadedMachine::~ThreadedMachine() = default;

int ThreadedMachine::current_pe() const noexcept { return t_current_pe; }

void ThreadedMachine::enqueue(int dst, MessagePtr msg) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.push_back(std::move(msg));
    mb.ready.store(mb.queue.size(), std::memory_order_relaxed);
    mb.posts.fetch_add(1, std::memory_order_relaxed);
  }
  mb.cv.notify_one();
}

void ThreadedMachine::enqueue_delayed(int dst, MessagePtr msg,
                                      double deadline) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.delayed.emplace(deadline, std::move(msg));
    mb.posts.fetch_add(1, std::memory_order_relaxed);
  }
  mb.cv.notify_one();  // the PE re-bounds its wait by the new deadline
}

void ThreadedMachine::deliver(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (is_local(dst)) {
    enqueue(dst, std::move(msg));
    return;
  }
  // A PE whose mailbox holds nothing runnable may write the frame itself
  // instead of handing it to the comm thread (Link::ship).
  const int src = t_current_pe;
  const bool idle = src >= 0 && is_local(src) && nothing_runnable(src);
  link_->ship(std::move(msg), idle);
}

void ThreadedMachine::send(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (!valid(dst)) {
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
  const Fate f = fault_step(*msg);
  if (f.lost) return;
  const bool remote = !is_local(dst);
  if (f.dup) {
    if (remote) count_tx_copy(msg->data.size());
    deliver(std::make_unique<Message>(*msg));
  }
  if (f.delay > 0.0 && !remote) {
    enqueue_delayed(dst, std::move(msg), now() + f.delay);
    return;
  }
  deliver(std::move(msg));
}

void ThreadedMachine::arm_retry(int pe, const cx::ft::PendingSend& p) {
  slots_[lidx(pe)].sw.arm(p.dst_pe, p.seq, p.deadline);
  if (!is_local(p.dst_pe)) count_tx_copy(p.data.size());
}

void ThreadedMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (!valid(dst)) {
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
    mb.posts.fetch_add(1, std::memory_order_relaxed);
  }
  mb.cv.notify_all();
}

void ThreadedMachine::announce(int pe, Liveness to) {
  if (!link_) return;
  link_->broadcast(to == Liveness::Crashed ? cxnet::ControlOp::Kill
                   : to == Liveness::Hung  ? cxnet::ControlOp::Hang
                                           : cxnet::ControlOp::Revive,
                   pe);
}

void ThreadedMachine::discard_backlog(int pe) {
  if (!is_local(pe)) return;
  // A hung PE's mailbox kept filling; a crashed one may not have
  // drained yet.
  Mailbox& mb = *mailboxes_[lidx(pe)];
  std::lock_guard<std::mutex> lock(mb.mutex);
  mb.queue.clear();
  mb.ready.store(0, std::memory_order_relaxed);
  mb.delayed.clear();
}

void ThreadedMachine::retransmit_due(int pe, PeSlot& me) {
  // Heap-driven: pop due deadlines off the sender's min-heap instead of
  // scanning every pending send. Stale heap entries (acked, abandoned,
  // or superseded by a later retransmit) are pruned lazily.
  const double tnow = now();
  for (;;) {
    me.sw.prune_due();
    if (me.sw.due.empty()) return;
    const cx::ft::SenderWindow::DueEntry e = me.sw.due.top();
    const Liveness peer = liveness(e.dst);
    if (peer == Liveness::Crashed || peer == Liveness::Unreachable) {
      // Known-dead peer: retrying only generates noise.
      me.sw.due.pop();
      me.sw.abandon(e.dst);
      continue;
    }
    if (e.deadline > tnow) return;  // nothing (valid) due yet
    me.sw.due.pop();
    auto it = me.sw.pending.find({e.dst, e.seq});
    if (it == me.sw.pending.end()) continue;  // raced away; harmless
    // Flags are set: send() does not enroll the copy again.
    if (MessagePtr copy = retry(pe, it->second, tnow)) send(std::move(copy));
  }
}

void ThreadedMachine::run() {
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  epoch_ = cxu::wall_time();
  if (link_) link_->start();
  std::vector<std::thread> threads;
  for (int pe = first_pe_; pe < first_pe_ + local_pes_; ++pe) {
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
    mb->posts.fetch_add(1, std::memory_order_relaxed);
    mb->cv.notify_all();
  }
}

void ThreadedMachine::poll(Mailbox& mb, std::unique_lock<std::mutex>& lock,
                           double until) {
  const std::uint64_t seen = mb.posts.load(std::memory_order_relaxed);
  lock.unlock();
  // Yield, not a pause hint: a PE that has just woken its Link's comm
  // thread often shares a core with it, and must let it run at once.
  while (mb.posts.load(std::memory_order_relaxed) == seen && now() < until) {
    std::this_thread::yield();
  }
  lock.lock();
}

void ThreadedMachine::pe_loop(int pe) {
  t_current_pe = pe;
  cxu::set_log_pe(pe);
  const std::size_t li = lidx(pe);
  Mailbox& mb = *mailboxes_[li];
  PeSlot& slot = slots_[li];
  PeSlot* me = ft_enabled_ ? &slot : nullptr;
  constexpr double kNever = cx::ft::SenderWindow::kNever;
  while (true) {
    MessagePtr msg;
    bool stopping = false;
    bool flush_idle = false;
    double idle_s = -1.0;
    bool polled = false;  // this idle span already polled once
    bool parked = false;  // ...and then parked on the cv
    Liveness life = Liveness::Up;
    {
      std::unique_lock<std::mutex> lock(mb.mutex);
      for (;;) {
        if (any_failed_.load(std::memory_order_relaxed)) life = own_step(pe);
        if (life == Liveness::Hung) {
          // A hung PE parks: it drains nothing, acks nothing, fires no
          // retransmits — total silence until revive_pe() or stop().
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
          mb.ready.store(mb.queue.size(), std::memory_order_relaxed);
          mb.delayed.erase(mb.delayed.begin());
        }
        if (!mb.queue.empty()) break;
        if (stop_.load(std::memory_order_acquire)) {
          stopping = true;
          break;
        }
        if (slot.agg && slot.agg->has_pending()) {
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
        if (poll_ && !polled) {
          // Poll first, then re-check everything above under the lock;
          // park only if the poll caught nothing.
          polled = true;
          poll(mb, lock, std::min(dl, tnow + kPollBudget));
        } else if (dl >= kNever) {
          parked = true;
          mb.cv.wait(lock);
        } else {
          parked = true;
          mb.cv.wait_for(lock, std::chrono::duration<double>(dl - tnow));
        }
        const double waited = cxu::wall_time() - t0;
        idle_s = (idle_s < 0.0 ? 0.0 : idle_s) + waited;
      }
      // A stopping PE takes nothing more: a live one stops only once its
      // queue is empty, and a hung one must not run what it parked.
      if (!stopping && !mb.queue.empty()) {
        msg = std::move(mb.queue.front());
        mb.queue.pop_front();
        mb.ready.store(mb.queue.size(), std::memory_order_relaxed);
      }
    }
    if (idle_s >= 0.0) {
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::Idle,
                     static_cast<std::uint64_t>(idle_s * 1e9),
                     parked ? 1 : 0);
    }
    // A crashed PE drains its mailbox but processes — and acks —
    // nothing, so peers see it as dead; own_step shed its windows and
    // batches, so it neither retransmits nor flushes.
    const bool crashed = life == Liveness::Crashed;
    if (me && !crashed && !me->sw.pending.empty()) retransmit_due(pe, *me);
    if (!msg) {
      if (stopping) break;
      if (flush_idle) {
        agg(li).flush_all(cx::wire::AggFlush::Idle);
        drain_agg(li);
      }
      continue;  // woke only to flush batches / service retransmits
    }
    if (crashed) {
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop, kDropDeadDst,
                     msg->ft_seq);
      continue;
    }
    if (receive(pe, std::move(msg), 0.0) == Received::Dispatched &&
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
