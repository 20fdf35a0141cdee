#include "machine/sim_machine.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace cxm {

SimMachine::SimMachine(const MachineConfig& cfg)
    : PipelineMachine(cfg.num_pes, cfg.num_pes),
      num_pes_(cfg.num_pes),
      clock_(static_cast<std::size_t>(cfg.num_pes), 0.0),
      net_(make_network(cfg.network, cfg.net, cfg.num_pes)),
      ft_(cfg.faults) {
  if (num_pes_ < 1) throw std::invalid_argument("num_pes must be >= 1");
  ft_enabled_ = ft_.enabled();
  if (ft_enabled_) {
    inj_ = std::make_unique<cx::ft::FaultInjector>(ft_);
    script_ = ft_.full_script();
  }
  // Failure bookkeeping is always sized: inject_kill() must work even
  // without any --ft-* config (e.g. the pool kills a worker directly).
  const auto n = static_cast<std::size_t>(num_pes_);
  ft_pes_.resize(n);
  crashed_.assign(n, 0);
  hung_.assign(n, 0);
  unreachable_.assign(n, 0);
  parked_.resize(n);
}

SimMachine::~SimMachine() {
  while (!heap_.empty()) {
    delete heap_.top().msg;
    heap_.pop();
  }
  for (auto& q : parked_) {
    for (Message* m : q) delete m;
  }
}

void SimMachine::push_timer(int pe, int dst, std::uint64_t seq, double at) {
  auto* m = new Message();
  m->dst_pe = pe;  // the timer fires on the sending PE
  m->src_pe = pe;
  m->ft_peer = dst;
  m->ft_seq = seq;
  m->ft_flags = kFtTimer;
  heap_.push(Event{at, seq_++, m});
}

void SimMachine::push_agg_flush(int pe, int dst, std::uint64_t gen,
                                double at) {
  auto* m = new Message();
  m->dst_pe = pe;  // fires on the sending PE, like an ft timer
  m->src_pe = pe;
  m->ft_peer = dst;
  m->ft_seq = gen;
  m->wire_flags = kWireAggFlush;
  heap_.push(Event{at, seq_++, m});
}

void SimMachine::send(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send: bad destination PE");
  }
  const int src = current_pe_;
  msg->src_pe = src;
  const auto si = static_cast<std::size_t>(src);
  if (agg_on_ && src >= 0) {
    const Aggregated r = aggregate(si, msg, net_->agg_overhead());
    if (r != Aggregated::No) {
      if (r == Aggregated::AbsorbedArm) {
        push_agg_flush(src, dst, agg(si).generation(dst),
                       clock_[si] + agg_cfg_.flush_delay_s);
      }
      drain_agg(si);
      return;
    }
  }
  double arrival = 0.0;
  if (src >= 0) {
    // Sender-side software overhead is CPU time on the sending PE.
    clock_[si] += net_->cpu_overhead();
    arrival = clock_[si] + net_->delay(src, dst, msg->wire_size());
    note_send(*msg);
  }
  if (ft_enabled_ && src >= 0 && dst != src && !msg->local) {
    const double send_time = clock_[si];
    if (ft_.reliable && msg->ft_flags == 0) {
      const cx::ft::PendingSend& p =
          enroll(ft_pes_[si].sw, *inj_, *msg, send_time);
      push_timer(src, dst, p.seq, p.deadline);
    }
    if (ft_.injecting()) {
      const auto d = inj_->on_wire();
      if (d.drop) {
        CX_TRACE_EVENT(src, send_time, cx::trace::EventKind::FtDrop,
                       kDropInjected, msg->ft_seq);
        return;  // lost on the wire; the pending copy recovers it
      }
      arrival += d.extra_delay;
      if (d.dup) {
        heap_.push(Event{arrival, seq_++, new Message(*msg)});
      }
    }
  }
  if (agg_on_) {
    auto& last = last_arrival_[{src, dst}];
    arrival = std::max(arrival, last);
    last = arrival;
  }
  heap_.push(Event{arrival, seq_++, msg.release()});
}

void SimMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send_after: bad destination PE");
  }
  const int src = current_pe_;
  msg->src_pe = src;
  const double base = src >= 0 ? clock_[static_cast<std::size_t>(src)] : 0.0;
  // A timer delivery, not a network message: no overhead, no cost model,
  // no fault injection.
  heap_.push(Event{base + delay_s, seq_++, msg.release()});
}

double SimMachine::now() const {
  if (current_pe_ < 0) return 0.0;
  return clock_[static_cast<std::size_t>(current_pe_)];
}

void SimMachine::charge(double seconds) {
  if (current_pe_ >= 0) {
    clock_[static_cast<std::size_t>(current_pe_)] += seconds;
  }
}

void SimMachine::check_scripted(double time) {
  while (next_script_ < script_.size() && time >= script_[next_script_].at) {
    const cx::ft::ScriptedFault& f = script_[next_script_++];
    if (f.pe < 0 || f.pe >= num_pes_) continue;
    const auto i = static_cast<std::size_t>(f.pe);
    if (crashed_[i] != 0 || hung_[i] != 0) continue;  // already down
    any_failed_ = true;
    // The PE died/froze: its unacked sends die with it (a hung
    // scheduler fires no retransmit timers either).
    ft_pes_[i].sw.pending.clear();
    if (f.kind == cx::ft::FailureKind::Crashed) {
      crashed_[i] = 1;
      notify_failure_once(f.pe, cx::ft::FailureKind::Crashed, f.pe, f.at);
    } else {
      hung_[i] = 1;
      // No notification: a hang is only *detected* — by peers'
      // retransmits giving up or the heartbeat detector.
    }
  }
}

void SimMachine::inject_kill(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  any_failed_ = true;
  const auto i = static_cast<std::size_t>(pe);
  if (crashed_[i]) return;
  crashed_[i] = 1;
  ft_pes_[i].sw.pending.clear();
  notify_failure_once(pe, cx::ft::FailureKind::Crashed, pe, now());
}

void SimMachine::inject_hang(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  if (crashed_[i] != 0 || hung_[i] != 0) return;
  any_failed_ = true;
  hung_[i] = 1;
  ft_pes_[i].sw.pending.clear();
  // Silent by design: peers must discover the hang themselves.
}

void SimMachine::declare_failed(int pe, cx::ft::FailureKind kind) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  any_failed_ = true;
  if (kind == cx::ft::FailureKind::Crashed) {
    crashed_[i] = 1;
  } else if (hung_[i] == 0) {
    unreachable_[i] = 1;
  }
  ft_pes_[i].sw.pending.clear();
  // Every peer stops (re)sending to the declared-dead PE immediately.
  for (auto& f : ft_pes_) f.sw.abandon(pe);
  notify_failure_once(pe, kind, pe, now());
}

void SimMachine::revive_pe(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  crashed_[i] = 0;
  hung_[i] = 0;
  unreachable_[i] = 0;
  clear_failure_notice(pe);
  for (Message* m : parked_[i]) delete m;
  parked_[i].clear();
  // Peers stop retrying the old traffic: the restore path rebuilds
  // application state, so pre-failure messages must not resurface.
  for (auto& f : ft_pes_) f.sw.abandon(pe);
  // Discard half-open batches from before the failure for the same
  // reason (the aggregator recreates lazily on the next send).
  if (agg_on_) aggs_[i].reset();
}

bool SimMachine::pe_failed(int pe) const noexcept {
  if (pe < 0 || pe >= num_pes_) return false;
  const auto i = static_cast<std::size_t>(pe);
  return crashed_[i] != 0 || hung_[i] != 0 || unreachable_[i] != 0;
}

void SimMachine::handle_timer(int pe, const Message& msg, double time) {
  const auto i = static_cast<std::size_t>(pe);
  if (crashed_[i] != 0 || hung_[i] != 0) return;  // dead PEs fire nothing
  const int dst = msg.ft_peer;
  cx::ft::SenderWindow& sw = ft_pes_[i].sw;
  auto it = sw.pending.find({dst, msg.ft_seq});
  if (it == sw.pending.end()) return;  // already acked: stale timer
  auto& clk = clock_[i];
  if (time > clk) clk = time;
  current_pe_ = pe;
  cx::ft::PendingSend& p = it->second;
  if (p.attempts >= ft_.retry.max_attempts) {
    // Give up: declare the destination unreachable and stop all traffic
    // to it, surfacing a typed failure instead of retrying forever.
    sw.abandon(dst);
    if (dst >= 0 && dst < num_pes_) {
      unreachable_[static_cast<std::size_t>(dst)] = 1;
      notify_failure_once(dst, cx::ft::FailureKind::Unreachable, dst, clk);
    }
    return;
  }
  MessagePtr copy = retransmit(pe, p, *inj_, clk);
  push_timer(pe, dst, p.seq, p.deadline);
  send(std::move(copy));
}

void SimMachine::run() {
  running_ = true;
  stop_ = false;
  while (!stop_ && !heap_.empty()) {
    Event ev = heap_.top();
    heap_.pop();
    MessagePtr msg(ev.msg);
    const int pe = msg->dst_pe;
    const auto i = static_cast<std::size_t>(pe);
    if (ft_enabled_ || any_failed_) {
      if (next_script_ < script_.size()) check_scripted(ev.time);
      if (msg->ft_flags & kFtTimer) {
        handle_timer(pe, *msg, ev.time);
        continue;
      }
      if (crashed_[i] != 0) {
        CX_TRACE_EVENT(pe, ev.time, cx::trace::EventKind::FtDrop,
                       kDropDeadDst, msg->ft_seq);
        continue;
      }
      if (hung_[i] != 0) {
        parked_[i].push_back(msg.release());
        continue;
      }
    }
    auto& clk = clock_[i];
    if (ev.time > clk) {
      // The PE's virtual clock jumps forward to the arrival: that gap is
      // scheduler idle time in the simulated timeline.
      CX_TRACE_EVENT(pe, ev.time, cx::trace::EventKind::Idle,
                     static_cast<std::uint64_t>((ev.time - clk) * 1e9), 0);
      clk = ev.time;
    }
    if (agg_on_ && (msg->wire_flags & kWireAggFlush) != 0) {
      // Deterministic idle-equivalent flush on the sending PE. No
      // cpu_overhead charge: the sealed batch pays it in send().
      current_pe_ = pe;
      cxu::set_log_pe(pe);
      agg(i).flush_timer(msg->ft_peer, msg->ft_seq);
      drain_agg(i);
      ++events_processed_;
      continue;
    }
    clk += net_->cpu_overhead();  // receiver-side software overhead
    current_pe_ = pe;
    cxu::set_log_pe(pe);
    FtPeState* ft = ft_enabled_ ? &ft_pes_[i] : nullptr;
    if (receive(pe, std::move(msg), ft, net_->agg_overhead()) !=
        Received::Dropped) {
      ++events_processed_;
    }
  }
  current_pe_ = -1;
  cxu::set_log_pe(-1);
  running_ = false;
}

double SimMachine::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

}  // namespace cxm
