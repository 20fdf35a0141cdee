#include "machine/sim_machine.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace cxm {

SimMachine::SimMachine(const MachineConfig& cfg)
    : PipelineMachine(cfg.num_pes, 0, cfg.num_pes, cfg.faults,
                      Streams::Shared),
      clock_(static_cast<std::size_t>(cfg.num_pes), 0.0),
      net_(make_network(cfg.network, cfg.net, cfg.num_pes)) {
  if (num_pes_ < 1) throw std::invalid_argument("num_pes must be >= 1");
  if (ft_enabled_) script_ = ft_.full_script();
  parked_.resize(static_cast<std::size_t>(num_pes_));
}

SimMachine::~SimMachine() {
  while (!heap_.empty()) {
    delete heap_.top().msg;
    heap_.pop();
  }
  for (int pe = 0; pe < num_pes_; ++pe) discard_backlog(pe);
}

void SimMachine::arm_retry(int pe, const cx::ft::PendingSend& p) {
  auto* m = new Message();
  m->dst_pe = pe;  // the timer fires on the sending PE
  m->src_pe = pe;
  m->ft_peer = p.dst_pe;
  m->ft_seq = p.seq;
  m->ft_flags = kFtTimer;
  heap_.push(Event{p.deadline, seq_++, m});
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
  if (!valid(dst)) {
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
  const Fate f = fault_step(*msg);
  if (f.lost) return;
  arrival += f.delay;
  if (f.dup) heap_.push(Event{arrival, seq_++, new Message(*msg)});
  if (agg_on_) {
    auto& last = last_arrival_[{src, dst}];
    arrival = std::max(arrival, last);
    last = arrival;
  }
  heap_.push(Event{arrival, seq_++, msg.release()});
}

void SimMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (!valid(dst)) {
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
    if (!valid(f.pe) || halted(f.pe)) continue;  // already down
    if (f.kind == cx::ft::FailureKind::Crashed) {
      apply_kill(f.pe, f.pe, f.at);
    } else {
      apply_hang(f.pe);
    }
  }
}

void SimMachine::discard_backlog(int pe) {
  auto& q = parked_[static_cast<std::size_t>(pe)];
  for (Message* m : q) delete m;
  q.clear();
}

void SimMachine::forget_peer(int pe) {
  // Every sender stops (re)sending to the PE at once: pre-failure
  // traffic must not resurface once restore rebuilds its state.
  for (PeSlot& s : slots_) s.sw.abandon(pe);
}

void SimMachine::handle_timer(int pe, const Message& msg, double time) {
  if (halted(pe)) return;  // a stopped PE fires nothing
  cx::ft::SenderWindow& sw = slots_[static_cast<std::size_t>(pe)].sw;
  auto it = sw.pending.find({msg.ft_peer, msg.ft_seq});
  if (it == sw.pending.end()) return;  // already acked: stale timer
  auto& clk = clock_[static_cast<std::size_t>(pe)];
  if (time > clk) clk = time;
  current_pe_ = pe;
  if (MessagePtr copy = retry(pe, it->second, clk)) send(std::move(copy));
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
    if (ft_enabled_ || any_failed_.load(std::memory_order_relaxed)) {
      if (next_script_ < script_.size()) check_scripted(ev.time);
      const Liveness l = own_step(pe);
      if (msg->ft_flags & kFtTimer) {
        handle_timer(pe, *msg, ev.time);
        continue;
      }
      if (l == Liveness::Crashed) {
        CX_TRACE_EVENT(pe, ev.time, cx::trace::EventKind::FtDrop,
                       kDropDeadDst, msg->ft_seq);
        continue;
      }
      if (l == Liveness::Hung) {
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
    if (receive(pe, std::move(msg), net_->agg_overhead()) !=
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
