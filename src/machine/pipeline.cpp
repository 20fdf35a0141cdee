#include "machine/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.hpp"
#include "util/log.hpp"
#include "wire/envelope.hpp"

namespace cxm {

PipelineMachine::PipelineMachine(int num_pes, int first_pe, int local_pes,
                                 const cx::ft::FaultConfig& faults,
                                 Streams streams)
    : num_pes_(std::max(num_pes, 0)),
      first_pe_(first_pe),
      local_pes_(std::max(local_pes, 0)),
      agg_on_(cx::wire::agg_enabled()),
      ft_(faults),
      ft_enabled_(faults.enabled()),
      slots_(static_cast<std::size_t>(local_pes_)),
      life_(static_cast<std::size_t>(num_pes_)),
      downs_(life_.size()),
      failure_notified_(life_.size(), 0) {
  if (agg_on_) agg_cfg_ = cx::wire::agg_config();
  if (!ft_enabled_) return;
  if (streams == Streams::Shared) {
    injectors_.emplace_back(ft_);
  } else {
    for (int pe = first_pe_; pe < first_pe_ + local_pes_; ++pe) {
      injectors_.emplace_back(ft_, static_cast<std::uint64_t>(pe));
    }
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].inj = &injectors_[streams == Streams::Shared ? 0 : i];
  }
}

std::uint32_t PipelineMachine::register_handler(Handler h) {
  if (running_) throw std::logic_error("register_handler after run()");
  handlers_.push_back(std::move(h));
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

PipelineMachine::Aggregated PipelineMachine::aggregate(std::size_t slot,
                                                       MessagePtr& msg,
                                                       double absorb_cost) {
  auto& a = agg(slot);
  const int src = msg->src_pe;
  const int dst = msg->dst_pe;
  if (cx::wire::agg_eligible(*msg, a.config())) {
    // Absorbed: the logical MsgSend happens now at a fraction of the
    // per-message cost; the batch pays the full hand-off once.
    charge(absorb_cost);
    CX_TRACE_EVENT(src, now(), cx::trace::EventKind::MsgSend,
                   static_cast<std::uint64_t>(dst), msg->wire_size());
    return a.absorb(std::move(msg)) ? Aggregated::AbsorbedArm
                                    : Aggregated::Absorbed;
  }
  // Bypassing message (protocol, oversized, local, ...) headed to a
  // destination with an open batch: seal the batch first so it stays
  // ahead on the in-order channel.
  if ((msg->wire_flags & kWireAggBatch) == 0 && dst != src &&
      msg->local == nullptr && a.dst_pending(dst)) {
    a.flush_dst(dst, cx::wire::AggFlush::Ordering);
    drain_agg(slot);
  }
  return Aggregated::No;
}

cx::wire::PeAggregator& PipelineMachine::agg(std::size_t slot) {
  auto& a = slots_[slot].agg;
  if (!a) a = std::make_unique<cx::wire::PeAggregator>(agg_cfg_);
  return *a;
}

void PipelineMachine::drain_agg(std::size_t slot) {
  auto& a = agg(slot);
  while (MessagePtr batch = a.next_ready()) send(std::move(batch));
}

void PipelineMachine::note_send(const Message& msg) {
  const int src = msg.src_pe;
  if ((msg.wire_flags & kWireAggBatch) == 0) {
    CX_TRACE_EVENT(src, now(), cx::trace::EventKind::MsgSend,
                   static_cast<std::uint64_t>(msg.dst_pe), msg.wire_size());
  }
  if (src >= 0 && msg.dst_pe != src && msg.local == nullptr) {
    cx::trace::detail::wire_local().transport_msgs.fetch_add(
        1, std::memory_order_relaxed);
  }
}

PipelineMachine::Received PipelineMachine::receive(int pe, MessagePtr msg,
                                                   double per_record) {
  if (ft_enabled_ && msg->ft_flags != 0) {
    PeSlot* ft = &slots_[lidx(pe)];
    if (msg->ft_flags & kFtAck) {
      ft->sw.acked(msg->src_pe, msg->ft_seq);
      return Received::Ack;
    }
    if (msg->ft_flags & kFtReliable) {
      // Always ack — even duplicates, since the original ack may have
      // been lost on the wire.
      auto ack = std::make_unique<Message>();
      ack->dst_pe = msg->src_pe;
      ack->ft_seq = msg->ft_seq;
      ack->ft_peer = pe;
      ack->ft_flags = kFtAck;
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtAck,
                     static_cast<std::uint64_t>(msg->src_pe), msg->ft_seq);
      send(std::move(ack));
      if (!ft->rw.first_delivery(msg->src_pe, msg->ft_seq)) {
        CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop,
                       kDropDuplicate, msg->ft_seq);
        return Received::Dropped;
      }
    }
  }
  if ((msg->wire_flags & kWireAggBatch) != 0) {
    // Unpack the batch into the normal delivery path, in append order.
    const auto src64 =
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(msg->src_pe));
    const bool ok = cx::wire::for_each_agg_record(
        msg->data, [&](std::uint32_t h, const std::byte* p, std::uint32_t len) {
          charge(per_record);
          if (h >= handlers_.size()) {
            CX_LOG_ERROR("dropping batched message with unknown handler ", h);
            return;
          }
          auto sub = std::make_unique<Message>();
          sub->handler = h;
          sub->src_pe = msg->src_pe;
          sub->dst_pe = pe;
          sub->data.assign(p, len);
          CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::MsgRecv, src64, len);
          handlers_[h](std::move(sub));
        });
    if (!ok) CX_LOG_ERROR("dropping malformed aggregation batch");
    return Received::Dispatched;
  }
  const std::uint32_t h = msg->handler;
  if (h >= handlers_.size()) {
    CX_LOG_ERROR("dropping message with unknown handler ", h);
    return Received::Dropped;
  }
  CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::MsgRecv,
                 static_cast<std::uint32_t>(msg->src_pe), msg->wire_size());
  handlers_[h](std::move(msg));
  return Received::Dispatched;
}

PipelineMachine::Fate PipelineMachine::fault_step(Message& msg) {
  const int src = msg.src_pe;
  const int dst = msg.dst_pe;
  if (!ft_enabled_ || src < 0 || dst == src || msg.local != nullptr) return {};
  PeSlot& me = slots_[lidx(src)];
  const double tnow = now();
  if (ft_.reliable && msg.ft_flags == 0) {
    const std::uint64_t seq = me.sw.allocate(dst);
    msg.ft_seq = seq;
    msg.ft_flags = kFtReliable;
    cx::ft::PendingSend p;
    p.handler = msg.handler;
    p.dst_pe = dst;
    p.data = msg.data;
    p.size_override = msg.size_override;
    p.seq = seq;
    p.wire_flags = msg.wire_flags;  // a resent batch is still a batch
    p.deadline = tnow + me.inj->retry_timeout(0);
    arm_retry(src, me.sw.pending.emplace(std::make_pair(dst, seq), std::move(p))
                       .first->second);
  }
  if (!ft_.injecting()) return {};
  const cx::ft::FaultInjector::Decision d = me.inj->on_wire();
  if (d.drop) {
    CX_TRACE_EVENT(src, tnow, cx::trace::EventKind::FtDrop, kDropInjected,
                   msg.ft_seq);
    return {true, false, 0.0};  // the pending copy recovers it
  }
  return {false, d.dup, d.extra_delay};
}

MessagePtr PipelineMachine::retry(int pe, cx::ft::PendingSend& p,
                                  double tnow) {
  PeSlot& me = slots_[lidx(pe)];
  const int dst = p.dst_pe;
  if (p.attempts >= ft_.retry.max_attempts) {
    // Give up: stop all traffic to the destination and surface a typed
    // failure instead of retrying forever.
    me.sw.abandon(dst);
    set_liveness(dst, Liveness::Unreachable);
    notify_failure_once(dst, cx::ft::FailureKind::Unreachable, pe, tnow);
    return nullptr;
  }
  p.attempts++;
  CX_TRACE_EVENT(pe, tnow, cx::trace::EventKind::FtRetransmit,
                 static_cast<std::uint64_t>(dst),
                 static_cast<std::uint64_t>(p.attempts));
  p.deadline = tnow + me.inj->retry_timeout(p.attempts);
  auto copy = cx::wire::clone_payload(p.handler, dst, p.data);
  copy->size_override = p.size_override;
  copy->ft_seq = p.seq;
  copy->ft_flags = kFtReliable | kFtRetransmit;
  copy->wire_flags = p.wire_flags;
  arm_retry(pe, p);
  return copy;
}

// ---- PE liveness ------------------------------------------------------------

bool PipelineMachine::set_liveness(int pe, Liveness to) {
  auto& s = life_[static_cast<std::size_t>(pe)];
  auto cur = s.load(std::memory_order_relaxed);
  const auto want = static_cast<std::uint8_t>(to);
  for (;;) {
    const auto from = static_cast<Liveness>(cur);
    if (from == to) return false;
    // A crash and a revive override anything; a hang never overrides a
    // crash; only an Up PE becomes Unreachable.
    if ((to == Liveness::Hung && from == Liveness::Crashed) ||
        (to == Liveness::Unreachable && from != Liveness::Up)) {
      return false;
    }
    if (s.compare_exchange_weak(cur, want, std::memory_order_relaxed)) break;
  }
  if (to != Liveness::Up) went_down(pe);
  return true;
}

void PipelineMachine::went_down(int pe) {
  downs_[static_cast<std::size_t>(pe)].fetch_add(1, std::memory_order_relaxed);
  any_failed_.store(true, std::memory_order_release);
  wake(pe);
}

Liveness PipelineMachine::own_step(int pe) {
  PeSlot& me = slots_[lidx(pe)];
  const std::uint32_t downs =
      downs_[static_cast<std::size_t>(pe)].load(std::memory_order_relaxed);
  if (downs != me.downs_seen) {
    me.downs_seen = downs;
    me.sw.pending.clear();
    me.sw.due = {};
    me.agg.reset();
  }
  return liveness(pe);
}

void PipelineMachine::inject_kill(int pe) {
  if (!valid(pe)) return;
  announce(pe, Liveness::Crashed);
  apply_kill(pe, current_pe(), now());
}

void PipelineMachine::inject_hang(int pe) {
  if (!valid(pe)) return;
  announce(pe, Liveness::Hung);
  apply_hang(pe);
}

void PipelineMachine::revive_pe(int pe) {
  if (!valid(pe)) return;
  announce(pe, Liveness::Up);
  apply_revive(pe);
}

void PipelineMachine::apply_kill(int pe, int ctx, double t) {
  if (valid(pe) && set_liveness(pe, Liveness::Crashed)) {
    notify_failure_once(pe, cx::ft::FailureKind::Crashed, ctx, t);
  }
}

void PipelineMachine::apply_hang(int pe) {
  // Silent by design: peers must discover the hang themselves
  // (retransmit give-up or the heartbeat detector).
  if (valid(pe)) set_liveness(pe, Liveness::Hung);
}

void PipelineMachine::declare_failed(int pe, cx::ft::FailureKind kind) {
  // Declared on external evidence (heartbeat silence): every rank's
  // liveness layer reaches its own verdict, so nothing is announced.
  if (!valid(pe)) return;
  const Liveness to = kind == cx::ft::FailureKind::Crashed
                          ? Liveness::Crashed
                          : Liveness::Unreachable;
  // A declared PE sheds its windows even when it was already down.
  if (!set_liveness(pe, to)) went_down(pe);
  forget_peer(pe);
  notify_failure_once(pe, kind, current_pe(), now());
}

void PipelineMachine::apply_revive(int pe) {
  if (!valid(pe)) return;
  // Restore rebuilds application state, so nothing from before the
  // failure may resurface: drop the PE's backlog first, then bring it up.
  discard_backlog(pe);
  set_liveness(pe, Liveness::Up);
  forget_peer(pe);
  {
    std::lock_guard<std::mutex> lk(failure_mutex_);
    failure_notified_[static_cast<std::size_t>(pe)] = 0;
  }
  wake(pe);
}

void PipelineMachine::notify_failure_once(int pe, cx::ft::FailureKind kind,
                                          int ctx, double t) {
  {
    std::lock_guard<std::mutex> lk(failure_mutex_);
    if (failure_notified_[static_cast<std::size_t>(pe)]) return;
    failure_notified_[static_cast<std::size_t>(pe)] = 1;
  }
  CX_TRACE_EVENT(ctx, t, cx::trace::EventKind::FtFailure,
                 static_cast<std::uint64_t>(pe),
                 static_cast<std::uint64_t>(kind));
  if (failure_listener_) failure_listener_(cx::ft::PeFailure{pe, kind, t});
}

}  // namespace cxm
