#include "machine/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.hpp"
#include "util/log.hpp"
#include "wire/envelope.hpp"

namespace cxm {

PipelineMachine::PipelineMachine(int num_pes, int local_pes)
    : agg_on_(cx::wire::agg_enabled()),
      failure_notified_(static_cast<std::size_t>(std::max(num_pes, 0)), 0) {
  if (agg_on_) {
    agg_cfg_ = cx::wire::agg_config();
    aggs_.resize(static_cast<std::size_t>(std::max(local_pes, 0)));
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
  auto& a = aggs_[slot];
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
    cx::trace::detail::g_wire.transport_msgs.fetch_add(
        1, std::memory_order_relaxed);
  }
}

PipelineMachine::Received PipelineMachine::receive(int pe, MessagePtr msg,
                                                   FtPeState* ft,
                                                   double per_record) {
  if (ft != nullptr && msg->ft_flags != 0) {
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

cx::ft::PendingSend& PipelineMachine::enroll(cx::ft::SenderWindow& sw,
                                             cx::ft::FaultInjector& inj,
                                             Message& msg, double tnow) {
  const int dst = msg.dst_pe;
  const std::uint64_t seq = sw.allocate(dst);
  msg.ft_seq = seq;
  msg.ft_flags = kFtReliable;
  cx::ft::PendingSend p;
  p.handler = msg.handler;
  p.dst_pe = dst;
  p.data = msg.data;
  p.size_override = msg.size_override;
  p.seq = seq;
  p.wire_flags = msg.wire_flags;  // a resent batch is still a batch
  p.deadline = tnow + inj.retry_timeout(0);
  return sw.pending.emplace(std::make_pair(dst, seq), std::move(p))
      .first->second;
}

MessagePtr PipelineMachine::retransmit(int pe, cx::ft::PendingSend& p,
                                       cx::ft::FaultInjector& inj,
                                       double tnow) {
  p.attempts++;
  CX_TRACE_EVENT(pe, tnow, cx::trace::EventKind::FtRetransmit,
                 static_cast<std::uint64_t>(p.dst_pe),
                 static_cast<std::uint64_t>(p.attempts));
  p.deadline = tnow + inj.retry_timeout(p.attempts);
  auto copy = cx::wire::clone_payload(p.handler, p.dst_pe, p.data);
  copy->size_override = p.size_override;
  copy->ft_seq = p.seq;
  copy->ft_flags = kFtReliable | kFtRetransmit;
  copy->wire_flags = p.wire_flags;
  return copy;
}

void PipelineMachine::notify_failure_once(int pe, cx::ft::FailureKind kind,
                                          int trace_pe, double t) {
  {
    std::lock_guard<std::mutex> lk(failure_mutex_);
    if (failure_notified_[static_cast<std::size_t>(pe)]) return;
    failure_notified_[static_cast<std::size_t>(pe)] = 1;
  }
  CX_TRACE_EVENT(trace_pe, t, cx::trace::EventKind::FtFailure,
                 static_cast<std::uint64_t>(pe),
                 static_cast<std::uint64_t>(kind));
  if (failure_listener_) failure_listener_(cx::ft::PeFailure{pe, kind, t});
}

void PipelineMachine::clear_failure_notice(int pe) {
  std::lock_guard<std::mutex> lk(failure_mutex_);
  failure_notified_[static_cast<std::size_t>(pe)] = 0;
}

}  // namespace cxm
