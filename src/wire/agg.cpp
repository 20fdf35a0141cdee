#include "wire/agg.hpp"

#include <atomic>
#include <mutex>

#include "util/options.hpp"
#include "wire/pool.hpp"

namespace cx::wire {

namespace {

using cx::trace::detail::g_wire;

std::atomic<bool> g_agg_enabled{false};

std::mutex g_agg_cfg_mutex;
AggConfig g_agg_cfg;

void note_flush(AggFlush why) noexcept {
  switch (why) {
    case AggFlush::Bytes:
      g_wire.agg_flush_bytes.fetch_add(1, std::memory_order_relaxed);
      break;
    case AggFlush::Count:
      g_wire.agg_flush_count.fetch_add(1, std::memory_order_relaxed);
      break;
    case AggFlush::Idle:
      g_wire.agg_flush_idle.fetch_add(1, std::memory_order_relaxed);
      break;
    case AggFlush::Ordering:
      g_wire.agg_flush_order.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

}  // namespace

bool agg_enabled() noexcept {
  return g_agg_enabled.load(std::memory_order_relaxed);
}

void set_agg_enabled(bool on) noexcept {
  g_agg_enabled.store(on, std::memory_order_relaxed);
}

AggConfig agg_config() noexcept {
  std::lock_guard<std::mutex> lock(g_agg_cfg_mutex);
  return g_agg_cfg;
}

void set_agg_config(const AggConfig& cfg) noexcept {
  std::lock_guard<std::mutex> lock(g_agg_cfg_mutex);
  g_agg_cfg = cfg;
}

void configure_agg_from_options(const cxu::Options& opt) {
  if (opt.has("wire-agg")) {
    // Bare --wire-agg parses as "true"; =on/=off/=0/... via the shared
    // toggle parser.
    set_agg_enabled(
        parse_toggle(opt.get_string("wire-agg", "on").c_str(), true));
  }
  if (opt.has("wire-agg-bytes") || opt.has("wire-agg-count")) {
    AggConfig cfg = agg_config();
    cfg.flush_bytes = static_cast<std::size_t>(opt.get_int(
        "wire-agg-bytes", static_cast<long long>(cfg.flush_bytes)));
    cfg.flush_count = static_cast<std::uint32_t>(opt.get_int(
        "wire-agg-count", static_cast<long long>(cfg.flush_count)));
    set_agg_config(cfg);
  }
}

// ---- PeAggregator --------------------------------------------------------

bool PeAggregator::absorb(cxm::MessagePtr msg) {
  DstAgg& d = dsts_[msg->dst_pe];
  const int cls = class_of(msg->data.size());
  // Ordering rule: only one class may be open per destination. A class
  // switch seals the old batch first, so it travels ahead.
  if (d.active >= 0 && d.active != cls) seal(d, AggFlush::Ordering);

  ClassBuf& b = d.cls[cls];
  const std::size_t need = kAggRecordBytes + msg->data.size();
  if (b.msg == nullptr) {
    // Open a new batch: one pooled Message sized for the worst case up
    // front (header + flush threshold + one max-size record); sealing
    // shrinks it in place (resize_discard never reallocates downward).
    b.msg = std::make_unique<cxm::Message>();
    b.msg->dst_pe = msg->dst_pe;
    b.msg->wire_flags = cxm::kWireAggBatch;
    b.msg->data.resize_discard(kAggHeaderBytes + cfg_.flush_bytes +
                               kAggRecordBytes + cfg_.max_msg_bytes);
    b.bytes = kAggHeaderBytes;
    b.count = 0;
    if (d.active < 0) ++pending_dsts_;
    d.active = cls;
  }
  std::byte* out = b.msg->data.data() + b.bytes;
  const std::uint32_t handler = msg->handler;
  const auto len = static_cast<std::uint32_t>(msg->data.size());
  std::memcpy(out, &handler, sizeof(handler));
  std::memcpy(out + sizeof(handler), &len, sizeof(len));
  if (len > 0) std::memcpy(out + kAggRecordBytes, msg->data.data(), len);
  b.bytes += need;
  b.count += 1;
  g_wire.agg_msgs.fetch_add(1, std::memory_order_relaxed);
  msg.reset();  // absorbed; the pooled Message recycles immediately

  if (b.count >= cfg_.flush_count) {
    seal(d, AggFlush::Count);
  } else if (b.bytes >= cfg_.flush_bytes) {
    seal(d, AggFlush::Bytes);
  }
  // Arm a flush timer when the destination has an open batch that no
  // live timer covers (covers both a fresh open and the batch re-opened
  // by the ordering seal above).
  if (d.active >= 0 && d.armed_gen != d.gen) {
    d.armed_gen = d.gen;
    return true;
  }
  return false;
}

void PeAggregator::seal(DstAgg& d, AggFlush why) {
  if (d.active < 0) return;
  ClassBuf& b = d.cls[d.active];
  std::memcpy(b.msg->data.data(), &b.count, sizeof(b.count));
  b.msg->data.resize_discard(b.bytes);  // shrink: keeps block + contents
  g_wire.agg_batches.fetch_add(1, std::memory_order_relaxed);
  note_flush(why);
  ready_.push_back(std::move(b.msg));
  b.bytes = 0;
  b.count = 0;
  d.active = -1;
  d.gen += 1;
  --pending_dsts_;
}

void PeAggregator::flush_dst(int dst, AggFlush why) {
  auto it = dsts_.find(dst);
  if (it != dsts_.end()) seal(it->second, why);
}

void PeAggregator::flush_timer(int dst, std::uint64_t gen) {
  auto it = dsts_.find(dst);
  if (it != dsts_.end() && it->second.gen == gen) {
    seal(it->second, AggFlush::Idle);
  }
}

void PeAggregator::flush_all(AggFlush why) {
  if (pending_dsts_ == 0) return;
  for (auto& [dst, d] : dsts_) {
    (void)dst;
    seal(d, why);
  }
}

bool PeAggregator::dst_pending(int dst) const noexcept {
  const auto it = dsts_.find(dst);
  return it != dsts_.end() && it->second.active >= 0;
}

std::uint64_t PeAggregator::generation(int dst) const {
  const auto it = dsts_.find(dst);
  return it != dsts_.end() ? it->second.gen : 0;
}

cxm::MessagePtr PeAggregator::next_ready() {
  if (ready_head_ >= ready_.size()) {
    ready_.clear();
    ready_head_ = 0;
    return nullptr;
  }
  return std::move(ready_[ready_head_++]);
}

}  // namespace cx::wire
