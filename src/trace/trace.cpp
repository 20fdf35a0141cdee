#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "util/log.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace cx::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
WireAtomics g_wire;
WhenAtomics g_when;
PoolAtomics g_pool;
SectionAtomics g_section;
std::atomic<std::uint64_t> g_future_late_drops{0};

namespace {
/// One PE's per-task pool counters, on cache lines of their own.
struct alignas(64) TaskShard {
  std::atomic<std::uint64_t> tasks_done{0};
  std::atomic<std::uint64_t> task_ns_sum{0};
  std::atomic<std::uint64_t> lat_hist[kPoolLatBuckets] = {};
};
/// Slot i for PE i of the current run; the last slot is the shared one.
std::unique_ptr<TaskShard[]> g_task_shards = std::make_unique<TaskShard[]>(1);
std::size_t g_num_task_shards = 1;
}  // namespace

void note_pool_task(int pe, std::uint64_t ns) noexcept {
  const std::size_t shared = g_num_task_shards - 1;
  const auto i = static_cast<std::size_t>(pe);
  TaskShard& t = g_task_shards[pe >= 0 && i < shared ? i : shared];
  t.tasks_done.fetch_add(1, std::memory_order_relaxed);
  t.task_ns_sum.fetch_add(ns, std::memory_order_relaxed);
  int b = 0;
  while ((1ull << (b + 1)) <= ns && b < kPoolLatBuckets - 1) ++b;
  t.lat_hist[b].fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

namespace {
struct PoolJobs {
  std::mutex mu;
  std::deque<PoolJobRecord> records;  ///< the newest kPoolJobRecordCap
  std::uint64_t dropped = 0;
};
PoolJobs& pool_jobs() {
  static PoolJobs j;
  return j;
}
}  // namespace

double PoolStats::p99_task_s() const noexcept {
  if (tasks_done == 0) return 0.0;
  const std::uint64_t target =
      tasks_done - tasks_done / 100;  // ceil-ish 99th percentile rank
  std::uint64_t seen = 0;
  for (int i = 0; i < kPoolLatBuckets; ++i) {
    seen += lat_hist[i];
    if (seen >= target) {
      return static_cast<double>(1ull << (i + 1)) * 1e-9;
    }
  }
  return static_cast<double>(1ull << kPoolLatBuckets) * 1e-9;
}

PoolStats pool_stats() noexcept {
  const auto& p = detail::g_pool;
  PoolStats s;
  s.grants = p.grants.load(std::memory_order_relaxed);
  s.granted_tasks = p.granted_tasks.load(std::memory_order_relaxed);
  s.max_chunk = p.max_chunk.load(std::memory_order_relaxed);
  s.steal_attempts = p.steal_attempts.load(std::memory_order_relaxed);
  s.steal_hits = p.steal_hits.load(std::memory_order_relaxed);
  s.stolen_tasks = p.stolen_tasks.load(std::memory_order_relaxed);
  s.result_batches = p.result_batches.load(std::memory_order_relaxed);
  s.beats = p.beats.load(std::memory_order_relaxed);
  s.reassigns = p.reassigns.load(std::memory_order_relaxed);
  s.inflight_clamps = p.inflight_clamps.load(std::memory_order_relaxed);
  s.queue_high_water = p.queue_high_water.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < detail::g_num_task_shards; ++k) {
    const detail::TaskShard& t = detail::g_task_shards[k];
    s.tasks_done += t.tasks_done.load(std::memory_order_relaxed);
    s.task_ns_sum += t.task_ns_sum.load(std::memory_order_relaxed);
    for (int i = 0; i < kPoolLatBuckets; ++i) {
      s.lat_hist[i] += t.lat_hist[i].load(std::memory_order_relaxed);
    }
  }
  return s;
}

void reset_pool_stats() noexcept {
  auto& p = detail::g_pool;
  p.grants.store(0, std::memory_order_relaxed);
  p.granted_tasks.store(0, std::memory_order_relaxed);
  p.max_chunk.store(0, std::memory_order_relaxed);
  p.steal_attempts.store(0, std::memory_order_relaxed);
  p.steal_hits.store(0, std::memory_order_relaxed);
  p.stolen_tasks.store(0, std::memory_order_relaxed);
  p.result_batches.store(0, std::memory_order_relaxed);
  p.beats.store(0, std::memory_order_relaxed);
  p.reassigns.store(0, std::memory_order_relaxed);
  p.inflight_clamps.store(0, std::memory_order_relaxed);
  p.queue_high_water.store(0, std::memory_order_relaxed);
  for (std::size_t k = 0; k < detail::g_num_task_shards; ++k) {
    detail::TaskShard& t = detail::g_task_shards[k];
    t.tasks_done.store(0, std::memory_order_relaxed);
    t.task_ns_sum.store(0, std::memory_order_relaxed);
    for (auto& h : t.lat_hist) h.store(0, std::memory_order_relaxed);
  }
  auto& j = pool_jobs();
  std::lock_guard<std::mutex> lock(j.mu);
  j.records.clear();
  j.dropped = 0;
}

void pool_job_note(const PoolJobRecord& rec) {
  auto& j = pool_jobs();
  std::lock_guard<std::mutex> lock(j.mu);
  if (j.records.size() == kPoolJobRecordCap) {
    j.records.pop_front();
    ++j.dropped;
  }
  j.records.push_back(rec);
}

std::vector<PoolJobRecord> pool_job_records() {
  auto& j = pool_jobs();
  std::lock_guard<std::mutex> lock(j.mu);
  return {j.records.begin(), j.records.end()};
}

std::uint64_t pool_job_records_dropped() {
  auto& j = pool_jobs();
  std::lock_guard<std::mutex> lock(j.mu);
  return j.dropped;
}

WhenEngineStats when_stats() noexcept {
  const auto& w = detail::g_when;
  WhenEngineStats s;
  s.tests = w.tests.load(std::memory_order_relaxed);
  s.hits = w.hits.load(std::memory_order_relaxed);
  s.buffered = w.buffered.load(std::memory_order_relaxed);
  s.skipped = w.skipped.load(std::memory_order_relaxed);
  s.high_water = w.high_water.load(std::memory_order_relaxed);
  return s;
}

void reset_when_stats() noexcept {
  auto& w = detail::g_when;
  w.tests.store(0, std::memory_order_relaxed);
  w.hits.store(0, std::memory_order_relaxed);
  w.buffered.store(0, std::memory_order_relaxed);
  w.skipped.store(0, std::memory_order_relaxed);
  w.high_water.store(0, std::memory_order_relaxed);
}

WireStats wire_stats() noexcept {
  const auto& w = detail::g_wire;
  WireStats s;
  s.envelopes = w.envelopes.load(std::memory_order_relaxed);
  s.bytes_packed = w.bytes_packed.load(std::memory_order_relaxed);
  s.sbo_payloads = w.sbo_payloads.load(std::memory_order_relaxed);
  s.buf_allocs = w.buf_allocs.load(std::memory_order_relaxed);
  s.buf_hits = w.buf_hits.load(std::memory_order_relaxed);
  s.buf_recycled = w.buf_recycled.load(std::memory_order_relaxed);
  s.msg_allocs = w.msg_allocs.load(std::memory_order_relaxed);
  s.msg_hits = w.msg_hits.load(std::memory_order_relaxed);
  s.msg_recycled = w.msg_recycled.load(std::memory_order_relaxed);
  s.env_allocs = w.env_allocs.load(std::memory_order_relaxed);
  s.env_hits = w.env_hits.load(std::memory_order_relaxed);
  s.transport_msgs = w.transport_msgs.load(std::memory_order_relaxed);
  s.agg_batches = w.agg_batches.load(std::memory_order_relaxed);
  s.agg_msgs = w.agg_msgs.load(std::memory_order_relaxed);
  s.agg_flush_bytes = w.agg_flush_bytes.load(std::memory_order_relaxed);
  s.agg_flush_count = w.agg_flush_count.load(std::memory_order_relaxed);
  s.agg_flush_idle = w.agg_flush_idle.load(std::memory_order_relaxed);
  s.agg_flush_order = w.agg_flush_order.load(std::memory_order_relaxed);
  s.net_tx_copy_bytes = w.net_tx_copy_bytes.load(std::memory_order_relaxed);
  s.net_rx_copy_bytes = w.net_rx_copy_bytes.load(std::memory_order_relaxed);
  s.net_pe_frames = w.net_pe_frames.load(std::memory_order_relaxed);
  s.net_pe_bytes = w.net_pe_bytes.load(std::memory_order_relaxed);
  s.net_comm_frames = w.net_comm_frames.load(std::memory_order_relaxed);
  s.net_comm_bytes = w.net_comm_bytes.load(std::memory_order_relaxed);
  s.net_partial_writes = w.net_partial_writes.load(std::memory_order_relaxed);
  s.net_epollout_arms = w.net_epollout_arms.load(std::memory_order_relaxed);
  s.net_wake_pokes = w.net_wake_pokes.load(std::memory_order_relaxed);
  s.net_poll_hits = w.net_poll_hits.load(std::memory_order_relaxed);
  s.net_blocking_waits = w.net_blocking_waits.load(std::memory_order_relaxed);
  s.net_rx_frames = w.net_rx_frames.load(std::memory_order_relaxed);
  s.net_rx_bytes = w.net_rx_bytes.load(std::memory_order_relaxed);
  s.net_decode_errors = w.net_decode_errors.load(std::memory_order_relaxed);
  s.net_doorbells = w.net_doorbells.load(std::memory_order_relaxed);
  return s;
}

void reset_wire_stats() noexcept {
  auto& w = detail::g_wire;
  w.envelopes.store(0, std::memory_order_relaxed);
  w.bytes_packed.store(0, std::memory_order_relaxed);
  w.sbo_payloads.store(0, std::memory_order_relaxed);
  w.buf_allocs.store(0, std::memory_order_relaxed);
  w.buf_hits.store(0, std::memory_order_relaxed);
  w.buf_recycled.store(0, std::memory_order_relaxed);
  w.msg_allocs.store(0, std::memory_order_relaxed);
  w.msg_hits.store(0, std::memory_order_relaxed);
  w.msg_recycled.store(0, std::memory_order_relaxed);
  w.env_allocs.store(0, std::memory_order_relaxed);
  w.env_hits.store(0, std::memory_order_relaxed);
  w.transport_msgs.store(0, std::memory_order_relaxed);
  w.agg_batches.store(0, std::memory_order_relaxed);
  w.agg_msgs.store(0, std::memory_order_relaxed);
  w.agg_flush_bytes.store(0, std::memory_order_relaxed);
  w.agg_flush_count.store(0, std::memory_order_relaxed);
  w.agg_flush_idle.store(0, std::memory_order_relaxed);
  w.agg_flush_order.store(0, std::memory_order_relaxed);
  w.net_tx_copy_bytes.store(0, std::memory_order_relaxed);
  w.net_rx_copy_bytes.store(0, std::memory_order_relaxed);
  w.net_pe_frames.store(0, std::memory_order_relaxed);
  w.net_pe_bytes.store(0, std::memory_order_relaxed);
  w.net_comm_frames.store(0, std::memory_order_relaxed);
  w.net_comm_bytes.store(0, std::memory_order_relaxed);
  w.net_partial_writes.store(0, std::memory_order_relaxed);
  w.net_epollout_arms.store(0, std::memory_order_relaxed);
  w.net_wake_pokes.store(0, std::memory_order_relaxed);
  w.net_poll_hits.store(0, std::memory_order_relaxed);
  w.net_blocking_waits.store(0, std::memory_order_relaxed);
  w.net_rx_frames.store(0, std::memory_order_relaxed);
  w.net_rx_bytes.store(0, std::memory_order_relaxed);
  w.net_decode_errors.store(0, std::memory_order_relaxed);
  w.net_doorbells.store(0, std::memory_order_relaxed);
}

SectionStats section_stats() noexcept {
  const auto& s = detail::g_section;
  SectionStats out;
  out.sections_built = s.sections_built.load(std::memory_order_relaxed);
  out.tree_repairs = s.tree_repairs.load(std::memory_order_relaxed);
  out.mcasts = s.mcasts.load(std::memory_order_relaxed);
  out.mcast_envelopes = s.mcast_envelopes.load(std::memory_order_relaxed);
  out.envelopes_saved = s.envelopes_saved.load(std::memory_order_relaxed);
  out.contributions = s.contributions.load(std::memory_order_relaxed);
  out.red_fragments = s.red_fragments.load(std::memory_order_relaxed);
  out.reductions_done = s.reductions_done.load(std::memory_order_relaxed);
  return out;
}

void reset_section_stats() noexcept {
  auto& s = detail::g_section;
  s.sections_built.store(0, std::memory_order_relaxed);
  s.tree_repairs.store(0, std::memory_order_relaxed);
  s.mcasts.store(0, std::memory_order_relaxed);
  s.mcast_envelopes.store(0, std::memory_order_relaxed);
  s.envelopes_saved.store(0, std::memory_order_relaxed);
  s.contributions.store(0, std::memory_order_relaxed);
  s.red_fragments.store(0, std::memory_order_relaxed);
  s.reductions_done.store(0, std::memory_order_relaxed);
}

namespace {

/// One PE's trace state. The owning PE thread is the only writer; the
/// ring index is published with a release store so post-run readers see
/// completed slots. Cache-line aligned so neighbouring PEs don't share.
struct alignas(64) PeTrace {
  std::vector<Event> ring;
  std::atomic<std::uint64_t> head{0};  ///< monotonically increasing
  Counters counters;
  // Full-run event span, independent of ring overwrites (the retained
  // window alone would understate the span once events drop).
  double t_first = 0.0;
  double t_last = 0.0;
};

struct State {
  Config cfg;
  std::vector<std::unique_ptr<PeTrace>> pes;
  bool simulated = false;
  int first_local = 0;  ///< PEs [first_local, end_local) run in this process
  int end_local = 0;
  std::mutex mutex;  ///< guards configure/begin_run, not the hot path
};

State& state() {
  static State s;
  return s;
}

int hist_bucket(double seconds) {
  const double us = seconds * 1e6;
  if (us < 2.0) return 0;
  const int b = static_cast<int>(std::log2(us));
  return std::min(b, kHistBuckets - 1);
}

void bump_counters(Counters& c, EventKind kind, std::uint64_t a,
                   std::uint64_t b) {
  switch (kind) {
    case EventKind::MsgSend:
      c.msgs_sent++;
      c.bytes_sent += b;
      break;
    case EventKind::MsgRecv:
      c.msgs_recv++;
      c.bytes_recv += b;
      break;
    case EventKind::Idle:
      c.idle_spans++;
      c.idle_time += static_cast<double>(a) * 1e-9;
      break;
    case EventKind::EntryBegin:
      break;
    case EventKind::EntryEnd: {
      c.entries++;
      const double dur = static_cast<double>(b) * 1e-9;
      c.entry_time += dur;
      c.entry_hist[hist_bucket(dur)]++;
      break;
    }
    case EventKind::WhenBuffer:
      c.when_buffered++;
      break;
    case EventKind::RedContribute:
      c.reductions_contributed++;
      break;
    case EventKind::RedDeliver:
      c.reductions_delivered++;
      break;
    case EventKind::MigrateOut:
      c.migrations_out++;
      break;
    case EventKind::MigrateIn:
      c.migrations_in++;
      break;
    case EventKind::LbDecision:
      c.lb_decisions++;
      break;
    case EventKind::FiberSuspend:
      c.fiber_suspends++;
      break;
    case EventKind::FiberResume:
      c.fiber_resumes++;
      break;
    case EventKind::DynDispatch:
      c.dyn_dispatches++;
      break;
    case EventKind::PoolJobQueued:
      c.pool_jobs_queued++;
      break;
    case EventKind::PoolJobStart:
      c.pool_jobs_started++;
      break;
    case EventKind::PoolJobDone:
      c.pool_jobs_done++;
      break;
    case EventKind::FtDrop:
      c.ft_drops++;
      break;
    case EventKind::FtAck:
      c.ft_acks++;
      break;
    case EventKind::FtRetransmit:
      c.ft_retransmits++;
      break;
    case EventKind::FtFailure:
      c.ft_failures++;
      break;
    case EventKind::FtCheckpoint:
      c.ft_checkpoints++;
      break;
    case EventKind::FtRestore:
      c.ft_restores++;
      break;
    case EventKind::FtResubmit:
      c.ft_resubmits++;
      break;
    case EventKind::FtDetect:
      c.ft_detections++;
      c.ft_detect_latency_s += static_cast<double>(b) * 1e-9;
      break;
    case EventKind::FtNotice:
      break;  // informational; rounds are counted at FtRecover
    case EventKind::FtRecover:
      c.ft_recoveries++;
      c.ft_mttr_s += static_cast<double>(b) * 1e-9;
      break;
  }
}

void json_escape(std::ostream& os, const std::string& s) {
  for (char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << ch;
    }
  }
}

void json_counters(std::ostream& os, const Counters& c) {
  os << "{\"msgs_sent\":" << c.msgs_sent << ",\"bytes_sent\":" << c.bytes_sent
     << ",\"msgs_recv\":" << c.msgs_recv << ",\"bytes_recv\":" << c.bytes_recv
     << ",\"entries\":" << c.entries << ",\"entry_time\":" << c.entry_time
     << ",\"idle_time\":" << c.idle_time << ",\"idle_spans\":" << c.idle_spans
     << ",\"when_buffered\":" << c.when_buffered
     << ",\"reductions_contributed\":" << c.reductions_contributed
     << ",\"reductions_delivered\":" << c.reductions_delivered
     << ",\"migrations_out\":" << c.migrations_out
     << ",\"migrations_in\":" << c.migrations_in
     << ",\"lb_decisions\":" << c.lb_decisions
     << ",\"fiber_suspends\":" << c.fiber_suspends
     << ",\"fiber_resumes\":" << c.fiber_resumes
     << ",\"dyn_dispatches\":" << c.dyn_dispatches
     << ",\"pool_jobs_queued\":" << c.pool_jobs_queued
     << ",\"pool_jobs_started\":" << c.pool_jobs_started
     << ",\"pool_jobs_done\":" << c.pool_jobs_done
     << ",\"ft_drops\":" << c.ft_drops << ",\"ft_acks\":" << c.ft_acks
     << ",\"ft_retransmits\":" << c.ft_retransmits
     << ",\"ft_failures\":" << c.ft_failures
     << ",\"ft_checkpoints\":" << c.ft_checkpoints
     << ",\"ft_restores\":" << c.ft_restores
     << ",\"ft_resubmits\":" << c.ft_resubmits
     << ",\"ft_detections\":" << c.ft_detections
     << ",\"ft_detect_latency_s\":" << c.ft_detect_latency_s
     << ",\"ft_recoveries\":" << c.ft_recoveries
     << ",\"ft_mttr_s\":" << c.ft_mttr_s
     << ",\"dropped_events\":" << c.dropped_events << ",\"entry_hist_us\":[";
  for (int i = 0; i < kHistBuckets; ++i) {
    if (i > 0) os << ',';
    os << c.entry_hist[i];
  }
  os << "]}";
}

std::string human_bytes(std::uint64_t b) {
  std::ostringstream os;
  if (b >= (1u << 20)) {
    os << cxu::Table::num(static_cast<double>(b) / (1u << 20), 1) << " MiB";
  } else if (b >= (1u << 10)) {
    os << cxu::Table::num(static_cast<double>(b) / (1u << 10), 1) << " KiB";
  } else {
    os << b << " B";
  }
  return os.str();
}

}  // namespace

void Counters::merge(const Counters& o) {
  msgs_sent += o.msgs_sent;
  bytes_sent += o.bytes_sent;
  msgs_recv += o.msgs_recv;
  bytes_recv += o.bytes_recv;
  entries += o.entries;
  entry_time += o.entry_time;
  idle_time += o.idle_time;
  idle_spans += o.idle_spans;
  when_buffered += o.when_buffered;
  reductions_contributed += o.reductions_contributed;
  reductions_delivered += o.reductions_delivered;
  migrations_out += o.migrations_out;
  migrations_in += o.migrations_in;
  lb_decisions += o.lb_decisions;
  fiber_suspends += o.fiber_suspends;
  fiber_resumes += o.fiber_resumes;
  dyn_dispatches += o.dyn_dispatches;
  pool_jobs_queued += o.pool_jobs_queued;
  pool_jobs_started += o.pool_jobs_started;
  pool_jobs_done += o.pool_jobs_done;
  ft_drops += o.ft_drops;
  ft_acks += o.ft_acks;
  ft_retransmits += o.ft_retransmits;
  ft_failures += o.ft_failures;
  ft_checkpoints += o.ft_checkpoints;
  ft_restores += o.ft_restores;
  ft_resubmits += o.ft_resubmits;
  ft_detections += o.ft_detections;
  ft_detect_latency_s += o.ft_detect_latency_s;
  ft_recoveries += o.ft_recoveries;
  ft_mttr_s += o.ft_mttr_s;
  dropped_events += o.dropped_events;
  for (int i = 0; i < kHistBuckets; ++i) entry_hist[i] += o.entry_hist[i];
}

const char* kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::MsgSend:
      return "msg_send";
    case EventKind::MsgRecv:
      return "msg_recv";
    case EventKind::Idle:
      return "idle";
    case EventKind::EntryBegin:
      return "entry_begin";
    case EventKind::EntryEnd:
      return "entry_end";
    case EventKind::WhenBuffer:
      return "when_buffer";
    case EventKind::RedContribute:
      return "red_contribute";
    case EventKind::RedDeliver:
      return "red_deliver";
    case EventKind::MigrateOut:
      return "migrate_out";
    case EventKind::MigrateIn:
      return "migrate_in";
    case EventKind::LbDecision:
      return "lb_decision";
    case EventKind::FiberSuspend:
      return "fiber_suspend";
    case EventKind::FiberResume:
      return "fiber_resume";
    case EventKind::DynDispatch:
      return "dyn_dispatch";
    case EventKind::PoolJobQueued:
      return "pool_job_queued";
    case EventKind::PoolJobStart:
      return "pool_job_start";
    case EventKind::PoolJobDone:
      return "pool_job_done";
    case EventKind::FtDrop:
      return "ft_drop";
    case EventKind::FtAck:
      return "ft_ack";
    case EventKind::FtRetransmit:
      return "ft_retransmit";
    case EventKind::FtFailure:
      return "ft_failure";
    case EventKind::FtCheckpoint:
      return "ft_checkpoint";
    case EventKind::FtRestore:
      return "ft_restore";
    case EventKind::FtResubmit:
      return "ft_resubmit";
    case EventKind::FtDetect:
      return "ft_detect";
    case EventKind::FtNotice:
      return "ft_notice";
    case EventKind::FtRecover:
      return "ft_recover";
  }
  return "unknown";
}

void configure(Config cfg) {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.cfg = std::move(cfg);
  if (s.cfg.buffer_events == 0) s.cfg.buffer_events = 1;
  detail::g_enabled.store(s.cfg.enabled, std::memory_order_relaxed);
}

void configure_from_options(const cxu::Options& opt) {
  Config cfg;
  cfg.enabled = opt.get_bool("trace", false);
  cfg.out_path = opt.get_string("trace-out", "trace.json");
  cfg.buffer_events = static_cast<std::size_t>(
      opt.get_int("trace-buffer", 1 << 16));
  configure(std::move(cfg));
}

const Config& config() noexcept { return state().cfg; }

void begin_run(int num_pes, bool simulated, int first_local, int num_local) {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.pes.clear();
  s.simulated = simulated;
  s.first_local = num_local < 0 ? 0 : first_local;
  s.end_local = num_local < 0 ? num_pes : first_local + num_local;
  // One task-counter slot per PE plus the shared one; no PE thread runs
  // while a Runtime is being brought up.
  detail::g_num_task_shards = static_cast<std::size_t>(num_pes) + 1;
  detail::g_task_shards =
      std::make_unique<detail::TaskShard[]>(detail::g_num_task_shards);
  reset_wire_stats();
  reset_when_stats();
  reset_pool_stats();
  reset_section_stats();
  detail::g_future_late_drops.store(0, std::memory_order_relaxed);
  if (!s.cfg.enabled) return;
  // Rings are allocated eagerly, so clamp the per-PE capacity to keep the
  // total bounded when a simulated run uses thousands of virtual PEs
  // (oldest events are overwritten and counted as dropped).
  constexpr std::uint64_t kMaxTotalEvents = 1ull << 22;  // ~128 MiB
  std::size_t per_pe = s.cfg.buffer_events;
  const std::uint64_t want =
      static_cast<std::uint64_t>(per_pe) * static_cast<std::uint64_t>(num_pes);
  if (want > kMaxTotalEvents) {
    per_pe = std::max<std::size_t>(
        64, static_cast<std::size_t>(kMaxTotalEvents /
                                     static_cast<std::uint64_t>(num_pes)));
    CX_LOG_WARN("trace: clamping ring to ", per_pe, " events/PE for ",
                num_pes, " PEs (requested ", s.cfg.buffer_events, ")");
  }
  s.pes.reserve(static_cast<std::size_t>(num_pes));
  for (int i = 0; i < num_pes; ++i) {
    auto pt = std::make_unique<PeTrace>();
    pt->ring.resize(per_pe);
    s.pes.push_back(std::move(pt));
  }
}

void record(int pe, double t, EventKind kind, std::uint64_t a,
            std::uint64_t b) {
  auto& s = state();
  if (pe < 0 || static_cast<std::size_t>(pe) >= s.pes.size()) return;
  PeTrace& pt = *s.pes[static_cast<std::size_t>(pe)];
  const std::uint64_t h = pt.head.load(std::memory_order_relaxed);
  const std::size_t cap = pt.ring.size();
  Event& slot = pt.ring[static_cast<std::size_t>(h % cap)];
  slot.time = t;
  slot.a = a;
  slot.b = b;
  slot.kind = kind;
  if (h >= cap) pt.counters.dropped_events++;
  if (h == 0) pt.t_first = t;
  pt.t_last = t;
  bump_counters(pt.counters, kind, a, b);
  pt.head.store(h + 1, std::memory_order_release);
}

std::vector<Event> events(int pe) {
  auto& s = state();
  std::vector<Event> out;
  if (pe < 0 || static_cast<std::size_t>(pe) >= s.pes.size()) return out;
  const PeTrace& pt = *s.pes[static_cast<std::size_t>(pe)];
  const std::uint64_t h = pt.head.load(std::memory_order_acquire);
  const std::uint64_t cap = pt.ring.size();
  const std::uint64_t n = std::min(h, cap);
  out.reserve(static_cast<std::size_t>(n));
  // Oldest retained slot first.
  for (std::uint64_t i = h - n; i < h; ++i) {
    out.push_back(pt.ring[static_cast<std::size_t>(i % cap)]);
  }
  return out;
}

std::uint64_t total_events() {
  auto& s = state();
  std::uint64_t n = 0;
  for (const auto& pt : s.pes) {
    n += pt->head.load(std::memory_order_acquire);
  }
  return n;
}

int traced_pes() noexcept { return static_cast<int>(state().pes.size()); }

bool traced_run_was_simulated() noexcept { return state().simulated; }

Counters counters(int pe) {
  auto& s = state();
  if (pe < 0 || static_cast<std::size_t>(pe) >= s.pes.size()) return {};
  return s.pes[static_cast<std::size_t>(pe)]->counters;
}

Counters aggregate() {
  Counters total;
  for (int pe = 0; pe < traced_pes(); ++pe) total.merge(counters(pe));
  return total;
}

std::string summary_table() {
  const int P = traced_pes();
  const State& st = state();
  const int local = std::min(st.end_local, P) - st.first_local;
  // Per-PE wall span (first to last event) for the idle percentage.
  std::ostringstream os;
  os << "cx::trace summary — " << (traced_run_was_simulated()
                                       ? "virtual (simulated) time"
                                       : "wall time")
     << ", " << P << " PE(s), " << total_events() << " events";
  if (local < P) {
    os << "; PE" << (local > 1 ? "s " : " ") << st.first_local;
    if (local > 1) os << ".." << st.first_local + local - 1;
    os << (local > 1 ? " run" : " runs")
       << " in this process, the rest in other ranks";
  }
  os << "\n\n";
  cxu::Table table({"pe", "msgs sent", "bytes sent", "msgs recv", "entries",
                    "entry s", "idle s", "idle %", "dropped"});
  auto row = [&](const std::string& label, const Counters& c, double span) {
    const double idle_pct = span > 0 ? 100.0 * c.idle_time / span : 0.0;
    table.add_row({label, std::to_string(c.msgs_sent),
                   human_bytes(c.bytes_sent), std::to_string(c.msgs_recv),
                   std::to_string(c.entries), cxu::Table::num(c.entry_time, 4),
                   cxu::Table::num(c.idle_time, 4),
                   cxu::Table::num(idle_pct, 1),
                   std::to_string(c.dropped_events)});
  };
  double total_span = 0.0;
  for (int pe = 0; pe < P; ++pe) {
    if (pe < st.first_local || pe >= st.first_local + local) {
      table.add_row({std::to_string(pe), "not traced on this rank", "-", "-",
                     "-", "-", "-", "-", "-"});
      continue;
    }
    const PeTrace& pt = *state().pes[static_cast<std::size_t>(pe)];
    const double span =
        pt.head.load(std::memory_order_acquire) > 0 ? pt.t_last - pt.t_first
                                                    : 0.0;
    total_span = std::max(total_span, span);
    row(std::to_string(pe), counters(pe), span);
  }
  row("total", aggregate(), total_span * local);
  os << table.to_string();
  // Entry-method time histogram (log2 microsecond buckets).
  const Counters total = aggregate();
  if (total.entries > 0) {
    os << "\nentry-method time histogram (us, log2 buckets):\n";
    for (int i = 0; i < kHistBuckets; ++i) {
      if (total.entry_hist[i] == 0) continue;
      const double lo = i == 0 ? 0.0 : std::pow(2.0, i);
      const double hi = std::pow(2.0, i + 1);
      os << "  [" << cxu::Table::num(lo, 0) << ", " << cxu::Table::num(hi, 0)
         << ")  " << total.entry_hist[i] << "\n";
    }
  }
  const WhenEngineStats ws = when_stats();
  if (ws.tests + ws.buffered > 0) {
    os << "\ncx::when: " << ws.tests << " condition tests, " << ws.buffered
       << " buffered, " << ws.hits << " released, " << ws.skipped
       << " re-tests skipped ("
       << cxu::Table::num(100.0 * ws.skip_rate(), 1)
       << "%), high water " << ws.high_water << " pending\n";
  }
  const WireStats w = wire_stats();
  if (w.envelopes > 0) {
    os << "\ncx::wire: " << w.envelopes << " envelopes, "
       << human_bytes(w.bytes_packed) << " packed ("
       << cxu::Table::num(w.envelopes > 0
                              ? static_cast<double>(w.bytes_packed) /
                                    static_cast<double>(w.envelopes)
                              : 0.0,
                          1)
       << " B/send), " << w.sbo_payloads << " inline (SBO), "
       << w.buf_allocs + w.msg_allocs + w.env_allocs << " heap allocs, "
       << cxu::Table::num(100.0 * w.hit_rate(), 1) << "% pool hit rate\n";
  }
  if (w.agg_batches > 0) {
    os << "cx::wire agg: " << w.agg_msgs << " msgs in " << w.agg_batches
       << " batches (" << cxu::Table::num(w.msgs_per_batch(), 1)
       << " msgs/batch), " << w.transport_msgs
       << " transport msgs, flushes: " << w.agg_flush_bytes << " bytes / "
       << w.agg_flush_count << " count / " << w.agg_flush_idle << " idle / "
       << w.agg_flush_order << " ordering\n";
  }
  if (w.net_pe_frames + w.net_comm_frames + w.net_rx_frames > 0) {
    os << "cx::net: " << w.net_pe_frames << " frames written by PEs ("
       << human_bytes(w.net_pe_bytes) << "), " << w.net_comm_frames
       << " by the comm thread (" << human_bytes(w.net_comm_bytes) << "), "
       << w.net_rx_frames << " received (" << human_bytes(w.net_rx_bytes)
       << "), " << w.net_partial_writes << " short writes, "
       << w.net_epollout_arms << " EPOLLOUT arms, " << w.net_wake_pokes
       << " wake pokes, " << w.net_doorbells << " doorbells, "
       << w.net_poll_hits << " comm polls hit, " << w.net_blocking_waits
       << " blocking waits, " << w.net_decode_errors << " decode errors\n";
  }
  const SectionStats ss = section_stats();
  if (ss.sections_built + ss.mcasts + ss.contributions > 0) {
    os << "\ncx::sections: " << ss.sections_built << " built, " << ss.mcasts
       << " multicasts (" << ss.mcast_envelopes << " envelopes, "
       << ss.envelopes_saved << " saved vs broadcast), " << ss.contributions
       << " contributions in " << ss.reductions_done << " reductions ("
       << ss.red_fragments << " fragments), " << ss.tree_repairs
       << " tree repairs\n";
  }
  if (future_late_drops() > 0) {
    os << "\ncx::futures: " << future_late_drops()
       << " late values dropped (no handle held the future)\n";
  }
  const PoolStats ps = pool_stats();
  if (ps.tasks_done + ps.grants > 0) {
    os << "\ncx::pool: " << ps.tasks_done << " tasks in " << ps.grants
       << " grants (" << cxu::Table::num(ps.mean_chunk(), 1)
       << " tasks/grant, max " << ps.max_chunk << "), " << ps.steal_hits
       << "/" << ps.steal_attempts << " steals hit ("
       << cxu::Table::num(100.0 * ps.steal_hit_rate(), 1) << "%, "
       << ps.stolen_tasks << " tasks moved), " << ps.result_batches
       << " result batches, " << ps.beats << " beats, "
       << ps.inflight_clamps << " inflight clamps, queue high water "
       << ps.queue_high_water << ", task mean "
       << cxu::Table::num(ps.mean_task_s() * 1e6, 2) << " us / p99 "
       << cxu::Table::num(ps.p99_task_s() * 1e6, 2) << " us\n";
    for (const PoolJobRecord& r : pool_job_records()) {
      os << "  job " << r.job_id << " (prio " << r.priority << "): "
         << r.tasks << " tasks in "
         << cxu::Table::num(r.done_t - r.start_t, 6) << " s ("
         << cxu::Table::num(r.tasks_per_s(), 0) << " tasks/s)"
         << (r.failed ? " FAILED" : "") << "\n";
    }
    if (const std::uint64_t dropped = pool_job_records_dropped()) {
      os << "  (" << dropped << " older job records dropped; the last "
         << kPoolJobRecordCap << " are kept)\n";
    }
  }
  return os.str();
}

void write_json(std::ostream& os) {
  const int P = traced_pes();
  struct Tagged {
    Event ev;
    int pe;
  };
  std::vector<Tagged> all;
  all.reserve(static_cast<std::size_t>(total_events()));
  for (int pe = 0; pe < P; ++pe) {
    for (const Event& ev : events(pe)) all.push_back({ev, pe});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& x, const Tagged& y) {
                     if (x.ev.time != y.ev.time) return x.ev.time < y.ev.time;
                     return x.pe < y.pe;
                   });
  os << "{\"version\":1,\"simulated\":"
     << (traced_run_was_simulated() ? "true" : "false")
     << ",\"num_pes\":" << P << ",\"events\":[";
  bool first = true;
  for (const Tagged& t : all) {
    if (!first) os << ',';
    first = false;
    os << "{\"t\":" << t.ev.time << ",\"pe\":" << t.pe << ",\"kind\":\"";
    json_escape(os, kind_name(t.ev.kind));
    os << "\",\"a\":" << t.ev.a << ",\"b\":" << t.ev.b << '}';
  }
  os << "],\"counters\":{\"per_pe\":[";
  for (int pe = 0; pe < P; ++pe) {
    if (pe > 0) os << ',';
    json_counters(os, counters(pe));
  }
  os << "],\"total\":";
  json_counters(os, aggregate());
  const WhenEngineStats ws = when_stats();
  os << "},\"when\":{\"tests\":" << ws.tests << ",\"hits\":" << ws.hits
     << ",\"buffered\":" << ws.buffered << ",\"skipped\":" << ws.skipped
     << ",\"skip_rate\":" << ws.skip_rate()
     << ",\"high_water\":" << ws.high_water;
  const WireStats w = wire_stats();
  os << "},\"wire\":{\"envelopes\":" << w.envelopes
     << ",\"bytes_packed\":" << w.bytes_packed
     << ",\"sbo_payloads\":" << w.sbo_payloads
     << ",\"buf_allocs\":" << w.buf_allocs << ",\"buf_hits\":" << w.buf_hits
     << ",\"buf_recycled\":" << w.buf_recycled
     << ",\"msg_allocs\":" << w.msg_allocs << ",\"msg_hits\":" << w.msg_hits
     << ",\"msg_recycled\":" << w.msg_recycled
     << ",\"env_allocs\":" << w.env_allocs << ",\"env_hits\":" << w.env_hits
     << ",\"pool_hit_rate\":" << w.hit_rate()
     << ",\"transport_msgs\":" << w.transport_msgs
     << ",\"agg_batches\":" << w.agg_batches
     << ",\"agg_msgs\":" << w.agg_msgs
     << ",\"agg_flush_bytes\":" << w.agg_flush_bytes
     << ",\"agg_flush_count\":" << w.agg_flush_count
     << ",\"agg_flush_idle\":" << w.agg_flush_idle
     << ",\"agg_flush_order\":" << w.agg_flush_order
     << ",\"net_tx_copy_bytes\":" << w.net_tx_copy_bytes
     << ",\"net_rx_copy_bytes\":" << w.net_rx_copy_bytes
     << ",\"net_pe_frames\":" << w.net_pe_frames
     << ",\"net_pe_bytes\":" << w.net_pe_bytes
     << ",\"net_comm_frames\":" << w.net_comm_frames
     << ",\"net_comm_bytes\":" << w.net_comm_bytes
     << ",\"net_partial_writes\":" << w.net_partial_writes
     << ",\"net_epollout_arms\":" << w.net_epollout_arms
     << ",\"net_wake_pokes\":" << w.net_wake_pokes
     << ",\"net_poll_hits\":" << w.net_poll_hits
     << ",\"net_blocking_waits\":" << w.net_blocking_waits
     << ",\"net_rx_frames\":" << w.net_rx_frames
     << ",\"net_rx_bytes\":" << w.net_rx_bytes
     << ",\"net_decode_errors\":" << w.net_decode_errors
     << ",\"net_doorbells\":" << w.net_doorbells << "}";
  const SectionStats sect = section_stats();
  os << ",\"sections\":{\"sections_built\":" << sect.sections_built
     << ",\"tree_repairs\":" << sect.tree_repairs
     << ",\"mcasts\":" << sect.mcasts
     << ",\"mcast_envelopes\":" << sect.mcast_envelopes
     << ",\"envelopes_saved\":" << sect.envelopes_saved
     << ",\"contributions\":" << sect.contributions
     << ",\"red_fragments\":" << sect.red_fragments
     << ",\"reductions_done\":" << sect.reductions_done << "}";
  os << ",\"futures\":{\"late_drops\":" << future_late_drops() << "}";
  const PoolStats pool = pool_stats();
  os << ",\"pool\":{\"grants\":" << pool.grants
     << ",\"granted_tasks\":" << pool.granted_tasks
     << ",\"mean_chunk\":" << pool.mean_chunk()
     << ",\"max_chunk\":" << pool.max_chunk
     << ",\"steal_attempts\":" << pool.steal_attempts
     << ",\"steal_hits\":" << pool.steal_hits
     << ",\"steal_hit_rate\":" << pool.steal_hit_rate()
     << ",\"stolen_tasks\":" << pool.stolen_tasks
     << ",\"result_batches\":" << pool.result_batches
     << ",\"tasks_done\":" << pool.tasks_done << ",\"beats\":" << pool.beats
     << ",\"reassigns\":" << pool.reassigns
     << ",\"inflight_clamps\":" << pool.inflight_clamps
     << ",\"queue_high_water\":" << pool.queue_high_water
     << ",\"mean_task_s\":" << pool.mean_task_s()
     << ",\"p99_task_s\":" << pool.p99_task_s()
     << ",\"jobs_dropped\":" << pool_job_records_dropped() << ",\"jobs\":[";
  bool jfirst = true;
  for (const PoolJobRecord& r : pool_job_records()) {
    if (!jfirst) os << ',';
    jfirst = false;
    os << "{\"job_id\":" << r.job_id << ",\"priority\":" << r.priority
       << ",\"tasks\":" << r.tasks << ",\"submit_t\":" << r.submit_t
       << ",\"start_t\":" << r.start_t << ",\"done_t\":" << r.done_t
       << ",\"tasks_per_s\":" << r.tasks_per_s()
       << ",\"failed\":" << (r.failed ? "true" : "false") << '}';
  }
  os << "]}}\n";
}

bool write_json(const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    CX_LOG_ERROR("trace: cannot open '", path, "' for writing");
    return false;
  }
  write_json(f);
  return true;
}

void report_if_enabled() {
  if (!enabled()) return;
  const auto& cfg = config();
  if (write_json(cfg.out_path)) {
    std::printf("trace: wrote %llu events to %s\n",
                static_cast<unsigned long long>(total_events()),
                cfg.out_path.c_str());
  }
  if (cfg.print_summary) {
    std::fputs(summary_table().c_str(), stdout);
  }
}

void reset() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.pes.clear();
  s.cfg = Config{};
  s.simulated = false;
  reset_wire_stats();
  reset_when_stats();
  reset_pool_stats();
  reset_section_stats();
  detail::g_future_late_drops.store(0, std::memory_order_relaxed);
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

}  // namespace cx::trace
