#pragma once
// cx::trace — runtime-wide event tracing and metrics (Projections-lite).
//
// Every runtime layer records typed events into a per-PE lock-free ring
// buffer: message sends/receives with byte counts, entry-method begin/end
// with chare identity, scheduler idle spans, reduction contribute/deliver,
// when-buffer depth, migration, LB strategy decisions, fiber
// suspend/resume, dynamic-dispatch and pool job lifecycle. Each PE writes
// only its own ring (single producer, no synchronization beyond a release
// store), so recording is wait-free; counters aggregate into per-PE and
// global summaries (messages, bytes, idle %, entry-method time
// histograms).
//
// Timestamps come from the machine backend that records them: wall clock
// on ThreadedMachine, virtual clock on SimMachine — so DES figure runs
// are traceable with the same pipeline.
//
// Usage (benches/examples):
//
//   cxu::Options opt(argc, argv);
//   cx::trace::configure_from_options(opt);   // --trace, --trace-out=...
//   ... run the program ...
//   cx::trace::report_if_enabled();           // JSON timeline + summary
//
// The disabled path costs one relaxed atomic load + branch per hook; the
// hooks compile out entirely with -DCHARMX_TRACE_DISABLED.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cxu {
class Options;
}

namespace cx::trace {

// Payload meaning per kind (a, b are generic 64-bit slots):
//   MsgSend       a = dst PE            b = bytes on the wire
//   MsgRecv       a = src PE (0xffffffff = external/bootstrap)
//                                       b = bytes on the wire
//   Idle          a = span nanoseconds  b = 1 if the PE parked on its cv,
//                                       0 if polling alone caught the
//                                       next post (always 0 on Sim)
//                                       (time = span end)
//   EntryBegin    a = collection id     b = entry-point id
//   EntryEnd      a = entry-point id    b = span nanoseconds
//   WhenBuffer    a = collection id     b = buffer depth after enqueue
//   RedContribute a = collection id     b = reduction number
//   RedDeliver    a = collection id     b = reduction number
//   MigrateOut    a = collection id     b = destination PE
//   MigrateIn     a = collection id     b = 0
//   LbDecision    a = migrations       b = load records considered
//   FiberSuspend  a = 0                 b = 0
//   FiberResume   a = 0                 b = 0
//   DynDispatch   a = method-name hash  b = 0
//   PoolJobQueued a = job id            b = free procs at enqueue
//   PoolJobStart  a = job id            b = procs granted
//   PoolJobDone   a = job id            b = tasks completed
//   FtDrop        a = reason (0=injected, 1=duplicate suppressed,
//                             2=dst crashed/hung, 3=stale timer)
//                                       b = ft sequence number
//   FtAck         a = acked PE          b = ft sequence number
//   FtRetransmit  a = dst PE            b = attempt number
//   FtFailure     a = failed PE         b = FailureKind
//   FtCheckpoint  a = epoch             b = blob bytes on this PE
//   FtRestore     a = epoch             b = blob bytes on this PE
//   FtResubmit    a = failed PE         b = tasks resubmitted
//   FtDetect      a = suspected PE      b = silence nanoseconds
//                                           (heartbeat detection latency)
//   FtNotice      a = failed PE         b = recovery round
//   FtRecover     a = recovery round    b = MTTR nanoseconds
//                                           (failure detection -> restored)
enum class EventKind : std::uint8_t {
  MsgSend = 0,
  MsgRecv,
  Idle,
  EntryBegin,
  EntryEnd,
  WhenBuffer,
  RedContribute,
  RedDeliver,
  MigrateOut,
  MigrateIn,
  LbDecision,
  FiberSuspend,
  FiberResume,
  DynDispatch,
  PoolJobQueued,
  PoolJobStart,
  PoolJobDone,
  FtDrop,
  FtAck,
  FtRetransmit,
  FtFailure,
  FtCheckpoint,
  FtRestore,
  FtResubmit,
  FtDetect,
  FtNotice,
  FtRecover,
};

/// Stable snake_case name used in the JSON timeline.
const char* kind_name(EventKind k) noexcept;

struct Event {
  double time = 0.0;  ///< backend clock: wall (threaded) or virtual (sim)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  EventKind kind = EventKind::MsgSend;
};

/// Number of log2 buckets in the entry-method time histogram. Bucket i
/// holds entries with duration in [2^i, 2^(i+1)) microseconds; bucket 0
/// also holds sub-microsecond entries.
inline constexpr int kHistBuckets = 20;

struct Counters {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t entries = 0;
  double entry_time = 0.0;  ///< seconds inside entry methods
  double idle_time = 0.0;   ///< seconds the scheduler sat idle
  std::uint64_t idle_spans = 0;
  std::uint64_t when_buffered = 0;
  std::uint64_t reductions_contributed = 0;
  std::uint64_t reductions_delivered = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t lb_decisions = 0;
  std::uint64_t fiber_suspends = 0;
  std::uint64_t fiber_resumes = 0;
  std::uint64_t dyn_dispatches = 0;
  std::uint64_t pool_jobs_queued = 0;
  std::uint64_t pool_jobs_started = 0;
  std::uint64_t pool_jobs_done = 0;
  std::uint64_t ft_drops = 0;
  std::uint64_t ft_acks = 0;
  std::uint64_t ft_retransmits = 0;
  std::uint64_t ft_failures = 0;
  std::uint64_t ft_checkpoints = 0;
  std::uint64_t ft_restores = 0;
  std::uint64_t ft_resubmits = 0;
  std::uint64_t ft_detections = 0;     ///< heartbeat-detector declarations
  double ft_detect_latency_s = 0.0;    ///< summed silence at detection
  std::uint64_t ft_recoveries = 0;     ///< completed auto-recovery rounds
  double ft_mttr_s = 0.0;              ///< summed MTTR across rounds
  std::uint64_t dropped_events = 0;  ///< ring overwrites (oldest lost)
  std::uint64_t entry_hist[kHistBuckets] = {0};

  void merge(const Counters& o);
};

// ---- cx::wire allocation counters ---------------------------------------
//
// The wire layer (single-pass envelopes, pooled buffers) reports its
// allocation behaviour here so benches can compute allocs-per-send,
// bytes-per-send and pool hit rate. Unlike events, these are always on
// (relaxed atomic adds to the counting thread's own slot, see
// CounterSlot) so --wire-pool A/B runs work without --trace.

struct WireStats {
  std::uint64_t envelopes = 0;     ///< messages built by the wire builder
  std::uint64_t bytes_packed = 0;  ///< header+body bytes packed
  std::uint64_t sbo_payloads = 0;  ///< envelopes that fit inline (no heap)
  std::uint64_t buf_allocs = 0;    ///< payload blocks taken from the system
  std::uint64_t buf_hits = 0;      ///< payload blocks served from the pool
  std::uint64_t buf_recycled = 0;  ///< payload blocks returned to the pool
  std::uint64_t msg_allocs = 0;    ///< Message objects from the system
  std::uint64_t msg_hits = 0;      ///< Message objects from the pool
  std::uint64_t msg_recycled = 0;  ///< Message objects returned to the pool
  std::uint64_t env_allocs = 0;    ///< LocalEnvelopes from the system
  std::uint64_t env_hits = 0;      ///< LocalEnvelopes from the pool

  // Sender-side aggregation (--wire-agg). transport_msgs counts physical
  // cross-PE wire envelopes (batches count once); agg_msgs counts
  // application messages that travelled inside a batch. The flush_*
  // counters break sealed batches down by trigger.
  std::uint64_t transport_msgs = 0;   ///< physical cross-PE envelopes
  std::uint64_t agg_batches = 0;      ///< batches sealed
  std::uint64_t agg_msgs = 0;         ///< app messages absorbed into batches
  std::uint64_t agg_flush_bytes = 0;  ///< seals: byte threshold
  std::uint64_t agg_flush_count = 0;  ///< seals: message-count threshold
  std::uint64_t agg_flush_idle = 0;   ///< seals: idle scheduler / DES timer
  std::uint64_t agg_flush_order = 0;  ///< seals: ordering (bypass/class switch)

  // Socket backend: payload bytes copied in user space on the way to
  // (tx) or from (rx) a socket. The frame path itself copies nothing on
  // send and at most one read chunk per received frame; tx also counts
  // the reliable-delivery and injected-duplicate copies of remote sends.
  std::uint64_t net_tx_copy_bytes = 0;
  std::uint64_t net_rx_copy_bytes = 0;

  // Socket backend: which thread wrote the frames, and what the
  // hand-offs between the PEs and the Link's comm thread cost. A PE with
  // nothing else to run writes its own frame; the comm thread writes
  // what is queued. A frame counts for the thread that wrote its last
  // byte, bytes for the thread that wrote them.
  std::uint64_t net_pe_frames = 0;       ///< frames finished by a PE
  std::uint64_t net_pe_bytes = 0;        ///< frame bytes PEs wrote
  std::uint64_t net_comm_frames = 0;     ///< frames finished by the comm thread
  std::uint64_t net_comm_bytes = 0;      ///< frame bytes the comm thread wrote
  std::uint64_t net_partial_writes = 0;  ///< sendmsg calls short or EAGAIN
  std::uint64_t net_epollout_arms = 0;   ///< EPOLLOUT armed on a full socket
  std::uint64_t net_wake_pokes = 0;      ///< writes to the comm thread's pipe
  std::uint64_t net_poll_hits = 0;       ///< comm-thread polls that caught an event
  std::uint64_t net_blocking_waits = 0;  ///< comm-thread blocking epoll_waits
  // Inbound, through a socket or a shared-memory ring alike. A polling
  // PE decodes small data frames off a ring itself; the comm thread
  // decodes the rest. net_rx_* count both.
  std::uint64_t net_rx_frames = 0;      ///< frames received and decoded
  std::uint64_t net_rx_bytes = 0;       ///< their bytes, heads included
  std::uint64_t net_pe_rx_frames = 0;   ///< of those, frames a PE decoded
  std::uint64_t net_pe_rx_bytes = 0;    ///< their bytes, heads included
  std::uint64_t net_decode_errors = 0;  ///< bad frames or ring indices
  std::uint64_t net_doorbells = 0;      ///< poke bytes sent on ring pairs

  /// Mean messages per sealed batch (0 when no batches were sealed).
  [[nodiscard]] double msgs_per_batch() const noexcept {
    return agg_batches > 0 ? static_cast<double>(agg_msgs) /
                                 static_cast<double>(agg_batches)
                           : 0.0;
  }

  /// Pool hit rate over every allocation the wire layer served.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total =
        buf_allocs + buf_hits + msg_allocs + msg_hits + env_allocs + env_hits;
    const std::uint64_t hits = buf_hits + msg_hits + env_hits;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

// ---- when/wait condition-engine counters ---------------------------------
//
// The condition-aware delivery engine (core/when.hpp, delivery.cpp)
// reports its work here: predicate evaluations, buffered deliveries,
// releases, and how many re-tests dependency tracking skipped. Always on
// (relaxed atomic adds to the counting thread's own slot, batched per
// retest pass) so bench/micro_when A/B runs work without --trace.

struct WhenEngineStats {
  std::uint64_t tests = 0;      ///< when-predicate evaluations
  std::uint64_t hits = 0;       ///< buffered messages released (re-test hit)
  std::uint64_t buffered = 0;   ///< deliveries that were buffered
  std::uint64_t skipped = 0;    ///< re-tests avoided by dependency tracking
  std::uint64_t high_water = 0; ///< max buffered messages on one chare

  /// Re-tests avoided as a fraction of all re-test opportunities.
  [[nodiscard]] double skip_rate() const noexcept {
    const std::uint64_t total = tests + skipped;
    return total > 0
               ? static_cast<double>(skipped) / static_cast<double>(total)
               : 0.0;
  }
};

namespace detail {
/// The when-engine counters of one thread (see my_counters below).
struct WhenAtomics {
  std::atomic<std::uint64_t> tests{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> buffered{0};
  std::atomic<std::uint64_t> skipped{0};
  std::atomic<std::uint64_t> high_water{0};

  void raise_high_water(std::uint64_t depth) noexcept {
    std::uint64_t cur = high_water.load(std::memory_order_relaxed);
    while (depth > cur &&
           !high_water.compare_exchange_weak(cur, depth,
                                             std::memory_order_relaxed)) {
    }
  }
};
}  // namespace detail

/// Snapshot of the condition-engine counters since the last
/// begin_run()/reset_when_stats().
[[nodiscard]] WhenEngineStats when_stats() noexcept;

/// Zero the condition-engine counters (begin_run does this too).
void reset_when_stats() noexcept;

// ---- task-pool engine counters -------------------------------------------
//
// The chunked/stealing pool (src/pool/) reports its scheduling work
// here: grants and their sizes, steal traffic, result batches, beats,
// and the per-task latency histogram benches read p99 from. Always on
// (relaxed atomic adds) so bench/micro_pool A/B runs work without
// --trace.

/// Log2-nanosecond buckets for the pool task-latency histogram. Bucket
/// i holds tasks with execution time in [2^i, 2^(i+1)) ns.
inline constexpr int kPoolLatBuckets = 48;

struct PoolStats {
  std::uint64_t grants = 0;          ///< chunk grants sent by the master
  std::uint64_t granted_tasks = 0;   ///< tasks covered by those grants
  std::uint64_t max_chunk = 0;       ///< largest single grant
  std::uint64_t steal_attempts = 0;  ///< steal requests sent by workers
  std::uint64_t steal_hits = 0;      ///< steals that returned work
  std::uint64_t stolen_tasks = 0;    ///< tasks moved worker-to-worker
  std::uint64_t result_batches = 0;  ///< batched result messages
  std::uint64_t tasks_done = 0;      ///< task executions (incl. reruns)
  std::uint64_t beats = 0;           ///< decoupled heartbeat messages
  std::uint64_t reassigns = 0;       ///< steal reassignments at the master
  std::uint64_t inflight_clamps = 0; ///< grants clamped by --pool-max-inflight
  std::uint64_t queue_high_water = 0;///< max jobs waiting for processors
  std::uint64_t task_ns_sum = 0;     ///< summed task execution nanoseconds
  std::uint64_t lat_hist[kPoolLatBuckets] = {0};

  /// Mean tasks per grant (0 when no grants went out).
  [[nodiscard]] double mean_chunk() const noexcept {
    return grants > 0 ? static_cast<double>(granted_tasks) /
                            static_cast<double>(grants)
                      : 0.0;
  }

  /// Fraction of steal attempts that returned work.
  [[nodiscard]] double steal_hit_rate() const noexcept {
    return steal_attempts > 0 ? static_cast<double>(steal_hits) /
                                    static_cast<double>(steal_attempts)
                              : 0.0;
  }

  /// Mean task execution seconds (0 when no tasks ran).
  [[nodiscard]] double mean_task_s() const noexcept {
    return tasks_done > 0 ? static_cast<double>(task_ns_sum) * 1e-9 /
                                static_cast<double>(tasks_done)
                          : 0.0;
  }

  /// p99 task execution seconds, read off the log2 histogram (upper
  /// bucket edge — a conservative estimate).
  [[nodiscard]] double p99_task_s() const noexcept;
};

namespace detail {
struct PoolAtomics {
  std::atomic<std::uint64_t> grants{0};
  std::atomic<std::uint64_t> granted_tasks{0};
  std::atomic<std::uint64_t> max_chunk{0};
  std::atomic<std::uint64_t> steal_attempts{0};
  std::atomic<std::uint64_t> steal_hits{0};
  std::atomic<std::uint64_t> stolen_tasks{0};
  std::atomic<std::uint64_t> result_batches{0};
  std::atomic<std::uint64_t> beats{0};
  std::atomic<std::uint64_t> reassigns{0};
  std::atomic<std::uint64_t> inflight_clamps{0};
  std::atomic<std::uint64_t> queue_high_water{0};

  void raise_max(std::atomic<std::uint64_t>& slot,
                 std::uint64_t v) noexcept {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
};
extern PoolAtomics g_pool;

/// Count one pool task that PE `pe` ran in `ns` nanoseconds. The
/// per-task counters (tasks_done, task_ns_sum, lat_hist) live in per-PE
/// cache-line slots sized by begin_run, so workers never share a line;
/// pool_stats() sums them. A `pe` outside the run's PEs counts in one
/// shared slot.
void note_pool_task(int pe, std::uint64_t ns) noexcept;
}  // namespace detail

/// Snapshot of the pool counters since the last
/// begin_run()/reset_pool_stats().
[[nodiscard]] PoolStats pool_stats() noexcept;

/// Zero the pool counters (begin_run does this too).
void reset_pool_stats() noexcept;

/// One completed pool job, recorded by the master at job completion.
/// Times come from the backend clock (virtual on the simulator).
struct PoolJobRecord {
  std::uint64_t job_id = 0;
  std::int64_t priority = 0;
  std::uint64_t tasks = 0;
  double submit_t = 0.0;  ///< map_async reached the master
  double start_t = 0.0;   ///< first processors granted
  double done_t = 0.0;    ///< future resolved
  bool failed = false;

  /// Job throughput over its running span (tasks per second).
  [[nodiscard]] double tasks_per_s() const noexcept {
    const double span = done_t - start_t;
    return span > 0 ? static_cast<double>(tasks) / span : 0.0;
  }
};

/// Job records kept: a long-running pool keeps its newest jobs only.
inline constexpr std::size_t kPoolJobRecordCap = 1024;

/// Append one job record (called by the pool master; mutex-guarded).
/// Beyond kPoolJobRecordCap records the oldest is dropped.
void pool_job_note(const PoolJobRecord& rec);

/// Job records since begin_run()/reset_pool_stats(), oldest first: the
/// newest kPoolJobRecordCap of them.
[[nodiscard]] std::vector<PoolJobRecord> pool_job_records();

/// Records dropped since begin_run()/reset_pool_stats() to keep the cap.
[[nodiscard]] std::uint64_t pool_job_records_dropped();

namespace detail {
// Every WireStats field, in declaration order.
#define CX_WIRE_COUNTERS(X) X(envelopes) X(bytes_packed) X(sbo_payloads) \
  X(buf_allocs) X(buf_hits) X(buf_recycled) X(msg_allocs) X(msg_hits) \
  X(msg_recycled) X(env_allocs) X(env_hits) X(transport_msgs) X(agg_batches) \
  X(agg_msgs) X(agg_flush_bytes) X(agg_flush_count) X(agg_flush_idle) \
  X(agg_flush_order) X(net_tx_copy_bytes) X(net_rx_copy_bytes) \
  X(net_pe_frames) X(net_pe_bytes) X(net_comm_frames) X(net_comm_bytes) \
  X(net_partial_writes) X(net_epollout_arms) X(net_wake_pokes) \
  X(net_poll_hits) X(net_blocking_waits) X(net_rx_frames) X(net_rx_bytes) \
  X(net_pe_rx_frames) X(net_pe_rx_bytes) X(net_decode_errors) \
  X(net_doorbells)

/// The wire counters of one thread (see my_counters below).
struct WireAtomics {
#define CX_WIRE_ATOMIC(f) std::atomic<std::uint64_t> f{0};
  CX_WIRE_COUNTERS(CX_WIRE_ATOMIC)
#undef CX_WIRE_ATOMIC
};

/// One thread's wire and when counters, on cache lines no other thread
/// writes. A thread claims a slot on its first count; when it exits it
/// folds the slot into a retired total and returns it for reuse, so the
/// slot count stays bounded by the threads alive at once. The stats
/// functions sum the slots and the retired total under a mutex the
/// counting path never takes.
struct alignas(64) CounterSlot {
  WireAtomics wire;
  WhenAtomics when;
};

/// The calling thread's slot: null until its first count.
inline thread_local CounterSlot* t_counters = nullptr;

/// Claim a slot for the calling thread (first count only).
CounterSlot& claim_counters() noexcept;

[[nodiscard]] inline CounterSlot& my_counters() noexcept {
  CounterSlot* c = t_counters;
  return c != nullptr ? *c : claim_counters();
}
[[nodiscard]] inline WireAtomics& wire_local() noexcept {
  return my_counters().wire;
}
[[nodiscard]] inline WhenAtomics& when_local() noexcept {
  return my_counters().when;
}

/// Slots allocated so far, live and free.
[[nodiscard]] std::size_t counter_slots() noexcept;
}  // namespace detail

/// Snapshot of the wire counters accumulated since the last
/// begin_run()/reset_wire_stats().
[[nodiscard]] WireStats wire_stats() noexcept;

/// Zero the wire counters (begin_run does this too).
void reset_wire_stats() noexcept;

// ---- chare-array section counters ----------------------------------------
//
// The section layer (core/sections.cpp) reports its work here: sections
// built, spanning-tree repairs after migration, multicasts and the
// envelopes they cost vs what a naive whole-collection broadcast would
// have cost, and section-reduction traffic. Always on (relaxed atomic
// adds) so bench/micro_section A/B runs work without --trace.

struct SectionStats {
  std::uint64_t sections_built = 0;   ///< section_create calls
  std::uint64_t tree_repairs = 0;     ///< delivery splits rebuilt post-migration
  std::uint64_t mcasts = 0;           ///< multicasts initiated
  std::uint64_t mcast_envelopes = 0;  ///< envelopes sent by section multicast
  /// Envelopes a naive broadcast+filter would have needed minus what the
  /// section tree used, accumulated at the tree root per multicast.
  std::uint64_t envelopes_saved = 0;
  std::uint64_t contributions = 0;    ///< section contribute calls
  std::uint64_t red_fragments = 0;    ///< combined fragments sent up tree edges
  std::uint64_t reductions_done = 0;  ///< section reductions delivered at root
};

namespace detail {
struct SectionAtomics {
  std::atomic<std::uint64_t> sections_built{0};
  std::atomic<std::uint64_t> tree_repairs{0};
  std::atomic<std::uint64_t> mcasts{0};
  std::atomic<std::uint64_t> mcast_envelopes{0};
  std::atomic<std::uint64_t> envelopes_saved{0};
  std::atomic<std::uint64_t> contributions{0};
  std::atomic<std::uint64_t> red_fragments{0};
  std::atomic<std::uint64_t> reductions_done{0};
};
extern SectionAtomics g_section;
}  // namespace detail

/// Snapshot of the section counters accumulated since the last
/// begin_run()/reset_section_stats().
[[nodiscard]] SectionStats section_stats() noexcept;

/// Zero the section counters (begin_run does this too).
void reset_section_stats() noexcept;

// ---- future counters ------------------------------------------------------
//
// A value that reaches its creating PE after every handle of the future
// is gone (core/future.hpp) is dropped and counted here. Always on.

namespace detail {
extern std::atomic<std::uint64_t> g_future_late_drops;
}

inline void note_future_late_drop() noexcept {
  detail::g_future_late_drops.fetch_add(1, std::memory_order_relaxed);
}

/// Future values dropped since the last begin_run()/reset().
[[nodiscard]] inline std::uint64_t future_late_drops() noexcept {
  return detail::g_future_late_drops.load(std::memory_order_relaxed);
}

struct Config {
  bool enabled = false;
  std::string out_path = "trace.json";
  /// Ring capacity in events per PE; the oldest events are overwritten
  /// (and counted as dropped) once a PE exceeds it.
  std::size_t buffer_events = 1u << 16;
  bool print_summary = true;
};

/// Install a configuration. Takes effect for the next Runtime (rings are
/// allocated in begin_run).
void configure(Config cfg);

/// Read --trace, --trace-out=<path>, --trace-buffer=<events> and install.
void configure_from_options(const cxu::Options& opt);

[[nodiscard]] const Config& config() noexcept;

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// True when tracing is on — the one-branch fast check every hook makes.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Called by the Runtime when a machine is brought up: sizes one ring per
/// PE and resets counters. A fresh Runtime replaces the previous run's
/// trace data. PEs [first_local, first_local + num_local) run in this
/// process (num_local < 0: all of them); under cxrun the others belong
/// to other ranks and are not traced here.
void begin_run(int num_pes, bool simulated, int first_local = 0,
               int num_local = -1);

/// Record one event on `pe` at backend time `t`. No-op (after the enabled
/// check the macros already make) for pe < 0 — bootstrap sends from the
/// driver thread have no PE context. Also bumps the kind's counters.
void record(int pe, double t, EventKind kind, std::uint64_t a = 0,
            std::uint64_t b = 0);

// ---- inspection (call after Machine::run returns; not thread-safe) ------

/// Events retained for `pe`, oldest first (chronological per PE).
[[nodiscard]] std::vector<Event> events(int pe);
[[nodiscard]] std::uint64_t total_events();
[[nodiscard]] int traced_pes() noexcept;
[[nodiscard]] bool traced_run_was_simulated() noexcept;
[[nodiscard]] Counters counters(int pe);
[[nodiscard]] Counters aggregate();

/// Per-PE summary (messages, bytes, entry/idle seconds, idle %) plus a
/// totals row and the global entry-method time histogram.
[[nodiscard]] std::string summary_table();

/// JSON timeline: {version, simulated, num_pes, events:[...],
/// counters:{per_pe:[...], total:{...}}}. Events carry
/// {t, pe, kind, a, b} and are sorted by (t, pe).
void write_json(std::ostream& os);
/// Returns false (and logs) if the file cannot be opened.
bool write_json(const std::string& path);

/// If enabled: write the timeline to config().out_path and print the
/// summary table to stdout. The trace covers the most recent Runtime.
void report_if_enabled();

/// Drop all trace data and restore the default (disabled) configuration.
void reset();

}  // namespace cx::trace

// Hook macros — compiled out with -DCHARMX_TRACE_DISABLED; otherwise the
// disabled-at-runtime cost is one branch.
#ifndef CHARMX_TRACE_DISABLED
#define CX_TRACE_EVENT(pe, t, kind, a, b)                      \
  do {                                                         \
    if (::cx::trace::enabled()) {                              \
      ::cx::trace::record((pe), (t), (kind), (a), (b));        \
    }                                                          \
  } while (0)
#else
#define CX_TRACE_EVENT(pe, t, kind, a, b) \
  do {                                    \
  } while (0)
#endif
