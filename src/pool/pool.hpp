#pragma once
// Distributed parallel map with concurrent asynchronous jobs — the
// paper's Section III use case, grown into a high-throughput task
// engine. The public surface is still the paper's master–worker map:
//
//   * one MapManager chare on PE 0 coordinates a Group of Workers
//   * map_async(f, numProcs, tasks) starts a job on numProcs free
//     processors; multiple jobs may run concurrently
//   * submit(f, numProcs, tasks, priority) additionally orders queued
//     jobs (FIFO within priority) so interactive jobs overtake batch ones
//
// Under the surface the per-task request/grant round trip of the paper
// is gone:
//
//   * chunked shipping — the master grants tasks in adaptive batches
//     (guided self-scheduling: ~remaining/(2·procs), shrinking as the
//     job drains, all of it for a one-worker job; fixed via
//     --pool-chunk). Grants travel as compact
//     (start,count) ranges in one envelope; results return in batches.
//   * work stealing — a worker whose deque drains steals half of a
//     random victim's remaining chunk instead of round-tripping to the
//     master, which leaves the per-task critical path entirely.
//   * backpressure — --pool-max-inflight bounds each job's outstanding
//     tasks; workers idle at the cap and are re-granted as results land.
//   * decoupled heartbeats — a worker grinding through a long chunk
//     sends a lightweight periodic beat (cx::post_after chain between
//     task quanta) so its liveness counter advances even when it has no
//     task request to piggyback on.
//
// Failure semantics are preserved: the master's done-bitmap counts every
// result exactly once (resubmitted and stolen chunks may execute twice),
// and a dead worker's whole outstanding chunk set — including chunks it
// stole — is reclaimed and resubmitted.
//
// Task functions are registered by name (the C++ stand-in for passing a
// Python function object):
//
//   cxpool::register_function("square",
//                             [](const cpy::Value& x) { return
//                                 cpy::Value(x.as_int() * x.as_int()); });
//   cxpool::Pool pool;
//   auto f1 = pool.map_async("square", 2, {1, 2, 3, 4, 5});
//   auto results1 = f1.get();   // [1, 4, 9, 16, 25]
//
// Scheduling: each job asks for numProcs processors. Requests are
// clamped to what is free; a job that finds every processor busy waits
// in a priority queue (FIFO within priority) and starts as soon as a
// running job releases processors — the future always eventually
// resolves, even when jobs saturate the PE set.
//
// Failure: if a task function is unknown or throws, the job fails and
// its future resolves to an error value (check with is_error /
// error_message) instead of killing the run.

#include <cstdint>
#include <functional>
#include <string>

#include "model/cpy.hpp"

namespace cxu {
class Options;
}

namespace cxpool {

using TaskFn = std::function<cpy::Value(const cpy::Value&)>;

/// Register a task function under `name` (process-global).
void register_function(const std::string& name, TaskFn fn);

/// Look up a task function; throws std::out_of_range if unknown.
const TaskFn& lookup_function(const std::string& name);

namespace detail {
/// How often the task-function registry's mutex has been taken. Only
/// register_function takes it; tests read this to show that no task
/// lookup does.
std::uint64_t fn_registry_locks() noexcept;
}  // namespace detail

/// Dict key marking a failed job's result value.
inline constexpr const char* kErrorKey = "__pool_error__";

/// Build the error value a failed job's future resolves to.
cpy::Value make_error(const std::string& message);

/// True if a map/map_async result reports a failed job.
[[nodiscard]] bool is_error(const cpy::Value& result);

/// The failure reason carried by an error result ("" if not an error).
[[nodiscard]] std::string error_message(const cpy::Value& result);

// ---------------------------------------------------------------------------
// Engine configuration. Process-global, read by the master and every
// worker; set it before the runtime starts (configure() from a driver,
// or configure_from_options() right after parsing flags).

struct PoolConfig {
  /// Tasks per grant. 0 = adaptive guided self-scheduling:
  /// ceil(remaining / (2 · procs)), or all remaining tasks when the
  /// job has one worker, clamped to [1, 8192].
  std::int64_t chunk = 0;
  /// Randomized work stealing between workers.
  bool steal = true;
  /// Per-job cap on outstanding (granted, unfinished) tasks; 0 = none.
  std::int64_t max_inflight = 0;
  /// Tasks a worker executes per scheduler turn before yielding (so
  /// steal requests, beats and liveness ticks interleave with a chunk).
  std::int64_t quantum = 16;
  /// Max results per batched result message.
  std::int64_t result_batch = 256;
  /// Decoupled heartbeat period in seconds (<= 0 disables beats).
  double beat_s = 0.025;
  /// Victims tried per steal round before falling back to the master.
  std::int64_t steal_retries = 2;
};

/// Install a configuration (values are sanitized: quantum/result_batch
/// floors at 1, negative chunk/max_inflight/steal_retries at 0).
void configure(const PoolConfig& cfg);

/// The active configuration.
[[nodiscard]] const PoolConfig& config() noexcept;

/// Read --pool-chunk=<n|auto>, --pool-steal[=on|off],
/// --pool-max-inflight=<n>, --pool-quantum=<n>, --pool-batch=<n>,
/// --pool-beat-ms=<ms>, --pool-steal-retries=<n> (strict validation —
/// malformed values throw) and install.
void configure_from_options(const cxu::Options& opt);

// ---------------------------------------------------------------------------

class Pool {
 public:
  /// Create the master on PE 0 with one worker per PE. Must be called
  /// from a threaded context inside a running program.
  Pool();

  /// Apply `fn_name` to each task on `num_procs` workers; returns a
  /// future resolving to the list of results in task order.
  [[nodiscard]] cx::Future<cpy::Value> map_async(const std::string& fn_name,
                                                 int num_procs,
                                                 cpy::List tasks) const {
    return submit(fn_name, num_procs, std::move(tasks), 0);
  }

  /// map_async with a job priority: queued jobs dispatch highest
  /// priority first, FIFO within a priority level. Running jobs are
  /// never preempted.
  [[nodiscard]] cx::Future<cpy::Value> submit(const std::string& fn_name,
                                              int num_procs, cpy::List tasks,
                                              std::int64_t priority) const;

  /// Blocking convenience wrapper.
  [[nodiscard]] cpy::Value map(const std::string& fn_name, int num_procs,
                               cpy::List tasks) const {
    return map_async(fn_name, num_procs, std::move(tasks)).get();
  }

  /// Per-worker liveness: a dict mapping PE (as a string key) to the
  /// last heartbeat counter the master has seen from that worker.
  /// Heartbeats piggyback on chunk-request and result-batch messages,
  /// plus the decoupled periodic beat while a worker is mid-chunk (so a
  /// worker busy on a long chunk no longer reads as silent). Blocking
  /// (fiber) call.
  [[nodiscard]] cpy::Value liveness() const;

  [[nodiscard]] const cpy::DElement& master() const noexcept {
    return master_;
  }

 private:
  cpy::DElement master_;
};

}  // namespace cxpool
