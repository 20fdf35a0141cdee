#include "pool/pool.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "ft/ft.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "wire/envelope.hpp"

namespace cxpool {

using cpy::Args;
using cpy::DChare;
using cpy::DClass;
using cpy::Dict;
using cpy::List;
using cpy::Value;

namespace {

struct FnRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, TaskFn> fns;
  static FnRegistry& instance() {
    static FnRegistry r;
    return r;
  }
};

PoolConfig g_config;

/// Ceiling for the adaptive grant size (guided self-scheduling).
constexpr std::int64_t kMaxAutoChunk = 8192;

/// Seconds before a pending steal request is abandoned (the victim is
/// presumed dead) and the thief falls back to the master. One-shot
/// cx::post_after, so it works even with beats disabled.
constexpr double kStealTimeout = 0.05;

// ---------------------------------------------------------------------------
// Task ranges. Grants, steals and failure reclamation all move task-id
// *ranges* — a flattened [start0, count0, start1, count1, ...] vector
// shipped as one Value::iarray — so a 4096-task grant costs the same
// envelope as a 1-task grant did in the per-task protocol.

using Ranges = std::vector<std::int64_t>;

Value ranges_to_value(Ranges r) { return Value::iarray(std::move(r)); }

const Ranges& ranges_of(const Value& v) { return v.as_i64_array()->data; }

Ranges& ranges_mut(Value& v) { return v.as_i64_array()->data; }

std::int64_t ranges_count(const Ranges& r) {
  std::int64_t n = 0;
  for (std::size_t i = 1; i < r.size(); i += 2) n += r[i];
  return n;
}

void ranges_append(Ranges& r, std::int64_t start, std::int64_t count) {
  if (count <= 0) return;
  // Coalesce with the tail range when contiguous.
  if (r.size() >= 2 && r[r.size() - 2] + r.back() == start) {
    r.back() += count;
  } else {
    r.push_back(start);
    r.push_back(count);
  }
}

void ranges_extend(Ranges& r, const Ranges& more) {
  for (std::size_t i = 0; i + 1 < more.size(); i += 2) {
    ranges_append(r, more[i], more[i + 1]);
  }
}

/// Remove one task id from a range set (splitting a range if the id
/// falls in its middle). Returns false if the id is not present.
bool ranges_remove(Ranges& r, std::int64_t id) {
  for (std::size_t i = 0; i + 1 < r.size(); i += 2) {
    const std::int64_t s = r[i];
    const std::int64_t c = r[i + 1];
    if (id < s || id >= s + c) continue;
    if (c == 1) {
      r.erase(r.begin() + static_cast<std::ptrdiff_t>(i),
              r.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (id == s) {
      r[i] = s + 1;
      r[i + 1] = c - 1;
    } else if (id == s + c - 1) {
      r[i + 1] = c - 1;
    } else {
      r[i + 1] = id - s;
      r.push_back(id + 1);
      r.push_back(s + c - 1 - id);
    }
    return true;
  }
  return false;
}

/// Take up to `want` tasks off the front of `from`, appending them to
/// `into`. Returns how many moved.
std::int64_t ranges_take_front(Ranges& from, Ranges& into,
                               std::int64_t want) {
  std::int64_t moved = 0;
  while (moved < want && !from.empty()) {
    const std::int64_t take = std::min(want - moved, from[1]);
    ranges_append(into, from[0], take);
    from[0] += take;
    from[1] -= take;
    if (from[1] == 0) from.erase(from.begin(), from.begin() + 2);
    moved += take;
  }
  return moved;
}

/// Take up to `want` tasks off the *back* of `from` (steals split the
/// victim's tail so the victim keeps draining its front undisturbed).
std::int64_t ranges_take_back(Ranges& from, Ranges& into,
                              std::int64_t want) {
  Ranges rev;  // collected back-to-front, then reversed into `into`
  std::int64_t moved = 0;
  while (moved < want && !from.empty()) {
    const std::size_t i = from.size() - 2;
    const std::int64_t take = std::min(want - moved, from[i + 1]);
    rev.push_back(from[i] + from[i + 1] - take);
    rev.push_back(take);
    from[i + 1] -= take;
    if (from[i + 1] == 0) from.erase(from.begin() + static_cast<std::ptrdiff_t>(i), from.end());
    moved += take;
  }
  for (std::size_t i = rev.size(); i >= 2; i -= 2) {
    ranges_append(into, rev[i - 2], rev[i - 1]);
  }
  return moved;
}

// ---------------------------------------------------------------------------
// Worker: one per PE (the paper's Group(Worker)), rebuilt from the
// paper's one-task-per-round-trip loop into a chunk-draining engine:
//
//   start/chunk/stolen  append task ranges to the local deque
//   drain               self-resent continuation executing `quantum`
//                       tasks per scheduler turn (steals, beats and
//                       liveness ticks interleave with a long chunk)
//   steal/stolen/stealFail   randomized work stealing between workers
//   beatTick            decoupled heartbeat while mid-chunk
//
// Results accumulate locally and return to the master in batches.

std::int64_t my_index(DChare& self) {
  return self["thisIndex"].item(Value(0)).as_int();
}

std::int64_t next_heartbeat(DChare& self) {
  const std::int64_t hb =
      self.has_attr("hb") ? self["hb"].as_int() + 1 : 1;
  self["hb"] = Value(hb);
  return hb;
}

std::int64_t pending_count(DChare& self) {
  return ranges_count(ranges_of(self["pending"]));
}

/// xorshift-style per-worker PRNG for victim selection (seeded from the
/// worker index so runs are reproducible on the simulator).
std::uint64_t next_rand(DChare& self) {
  std::uint64_t x = static_cast<std::uint64_t>(self["rng"].as_int());
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  self["rng"] = Value(static_cast<std::int64_t>(x));
  return x;
}

/// Arm (or re-arm) the decoupled heartbeat chain. The tick is a plain
/// scheduled callback (cx::post_after — uncounted, so it never holds
/// off quiescence detection) that message-sends beatTick to this
/// worker; the chain stops re-arming as soon as the worker runs out of
/// local work, which is what lets the simulator drain.
void arm_beat(DChare& self) {
  const double period = config().beat_s;
  if (period <= 0) return;
  if (self["beat_armed"].as_int() != 0) return;
  self["beat_armed"] = Value(1);
  auto workers = cpy::collection_proxy_of(self);
  const int idx = static_cast<int>(my_index(self));
  cx::post_after(period, [workers, idx]() mutable {
    workers[cx::Index(idx)].send("beatTick", {});
  });
}

/// Flush buffered results to the master as one batched message.
/// `want` asks the master for a fresh grant in the same envelope.
void flush_results(DChare& self, bool want) {
  auto& ids = ranges_mut(self["rids"]);
  auto& vals = self["rvals"].as_list();
  if (ids.empty() && !want) return;
  cpy::element_from(self["master"])
      .send("resultBatch",
            {Value(my_index(self)), self["job_id"],
             Value::iarray(std::move(ids)),
             Value::list(std::move(vals)),
             Value(next_heartbeat(self)), Value(want ? 1 : 0)});
  self["rids"] = Value::iarray({});
  self["rvals"] = Value::list({});
}

void send_get_chunk(DChare& self) {
  cpy::element_from(self["master"])
      .send("getChunk", {Value(my_index(self)), self["job_id"],
                         Value(next_heartbeat(self))});
}

/// Out of local work: flush what we have and either steal from a
/// random sibling or fall back to the master for a fresh grant.
void seek_work(DChare& self) {
  const PoolConfig& cfg = config();
  const auto& procs = self["procs"].as_list();
  const std::int64_t tries = self["steal_tries"].as_int();
  if (cfg.steal && procs.size() > 1 && tries < cfg.steal_retries) {
    self["steal_tries"] = Value(tries + 1);
    // Pick a victim other than ourselves.
    const std::int64_t me = my_index(self);
    std::int64_t victim = me;
    for (int spin = 0; spin < 4 && victim == me; ++spin) {
      victim =
          procs[next_rand(self) % procs.size()].as_int();
    }
    if (victim != me) {
      flush_results(self, /*want=*/false);
      const std::int64_t token = self["steal_token"].as_int() + 1;
      self["steal_token"] = Value(token);
      self["steal_pending"] = Value(1);
      cx::trace::detail::g_pool.steal_attempts.fetch_add(
          1, std::memory_order_relaxed);
      auto workers = cpy::collection_proxy_of(self);
      workers[cx::Index(static_cast<int>(victim))].send(
          "steal", {Value(me), self["job_id"]});
      // Victim-death insurance: if no reply lands (the victim's PE
      // died with our request), give up and ask the master, which by
      // then has reclaimed the dead worker's chunks.
      const int idx = static_cast<int>(me);
      cx::post_after(kStealTimeout, [workers, idx, token]() mutable {
        workers[cx::Index(idx)].send("stealTimeout",
                                     {Value(token)});
      });
      return;
    }
  }
  self["steal_tries"] = Value(0);
  // flush_results(want=true) piggybacks the grant request on the
  // result batch; with nothing buffered, ask explicitly.
  if (!ranges_of(self["rids"]).empty()) {
    flush_results(self, /*want=*/true);
  } else {
    send_get_chunk(self);
  }
}

/// Append a grant/steal haul to the local deque and kick the drain
/// chain if it is not already running.
void add_work(DChare& self, const Value& ranges) {
  ranges_extend(ranges_mut(self["pending"]), ranges_of(ranges));
  arm_beat(self);
  if (self["draining"].as_int() == 0 && pending_count(self) > 0) {
    self["draining"] = Value(1);
    auto workers = cpy::collection_proxy_of(self);
    workers[cx::Index(static_cast<int>(my_index(self)))].send(
        "drain", {self["job_id"]});
  }
}

bool stale_job(DChare& self, const Value& job_id) {
  return self["active"].as_int() == 0 || !self["job_id"].equals(job_id);
}

void fail_job_locally(DChare& self, const std::string& what) {
  cpy::element_from(self["master"])
      .send("jobError", {self["job_id"], Value(what)});
  self["active"] = Value(0);
  self["pending"] = Value::iarray({});
  self["rids"] = Value::iarray({});
  self["rvals"] = Value::list({});
  self["draining"] = Value(0);
}

void define_worker() {
  DClass cls("cxpool.Worker");

  cls.def("__init__", {}, [](DChare& self, Args&) {
    self["active"] = Value(0);
    self["job_id"] = Value::none();
    self["pending"] = Value::iarray({});
    self["rids"] = Value::iarray({});
    self["rvals"] = Value::list({});
    self["draining"] = Value(0);
    self["beat_armed"] = Value(0);
    self["steal_pending"] = Value(0);
    self["steal_token"] = Value(0);
    self["steal_tries"] = Value(0);
    const auto idx = static_cast<std::uint64_t>(my_index(self) + 1);
    self["rng"] = Value(static_cast<std::int64_t>(
        0x9e3779b97f4a7c15ULL ^ (idx * 0x2545F4914F6CDD1DULL)));
    return Value::none();
  });

  // A job assignment. `ranges` is the initial grant (may be empty when
  // the job's in-flight budget is exhausted — the worker then parks at
  // the master until results free budget).
  cls.def("start",
          {"job_id", "fname", "tasks", "master", "procs", "ranges"},
          [](DChare& self, Args& a) {
            self["job_id"] = a[0];
            self["fname"] = a[1];
            self["tasks"] = a[2];
            self["master"] = a[3];
            self["procs"] = a[4];
            self["active"] = Value(1);
            self["pending"] = Value::iarray({});
            self["rids"] = Value::iarray({});
            self["rvals"] = Value::list({});
            self["draining"] = Value(0);
            self["steal_pending"] = Value(0);
            self["steal_tries"] = Value(0);
            if (a[5].length() > 0) {
              add_work(self, a[5]);
            } else {
              send_get_chunk(self);
            }
            return Value::none();
          });

  // A fresh grant from the master.
  cls.def("chunk", {"job_id", "ranges"}, [](DChare& self, Args& a) {
    if (stale_job(self, a[0])) return Value::none();
    self["steal_tries"] = Value(0);
    add_work(self, a[1]);
    return Value::none();
  });

  // The drain continuation: execute up to `quantum` tasks, then yield
  // by re-sending drain to ourselves — so steal requests, beats and
  // ring-liveness ticks interleave even with a 4096-task chunk queued.
  cls.def("drain", {"job_id"}, [](DChare& self, Args& a) {
    if (stale_job(self, a[0])) return Value::none();
    if (self["draining"].as_int() == 0) return Value::none();
    const PoolConfig& cfg = config();
    auto& pend = ranges_mut(self["pending"]);
    const Value& tasks = self["tasks"];
    const TaskFn* fn = nullptr;
    try {
      fn = &lookup_function(self["fname"].as_str());
    } catch (const std::exception& e) {
      fail_job_locally(self, e.what());
      return Value::none();
    }
    std::int64_t budget = cfg.quantum;
    while (budget > 0 && !pend.empty()) {
      const std::int64_t id = pend[0];
      pend[0] += 1;
      pend[1] -= 1;
      if (pend[1] == 0) pend.erase(pend.begin(), pend.begin() + 2);
      Value result;
      const double t0 = cx::now();
      try {
        result = (*fn)(tasks.item(Value(id)));
      } catch (const std::exception& e) {
        fail_job_locally(self, e.what());
        return Value::none();
      }
      cx::trace::detail::note_pool_task(
          cx::my_pe(), static_cast<std::uint64_t>((cx::now() - t0) * 1e9));
      ranges_append(ranges_mut(self["rids"]), id, 1);
      self["rvals"].as_list().push_back(std::move(result));
      --budget;
      if (static_cast<std::int64_t>(self["rvals"].length()) >=
          cfg.result_batch) {
        flush_results(self, /*want=*/false);
      }
    }
    if (!pend.empty()) {
      auto workers = cpy::collection_proxy_of(self);
      workers[cx::Index(static_cast<int>(my_index(self)))].send(
          "drain", {a[0]});
    } else {
      self["draining"] = Value(0);
      seek_work(self);
    }
    return Value::none();
  });

  // A sibling ran dry and asks for half our remaining deque. Keep at
  // least one quantum for ourselves; send the tail half so our own
  // front-drain is undisturbed, and tell the master which tasks moved
  // (its per-worker bookkeeping must track them for failure recovery).
  cls.def("steal", {"thief", "job_id"}, [](DChare& self, Args& a) {
    auto workers = cpy::collection_proxy_of(self);
    auto thief = workers[cx::Index(static_cast<int>(a[0].as_int()))];
    if (stale_job(self, a[1])) {
      thief.send("stealFail", {a[1]});
      return Value::none();
    }
    auto& pend = ranges_mut(self["pending"]);
    const std::int64_t n = ranges_count(pend);
    if (n <= config().quantum) {
      thief.send("stealFail", {a[1]});
      return Value::none();
    }
    Ranges loot;
    ranges_take_back(pend, loot, n / 2);
    cpy::element_from(self["master"])
        .send("reassign", {Value(my_index(self)), a[0], a[1],
                           ranges_to_value(loot)});
    thief.send("stolen", {a[1], ranges_to_value(std::move(loot))});
    return Value::none();
  });

  cls.def("stolen", {"job_id", "ranges"}, [](DChare& self, Args& a) {
    if (stale_job(self, a[0])) return Value::none();
    self["steal_pending"] = Value(0);
    self["steal_tries"] = Value(0);
    auto& p = cx::trace::detail::g_pool;
    p.steal_hits.fetch_add(1, std::memory_order_relaxed);
    p.stolen_tasks.fetch_add(
        static_cast<std::uint64_t>(ranges_count(ranges_of(a[1]))),
        std::memory_order_relaxed);
    add_work(self, a[1]);
    return Value::none();
  });

  cls.def("stealFail", {"job_id"}, [](DChare& self, Args& a) {
    if (stale_job(self, a[0])) return Value::none();
    if (self["steal_pending"].as_int() == 0) return Value::none();
    self["steal_pending"] = Value(0);
    if (pending_count(self) > 0) return Value::none();  // raced a grant
    seek_work(self);
    return Value::none();
  });

  // One-shot insurance against a victim dying with our steal request:
  // if that particular steal (matched by token) is still unanswered,
  // stop waiting and ask the master, which has reclaimed the dead
  // worker's chunks by now.
  cls.def("stealTimeout", {"token"}, [](DChare& self, Args& a) {
    if (self["steal_pending"].as_int() == 0) return Value::none();
    if (!self["steal_token"].equals(a[0])) return Value::none();
    if (self["active"].as_int() == 0) return Value::none();
    self["steal_pending"] = Value(0);
    self["steal_tries"] = Value(config().steal_retries);  // no more steals
    if (pending_count(self) == 0) seek_work(self);
    return Value::none();
  });

  // Decoupled heartbeat: while this worker grinds through a chunk its
  // liveness counter still advances — the paper's piggybacked counter
  // only moved on task-request round trips, so a worker busy on a long
  // chunk looked dead. Bypasses --wire-agg batching (a heartbeat aging
  // inside an open batch defeats its purpose).
  cls.def("beatTick", {}, [](DChare& self, Args&) {
    self["beat_armed"] = Value(0);
    if (self["active"].as_int() == 0) return Value::none();
    const bool busy = self["draining"].as_int() != 0 ||
                      pending_count(self) > 0 ||
                      self["steal_pending"].as_int() != 0;
    if (!busy) return Value::none();  // idle: requests carry the hb
    {
      cx::wire::ScopedNoAgg no_agg;
      cpy::element_from(self["master"])
          .send("beat",
                {Value(my_index(self)), Value(next_heartbeat(self))});
    }
    cx::trace::detail::g_pool.beats.fetch_add(1,
                                              std::memory_order_relaxed);
    arm_beat(self);
    return Value::none();
  });
}

// ---------------------------------------------------------------------------
// MapManager: the master on PE 0. Job bookkeeping lives entirely in the
// attribute dict (so the master is migratable like any chare). The
// user's future travels boxed inside a Value. Jobs that cannot get any
// processor wait in a priority queue (FIFO within priority) and are
// dispatched as other jobs finish — a saturated pool must never
// deadlock.
//
// Exactly-once accounting: the per-job done bitmap is authoritative.
// Chunks may execute twice (a resubmitted chunk whose original owner's
// results still land, or reassign races around a steal) — every result
// id is counted against `remaining` at most once.

std::int64_t job_procs_count(Dict& job) {
  return static_cast<std::int64_t>(job["procs"].length());
}

/// Outstanding (granted, unfinished) tasks, derived from the assigned
/// range sets so it cannot drift from reality.
std::int64_t job_inflight(Dict& job) {
  std::int64_t n = 0;
  for (auto& [pe, r] : job["assigned"].as_dict()) {
    n += ranges_count(ranges_of(r));
  }
  return n;
}

/// Ensure the worker has an assigned-ranges slot (a bare operator[]
/// would default-construct a None value, not an empty range set).
void ensure_assigned_slot(Dict& job, std::int64_t pe) {
  auto& assigned = job["assigned"].as_dict();
  const std::string key = std::to_string(pe);
  if (assigned.count(key) == 0) assigned[key] = Value::iarray({});
}

/// Carve the next grant for worker `pe`: redo (reclaimed) work first,
/// then fresh tasks. Size follows --pool-chunk, or guided
/// self-scheduling (remaining / 2·procs — big chunks early to amortize
/// messaging, small chunks late to balance the tail; a one-worker job
/// has no tail to balance and gets everything available), clamped by
/// the job's --pool-max-inflight budget.
Ranges take_grant(Dict& job, std::int64_t pe) {
  auto& redo = ranges_mut(job["redo"]);
  const std::int64_t fresh =
      static_cast<std::int64_t>(job["tasks"].length()) -
      job["next_task"].as_int();
  const std::int64_t avail = ranges_count(redo) + fresh;
  if (avail <= 0) return {};
  const PoolConfig& cfg = config();
  std::int64_t sz = cfg.chunk;
  if (sz <= 0) {
    const std::int64_t procs = std::max<std::int64_t>(1, job_procs_count(job));
    sz = procs == 1 ? avail : (avail + 2 * procs - 1) / (2 * procs);
    sz = std::min(sz, kMaxAutoChunk);
  }
  sz = std::max<std::int64_t>(1, std::min(sz, avail));
  auto& p = cx::trace::detail::g_pool;
  if (cfg.max_inflight > 0) {
    const std::int64_t budget = cfg.max_inflight - job_inflight(job);
    if (sz > budget) {
      p.inflight_clamps.fetch_add(1, std::memory_order_relaxed);
      sz = budget;
    }
    if (sz <= 0) return {};
  }
  ensure_assigned_slot(job, pe);
  Ranges grant;
  std::int64_t got = ranges_take_front(redo, grant, sz);
  if (got < sz && fresh > 0) {
    const std::int64_t take =
        std::min(sz - got, fresh);
    ranges_append(grant, job["next_task"].as_int(), take);
    job["next_task"] = Value(job["next_task"].as_int() + take);
    got += take;
  }
  ranges_extend(ranges_mut(job["assigned"].as_dict()[std::to_string(pe)]),
                grant);
  p.grants.fetch_add(1, std::memory_order_relaxed);
  p.granted_tasks.fetch_add(static_cast<std::uint64_t>(got),
                            std::memory_order_relaxed);
  p.raise_max(p.max_chunk, static_cast<std::uint64_t>(got));
  return grant;
}

/// Hand grants to workers parked on the idle list while budget and
/// work allow. Called whenever results land (freeing budget) or redo
/// work appears (failure reclamation).
void feed_idle(DChare& self, const std::string& key, Dict& job) {
  auto& idle = job["idle"].as_list();
  auto workers = cpy::collection_from(self["workers"]);
  while (!idle.empty()) {
    const std::int64_t w = idle.front().as_int();
    Ranges grant = take_grant(job, w);
    if (grant.empty()) break;  // out of budget or out of work
    idle.erase(idle.begin());
    workers[cx::Index(static_cast<int>(w))].send(
        "chunk", {Value(static_cast<std::int64_t>(std::stoll(key))),
                  ranges_to_value(std::move(grant))});
  }
}

/// Release a finished/failed job's processors back to the free list.
void release_procs(DChare& self, Dict& job) {
  auto& free = self["free_procs"].as_list();
  for (const Value& p : job["procs"].as_list()) free.push_back(p);
  job["procs"] = Value::list({});
}

/// Grant processors to queued jobs while any are free — highest
/// priority first, FIFO within a priority level. Partial grants are
/// allowed (the paper clamps the request to what is free); only a zero
/// grant keeps a job queued.
void dispatch_queued(DChare& self) {
  auto& free = self["free_procs"].as_list();
  auto& queued = self["queued"].as_list();
  auto& jobs = self["jobs"].as_dict();
  while (!queued.empty() && !free.empty()) {
    // Select the best queued job: max priority, then lowest sequence
    // number (FIFO). The queue is short-lived; a linear scan beats
    // maintaining a heap inside a Value list.
    std::size_t best = 0;
    std::int64_t best_prio = 0, best_seq = 0;
    bool have = false;
    for (std::size_t i = 0; i < queued.size(); ++i) {
      const auto jit = jobs.find(std::to_string(queued[i].as_int()));
      if (jit == jobs.end()) continue;
      auto& j = jit->second.as_dict();
      const std::int64_t prio = j["priority"].as_int();
      const std::int64_t seq = j["seq"].as_int();
      if (!have || prio > best_prio ||
          (prio == best_prio && seq < best_seq)) {
        best = i;
        best_prio = prio;
        best_seq = seq;
        have = true;
      }
    }
    if (!have) {
      queued.clear();  // every queued id pointed at a finished job
      break;
    }
    const std::int64_t job_id = queued[best].as_int();
    queued.erase(queued.begin() + static_cast<std::ptrdiff_t>(best));
    const std::string key = std::to_string(job_id);
    auto& job = jobs[key].as_dict();
    std::int64_t want = job["want"].as_int();
    if (want > static_cast<std::int64_t>(free.size())) {
      CX_LOG_WARN("pool: job ", job_id, " requested ", want,
                  " procs, only ", free.size(), " free; clamping");
      want = static_cast<std::int64_t>(free.size());
    }
    List procs = job["procs"].as_list();  // may be re-dispatch after park
    for (std::int64_t i = 0; i < want; ++i) {
      procs.push_back(free.back());
      free.pop_back();
    }
    job["procs"] = Value::list(procs);
    if (job["start_t"].as_real() < 0) job["start_t"] = Value(cx::now());
    CX_TRACE_EVENT(cx::my_pe(), cx::now(),
                   cx::trace::EventKind::PoolJobStart,
                   static_cast<std::uint64_t>(job_id), procs.size());
    auto workers = cpy::collection_from(self["workers"]);
    const Value master_ref = cpy::to_value(cpy::proxy_of(self));
    const Value procs_val = Value::list(procs);
    for (std::int64_t i = want; i > 0; --i) {
      const Value& p = procs[procs.size() - static_cast<std::size_t>(i)];
      const std::int64_t pe = p.as_int();
      ensure_assigned_slot(job, pe);
      Ranges grant = take_grant(job, pe);
      workers[cx::Index(static_cast<int>(pe))].send(
          "start", {Value(job_id), job["fname"], job["tasks"], master_ref,
                    procs_val, ranges_to_value(std::move(grant))});
    }
  }
}

/// Resolve the job's future, return its processors and dispatch waiters.
void finish_job(DChare& self, const std::string& key, Dict& job,
                const Value& result, bool failed) {
  release_procs(self, job);
  CX_TRACE_EVENT(cx::my_pe(), cx::now(), cx::trace::EventKind::PoolJobDone,
                 static_cast<std::uint64_t>(std::stoll(key)),
                 job["tasks"].length());
  cx::trace::PoolJobRecord rec;
  rec.job_id = static_cast<std::uint64_t>(std::stoll(key));
  rec.priority = job["priority"].as_int();
  rec.tasks = job["tasks"].length();
  rec.submit_t = job["submit_t"].as_real();
  rec.start_t = std::max(0.0, job["start_t"].as_real());
  rec.done_t = cx::now();
  rec.failed = failed;
  cx::trace::pool_job_note(rec);
  cpy::future_from(job["future"]).send(result);
  self["jobs"].as_dict().erase(key);
  dispatch_queued(self);
}

void update_heartbeat(DChare& self, std::int64_t src, const Value& hb) {
  // A straggler message from a worker already declared dead must not
  // resurrect it in the liveness report.
  const std::string skey = std::to_string(src);
  if (self["failed"].as_dict().count(skey) == 0) {
    self["heartbeats"].as_dict()[skey] = hb;
  }
}

void define_manager() {
  DClass cls("cxpool.MapManager");

  cls.def("__init__", {}, [](DChare& self, Args&) {
    self["workers"] = cpy::to_value(cpy::create_group("cxpool.Worker"));
    // Paper: free processors are 1..P-1 (PE 0 runs the master). With a
    // single PE, the master shares PE 0 with the one worker.
    List free;
    const int p = cx::num_pes();
    if (p == 1) {
      free.emplace_back(0);
    } else {
      for (int i = 1; i < p; ++i) free.emplace_back(i);
    }
    self["free_procs"] = Value::list(std::move(free));
    self["next_job_id"] = Value(0);
    self["jobs"] = Value::dict({});
    self["queued"] = Value::list({});
    // Worker liveness (pe -> last heartbeat seen) and dead PEs.
    self["heartbeats"] = Value::dict({});
    self["failed"] = Value::dict({});
    return Value::none();
  });

  cls.def("submit", {"fname", "numProcs", "tasks", "future", "priority"},
          [](DChare& self, Args& a) {
            std::int64_t want = a[1].as_int();
            if (want <= 0) {
              CX_LOG_WARN("pool: requested ", want,
                          " procs; running on 1");
              want = 1;
            }
            const std::int64_t job_id = self["next_job_id"].as_int();
            self["next_job_id"] = Value(job_id + 1);
            const std::uint64_t ntasks = a[2].length();
            if (ntasks == 0) {
              // Nothing to do: resolve immediately (never strand the
              // caller's future).
              cpy::future_from(a[3]).send(Value::list({}));
              return Value::none();
            }
            Dict job;
            job["fname"] = a[0];
            job["tasks"] = a[2];
            job["results"] = Value::list(
                List(static_cast<std::size_t>(ntasks), Value::none()));
            job["remaining"] = Value(static_cast<std::int64_t>(ntasks));
            job["next_task"] = Value(0);
            job["want"] = Value(want);
            job["procs"] = Value::list({});
            job["future"] = a[3];
            job["priority"] = a[4];
            job["seq"] = Value(job_id);
            job["submit_t"] = Value(cx::now());
            job["start_t"] = Value(-1.0);
            // Failure bookkeeping: which task ranges each worker holds,
            // which tasks completed (a resubmitted chunk may finish
            // twice), ranges to re-run, and workers idling out of work
            // or budget.
            job["assigned"] = Value::dict({});
            job["done"] = Value::list(
                List(static_cast<std::size_t>(ntasks), Value(0)));
            job["redo"] = Value::iarray({});
            job["idle"] = Value::list({});
            self["jobs"].as_dict()[std::to_string(job_id)] =
                Value::dict(std::move(job));
            // Queue the job; with free processors it starts right away,
            // otherwise it waits for a running job to release some. This
            // is what keeps a saturated pool deadlock-free.
            self["queued"].as_list().emplace_back(job_id);
            auto& p = cx::trace::detail::g_pool;
            p.raise_max(p.queue_high_water, self["queued"].length());
            CX_TRACE_EVENT(cx::my_pe(), cx::now(),
                           cx::trace::EventKind::PoolJobQueued,
                           static_cast<std::uint64_t>(job_id),
                           self["free_procs"].length());
            dispatch_queued(self);
            return Value::none();
          });

  // A worker ran out of local work (and out of steal attempts).
  cls.def("getChunk", {"src", "job_id", "hb"}, [](DChare& self, Args& a) {
    const std::int64_t src = a[0].as_int();
    update_heartbeat(self, src, a[2]);
    auto& jobs = self["jobs"].as_dict();
    const std::string key = std::to_string(a[1].as_int());
    const auto jit = jobs.find(key);
    if (jit == jobs.end()) return Value::none();  // job finished
    auto& job = jit->second.as_dict();
    if (self["failed"].as_dict().count(std::to_string(src)) != 0) {
      return Value::none();  // no new work for a dead worker
    }
    Ranges grant = take_grant(job, src);
    if (!grant.empty()) {
      cpy::collection_from(self["workers"])[cx::Index(
          static_cast<int>(src))]
          .send("chunk", {a[1], ranges_to_value(std::move(grant))});
    } else {
      // Out of fresh work (or budget) while the job still runs: park
      // the worker; feed_idle revives it when results free budget or
      // failure recovery produces redo work.
      auto& idle = job["idle"].as_list();
      if (std::find_if(idle.begin(), idle.end(), [&](const Value& v) {
            return v.as_int() == src;
          }) == idle.end()) {
        idle.emplace_back(src);
      }
    }
    return Value::none();
  });

  // A batch of results. `ids` is a flattened range set, `vals` the
  // matching values in range order; `want` asks for a fresh grant in
  // the same round trip.
  cls.def("resultBatch", {"src", "job_id", "ids", "vals", "hb", "want"},
          [](DChare& self, Args& a) {
            const std::int64_t src = a[0].as_int();
            const std::string skey = std::to_string(src);
            update_heartbeat(self, src, a[4]);
            auto& jobs = self["jobs"].as_dict();
            const std::string key = std::to_string(a[1].as_int());
            const auto jit = jobs.find(key);
            if (jit == jobs.end()) return Value::none();  // job resolved
            auto& job = jit->second.as_dict();
            cx::trace::detail::g_pool.result_batches.fetch_add(
                1, std::memory_order_relaxed);
            auto& done = job["done"].as_list();
            auto& results = job["results"].as_list();
            auto& assigned = job["assigned"].as_dict();
            const Ranges& ids = ranges_of(a[2]);
            const List& vals = a[3].as_list();
            std::int64_t remaining = job["remaining"].as_int();
            std::size_t vi = 0;
            for (std::size_t i = 0; i + 1 < ids.size(); i += 2) {
              for (std::int64_t t = ids[i]; t < ids[i] + ids[i + 1];
                   ++t, ++vi) {
                const auto ti = static_cast<std::size_t>(t);
                // A resubmitted or doubly-stolen task can complete
                // twice; count it exactly once.
                if (done[ti].as_int() == 0) {
                  done[ti] = Value(1);
                  if (vi < vals.size()) results[ti] = vals[vi];
                  remaining -= 1;
                }
                // Retire the id from the sender's outstanding set; a
                // reassign race can leave it filed under another
                // worker (or redo), so fall back to a full scan —
                // keeping `assigned` exact is what makes failure
                // reclamation and the in-flight budget trustworthy.
                const auto ait = assigned.find(skey);
                bool removed =
                    ait != assigned.end() &&
                    ranges_remove(ranges_mut(ait->second), t);
                if (!removed) {
                  for (auto& [other_pe, r] : assigned) {
                    if (ranges_remove(ranges_mut(r), t)) {
                      removed = true;
                      break;
                    }
                  }
                }
                if (!removed) ranges_remove(ranges_mut(job["redo"]), t);
              }
            }
            job["remaining"] = Value(remaining);
            if (remaining == 0) {
              finish_job(self, key, job, job["results"], /*failed=*/false);
              return Value::none();
            }
            const bool dead =
                self["failed"].as_dict().count(skey) != 0;
            if (!dead && a[5].as_int() != 0) {
              Ranges grant = take_grant(job, src);
              if (!grant.empty()) {
                cpy::collection_from(self["workers"])[cx::Index(
                    static_cast<int>(src))]
                    .send("chunk",
                          {a[1], ranges_to_value(std::move(grant))});
              } else {
                auto& idle = job["idle"].as_list();
                if (std::find_if(idle.begin(), idle.end(),
                                 [&](const Value& v) {
                                   return v.as_int() == src;
                                 }) == idle.end()) {
                  idle.emplace_back(src);
                }
              }
            }
            // Results freed in-flight budget: revive parked workers.
            feed_idle(self, key, job);
            return Value::none();
          });

  // A steal moved task ranges between workers; mirror the move in the
  // per-worker bookkeeping so a future peFailed reclaims the chunks
  // from whoever actually holds them.
  cls.def("reassign", {"victim", "thief", "job_id", "ranges"},
          [](DChare& self, Args& a) {
            auto& jobs = self["jobs"].as_dict();
            const auto jit = jobs.find(std::to_string(a[2].as_int()));
            if (jit == jobs.end()) return Value::none();
            auto& job = jit->second.as_dict();
            auto& assigned = job["assigned"].as_dict();
            const std::string vkey = std::to_string(a[0].as_int());
            const std::string tkey = std::to_string(a[1].as_int());
            auto& done = job["done"].as_list();
            ensure_assigned_slot(job, a[1].as_int());
            auto& thief_ranges = ranges_mut(assigned[tkey]);
            std::uint64_t moved = 0;
            const Ranges& loot = ranges_of(a[3]);
            for (std::size_t i = 0; i + 1 < loot.size(); i += 2) {
              for (std::int64_t t = loot[i]; t < loot[i] + loot[i + 1];
                   ++t) {
                if (done[static_cast<std::size_t>(t)].as_int() != 0) {
                  continue;  // already completed elsewhere
                }
                const auto vit = assigned.find(vkey);
                bool took = vit != assigned.end() &&
                            ranges_remove(ranges_mut(vit->second), t);
                if (!took) took = ranges_remove(ranges_mut(job["redo"]), t);
                // Not found under the victim or redo: a concurrent
                // resubmission already filed it elsewhere; the done
                // bitmap will dedup the extra execution.
                if (took) {
                  ranges_append(thief_ranges, t, 1);
                  ++moved;
                }
              }
            }
            cx::trace::detail::g_pool.reassigns.fetch_add(
                moved, std::memory_order_relaxed);
            return Value::none();
          });

  // Decoupled heartbeat from a worker mid-chunk.
  cls.def("beat", {"src", "hb"}, [](DChare& self, Args& a) {
    update_heartbeat(self, a[0].as_int(), a[1]);
    return Value::none();
  });

  // PE-failure recovery (wired from cx::ft::on_failure by Pool's ctor):
  // pull the dead worker out of every job, reclaim every task range it
  // held — its own grants plus anything it stole — and keep each
  // affected job moving: parked workers get the redo work immediately,
  // free processors are recruited, and a job with no live workers left
  // fails its future with an error instead of hanging.
  cls.def("peFailed", {"pe"}, [](DChare& self, Args& a) {
    const std::int64_t pe = a[0].as_int();
    const std::string pkey = std::to_string(pe);
    if (self["failed"].as_dict().count(pkey) != 0) return Value::none();
    self["failed"].as_dict()[pkey] = Value(1);
    self["heartbeats"].as_dict().erase(pkey);
    auto& free = self["free_procs"].as_list();
    free.erase(std::remove_if(free.begin(), free.end(),
                              [&](const Value& v) {
                                return v.as_int() == pe;
                              }),
               free.end());
    auto& jobs = self["jobs"].as_dict();
    std::vector<std::string> keys;
    keys.reserve(jobs.size());
    for (const auto& [k, v] : jobs) keys.push_back(k);
    for (const std::string& key : keys) {
      const auto jit = jobs.find(key);
      if (jit == jobs.end()) continue;  // finished while we iterated
      auto& job = jit->second.as_dict();
      auto& procs = job["procs"].as_list();
      const auto pit =
          std::find_if(procs.begin(), procs.end(),
                       [&](const Value& v) { return v.as_int() == pe; });
      if (pit == procs.end()) continue;  // job never used this worker
      procs.erase(pit);
      auto& idle = job["idle"].as_list();
      idle.erase(std::remove_if(idle.begin(), idle.end(),
                                [&](const Value& v) {
                                  return v.as_int() == pe;
                                }),
                 idle.end());
      // Reclaim the dead worker's whole outstanding range set (minus
      // tasks whose results already landed) into the redo pool.
      auto& assigned = job["assigned"].as_dict();
      auto& done = job["done"].as_list();
      std::int64_t resubmitted = 0;
      const auto ait = assigned.find(pkey);
      if (ait != assigned.end()) {
        auto& redo = ranges_mut(job["redo"]);
        const Ranges held = ranges_of(ait->second);
        for (std::size_t i = 0; i + 1 < held.size(); i += 2) {
          for (std::int64_t t = held[i]; t < held[i] + held[i + 1]; ++t) {
            if (done[static_cast<std::size_t>(t)].as_int() == 0) {
              ranges_append(redo, t, 1);
              ++resubmitted;
            }
          }
        }
        assigned.erase(pkey);
      }
      CX_TRACE_EVENT(cx::my_pe(), cx::now(),
                     cx::trace::EventKind::FtResubmit,
                     static_cast<std::uint64_t>(pe),
                     static_cast<std::uint64_t>(resubmitted));
      // Parked survivors take the redo work immediately (they will
      // never request again on their own)...
      feed_idle(self, key, job);
      // ...then free processors are recruited for what remains.
      auto workers = cpy::collection_from(self["workers"]);
      while (!free.empty() && ranges_count(ranges_of(job["redo"])) > 0) {
        const Value p = free.back();
        free.pop_back();
        procs.push_back(p);
        const std::int64_t w = p.as_int();
        ensure_assigned_slot(job, w);
        Ranges grant = take_grant(job, w);
        workers[cx::Index(static_cast<int>(w))].send(
            "start",
            {Value(static_cast<std::int64_t>(std::stoll(key))),
             job["fname"], job["tasks"],
             cpy::to_value(cpy::proxy_of(self)), Value::list(procs),
             ranges_to_value(std::move(grant))});
      }
      if (job["remaining"].as_int() > 0 && procs.empty()) {
        if (cx::ft::auto_recover_enabled()) {
          // The runtime will roll back and revive the dead workers;
          // park the job back on the queue instead of failing its
          // future. The recovered handler (or any job releasing
          // processors) re-dispatches it; its redo pool already holds
          // the lost ranges.
          CX_LOG_WARN("pool: job ", key, " lost its last worker (PE ", pe,
                      "); parking until recovery");
          self["queued"].as_list().emplace_back(
              static_cast<std::int64_t>(std::stoll(key)));
        } else {
          CX_LOG_WARN("pool: job ", key, " lost its last worker (PE ", pe,
                      "); failing the job");
          finish_job(self, key, job,
                     make_error("worker on PE " + pkey +
                                " failed and no processors remain"),
                     /*failed=*/true);
        }
      }
    }
    return Value::none();
  });

  // Auto-recovery completed (wired from cx::ft::on_recovery): every PE
  // is live again. Forget the dead set, rebuild the free list from the
  // PEs no job currently holds, and re-dispatch parked jobs.
  cls.def("recovered", {"round"}, [](DChare& self, Args&) {
    self["failed"] = Value::dict({});
    self["heartbeats"] = Value::dict({});
    std::vector<bool> used(static_cast<std::size_t>(cx::num_pes()), false);
    for (auto& [k, v] : self["jobs"].as_dict()) {
      for (const Value& pv : v.as_dict()["procs"].as_list()) {
        used[static_cast<std::size_t>(pv.as_int())] = true;
      }
    }
    List free;
    const int p = cx::num_pes();
    if (p == 1) {
      if (!used[0]) free.emplace_back(0);
    } else {
      for (int i = 1; i < p; ++i) {
        if (!used[static_cast<std::size_t>(i)]) free.emplace_back(i);
      }
    }
    self["free_procs"] = Value::list(std::move(free));
    dispatch_queued(self);
    return Value::none();
  });

  // Report the per-worker heartbeat counters (pe -> last count seen).
  cls.def("liveness", {"future"}, [](DChare& self, Args& a) {
    cpy::future_from(a[0]).send(self["heartbeats"]);
    return Value::none();
  });

  cls.def("jobError", {"job_id", "error"}, [](DChare& self, Args& a) {
    auto& jobs = self["jobs"].as_dict();
    const std::string key = std::to_string(a[0].as_int());
    const auto jit = jobs.find(key);
    if (jit == jobs.end()) return Value::none();  // already resolved
    auto& job = jit->second.as_dict();
    CX_LOG_WARN("pool: job ", key, " failed: ", a[1].as_str());
    finish_job(self, key, job, make_error(a[1].as_str()), /*failed=*/true);
    return Value::none();
  });
}

struct PoolClasses {
  PoolClasses() {
    define_worker();
    define_manager();
  }
};

void ensure_classes() { static PoolClasses once; }

}  // namespace

void register_function(const std::string& name, TaskFn fn) {
  auto& r = FnRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.fns[name] = std::move(fn);
}

const TaskFn& lookup_function(const std::string& name) {
  auto& r = FnRegistry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.fns.find(name);
  if (it == r.fns.end()) {
    throw std::out_of_range("pool: unknown task function '" + name + "'");
  }
  return it->second;
}

Value make_error(const std::string& message) {
  return Value::dict({{std::string(kErrorKey), Value(message)}});
}

bool is_error(const Value& result) {
  return result.kind() == cpy::Kind::Dict &&
         result.as_dict().count(std::string(kErrorKey)) != 0;
}

std::string error_message(const Value& result) {
  if (!is_error(result)) return {};
  return result.as_dict().at(std::string(kErrorKey)).as_str();
}

void configure(const PoolConfig& cfg) {
  PoolConfig c = cfg;
  c.chunk = std::max<std::int64_t>(0, c.chunk);
  c.max_inflight = std::max<std::int64_t>(0, c.max_inflight);
  c.quantum = std::max<std::int64_t>(1, c.quantum);
  c.result_batch = std::max<std::int64_t>(1, c.result_batch);
  c.steal_retries = std::max<std::int64_t>(0, c.steal_retries);
  g_config = c;
}

const PoolConfig& config() noexcept { return g_config; }

void configure_from_options(const cxu::Options& opt) {
  PoolConfig c = g_config;
  if (opt.has("pool-chunk")) {
    // "auto" selects guided self-scheduling; anything else must be a
    // valid integer (strict get_int throws on garbage).
    if (opt.get_string("pool-chunk", "") == "auto") {
      c.chunk = 0;
    } else {
      c.chunk = opt.get_int("pool-chunk", 0);
      if (c.chunk < 0) {
        throw std::invalid_argument("--pool-chunk must be >= 0 or 'auto'");
      }
    }
  }
  c.steal = opt.get_bool("pool-steal", c.steal);
  c.max_inflight = opt.get_int("pool-max-inflight", c.max_inflight);
  if (c.max_inflight < 0) {
    throw std::invalid_argument("--pool-max-inflight must be >= 0");
  }
  c.quantum = opt.get_int("pool-quantum", c.quantum);
  if (c.quantum < 1) {
    throw std::invalid_argument("--pool-quantum must be >= 1");
  }
  c.result_batch = opt.get_int("pool-batch", c.result_batch);
  if (c.result_batch < 1) {
    throw std::invalid_argument("--pool-batch must be >= 1");
  }
  c.beat_s = opt.get_double("pool-beat-ms", c.beat_s * 1e3) * 1e-3;
  c.steal_retries = opt.get_int("pool-steal-retries", c.steal_retries);
  if (c.steal_retries < 0) {
    throw std::invalid_argument("--pool-steal-retries must be >= 0");
  }
  configure(c);
}

Pool::Pool() {
  ensure_classes();
  master_ = cpy::create_chare("cxpool.MapManager", 0);
  // Route PE-failure detections (scripted crash, inject_kill, retransmit
  // give-up) to the master so it reclaims the dead worker's chunks.
  cpy::DElement master = master_;
  cx::ft::on_failure([master](const cx::ft::PeFailure& f) {
    master.send("peFailed",
                {Value(static_cast<std::int64_t>(f.pe))});
  });
  // After an auto-recovery round every PE is live again: let the master
  // reclaim the revived workers and re-dispatch parked jobs.
  cx::ft::on_recovery([master](std::uint64_t round) {
    master.send("recovered",
                {Value(static_cast<std::int64_t>(round))});
  });
}

cpy::Value Pool::liveness() const {
  auto f = cx::make_future<Value>();
  master_.send("liveness", {cpy::to_value(f)});
  return f.get();
}

cx::Future<cpy::Value> Pool::submit(const std::string& fn_name,
                                    int num_procs, cpy::List tasks,
                                    std::int64_t priority) const {
  auto f = cx::make_future<Value>();
  master_.send("submit", {Value(fn_name), Value(num_procs),
                          Value::list(std::move(tasks)),
                          cpy::to_value(f), Value(priority)});
  return f;
}

}  // namespace cxpool
