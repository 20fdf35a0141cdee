// pmap — the paper's §III parallel map on the cxpool task engine.
//
// 4 PEs: the master on PE 0 and workers on PEs 1-3, with reliable
// delivery and heartbeats on (cx::ft) and no faults injected. Each
// episode builds a fresh Runtime and Pool, warms up, then runs one batch
// job of kBatchTasks tiny tasks on 2 workers while a closed loop on PE 0
// submits 64-task jobs (priority 1, 1 worker) one after another until
// the batch is done. Task costs (0-1 us spins) come from the seed.
// Every result of every job is checked against f(task), in task order.

#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "pool/pool.hpp"

namespace bench {

namespace {

constexpr int kPes = 4;
constexpr int kBatchTasks = 10000;
constexpr int kBatchProcs = 2;
constexpr int kJobTasks = 64;
constexpr int kCountJobs = 40;  ///< jobs per exact-count segment
constexpr int kMinEpisodes = 3;
const char* const kFn = "bench.task";

/// Task input: (id << 10) | spin nanoseconds (0-1023).
std::int64_t task_input(std::uint64_t seed, std::int64_t id) {
  const auto cost = static_cast<std::int64_t>(
      mix(seed ^ static_cast<std::uint64_t>(id)) % 1024);
  return (id << 10) | cost;
}

/// The task function's expected result.
std::int64_t task_result(std::int64_t x) {
  return static_cast<std::int64_t>(mix(static_cast<std::uint64_t>(x)) &
                                   0x7fffffffULL);
}

cpy::List make_tasks(std::uint64_t seed, std::int64_t first, int n) {
  cpy::List tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) tasks.emplace_back(task_input(seed, first + i));
  return tasks;
}

/// Number of results that differ from f(task), in order (all when the
/// job failed or returned the wrong length).
std::uint64_t wrong_results(const cpy::Value& out, const cpy::List& tasks) {
  if (cxpool::is_error(out) || out.kind() != cpy::Kind::List ||
      out.length() != tasks.size()) {
    return tasks.size();
  }
  std::uint64_t bad = 0;
  const cpy::List& got = out.as_list();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (got[i].kind() != cpy::Kind::Int ||
        got[i].as_int() != task_result(tasks[i].as_int())) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

void run_pmap(const Args& a, Report& r) {
  cxpool::register_function(kFn, [](const cpy::Value& x) {
    const std::int64_t v = x.as_int();
    cx::compute(static_cast<double>(v & 1023) * 1e-9);
    return cpy::Value(task_result(v));
  });
  const cpy::List batch_tasks = make_tasks(a.seed, 0, kBatchTasks);

  Spans spans;
  LayerExtras x;
  Counts total, seg_a, seg_b;
  bool counted = false;
  if (a.trace) {
    kernel_spans(spans);
    threaded_probes(spans, x, r);
  }

  std::vector<double> setup, tput, job_s;
  std::int64_t next_id = kBatchTasks;
  std::uint64_t tasks_run = 0;
  const double t_end = mono_now() + a.seconds;
  for (int ep = 0; ep < kMinEpisodes || mono_now() < t_end; ++ep) {
    const bool count_here = a.trace && !counted;
    cx::RuntimeConfig cfg;
    cfg.machine.num_pes = kPes;
    cfg.seed = a.seed;
    cfg.machine.faults.reliable = true;
    cfg.machine.faults.heartbeat_s = 0.05;
    cfg.machine.faults.hb_threshold = 40.0;  // 2 s of silence
    const double t0 = mono_now();
    cx::Runtime rt(cfg);
    rt.run([&] {
      const double c0 = mono_now();
      cxpool::Pool pool;
      (void)pool.liveness();  // barrier: the master answers
      spans.add("core.create", c0, mono_now());
      auto run_job = [&](int procs, cpy::List tasks, std::int64_t prio) {
        r.attempt();
        const cpy::Value out = pool.submit(kFn, procs, tasks, prio).get();
        const std::uint64_t bad = wrong_results(out, tasks);
        if (bad > 0) {
          r.fail("pmap job: " + std::to_string(bad) + " of " +
                 std::to_string(tasks.size()) + " results wrong");
        }
        tasks_run += tasks.size();
      };
      // Warm-up: every worker, then the interactive path.
      run_job(kPes - 1, make_tasks(a.seed, next_id, 2000), 0);
      next_id += 2000;
      for (int j = 0; j < 8; ++j, next_id += kJobTasks) {
        run_job(1, make_tasks(a.seed, next_id, kJobTasks), 1);
      }
      setup.push_back(mono_now() - t0);

      const double b0 = mono_now();
      auto batch = pool.submit(kFn, kBatchProcs, batch_tasks, 0);
      while (!batch.ready()) {
        cpy::List tasks = make_tasks(a.seed, next_id, kJobTasks);
        next_id += kJobTasks;
        const double ts = mono_now();
        auto f = pool.submit(kFn, 1, tasks, 1);
        const cpy::Value out = f.get();
        job_s.push_back(mono_now() - ts);
        r.attempt();
        const std::uint64_t bad = wrong_results(out, tasks);
        if (bad > 0) {
          r.fail("pmap interactive job: " + std::to_string(bad) +
                 " of 64 results wrong");
        }
        tasks_run += kJobTasks;
      }
      const double b1 = mono_now();
      tput.push_back(kBatchTasks / (b1 - b0));
      r.attempt();
      const std::uint64_t bad = wrong_results(batch.get(), batch_tasks);
      if (bad > 0) {
        r.fail("pmap batch job: " + std::to_string(bad) + " of " +
               std::to_string(kBatchTasks) + " results wrong");
      }
      tasks_run += kBatchTasks;

      if (count_here) {
        // Interactive jobs alone: one worker, no stealing, so the
        // master's guided grants per job are fixed.
        auto segment = [&] {
          const Counts c0 = read_counts({});
          for (int j = 0; j < kCountJobs; ++j, next_id += kJobTasks) {
            run_job(1, make_tasks(a.seed, next_id, kJobTasks), 1);
          }
          return counts_minus(read_counts({}), c0);
        };
        seg_a = segment();
        seg_b = segment();
      }
      cx::exit();
    });
    if (a.trace) {
      // Whole-episode counters: the Runtime is gone, so they are final.
      total = counts_plus(total,
                          read_counts(Snap::of(cx::trace::aggregate())));
      x.wall_s += mono_now() - t0;
    }
    counted = counted || count_here;
  }

  r.series("setup_s", setup);
  r.series("op_s", job_s);         // seconds per 64-task job
  r.series("work_per_s", tput);    // batch tasks per second, per episode
  r.metric("peak_rss_MB", peak_rss_mb());

  if (a.trace) {
    x.ops = static_cast<double>(tasks_run);
    x.pes = kPes;
    x.grants_per_ktask = 1000.0 * static_cast<double>(seg_a.pool.grants) /
                         (kCountJobs * kJobTasks);
    x.count_mismatches = compare_exact("pmap", seg_a, seg_b, {"pool_grants"});
    emit_layers(r, spans, total, x);
    spans.dump(a.spans_out);
  }
}

}  // namespace bench
