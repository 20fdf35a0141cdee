// The paper's §III distributed parallel map: master-worker, dynamic task
// handout, multiple concurrent asynchronous jobs.

#include "pool/pool.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "trace/trace.hpp"
#include "util/options.hpp"

namespace {

using namespace cpy;
using cxpool::Pool;
using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

struct Functions {
  Functions() {
    cxpool::register_function("square", [](const Value& x) {
      return Value(x.as_int() * x.as_int());
    });
    cxpool::register_function("neg", [](const Value& x) {
      return Value(-x.as_int());
    });
    cxpool::register_function("slow_square", [](const Value& x) {
      // Uneven task costs: higher inputs cost more (dynamic handout
      // must still produce ordered results).
      cx::compute(1e-5 * static_cast<double>(x.as_int()));
      return Value(x.as_int() * x.as_int());
    });
    cxpool::register_function("strlen", [](const Value& x) {
      return Value(static_cast<std::int64_t>(x.as_str().size()));
    });
  }
};
const Functions functions;

List ints(std::initializer_list<int> xs) {
  List l;
  for (int x : xs) l.emplace_back(x);
  return l;
}

TEST(Pool, PaperExampleTwoConcurrentJobs) {
  run_program(threaded_cfg(4), [] {
    Pool pool;
    // Paper §III: two jobs launched at the same time, each on 2 procs.
    auto f1 = pool.map_async("square", 2, ints({1, 2, 3, 4, 5}));
    auto f2 = pool.map_async("square", 2, ints({1, 3, 5, 7, 9}));
    const Value r1 = f1.get();
    const Value r2 = f2.get();
    ASSERT_EQ(r1.length(), 5u);
    ASSERT_EQ(r2.length(), 5u);
    const std::int64_t exp1[] = {1, 4, 9, 16, 25};
    const std::int64_t exp2[] = {1, 9, 25, 49, 81};
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(r1.item(Value(i)).as_int(), exp1[i]);
      EXPECT_EQ(r2.item(Value(i)).as_int(), exp2[i]);
    }
    cx::exit();
  });
}

TEST(Pool, ResultsKeepTaskOrderDespiteUnevenCosts) {
  run_program(threaded_cfg(4), [] {
    Pool pool;
    List tasks;
    for (int i = 20; i >= 1; --i) tasks.emplace_back(i);
    const Value r = pool.map("slow_square", 3, std::move(tasks));
    ASSERT_EQ(r.length(), 20u);
    for (int i = 0; i < 20; ++i) {
      const std::int64_t x = 20 - i;
      EXPECT_EQ(r.item(Value(i)).as_int(), x * x);
    }
    cx::exit();
  });
}

TEST(Pool, MoreTasksThanProcs) {
  run_program(threaded_cfg(2), [] {
    Pool pool;
    List tasks;
    for (int i = 0; i < 50; ++i) tasks.emplace_back(i);
    const Value r = pool.map("square", 1, std::move(tasks));
    ASSERT_EQ(r.length(), 50u);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(r.item(Value(i)).as_int(),
                static_cast<std::int64_t>(i) * i);
    }
    cx::exit();
  });
}

TEST(Pool, SinglePeSharesMasterAndWorker) {
  run_program(threaded_cfg(1), [] {
    Pool pool;
    const Value r = pool.map("square", 1, ints({2, 3}));
    EXPECT_EQ(r.item(Value(0)).as_int(), 4);
    EXPECT_EQ(r.item(Value(1)).as_int(), 9);
    cx::exit();
  });
}

TEST(Pool, OverRequestedProcsAreClamped) {
  run_program(threaded_cfg(2), [] {
    Pool pool;
    const Value r = pool.map("square", 64, ints({1, 2, 3}));
    ASSERT_EQ(r.length(), 3u);
    cx::exit();
  });
}

TEST(Pool, ProcessorsAreReusedAcrossSequentialJobs) {
  run_program(threaded_cfg(3), [] {
    Pool pool;
    for (int round = 0; round < 5; ++round) {
      const Value r = pool.map("neg", 2, ints({round, round + 1}));
      EXPECT_EQ(r.item(Value(0)).as_int(), -round);
      EXPECT_EQ(r.item(Value(1)).as_int(), -(round + 1));
    }
    cx::exit();
  });
}

TEST(Pool, NonNumericTasks) {
  run_program(threaded_cfg(2), [] {
    Pool pool;
    const Value r =
        pool.map("strlen", 1, {Value("a"), Value("abc"), Value("")});
    EXPECT_EQ(r.item(Value(0)).as_int(), 1);
    EXPECT_EQ(r.item(Value(1)).as_int(), 3);
    EXPECT_EQ(r.item(Value(2)).as_int(), 0);
    cx::exit();
  });
}

TEST(Pool, ManyConcurrentJobs) {
  run_program(threaded_cfg(4), [] {
    Pool pool;
    std::vector<cx::Future<Value>> futures;
    for (int j = 0; j < 3; ++j) {
      futures.push_back(pool.map_async("square", 1, ints({j, j + 1})));
    }
    for (int j = 0; j < 3; ++j) {
      const Value r = futures[static_cast<std::size_t>(j)].get();
      EXPECT_EQ(r.item(Value(0)).as_int(),
                static_cast<std::int64_t>(j) * j);
    }
    cx::exit();
  });
}

TEST(Pool, SaturatedPoolQueuesJobsInsteadOfDeadlocking) {
  // Regression: N concurrent jobs whose combined numProcs exceed the
  // free PE set. The old selection loop granted zero processors to the
  // overflow jobs, so their futures never resolved (deadlock). Jobs must
  // queue and run as processors free up.
  run_program(threaded_cfg(3), [] {  // 2 free workers (PE 0 = master)
    Pool pool;
    std::vector<cx::Future<Value>> futures;
    for (int j = 0; j < 8; ++j) {
      futures.push_back(
          pool.map_async("square", 2, ints({j, j + 1, j + 2})));
    }
    for (int j = 0; j < 8; ++j) {
      const Value r = futures[static_cast<std::size_t>(j)].get();
      ASSERT_EQ(r.length(), 3u) << "job " << j;
      for (int i = 0; i < 3; ++i) {
        const std::int64_t x = j + i;
        EXPECT_EQ(r.item(Value(i)).as_int(), x * x) << "job " << j;
      }
    }
    cx::exit();
  });
}

TEST(Pool, NumProcsLargerThanPeSet) {
  run_program(threaded_cfg(2), [] {
    Pool pool;
    const Value r = pool.map("square", 1000, ints({1, 2, 3, 4}));
    ASSERT_EQ(r.length(), 4u);
    for (int i = 0; i < 4; ++i) {
      const std::int64_t x = i + 1;
      EXPECT_EQ(r.item(Value(i)).as_int(), x * x);
    }
    cx::exit();
  });
}

TEST(Pool, NonPositiveNumProcsRunsOnOneWorker) {
  run_program(threaded_cfg(3), [] {
    Pool pool;
    const Value r0 = pool.map("square", 0, ints({2, 3}));
    EXPECT_EQ(r0.item(Value(0)).as_int(), 4);
    EXPECT_EQ(r0.item(Value(1)).as_int(), 9);
    const Value rn = pool.map("square", -5, ints({4}));
    EXPECT_EQ(rn.item(Value(0)).as_int(), 16);
    cx::exit();
  });
}

TEST(Pool, EmptyTaskListResolvesImmediately) {
  run_program(threaded_cfg(2), [] {
    Pool pool;
    const Value r = pool.map("square", 1, {});
    EXPECT_EQ(r.length(), 0u);
    cx::exit();
  });
}

TEST(Pool, UnknownFunctionFailsTheJobNotTheRun) {
  // Regression: an unregistered function name used to throw
  // std::out_of_range inside Worker.apply and kill the whole run. It
  // must fail only that job, through the job's own future.
  run_program(threaded_cfg(3), [] {
    Pool pool;
    auto bad = pool.map_async("no_such_function", 1, ints({1, 2, 3}));
    const Value err = bad.get();
    ASSERT_TRUE(cxpool::is_error(err));
    EXPECT_NE(cxpool::error_message(err).find("unknown task function"),
              std::string::npos);
    // The pool stays usable: the failed job released its processors.
    const Value ok = pool.map("square", 2, ints({5, 6}));
    EXPECT_EQ(ok.item(Value(0)).as_int(), 25);
    EXPECT_EQ(ok.item(Value(1)).as_int(), 36);
    cx::exit();
  });
}

TEST(Pool, ThrowingTaskFunctionFailsTheJob) {
  cxpool::register_function("explode", [](const Value&) -> Value {
    throw std::runtime_error("task exploded");
  });
  run_program(threaded_cfg(2), [] {
    Pool pool;
    const Value err = pool.map("explode", 1, ints({1}));
    ASSERT_TRUE(cxpool::is_error(err));
    EXPECT_NE(cxpool::error_message(err).find("task exploded"),
              std::string::npos);
    cx::exit();
  });
}

TEST(Pool, SaturationOnSimBackend) {
  run_program(sim_cfg(4), [] {
    Pool pool;
    std::vector<cx::Future<Value>> futures;
    for (int j = 0; j < 5; ++j) {
      futures.push_back(pool.map_async("neg", 3, ints({j, j + 1})));
    }
    for (int j = 0; j < 5; ++j) {
      const Value r = futures[static_cast<std::size_t>(j)].get();
      EXPECT_EQ(r.item(Value(0)).as_int(), -j);
      EXPECT_EQ(r.item(Value(1)).as_int(), -(j + 1));
    }
    cx::exit();
  });
}

TEST(Pool, WorksOnSimBackend) {
  run_program(sim_cfg(8), [] {
    Pool pool;
    List tasks;
    for (int i = 0; i < 30; ++i) tasks.emplace_back(i);
    const Value r = pool.map("square", 7, std::move(tasks));
    ASSERT_EQ(r.length(), 30u);
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(r.item(Value(i)).as_int(),
                static_cast<std::int64_t>(i) * i);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Task engine: chunked grants, stealing, priorities, backpressure.

/// Restore the process-global pool configuration after each test (the
/// whole suite shares one binary).
struct PoolConfigGuard {
  cxpool::PoolConfig saved = cxpool::config();
  ~PoolConfigGuard() { cxpool::configure(saved); }
};

List iota(int n) {
  List l;
  for (int i = 0; i < n; ++i) l.emplace_back(i);
  return l;
}

TEST(PoolEngine, ChunkedGrantsCollapseMasterTraffic) {
  PoolConfigGuard guard;
  cxpool::configure(cxpool::PoolConfig{});  // defaults: guided chunks
  const int n = 2000;
  run_program(sim_cfg(8), [n] {
    Pool pool;
    const Value r = pool.map("square", 7, iota(n));
    ASSERT_EQ(r.length(), static_cast<std::uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(r.item(Value(i)).as_int(),
                static_cast<std::int64_t>(i) * i);
    }
    cx::exit();
  });
  const cx::trace::PoolStats s = cx::trace::pool_stats();
  // Every task is granted exactly once (no failures, and steals move
  // already-granted work without re-granting it)...
  EXPECT_EQ(s.granted_tasks, static_cast<std::uint64_t>(n));
  // ...in far fewer master round trips than the per-task protocol's n.
  EXPECT_LT(s.grants, static_cast<std::uint64_t>(n) / 10);
  EXPECT_GT(s.mean_chunk(), 10.0);
  EXPECT_LT(s.result_batches, static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.tasks_done, static_cast<std::uint64_t>(n));
}

TEST(PoolEngine, OneWorkerJobIsGrantedWhole) {
  // With one worker there is no tail to balance, so guided grants give
  // it all 64 tasks at once (64 < kMaxAutoChunk). It drains them in
  // quanta of 16 and, with the 256-result batch never filling, returns
  // them in the one batch it sends on running dry: 1 grant, 1 batch.
  PoolConfigGuard guard;
  cxpool::configure(cxpool::PoolConfig{});
  const int n = 64;
  for (const bool sim : {true, false}) {
    run_program(sim ? sim_cfg(4) : threaded_cfg(4), [n] {
      Pool pool;
      const Value r = pool.map("square", 1, iota(n));
      ASSERT_EQ(r.length(), static_cast<std::uint64_t>(n));
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(r.item(Value(i)).as_int(),
                  static_cast<std::int64_t>(i) * i);
      }
      cx::exit();
    });
    const cx::trace::PoolStats s = cx::trace::pool_stats();
    EXPECT_EQ(s.grants, 1u) << (sim ? "sim" : "threaded");
    EXPECT_EQ(s.granted_tasks, static_cast<std::uint64_t>(n));
    EXPECT_EQ(s.result_batches, 1u) << (sim ? "sim" : "threaded");
    EXPECT_EQ(s.tasks_done, static_cast<std::uint64_t>(n));
  }
}

TEST(PoolEngine, StealingFiresOnSkewedCosts) {
  cxpool::register_function("pool_skew", [](const Value& x) {
    // The first quarter of the ids cost 5x: a contiguous-chunk split
    // leaves the low-range holder straggling and forces steals.
    cx::compute(x.as_int() < 1000 ? 5e-6 : 1e-6);
    return Value(x.as_int() + 7);
  });
  PoolConfigGuard guard;
  cxpool::configure(cxpool::PoolConfig{});
  const int n = 4000;
  run_program(sim_cfg(8), [n] {
    Pool pool;
    const Value r = pool.map("pool_skew", 7, iota(n));
    ASSERT_EQ(r.length(), static_cast<std::uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(r.item(Value(i)).as_int(), i + 7);
    }
    cx::exit();
  });
  const cx::trace::PoolStats s = cx::trace::pool_stats();
  EXPECT_GT(s.steal_attempts, 0u);
  EXPECT_GT(s.steal_hits, 0u);
  EXPECT_GT(s.stolen_tasks, 0u);
}

TEST(PoolEngine, PriorityOrdersQueuedJobs) {
  cxpool::register_function("pool_tick", [](const Value& x) {
    cx::compute(1e-3);
    return x;
  });
  PoolConfigGuard guard;
  cxpool::configure(cxpool::PoolConfig{});
  run_program(sim_cfg(2), [] {  // one worker: jobs run strictly serially
    Pool pool;
    // Job 0 occupies the worker; jobs 1 (low) and 2 (high) queue behind
    // it. The high-priority job must start (and finish) first even
    // though it was submitted last.
    auto f0 = pool.submit("pool_tick", 1, iota(5), 0);
    auto f1 = pool.submit("pool_tick", 1, iota(5), 0);
    auto f2 = pool.submit("pool_tick", 1, iota(5), 5);
    ASSERT_EQ(f0.get().length(), 5u);
    ASSERT_EQ(f1.get().length(), 5u);
    ASSERT_EQ(f2.get().length(), 5u);
    cx::exit();
  });
  const auto recs = cx::trace::pool_job_records();
  ASSERT_EQ(recs.size(), 3u);
  double start1 = -1.0, start2 = -1.0;
  for (const auto& r : recs) {
    if (r.job_id == 1) start1 = r.start_t;
    if (r.job_id == 2) start2 = r.start_t;
  }
  ASSERT_GE(start1, 0.0);
  ASSERT_GE(start2, 0.0);
  EXPECT_LT(start2, start1) << "high-priority job must start first";
}

TEST(PoolEngine, BackpressureBoundsInflightTasks) {
  PoolConfigGuard guard;
  cxpool::PoolConfig pc;
  pc.max_inflight = 8;  // per-job outstanding-task budget
  cxpool::configure(pc);
  const int n = 500;
  run_program(sim_cfg(4), [n] {
    Pool pool;
    const Value r = pool.map("square", 3, iota(n));
    ASSERT_EQ(r.length(), static_cast<std::uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(r.item(Value(i)).as_int(),
                static_cast<std::int64_t>(i) * i);
    }
    cx::exit();
  });
  const cx::trace::PoolStats s = cx::trace::pool_stats();
  // No grant may exceed the budget, and with 500 tasks through an
  // 8-task window the clamp must have engaged.
  EXPECT_LE(s.max_chunk, 8u);
  EXPECT_GT(s.inflight_clamps, 0u);
  EXPECT_EQ(s.tasks_done, static_cast<std::uint64_t>(n));
}

cxu::Options parse_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return cxu::Options(static_cast<int>(argv.size()), argv.data());
}

TEST(PoolEngine, FlagsValidateStrictly) {
  PoolConfigGuard guard;
  cxpool::configure_from_options(
      parse_flags({"--pool-chunk", "64", "--pool-max-inflight", "256",
                   "--pool-quantum", "4", "--pool-batch", "32",
                   "--pool-beat-ms", "12.5", "--pool-steal", "off",
                   "--pool-steal-retries", "3"}));
  EXPECT_EQ(cxpool::config().chunk, 64);
  EXPECT_EQ(cxpool::config().max_inflight, 256);
  EXPECT_EQ(cxpool::config().quantum, 4);
  EXPECT_EQ(cxpool::config().result_batch, 32);
  EXPECT_NEAR(cxpool::config().beat_s, 0.0125, 1e-9);
  EXPECT_FALSE(cxpool::config().steal);
  EXPECT_EQ(cxpool::config().steal_retries, 3);

  // "auto" re-enables guided self-scheduling.
  cxpool::configure_from_options(parse_flags({"--pool-chunk", "auto"}));
  EXPECT_EQ(cxpool::config().chunk, 0);

  // Malformed or out-of-range values throw instead of being swallowed.
  EXPECT_ANY_THROW(cxpool::configure_from_options(
      parse_flags({"--pool-chunk", "banana"})));
  EXPECT_ANY_THROW(cxpool::configure_from_options(
      parse_flags({"--pool-chunk", "-4"})));
  EXPECT_ANY_THROW(cxpool::configure_from_options(
      parse_flags({"--pool-quantum", "0"})));
  EXPECT_ANY_THROW(cxpool::configure_from_options(
      parse_flags({"--pool-batch", "0"})));
  EXPECT_ANY_THROW(cxpool::configure_from_options(
      parse_flags({"--pool-max-inflight", "-1"})));
  EXPECT_ANY_THROW(cxpool::configure_from_options(
      parse_flags({"--pool-beat-ms", "soon"})));
}

}  // namespace
