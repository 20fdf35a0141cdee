// cx::trace — events recorded in order, counters matching a known
// message pattern, and a disabled mode that records nothing.

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "core/charm.hpp"
#include "model/cpy.hpp"
#include "test_helpers.hpp"

namespace {

using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;
namespace trace = cx::trace;

struct Echo : cx::Chare {
  int count = 0;
  void hit(int delta) { count += delta; }
  int get() { return count; }
};

/// Enable tracing for the duration of one test.
struct TraceOn {
  explicit TraceOn(std::size_t buffer = 1u << 14) {
    trace::Config cfg;
    cfg.enabled = true;
    cfg.buffer_events = buffer;
    trace::configure(cfg);
  }
  ~TraceOn() { trace::reset(); }
};

TEST(Trace, DisabledModeRecordsNothing) {
  trace::reset();
  ASSERT_FALSE(trace::enabled());
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 10; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 10) {
    }
    cx::exit();
  });
  EXPECT_EQ(trace::total_events(), 0u);
  EXPECT_EQ(trace::traced_pes(), 0);
  const trace::Counters total = trace::aggregate();
  EXPECT_EQ(total.msgs_sent, 0u);
  EXPECT_EQ(total.entries, 0u);
}

TEST(Trace, CountsKnownMessagePattern) {
  TraceOn on;
  constexpr int kMessages = 50;
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    (void)echo.call<&Echo::get>().get();  // ensure created
    for (int i = 0; i < kMessages; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < kMessages) {
    }
    cx::exit();
  });
  ASSERT_EQ(trace::traced_pes(), 2);
  const trace::Counters total = trace::aggregate();
  // The kMessages cross-PE hits plus runtime control traffic.
  EXPECT_GE(total.msgs_sent, static_cast<std::uint64_t>(kMessages));
  EXPECT_GE(total.msgs_recv, static_cast<std::uint64_t>(kMessages));
  // Each hit plus each get executes an entry method.
  EXPECT_GE(total.entries, static_cast<std::uint64_t>(kMessages));
  EXPECT_GT(total.entry_time, 0.0);
  // All hit/get deliveries land on PE 1 where the chare lives.
  EXPECT_GE(trace::counters(1).entries,
            static_cast<std::uint64_t>(kMessages));
  std::uint64_t hist_total = 0;
  for (int i = 0; i < trace::kHistBuckets; ++i) {
    hist_total += total.entry_hist[i];
  }
  EXPECT_EQ(hist_total, total.entries);
}

TEST(Trace, EventsAreChronologicalPerPe) {
  TraceOn on;
  run_program(sim_cfg(4), [] {
    auto echo = cx::create_chare<Echo>(2);
    for (int i = 0; i < 30; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 30) {
    }
    cx::exit();
  });
  ASSERT_EQ(trace::traced_pes(), 4);
  EXPECT_TRUE(trace::traced_run_was_simulated());
  std::uint64_t seen = 0;
  for (int pe = 0; pe < 4; ++pe) {
    const auto evs = trace::events(pe);
    seen += evs.size();
    for (std::size_t i = 1; i < evs.size(); ++i) {
      EXPECT_LE(evs[i - 1].time, evs[i].time)
          << "pe " << pe << " event " << i;
    }
  }
  EXPECT_GT(seen, 0u);
}

TEST(Trace, SimSendsMatchReceives) {
  // The simulator drains its event queue completely, so every recorded
  // send must be matched by exactly one receive, byte for byte.
  TraceOn on;
  run_program(sim_cfg(3), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 20; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 20) {
    }
    cx::exit();
  });
  const trace::Counters total = trace::aggregate();
  // Bootstrap messages enter from outside any PE (not recorded as sends),
  // so receives can exceed sends by those externals but never trail them.
  EXPECT_GE(total.msgs_recv, total.msgs_sent);
  EXPECT_LE(total.msgs_recv - total.msgs_sent, 2u);
  EXPECT_GE(total.bytes_recv, total.bytes_sent);
}

TEST(Trace, RecordsMessageEntryAndIdleEvents) {
  TraceOn on;
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 5; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 5) {
    }
    cx::exit();
  });
  bool saw_send = false, saw_recv = false, saw_entry = false;
  for (int pe = 0; pe < trace::traced_pes(); ++pe) {
    for (const auto& ev : trace::events(pe)) {
      saw_send |= ev.kind == trace::EventKind::MsgSend;
      saw_recv |= ev.kind == trace::EventKind::MsgRecv;
      saw_entry |= ev.kind == trace::EventKind::EntryBegin;
    }
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_entry);
  // The main thread blocks on futures while PE threads idle-wait, so
  // idle spans must show up on the threaded backend.
  EXPECT_GT(trace::aggregate().idle_spans, 0u);
}

TEST(Trace, MsgSendPayloadsCarryBytes) {
  TraceOn on;
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 1) {
    }
    cx::exit();
  });
  std::uint64_t send_bytes = 0;
  for (int pe = 0; pe < trace::traced_pes(); ++pe) {
    for (const auto& ev : trace::events(pe)) {
      if (ev.kind == trace::EventKind::MsgSend) send_bytes += ev.b;
    }
  }
  EXPECT_EQ(send_bytes, trace::aggregate().bytes_sent);
  EXPECT_GT(send_bytes, 0u);
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  TraceOn on(/*buffer=*/8);
  run_program(sim_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 100; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 100) {
    }
    cx::exit();
  });
  const auto evs = trace::events(1);
  EXPECT_LE(evs.size(), 8u);
  EXPECT_GT(trace::counters(1).dropped_events, 0u);
  // Retained events are still chronological (the newest window).
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_LE(evs[i - 1].time, evs[i].time);
  }
}

TEST(Trace, SummaryMarksPesOfOtherRanks) {
  // Rank 1 of a 2 x 2 cxrun job: PEs 2 and 3 run here, 0 and 1 in the
  // other rank, whose events this process never sees.
  TraceOn on;
  trace::begin_run(4, /*simulated=*/false, /*first_local=*/2,
                   /*num_local=*/2);
  trace::record(2, 0.0, trace::EventKind::MsgSend, 1, 64);
  const std::string summary = trace::summary_table();
  EXPECT_NE(summary.find("PEs 2..3 run in this process"), std::string::npos)
      << summary;
  std::size_t marks = 0;
  for (std::size_t at = summary.find("not traced on this rank");
       at != std::string::npos;
       at = summary.find("not traced on this rank", at + 1)) {
    ++marks;
  }
  EXPECT_EQ(marks, 2u) << summary;
  EXPECT_EQ(trace::counters(2).msgs_sent, 1u);
}

TEST(Trace, PoolJobRecordsKeepTheNewestAndCountDrops) {
  TraceOn on;
  trace::reset_pool_stats();
  const std::size_t extra = 6;
  for (std::size_t i = 0; i < trace::kPoolJobRecordCap + extra; ++i) {
    trace::PoolJobRecord r;
    r.job_id = i;
    r.tasks = 1;
    trace::pool_job_note(r);
  }
  const auto recs = trace::pool_job_records();
  ASSERT_EQ(recs.size(), trace::kPoolJobRecordCap);
  EXPECT_EQ(recs.front().job_id, extra);
  EXPECT_EQ(recs.back().job_id, trace::kPoolJobRecordCap + extra - 1);
  EXPECT_EQ(trace::pool_job_records_dropped(), extra);
  // The summary lists pool jobs only once the pool has counted work.
  trace::detail::g_pool.grants.fetch_add(1);
  const std::string summary = trace::summary_table();
  EXPECT_NE(summary.find("(6 older job records dropped; the last 1024 are "
                         "kept)"),
            std::string::npos);
  std::ostringstream os;
  trace::write_json(os);
  EXPECT_NE(os.str().find("\"jobs_dropped\":6,"), std::string::npos);
  trace::reset_pool_stats();
  EXPECT_TRUE(trace::pool_job_records().empty());
  EXPECT_EQ(trace::pool_job_records_dropped(), 0u);
}

TEST(Trace, JsonTimelineIsWellFormed) {
  TraceOn on;
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    for (int i = 0; i < 3; ++i) echo.send<&Echo::hit>(1);
    while (echo.call<&Echo::get>().get() < 3) {
    }
    cx::exit();
  });
  std::ostringstream os;
  trace::write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"simulated\":false"), std::string::npos);
  EXPECT_NE(json.find("\"num_pes\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"msg_send\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"entry_begin\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity check.
  long braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_str = !in_str;
    if (in_str) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // And the summary table renders.
  const std::string summary = trace::summary_table();
  EXPECT_NE(summary.find("msgs sent"), std::string::npos);
}

TEST(Trace, DynamicDispatchAndPoolEventsAreRecorded) {
  static const bool registered = [] {
    cpy::DClass cls("tr.Echo");
    cls.def("__init__", {}, [](cpy::DChare& self, cpy::Args&) {
      self["n"] = cpy::Value(0);
      return cpy::Value::none();
    });
    cls.def("bump", {}, [](cpy::DChare& self, cpy::Args&) {
      self["n"] = cpy::Value(self["n"].as_int() + 1);
      return cpy::Value::none();
    });
    cls.def("get", {}, [](cpy::DChare& self, cpy::Args&) {
      return self["n"];
    });
    return true;
  }();
  (void)registered;
  TraceOn on;
  run_program(threaded_cfg(2), [] {
    auto dyn = cpy::create_chare("tr.Echo", 1);
    for (int i = 0; i < 4; ++i) dyn.send("bump", {});
    while (dyn.call("get").get().as_int() < 4) {
    }
    cx::exit();
  });
  EXPECT_GE(trace::aggregate().dyn_dispatches, 4u);
}

// ---- per-thread counter slots -----------------------------------------------

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Count `n` envelopes and 2n when-tests on the calling thread's slot.
void count_on_this_thread(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    trace::detail::wire_local().envelopes.fetch_add(1, kRelaxed);
    trace::detail::when_local().tests.fetch_add(2, kRelaxed);
  }
}

void spin_until(const std::atomic<int>& v, int want) {
  while (v.load() < want) std::this_thread::yield();
}

TEST(CounterSlots, TotalsAreExactAcrossLiveAndExitedThreads) {
  trace::reset_wire_stats();
  trace::reset_when_stats();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAdds = 10'000;
  std::atomic<int> counted{0};
  std::atomic<int> release{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      count_on_this_thread(kAdds);
      trace::detail::when_local().raise_high_water(100 + t);
      counted.fetch_add(1);
      if (t % 2 == 1) spin_until(release, 1);  // odd threads stay alive
    });
  }
  spin_until(counted, kThreads);
  threads[0].join();
  threads[2].join();
  // Two slots live, two folded into the retired total.
  EXPECT_EQ(trace::wire_stats().envelopes, kThreads * kAdds);
  EXPECT_EQ(trace::when_stats().tests, 2 * kThreads * kAdds);
  EXPECT_EQ(trace::when_stats().high_water, 100u + kThreads - 1);
  release.store(1);
  threads[1].join();
  threads[3].join();
  EXPECT_EQ(trace::wire_stats().envelopes, kThreads * kAdds);
  EXPECT_EQ(trace::when_stats().tests, 2 * kThreads * kAdds);
  EXPECT_EQ(trace::when_stats().high_water, 100u + kThreads - 1);
}

TEST(CounterSlots, ResetZeroesEverySlot) {
  constexpr int kThreads = 4;
  std::atomic<int> counted{0};
  std::atomic<int> phase{0};
  std::vector<std::thread> threads;
  std::thread exited([] {
    count_on_this_thread(5);
    trace::detail::when_local().raise_high_water(9);
  });
  exited.join();  // its counts sit in the retired total
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      count_on_this_thread(5);
      trace::detail::when_local().raise_high_water(7);
      counted.fetch_add(1);
      spin_until(phase, 1);
      count_on_this_thread(3);
      counted.fetch_add(1);
    });
  }
  spin_until(counted, kThreads);
  trace::reset_wire_stats();
  trace::reset_when_stats();
  EXPECT_EQ(trace::wire_stats().envelopes, 0u);
  EXPECT_EQ(trace::when_stats().tests, 0u);
  EXPECT_EQ(trace::when_stats().high_water, 0u);
  phase.store(1);
  spin_until(counted, 2 * kThreads);
  EXPECT_EQ(trace::wire_stats().envelopes, 3u * kThreads);
  EXPECT_EQ(trace::when_stats().tests, 6u * kThreads);
  EXPECT_EQ(trace::when_stats().high_water, 0u);
  for (auto& t : threads) t.join();
}

TEST(CounterSlots, RuntimeCyclesReuseExitedThreadsSlots) {
  const auto cycle = [] {
    run_program(threaded_cfg(4), [] {
      auto echo = cx::create_chare<Echo>(3);
      (void)echo.call<&Echo::get>().get();
      cx::exit();
    });
  };
  cycle();
  const std::size_t slots = trace::detail::counter_slots();
  for (int i = 0; i < 200; ++i) cycle();
  // Each run's PE threads hand their slots back when they exit, so the
  // next run's threads reuse them.
  EXPECT_LE(trace::detail::counter_slots(), slots);
  EXPECT_GT(trace::wire_stats().envelopes, 0u);
}

}  // namespace
