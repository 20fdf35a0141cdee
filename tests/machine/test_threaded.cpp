#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "liveness_cases.hpp"
#include "machine/machine.hpp"
#include "pup/pup.hpp"
#include "trace/trace.hpp"

namespace {

using namespace cxm;

MachineConfig threaded(int pes) {
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.backend = Backend::Threaded;
  return cfg;
}

TEST(ThreadedMachine, DeliversToAllPEs) {
  auto m = make_machine(threaded(4));
  std::atomic<int> hits{0};
  std::atomic<int> pe_mask{0};
  const auto h = m->register_handler([&](MessagePtr) {
    hits.fetch_add(1);
    pe_mask.fetch_or(1 << m->current_pe());
    if (hits.load() == 4) m->stop();
  });
  for (int pe = 0; pe < 4; ++pe) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = pe;
    m->send(std::move(msg));
  }
  m->run();
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(pe_mask.load(), 0b1111);
}

TEST(ThreadedMachine, PingPongAcrossPEs) {
  auto m = make_machine(threaded(2));
  std::atomic<int> rounds{0};
  std::uint32_t h = 0;
  h = m->register_handler([&](MessagePtr msg) {
    int count = pup::from_bytes<int>(msg->data);
    if (count >= 10) {
      m->stop();
      return;
    }
    ++count;
    rounds.fetch_add(1);
    auto reply = std::make_unique<Message>();
    reply->handler = h;
    reply->dst_pe = 1 - m->current_pe();
    reply->data = pup::to_bytes(count);
    m->send(std::move(reply));
  });
  auto first = std::make_unique<Message>();
  first->handler = h;
  first->dst_pe = 0;
  int zero = 0;
  first->data = pup::to_bytes(zero);
  m->send(std::move(first));
  m->run();
  EXPECT_EQ(rounds.load(), 10);
}

TEST(ThreadedMachine, PayloadsArriveIntact) {
  auto m = make_machine(threaded(2));
  std::vector<double> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<double>(i) * 0.25;
  }
  std::vector<double> received;
  const auto h = m->register_handler([&](MessagePtr msg) {
    received = pup::from_bytes<std::vector<double>>(msg->data);
    m->stop();
  });
  auto msg = std::make_unique<Message>();
  msg->handler = h;
  msg->dst_pe = 1;
  msg->data = pup::to_bytes(payload);
  m->send(std::move(msg));
  m->run();
  EXPECT_EQ(received, payload);
}

TEST(ThreadedMachine, LocalReferencePayload) {
  auto m = make_machine(threaded(1));
  std::vector<int> got;
  const auto h = m->register_handler([&](MessagePtr msg) {
    auto* p = static_cast<std::vector<int>*>(msg->take_local());
    got = *p;
    delete p;
    m->stop();
  });
  auto msg = std::make_unique<Message>();
  msg->handler = h;
  msg->dst_pe = 0;
  msg->local = new std::vector<int>{1, 2, 3};
  msg->local_drop = +[](void* p) noexcept {
    delete static_cast<std::vector<int>*>(p);
  };
  msg->local_size = 3 * sizeof(int);
  EXPECT_EQ(msg->wire_size(), 12u);
  m->send(std::move(msg));
  m->run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadedMachine, FifoOrderPerSourceDestinationPair) {
  auto m = make_machine(threaded(2));
  std::vector<int> order;
  std::uint32_t send_h = 0, recv_h = 0;
  recv_h = m->register_handler([&](MessagePtr msg) {
    order.push_back(pup::from_bytes<int>(msg->data));
    if (order.size() == 20) m->stop();
  });
  send_h = m->register_handler([&](MessagePtr) {
    for (int i = 0; i < 20; ++i) {
      auto out = std::make_unique<Message>();
      out->handler = recv_h;
      out->dst_pe = 1;
      out->data = pup::to_bytes(i);
      m->send(std::move(out));
    }
  });
  auto kick = std::make_unique<Message>();
  kick->handler = send_h;
  kick->dst_pe = 0;
  m->send(std::move(kick));
  m->run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadedMachine, BadDestinationThrows) {
  auto m = make_machine(threaded(2));
  auto msg = std::make_unique<Message>();
  msg->dst_pe = 5;
  EXPECT_THROW(m->send(std::move(msg)), std::out_of_range);
}

TEST(ThreadedMachine, SinglePe) {
  auto m = make_machine(threaded(1));
  int runs = 0;
  const auto h = m->register_handler([&](MessagePtr) {
    if (++runs == 3) m->stop();
  });
  for (int i = 0; i < 3; ++i) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = 0;
    m->send(std::move(msg));
  }
  m->run();
  EXPECT_EQ(runs, 3);
}

TEST(ThreadedMachine, FaultScriptIsRefused) {
  // Scripted crash/hang at a time is a simulator feature; a threaded
  // run must not silently run fault-free instead.
  MachineConfig cfg = threaded(4);
  cfg.faults.script = {{2, 5.0e-5, cx::ft::FailureKind::Crashed}};
  try {
    (void)make_machine(cfg);
    FAIL() << "a fault script on the threaded backend was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--backend sim"), std::string::npos) << what;
    EXPECT_NE(what.find("inject_kill"), std::string::npos) << what;
    EXPECT_NE(what.find("inject_hang"), std::string::npos) << what;
  }
}

/// Sets the CXRUN_* geometry of a one-rank job for one test and clears
/// it afterwards, so later tests in this binary stay single-process.
struct CxrunEnv {
  explicit CxrunEnv(const char* root) {
    ::setenv("CXRUN_RANK", "0", 1);
    ::setenv("CXRUN_NRANKS", "1", 1);
    ::setenv("CXRUN_PPN", "1", 1);
    ::setenv("CXRUN_ROOT", root, 1);
  }
  ~CxrunEnv() {
    for (const char* v :
         {"CXRUN_RANK", "CXRUN_NRANKS", "CXRUN_PPN", "CXRUN_ROOT"}) {
      ::unsetenv(v);
    }
  }
};

TEST(ThreadedMachine, MalformedCxrunRootIsRejected) {
  for (const char* root : {"host:70000", "host:65536", "host:12abc",
                           "host:0", "host:-1", "host:+80", "host: 80",
                           "host:99999999999"}) {
    CxrunEnv env(root);
    MachineConfig cfg;
    try {
      apply_socket_env(cfg);
      ADD_FAILURE() << "CXRUN_ROOT=" << root << " was accepted (port "
                    << cfg.socket.root_port << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("CXRUN_ROOT"), std::string::npos)
          << e.what();
    }
  }
  for (const auto& [root, port] :
       {std::pair<const char*, int>{"127.0.0.1:1", 1},
        {"node-7:65535", 65535}, {"h:00080", 80}}) {
    CxrunEnv env(root);
    MachineConfig cfg;
    apply_socket_env(cfg);
    EXPECT_EQ(cfg.socket.root_port, port) << root;
    EXPECT_EQ(cfg.backend, Backend::Socket);
  }
}

// ---------------------------------------------------------------------------
// Poll-then-park: an idle PE polls its mailbox, then parks on its cv.
// The trace's Idle event says how each idle span ended: b = 1 if the PE
// parked, 0 if polling alone caught the next post.

/// Whether a run with `pes` PEs polls (the machine's rule: its threads
/// fit in the host's hardware threads).
bool polls(int pes) {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 0 && static_cast<unsigned>(pes) <= cores;
}

/// Traces one machine run so a test can read each PE's idle spans.
struct TracedRun {
  explicit TracedRun(int pes) {
    cx::trace::reset();
    cx::trace::Config tc;
    tc.enabled = true;
    tc.print_summary = false;
    cx::trace::configure(tc);
    cx::trace::begin_run(pes, false);
  }
  ~TracedRun() { cx::trace::reset(); }
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  static std::vector<cx::trace::Event> of_kind(int pe,
                                               cx::trace::EventKind kind) {
    std::vector<cx::trace::Event> out;
    for (const auto& e : cx::trace::events(pe)) {
      if (e.kind == kind) out.push_back(e);
    }
    return out;
  }
  static std::vector<cx::trace::Event> idle(int pe) {
    return of_kind(pe, cx::trace::EventKind::Idle);
  }
};

/// Run `m` until a handler stops it. A watchdog stops it after 20 s, so
/// a PE that never wakes fails the test instead of hanging it; returns
/// whether the watchdog had to.
bool run_bounded(Machine& m) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool fired = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(20), [&] { return done; })) {
      fired = true;
      m.stop();
    }
  });
  m.run();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();
  return fired;
}

MessagePtr msg_to(int dst, std::uint32_t handler, int tag) {
  auto msg = std::make_unique<Message>();
  msg->handler = handler;
  msg->dst_pe = dst;
  msg->data = pup::to_bytes(tag);
  return msg;
}

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// PE 1 runs tag 0 and tells PE 0 it is about to go idle (tag 1); PE 0
/// then sleeps well past the poll budget, so PE 1 has polled and parked
/// by the time PE 0 does `act`. Returns whether the watchdog fired.
template <typename Act>
bool after_pe1_parks(Machine& m, std::uint32_t& h, Act act) {
  h = m.register_handler([&m, &h, act](MessagePtr msg) {
    const int tag = pup::from_bytes<int>(msg->data);
    if (tag == 0) {
      m.send(msg_to(0, h, 1));
    } else if (tag == 1) {
      sleep_s(0.02);
      act(tag);
    } else {
      act(tag);
    }
  });
  m.send(msg_to(1, h, 0));
  return run_bounded(m);
}

TEST(PollThenPark, ParkedPeWakesForEnqueue) {
  TracedRun trace(2);
  auto m = make_machine(threaded(2));
  std::uint32_t h = 0;
  std::atomic<bool> ran{false};
  const bool fired = after_pe1_parks(*m, h, [&](int tag) {
    if (tag == 1) {
      m->send(msg_to(1, h, 2));
    } else {
      ran = m->current_pe() == 1;
      m->stop();
    }
  });
  EXPECT_FALSE(fired) << "PE 1 never woke for the enqueue";
  EXPECT_TRUE(ran.load());
  const auto idle = TracedRun::idle(1);
  ASSERT_FALSE(idle.empty());
  EXPECT_EQ(idle.back().b, 1u) << "PE 1 should have parked";
  EXPECT_GE(idle.back().a, 10'000'000u) << "idle span shorter than the sleep";
}

TEST(PollThenPark, ParkedPeWakesForWake) {
  // The hang's wake() must rouse PE 1 from its idle park (idle time
  // stops counting when it does), and the kill's wake() must rouse it
  // from its hung park, so it drains tag 2 as a crashed PE.
  TracedRun trace(2);
  auto m = make_machine(threaded(2));
  std::uint32_t h = 0;
  constexpr double kHung = 0.2;
  const bool fired = after_pe1_parks(*m, h, [&](int tag) {
    if (tag != 1) return;
    m->inject_hang(1);
    sleep_s(kHung);
    m->send(msg_to(1, h, 2));
    sleep_s(0.01);
    m->inject_kill(1);
    sleep_s(0.05);
    m->stop();
  });
  EXPECT_FALSE(fired);
  const auto drops = TracedRun::of_kind(1, cx::trace::EventKind::FtDrop);
  ASSERT_EQ(drops.size(), 1u) << "the kill did not wake the hung PE";
  EXPECT_EQ(drops[0].a, 2u);  // dropped at a dead destination
  // The idle span that the drop ended. Woken by the hang: ~20 ms idle.
  // Missed: idle until tag 2 arrived, >= 220 ms.
  std::optional<cx::trace::Event> span;
  for (const auto& e : TracedRun::idle(1)) {
    if (e.time <= drops[0].time) span = e;
  }
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->b, 1u);
  EXPECT_LT(static_cast<double>(span->a) * 1e-9, kHung * 0.75)
      << "the hang did not wake the idle PE";
}

TEST(PollThenPark, ParkedPeWakesForSendAfter) {
  TracedRun trace(2);
  auto m = make_machine(threaded(2));
  std::uint32_t h = 0;
  constexpr double kDelay = 0.02;
  double sent_at = 0.0, ran_at = 0.0;
  h = m->register_handler([&](MessagePtr msg) {
    if (pup::from_bytes<int>(msg->data) == 0) {
      sent_at = m->now();
      m->send_after(msg_to(1, h, 1), kDelay);
    } else {
      ran_at = m->now();
      m->stop();
    }
  });
  m->send(msg_to(1, h, 0));
  EXPECT_FALSE(run_bounded(*m)) << "PE 1 slept through its timer";
  EXPECT_GE(ran_at - sent_at, kDelay);
  const auto idle = TracedRun::idle(1);
  ASSERT_FALSE(idle.empty());
  EXPECT_EQ(idle.back().b, 1u) << "a 20 ms timer should outlast the poll";
}

/// Idle spans of PE 1 that polling ended (b = 0) after at least 10 us
/// and well before the 100 us budget ran out, over up to 20 traced runs
/// of a 2-PE machine with handler `body`, kicked with tag 0 to PE 1;
/// stops at the first run that has one. A poll that other processes
/// preempt past its budget parks, so one loaded run may catch nothing.
template <typename Body>
int polled_spans(Body body) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    TracedRun trace(2);
    auto m = make_machine(threaded(2));
    std::uint32_t h = 0;
    h = m->register_handler(
        [&](MessagePtr msg) { body(*m, h, pup::from_bytes<int>(msg->data)); });
    m->send(msg_to(1, h, 0));
    EXPECT_FALSE(run_bounded(*m));
    int caught = 0;
    for (const auto& e : TracedRun::idle(1)) {
      if (e.b == 0 && e.a >= 10'000 && e.a < 80'000) ++caught;
    }
    if (caught > 0) return caught;
  }
  return 0;
}

TEST(PollThenPark, PollEndsAtAnEarlierDeadline) {
  // A timer due before the poll budget runs out is taken on time by
  // the poll itself: the spin is bounded by the deadline, not parked.
  if (!polls(2)) GTEST_SKIP() << "this host parks at once";
  const int caught = polled_spans([](Machine& m, std::uint32_t h, int n) {
    if (n == 20) {
      m.stop();
    } else {
      m.send_after(msg_to(1, h, n + 1), 40e-6);
    }
  });
  EXPECT_GT(caught, 0) << "every 40 us timer parked the PE";
}

TEST(PollThenPark, ParkedPeWakesForStop) {
  TracedRun trace(2);
  auto m = make_machine(threaded(2));
  std::atomic<int> started{0};
  const auto h = m->register_handler([&](MessagePtr) { ++started; });
  for (int pe = 0; pe < 2; ++pe) m->send(msg_to(pe, h, 0));
  std::thread stopper([&] {
    while (started.load() < 2) sleep_s(0.001);
    sleep_s(0.02);  // both PEs have polled and parked by now
    m->stop();
  });
  m->run();  // a PE that misses the stop hangs here
  stopper.join();
  for (int pe = 0; pe < 2; ++pe) {
    const auto idle = TracedRun::idle(pe);
    ASSERT_EQ(idle.size(), 1u) << "pe " << pe;
    EXPECT_EQ(idle[0].b, 1u) << "pe " << pe;
  }
}

TEST(PollThenPark, PostDuringPollIsTakenWithoutPark) {
  // PE 0 answers each of PE 1's requests after 40 us of work, while PE
  // 1 polls: an answer that lands mid-poll is taken unparked.
  if (!polls(2)) GTEST_SKIP() << "this host parks at once";
  const int caught = polled_spans([](Machine& m, std::uint32_t h, int n) {
    if (m.current_pe() == 0) {
      m.compute(40e-6);
      m.send(msg_to(1, h, n + 1));
    } else if (n == 50) {
      m.stop();
    } else {
      m.send(msg_to(0, h, n));
    }
  });
  EXPECT_GT(caught, 0) << "no answer was taken by the poll";
}

TEST(PollThenPark, OversubscribedPeParksWithoutPolling) {
  // More PEs than hardware threads: every idle span ends in a park.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0 || cores > 256) GTEST_SKIP() << "core count " << cores;
  const int pes = static_cast<int>(cores) + 1;
  ASSERT_FALSE(polls(pes));
  TracedRun trace(pes);
  auto m = make_machine(threaded(pes));
  constexpr int kRounds = 50;
  std::uint32_t h = 0;
  h = m->register_handler([&](MessagePtr msg) {
    const int n = pup::from_bytes<int>(msg->data);
    if (n == kRounds) {
      m->stop();
      return;
    }
    if (m->current_pe() == 0) m->compute(20e-6);
    m->send(msg_to(1 - m->current_pe(), h, n + 1));
  });
  m->send(msg_to(1, h, 0));
  EXPECT_FALSE(run_bounded(*m));
  int spans = 0;
  for (int pe = 0; pe < 2; ++pe) {
    for (const auto& e : TracedRun::idle(pe)) {
      ++spans;
      EXPECT_EQ(e.b, 1u) << "pe " << pe << " polled";
    }
  }
  EXPECT_GT(spans, 0);
}

// ---------------------------------------------------------------------------
// PE liveness: the same state machine as the simulator's.

TEST(Liveness, CrashedSenderDoesNotBlameLivePeer) {
  liveness::crashed_sender_does_not_blame_live_peer(Backend::Threaded);
}

TEST(Liveness, HungPeRunsNothing) {
  liveness::hung_pe_runs_nothing(Backend::Threaded);
}

TEST(Liveness, TransitionsMatchAcrossBackends) {
  const liveness::Transitions threaded = liveness::run_transitions(
      Backend::Threaded);
  const liveness::Transitions sim = liveness::run_transitions(Backend::Sim);
  EXPECT_EQ(threaded.failed, sim.failed);
  EXPECT_EQ(threaded.notices, sim.notices);
  EXPECT_EQ(threaded.dead_drops, sim.dead_drops);
  liveness::check_transitions(threaded);
}

// ---------------------------------------------------------------------------
// The lock-free mailbox: many producers, the park handshake, the revive
// cut, and stop with a backlog.

TEST(Mailbox, ConcurrentProducersLoseNothingAndKeepTheirOrder) {
  constexpr int kProducers = 3;
  constexpr std::int64_t kPerProducer = 100'000;
  auto m = make_machine(threaded(2));
  std::vector<std::int64_t> next(kProducers, 0);  // PE 1's thread only
  std::int64_t received = 0;
  bool in_order = true;
  const auto h = m->register_handler([&](MessagePtr msg) {
    const auto v = pup::from_bytes<std::int64_t>(msg->data);
    auto& want = next[static_cast<std::size_t>(v / kPerProducer)];
    in_order = in_order && v % kPerProducer == want;
    ++want;
    if (++received == kProducers * kPerProducer) m->stop();
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&m, h, p] {
      for (std::int64_t i = 0; i < kPerProducer; ++i) {
        auto msg = std::make_unique<Message>();
        msg->handler = h;
        msg->dst_pe = 1;
        std::int64_t v = std::int64_t{p} * kPerProducer + i;
        msg->data = pup::to_bytes(v);
        m->send(std::move(msg));
      }
    });
  }
  const bool fired = run_bounded(*m);
  for (auto& t : producers) t.join();
  EXPECT_FALSE(fired) << "only " << received << " messages arrived";
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_TRUE(in_order) << "a producer's messages arrived out of order";
}

TEST(Mailbox, SendRacingTheParkIsDeliveredPromptly) {
  // Each round sends after a random pause of up to twice the poll
  // budget, so sends land while the PE polls, while it announces its
  // park and after it has parked. A lost wake shows as a round that
  // waits past 100 ms.
  constexpr int kRounds = 10'000;
  auto m = make_machine(threaded(1));
  std::atomic<int> got{-1};
  const auto h = m->register_handler([&](MessagePtr msg) {
    got.store(pup::from_bytes<int>(msg->data), std::memory_order_release);
  });
  int late = -1;
  std::thread producer([&] {
    std::uint64_t x = 88172645463325252ull;  // xorshift64
    for (int i = 0; i < kRounds; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto pause = std::chrono::nanoseconds(x % 200'000);
      const auto t0 = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - t0 < pause) {
      }
      m->send(msg_to(0, h, i));
      const auto sent = std::chrono::steady_clock::now();
      while (got.load(std::memory_order_acquire) != i) {
        if (std::chrono::steady_clock::now() - sent >
            std::chrono::milliseconds(100)) {
          late = i;
          m->stop();
          return;
        }
        std::this_thread::yield();
      }
    }
    m->stop();
  });
  m->run();
  producer.join();
  EXPECT_EQ(late, -1) << "round " << late << " was not delivered in 100 ms";
}

TEST(Mailbox, ReviveDropsExactlyThePreReviveBacklog) {
  // PE 0 hangs PE 1, queues a backlog for it, revives it and sends more.
  // Only what was sent after the revive may run on PE 1.
  constexpr int kBefore = 500;
  constexpr int kAfter = 300;
  auto m = make_machine(threaded(2));
  std::atomic<int> before_runs{0};
  std::atomic<int> after_runs{0};
  std::atomic<int> backlog_drops{0};
  std::uint32_t h = 0;
  h = m->register_handler([&](MessagePtr msg) {
    const int tag = pup::from_bytes<int>(msg->data);
    if (m->current_pe() == 0) {
      m->inject_hang(1);
      sleep_s(0.02);  // PE 1 sees the hang and parks
      for (int i = 0; i < kBefore; ++i) {
        auto pre = msg_to(1, h, 1);
        // A by-reference payload that dies unrun reports its drop.
        pre->local = &backlog_drops;
        pre->local_drop = +[](void* p) noexcept {
          static_cast<std::atomic<int>*>(p)->fetch_add(1);
        };
        m->send(std::move(pre));
      }
      m->revive_pe(1);
      for (int i = 0; i < kAfter; ++i) m->send(msg_to(1, h, 2));
      return;
    }
    if (tag == 1) {
      before_runs.fetch_add(1);
      (void)msg->take_local();
    } else if (after_runs.fetch_add(1) + 1 == kAfter) {
      m->stop();
    }
  });
  m->send(msg_to(0, h, 0));
  EXPECT_FALSE(run_bounded(*m));
  EXPECT_EQ(before_runs.load(), 0);
  EXPECT_EQ(after_runs.load(), kAfter);
  EXPECT_EQ(backlog_drops.load(), kBefore);
}

TEST(Mailbox, StopWithAQueuedBacklogExitsAndFreesIt) {
  constexpr int kQueued = 1000;
  std::atomic<int> drops{0};
  int runs = 0;
  {
    auto m = make_machine(threaded(1));
    const auto h = m->register_handler([&](MessagePtr msg) {
      ++runs;
      (void)msg->take_local();
      m->stop();
    });
    for (int i = 0; i < kQueued; ++i) {
      auto msg = std::make_unique<Message>();
      msg->handler = h;
      msg->dst_pe = 0;
      msg->local = &drops;
      msg->local_drop = +[](void* p) noexcept {
        static_cast<std::atomic<int>*>(p)->fetch_add(1);
      };
      m->send(std::move(msg));
    }
    EXPECT_FALSE(run_bounded(*m));
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(drops.load(), kQueued - 1) << "the machine leaked its backlog";
}

}  // namespace
