#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "liveness_cases.hpp"
#include "machine/machine.hpp"
#include "machine/sim_machine.hpp"
#include "pup/pup.hpp"
#include "trace/trace.hpp"
#include "wire/agg.hpp"

namespace {

using namespace cxm;

MachineConfig sim(int pes, const std::string& net = "simple") {
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.backend = Backend::Sim;
  cfg.network = net;
  return cfg;
}

TEST(SimMachine, RunsUntilQueueDrains) {
  auto m = make_machine(sim(2));
  int hits = 0;
  const auto h = m->register_handler([&](MessagePtr) { ++hits; });
  for (int i = 0; i < 5; ++i) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = i % 2;
    m->send(std::move(msg));
  }
  m->run();  // no stop() needed: queue drains
  EXPECT_EQ(hits, 5);
}

TEST(SimMachine, VirtualTimeAdvancesWithCompute) {
  auto m = make_machine(sim(1));
  auto* smp = dynamic_cast<SimMachine*>(m.get());
  ASSERT_NE(smp, nullptr);
  const auto h = m->register_handler([&](MessagePtr) {
    m->compute(1.5);  // charge 1.5 virtual seconds — returns instantly
  });
  auto msg = std::make_unique<Message>();
  msg->handler = h;
  msg->dst_pe = 0;
  m->send(std::move(msg));
  m->run();
  EXPECT_GE(smp->makespan(), 1.5);
  EXPECT_LT(smp->makespan(), 1.5 + 1e-3);  // only tiny overheads on top
}

TEST(SimMachine, MessageLatencyReflectsNetworkModel) {
  MachineConfig cfg = sim(2);
  cfg.net.pes_per_node = 1;  // force remote path
  cfg.net.alpha = 1.0;       // 1 second latency — easy to observe
  cfg.net.beta = 0.0;
  cfg.net.cpu_overhead = 0.0;
  auto m = make_machine(cfg);
  auto* smp = dynamic_cast<SimMachine*>(m.get());
  double recv_time = -1;
  std::uint32_t relay = 0, sink = 0;
  sink = m->register_handler([&](MessagePtr) { recv_time = m->now(); });
  relay = m->register_handler([&](MessagePtr) {
    auto out = std::make_unique<Message>();
    out->handler = sink;
    out->dst_pe = 1;
    m->send(std::move(out));
  });
  auto kick = std::make_unique<Message>();
  kick->handler = relay;
  kick->dst_pe = 0;
  m->send(std::move(kick));
  m->run();
  EXPECT_NEAR(recv_time, 1.0, 1e-9);
  EXPECT_NEAR(smp->makespan(), 1.0, 1e-9);
}

TEST(SimMachine, BandwidthTermScalesWithBytes) {
  MachineConfig cfg = sim(2);
  cfg.net.pes_per_node = 1;
  cfg.net.alpha = 0.0;
  cfg.net.beta = 1e-6;  // 1 us per byte
  cfg.net.cpu_overhead = 0.0;
  auto m = make_machine(cfg);
  double recv_time = -1;
  std::uint32_t relay = 0, sink = 0;
  sink = m->register_handler([&](MessagePtr) { recv_time = m->now(); });
  relay = m->register_handler([&](MessagePtr) {
    auto out = std::make_unique<Message>();
    out->handler = sink;
    out->dst_pe = 1;
    out->data = std::vector<std::byte>(1000);
    m->send(std::move(out));
  });
  auto kick = std::make_unique<Message>();
  kick->handler = relay;
  kick->dst_pe = 0;
  m->send(std::move(kick));
  m->run();
  EXPECT_NEAR(recv_time, 1e-3, 1e-9);
}

TEST(SimMachine, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto m = make_machine(sim(4));
    auto* smp = dynamic_cast<SimMachine*>(m.get());
    std::vector<int> order;
    std::uint32_t h = 0;
    h = m->register_handler([&](MessagePtr msg) {
      const int id = pup::from_bytes<int>(msg->data);
      order.push_back(id);
      if (id < 40) {
        auto out = std::make_unique<Message>();
        out->handler = h;
        out->dst_pe = (id * 7) % 4;
        int next = id + 4;
        out->data = pup::to_bytes(next);
        m->compute(0.001 * (id % 3));
        m->send(std::move(out));
      }
    });
    for (int i = 0; i < 4; ++i) {
      auto msg = std::make_unique<Message>();
      msg->handler = h;
      msg->dst_pe = i;
      msg->data = pup::to_bytes(i);
      m->send(std::move(msg));
    }
    m->run();
    return std::make_pair(order, smp->makespan());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(SimMachine, PerPeFifoOrderPreserved) {
  auto m = make_machine(sim(2));
  std::vector<int> order;
  std::uint32_t send_h = 0, recv_h = 0;
  recv_h = m->register_handler([&](MessagePtr msg) {
    order.push_back(pup::from_bytes<int>(msg->data));
  });
  send_h = m->register_handler([&](MessagePtr) {
    for (int i = 0; i < 10; ++i) {
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
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimMachine, BusyPeSerializesHandlers) {
  // Two messages arrive at t=~0; each charges 1s of compute. The second
  // handler must start after the first finishes: makespan ~2s.
  MachineConfig cfg = sim(2);
  cfg.net.cpu_overhead = 0.0;
  cfg.net.node_alpha = 0.0;
  cfg.net.node_beta = 0.0;
  auto m = make_machine(cfg);
  auto* smp = dynamic_cast<SimMachine*>(m.get());
  const auto h = m->register_handler([&](MessagePtr) { m->compute(1.0); });
  for (int i = 0; i < 2; ++i) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = 0;
    m->send(std::move(msg));
  }
  m->run();
  EXPECT_NEAR(smp->makespan(), 2.0, 1e-9);
}

TEST(SimMachine, StopEndsRunEarly) {
  auto m = make_machine(sim(1));
  int hits = 0;
  const auto h = m->register_handler([&](MessagePtr) {
    if (++hits == 2) m->stop();
  });
  for (int i = 0; i < 10; ++i) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = 0;
    m->send(std::move(msg));
  }
  m->run();
  EXPECT_EQ(hits, 2);
}

TEST(SimMachine, EventsProcessedCounter) {
  auto m = make_machine(sim(1));
  auto* smp = dynamic_cast<SimMachine*>(m.get());
  const auto h = m->register_handler([](MessagePtr) {});
  for (int i = 0; i < 7; ++i) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = 0;
    m->send(std::move(msg));
  }
  m->run();
  EXPECT_EQ(smp->events_processed(), 7u);
}

// ---------------------------------------------------------------------------
// DES timeline golden. Tokens hop between 4 PEs with sender-side
// aggregation on, seeded drop/dup/delay under reliable delivery, and a
// scripted crash of PE 3 mid-run. Handlers charge fixed costs only, so
// the whole timeline is a function of the machine's send/receive
// pipeline: the makespan, the event count, the delivery order and the
// trace counters are pinned exactly. Any change to the pipeline that
// moves one event, RNG draw or clock charge breaks this test.

struct Hop {
  std::uint32_t token = 0;
  std::uint32_t hop = 0;
};

TEST(SimMachine, FaultyAggregatedTimelineIsPinned) {
  const bool agg_was = cx::wire::agg_enabled();
  cx::wire::set_agg_enabled(true);
  cx::trace::reset();
  cx::trace::Config tc;
  tc.enabled = true;
  tc.print_summary = false;
  cx::trace::configure(tc);

  constexpr int kPes = 4;
  constexpr std::uint32_t kTokens = 24;
  constexpr std::uint32_t kHops = 40;
  MachineConfig cfg = sim(kPes);
  cfg.faults.seed = 11;
  cfg.faults.drop = 0.05;
  cfg.faults.dup = 0.05;
  cfg.faults.delay = 0.1;
  cfg.faults.delay_s = 2.0e-5;
  cfg.faults.reliable = true;
  cfg.faults.retry.base_s = 5.0e-5;
  cfg.faults.retry.max_attempts = 4;
  cfg.faults.script = {{3, 8.0e-4, cx::ft::FailureKind::Crashed}};
  auto m = make_machine(cfg);
  auto* smp = dynamic_cast<SimMachine*>(m.get());
  ASSERT_NE(smp, nullptr);
  cx::trace::begin_run(kPes, true);

  int failures = 0;
  m->set_failure_listener([&](const cx::ft::PeFailure&) { ++failures; });
  std::uint64_t order = 0xcbf29ce484222325ull;
  std::uint32_t h = 0;
  auto hop_msg = [&](int dst, Hop t) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = dst;
    // Every seventh hop is too large to aggregate: it bypasses the
    // batch and forces an ordering flush.
    msg->data.resize_discard(t.hop % 7 == 6 ? 1500 : sizeof(Hop));
    std::memset(msg->data.data(), 0, msg->data.size());
    std::memcpy(msg->data.data(), &t, sizeof(Hop));
    return msg;
  };
  h = m->register_handler([&](MessagePtr msg) {
    Hop t;
    std::memcpy(&t, msg->data.data(), sizeof(Hop));
    const int pe = m->current_pe();
    order = (order ^ ((static_cast<std::uint64_t>(pe) << 40) |
                      (static_cast<std::uint64_t>(t.token) << 20) | t.hop)) *
            1099511628211ull;
    m->compute(1.0e-6 * (1 + t.token % 3));
    if (++t.hop == kHops) return;
    m->send(hop_msg((pe + 1 + static_cast<int>(t.token % 3)) % kPes, t));
  });
  for (std::uint32_t i = 0; i < kTokens; ++i) {
    m->send(hop_msg(static_cast<int>(i % kPes), Hop{i, 0}));
  }
  m->run();

  const cx::trace::Counters c = cx::trace::aggregate();
  const cx::trace::WireStats w = cx::trace::wire_stats();
  cx::trace::reset();
  cx::wire::set_agg_enabled(agg_was);
  // Captured before the backends shared one send/receive pipeline.
  EXPECT_EQ(smp->makespan(), 0x1.4a16ce5e0f2f4p-9);
  EXPECT_EQ(smp->events_processed(), 1451u);
  EXPECT_EQ(order, 0x2856eac3c7e4883ull);
  EXPECT_EQ(c.msgs_sent, 1382u);
  EXPECT_EQ(c.msgs_recv, 829u);
  EXPECT_EQ(w.transport_msgs, 1150u);
  EXPECT_EQ(w.agg_batches, 402u);
  EXPECT_EQ(c.ft_acks, 543u);
  EXPECT_EQ(c.ft_drops, 169u);
  EXPECT_EQ(c.ft_retransmits, 99u);
  EXPECT_EQ(c.ft_failures, 1u);
  EXPECT_EQ(failures, 1);
}

// ---------------------------------------------------------------------------
// PE liveness: the same state machine as the threaded machine's.

TEST(Liveness, CrashedSenderDoesNotBlameLivePeer) {
  liveness::crashed_sender_does_not_blame_live_peer(Backend::Sim);
}

TEST(Liveness, HungPeRunsNothing) {
  liveness::hung_pe_runs_nothing(Backend::Sim);
}

TEST(Liveness, TransitionsFollowTheRule) {
  liveness::check_transitions(liveness::run_transitions(Backend::Sim));
}

}  // namespace
