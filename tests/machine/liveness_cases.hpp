#pragma once
// PE-liveness scenarios shared by the threaded and the simulator test
// binaries: each runs them on its backend and checks the same expected
// outcome, so a drift between the backends fails one of them.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "trace/trace.hpp"

namespace liveness {

using cx::ft::FailureKind;
using Notice = std::pair<int, FailureKind>;

/// Every failure notice a machine's listener saw, in order.
struct Notices {
  std::mutex mu;
  std::vector<Notice> seen;

  void attach(cxm::Machine& m) {
    m.set_failure_listener([this](const cx::ft::PeFailure& f) {
      std::lock_guard<std::mutex> lk(mu);
      seen.emplace_back(f.pe, f.kind);
    });
  }
};

/// Run `m` until its work drains (Sim) or for `wall_s` seconds
/// (threaded, whose run() only returns on stop()).
inline void run_for(cxm::Machine& m, double wall_s) {
  if (m.is_simulated()) {
    m.run();
    return;
  }
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(wall_s));
    m.stop();
  });
  m.run();
  stopper.join();
}

inline cxm::MessagePtr to(int dst, std::uint32_t handler) {
  auto msg = std::make_unique<cxm::Message>();
  msg->handler = handler;
  msg->dst_pe = dst;
  return msg;
}

/// PE 0 sends one reliable message to PE 1 and then kills itself. PE 1
/// acks into a dead PE; the dead sender's window must die with it
/// rather than retransmit until it gives up on the live PE 1.
inline void crashed_sender_does_not_blame_live_peer(cxm::Backend backend) {
  cxm::MachineConfig cfg;
  cfg.num_pes = 2;
  cfg.backend = backend;
  cfg.faults.reliable = true;
  cfg.faults.retry.base_s = 1e-3;
  cfg.faults.retry.max_attempts = 4;
  cfg.faults.retry.jitter = 0.0;
  auto m = cxm::make_machine(cfg);
  Notices log;
  log.attach(*m);
  std::uint32_t h = 0;
  h = m->register_handler([&](cxm::MessagePtr) {
    if (m->current_pe() != 0) return;
    m->send(to(1, h));
    m->inject_kill(0);
  });
  m->send(to(0, h));
  // 150 ms is ten times the 15 ms the four retries take to give up.
  run_for(*m, 0.15);
  EXPECT_TRUE(m->pe_failed(0));
  EXPECT_FALSE(m->pe_failed(1));
  EXPECT_EQ(log.seen, (std::vector<Notice>{{0, FailureKind::Crashed}}));
}

/// PE 0 hangs PE 1 and sends it messages; PE 1 must run none of them,
/// also not when the machine stops.
inline void hung_pe_runs_nothing(cxm::Backend backend) {
  cxm::MachineConfig cfg;
  cfg.num_pes = 2;
  cfg.backend = backend;
  auto m = cxm::make_machine(cfg);
  std::atomic<int> ran_on_hung{0};
  std::uint32_t h = 0;
  h = m->register_handler([&](cxm::MessagePtr) {
    if (m->current_pe() == 1) {
      ran_on_hung.fetch_add(1);
      return;
    }
    m->inject_hang(1);
    for (int i = 0; i < 3; ++i) m->send(to(1, h));
  });
  m->send(to(0, h));
  run_for(*m, 0.05);
  EXPECT_TRUE(m->pe_failed(1));
  EXPECT_EQ(ran_on_hung.load(), 0);
}

/// What a run of the transition sequence observed.
struct Transitions {
  std::vector<std::vector<bool>> failed;  ///< pe_failed of all PEs per step
  std::vector<Notice> notices;
  std::uint64_t dead_drops = 0;  ///< messages crashed PEs drained unread
};

inline constexpr int kSink = 5;

/// PE 0 drives kill, hang, declare and revive of PEs 1-3 through the
/// transition rule. Last it sends kSink messages each to a PE killed
/// and then hung and to a PE hung and then killed: both are crashed,
/// so both must drain and drop them before a timer 0.1 s later revives
/// them, which would discard parked messages unseen.
inline Transitions run_transitions(cxm::Backend backend) {
  constexpr int kPes = 4;
  cx::trace::reset();
  cx::trace::Config tc;
  tc.enabled = true;
  tc.print_summary = false;
  cx::trace::configure(tc);
  cxm::MachineConfig cfg;
  cfg.num_pes = kPes;
  cfg.backend = backend;
  auto m = cxm::make_machine(cfg);
  cx::trace::begin_run(kPes, m->is_simulated());
  Notices log;
  log.attach(*m);
  Transitions out;
  auto step = [&] {
    std::vector<bool> v;
    for (int pe = 0; pe < kPes; ++pe) v.push_back(m->pe_failed(pe));
    out.failed.push_back(v);
  };
  const std::uint32_t sink = m->register_handler([](cxm::MessagePtr) {});
  const std::uint32_t finish = m->register_handler([&](cxm::MessagePtr) {
    m->revive_pe(1);
    m->revive_pe(2);
    step();
    m->stop();
  });
  const std::uint32_t drive = m->register_handler([&](cxm::MessagePtr) {
    m->inject_kill(1);
    step();
    m->inject_kill(1);  // noticed once
    step();
    m->inject_hang(1);  // a hang never overrides a crash
    step();
    m->inject_hang(2);  // silent
    step();
    m->inject_kill(2);  // a crash overrides a hang
    step();
    m->declare_failed(3, FailureKind::Hung);  // an Up PE: Unreachable
    step();
    m->declare_failed(3, FailureKind::Unreachable);
    step();
    m->declare_failed(3, FailureKind::Crashed);
    step();
    for (int pe = 1; pe < kPes; ++pe) m->revive_pe(pe);
    step();
    m->declare_failed(1, FailureKind::Unreachable);  // notice re-armed
    step();
    m->inject_hang(2);
    m->declare_failed(2, FailureKind::Hung);  // stays Hung
    step();
    m->inject_kill(3);
    step();
    m->revive_pe(1);
    m->revive_pe(2);
    step();
    m->inject_kill(1);
    m->inject_hang(1);
    m->inject_hang(2);
    m->inject_kill(2);
    step();
    for (int i = 0; i < kSink; ++i) {
      m->send(to(1, sink));
      m->send(to(2, sink));
    }
    m->send_after(to(0, finish), 0.1);
  });
  m->send(to(0, drive));
  m->run();
  out.notices = log.seen;
  out.dead_drops = cx::trace::aggregate().ft_drops;
  cx::trace::reset();
  return out;
}

inline void check_transitions(const Transitions& t) {
  const std::vector<bool> k1{false, true, false, false};
  const std::vector<bool> k12{false, true, true, false};
  const std::vector<bool> k123{false, true, true, true};
  const std::vector<bool> none{false, false, false, false};
  const std::vector<bool> k3{false, false, false, true};
  EXPECT_EQ(t.failed, (std::vector<std::vector<bool>>{
                          k1, k1, k1, k12, k12, k123, k123, k123,
                          none, k1, k12, k123, k3, k123, k3}));
  EXPECT_EQ(t.notices, (std::vector<Notice>{{1, FailureKind::Crashed},
                                            {2, FailureKind::Crashed},
                                            {3, FailureKind::Hung},
                                            {1, FailureKind::Unreachable},
                                            {2, FailureKind::Hung},
                                            {3, FailureKind::Crashed},
                                            {1, FailureKind::Crashed},
                                            {2, FailureKind::Crashed}}));
  EXPECT_EQ(t.dead_drops, 2u * kSink);
}

}  // namespace liveness
