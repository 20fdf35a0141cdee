#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "liveness_cases.hpp"
#include "machine/machine.hpp"
#include "pup/pup.hpp"

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

}  // namespace
