// Future ownership semantics: the value lives in the handles on the
// creating PE, an lvalue get() copies (so a second get() or a copy still
// reads), an rvalue get() moves the reply out, and the per-PE table
// keeps only futures some handle still holds. Values for ids nobody
// holds are dropped and counted.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/charm.hpp"
#include "model/dproxy.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"

namespace {

using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

struct Echo : cx::Chare {
  std::vector<std::uint8_t> echo(std::vector<std::uint8_t> v) { return v; }
  int add(int a, int b) { return a + b; }
};

struct Filler : cx::Chare {
  void fill(cx::Future<int> f, int v) { f.send(v); }
  void fill_boxed(cpy::Value boxed, std::int64_t v) {
    cpy::future_from(boxed).send(cpy::Value(v));
  }
};

std::size_t table_size() {
  return cx::Runtime::current().future_table_size();
}

/// Wait for quiescence with a future whose handle is gone on return.
void quiesce() {
  auto q = cx::make_future<void>();
  cx::Runtime::current().start_quiescence(cx::cb(q));
  q.get();
}

const std::vector<cx::RuntimeConfig> kBackends = {threaded_cfg(2),
                                                  sim_cfg(2)};

// ---------------------------------------------------------------------------

TEST(Future, LvalueGetTwiceReturnsTheSameValue) {
  for (const auto& cfg : kBackends) {
    run_program(cfg, [] {
      auto echo = cx::create_chare<Echo>(1);
      auto f = echo.call<&Echo::add>(20, 22);
      EXPECT_EQ(f.get(), 42);
      EXPECT_EQ(f.get(), 42);
      EXPECT_EQ(table_size(), 1u);  // f still holds its value
      cx::exit();
    });
  }
}

TEST(Future, CopyOutlivesTheOriginal) {
  for (const auto& cfg : kBackends) {
    run_program(cfg, [] {
      auto echo = cx::create_chare<Echo>(1);
      cx::Future<int> copy;
      {
        auto f = echo.call<&Echo::add>(1, 2);
        copy = f;
      }
      EXPECT_EQ(copy.get(), 3);
      // An rvalue get() with another handle alive copies, not moves.
      auto g = echo.call<&Echo::add>(3, 4);
      auto h = g;
      EXPECT_EQ(std::move(g).get(), 7);
      EXPECT_EQ(h.get(), 7);
      cx::exit();
    });
  }
}

TEST(Future, ReadyBeforeAndAfterTheValue) {
  for (const auto& cfg : kBackends) {
    run_program(cfg, [] {
      auto filler = cx::create_chare<Filler>(1);
      auto f = cx::make_future<int>();
      EXPECT_FALSE(f.ready());
      filler.send<&Filler::fill>(f, 5);
      EXPECT_EQ(f.get(), 5);
      EXPECT_TRUE(f.ready());
      cx::exit();
    });
  }
}

TEST(Future, LateValueAfterTimeoutIsPickedUpByGet) {
  for (const auto& cfg : kBackends) {
    run_program(cfg, [] {
      auto filler = cx::create_chare<Filler>(1);
      auto f = cx::make_future<int>();
      EXPECT_EQ(f.get_for(0.005), std::nullopt);  // nobody sent yet
      filler.send<&Filler::fill>(f, 9);
      EXPECT_EQ(f.get(), 9);
      cx::exit();
    });
  }
}

TEST(Future, BoxedFutureIsFulfilledOnTheCreatingPe) {
  for (const auto& cfg : kBackends) {
    run_program(cfg, [] {
      auto filler = cx::create_chare<Filler>(0);  // same PE as the caller
      auto f = cx::make_future<cpy::Value>();
      filler.send<&Filler::fill_boxed>(cpy::to_value(f), std::int64_t{11});
      EXPECT_EQ(f.get().as_int(), 11);
      cx::exit();
    });
  }
}

TEST(Future, UnpackedHandleReadsOnlyWhileTheStateLives) {
  for (const auto& cfg : kBackends) {
    run_program(cfg, [] {
      auto echo = cx::create_chare<Echo>(1);
      cx::ReplyTo slot;
      {
        auto f = echo.call<&Echo::add>(5, 5);
        slot = f.slot();
        EXPECT_EQ(cx::Future<int>(slot).get(), 10);  // f keeps the state
      }
      EXPECT_EQ(table_size(), 0u);
      EXPECT_THROW((void)cx::Future<int>(slot).get(), std::logic_error);
      cx::exit();
    });
  }
}

TEST(Future, ConsumedRoundTripsLeaveNoTableEntries) {
  for (const auto& cfg : kBackends) {
    run_program(cfg, [] {
      const std::vector<std::uint8_t> payload(64 * 1024, 7);
      for (const int pe : {0, 1}) {
        auto echo = cx::create_chare<Echo>(pe);
        for (int i = 0; i < 1000; ++i) {
          const auto back = echo.call<&Echo::echo>(payload).get();
          ASSERT_EQ(back.size(), payload.size());
        }
        EXPECT_EQ(table_size(), 0u) << "callee on PE " << pe;
      }
      cx::exit();
    });
  }
}

TEST(Future, LateValuesForDeadHandlesAreDroppedAndCounted) {
  run_program(threaded_cfg(2), [] {
    auto echo = cx::create_chare<Echo>(1);
    auto filler = cx::create_chare<Filler>(1);
    // A discarded call<>(): its handle dies before the reply lands.
    (void)echo.call<&Echo::add>(1, 1);
    // A timed-out future that dies before anyone fulfills it; the value
    // then arrives through a stateless copy of its slot.
    cx::ReplyTo slot;
    {
      auto f = cx::make_future<int>();
      EXPECT_EQ(f.get_for(0.001), std::nullopt);
      slot = f.slot();
    }
    filler.send<&Filler::fill>(cx::Future<int>(slot), 3);
    quiesce();
    EXPECT_EQ(table_size(), 0u);
    EXPECT_EQ(cx::trace::future_late_drops(), 2u);
    cx::exit();
  });
}

}  // namespace
