// Lock-free class and method tables: four threaded PEs pass chains that
// alternate typed and dynamic messages while a class gains a method
// mid-run (as the pool defines its classes lazily). No send or dispatch
// may take the class registry's mutex, and the new method must be
// dispatched with its threaded flag. Dynamic reductions likewise
// resolve their reducer without the reducer registry's mutex.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "fiber/fiber.hpp"
#include "model/cpy.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cpy;
using cxtest::run_program;
using cxtest::threaded_cfg;

constexpr int kPes = 4;
constexpr int kHops = 9;  // a chain is kHops + 1 deliveries, from dynamic
constexpr int kChains = 8;  // chains per element per wave
constexpr int kWaves = 10;

std::atomic<std::uint64_t> g_dyn_hits{0};
std::atomic<std::uint64_t> g_typed_hits{0};
std::atomic<std::uint64_t> g_bounce_in_fiber{0};
std::atomic<std::uint64_t> g_late_runs{0};
std::atomic<std::uint64_t> g_late_in_fiber{0};

int next_of(const cx::Index& idx) { return (idx[0] + 1) % kPes; }

struct TypedHop : cx::Chare {
  /// One typed link of a chain; `dyn` is the dynamic array as a Value.
  void hop(std::int64_t hops, Value dyn, Value done) {
    g_typed_hits.fetch_add(1, std::memory_order_relaxed);
    if (hops == 0) {
      future_from(done).send(Value(1));
      return;
    }
    const auto self_id = static_cast<std::int64_t>(collection());
    collection_from(dyn)[cx::Index(next_of(this_index()))].send(
        "bounce", {Value(hops - 1), Value(self_id), std::move(done)});
  }
};

struct RelayClass {
  RelayClass() {
    DClass cls("TableRelay");
    // bounce(hops, typed, done): one dynamic link of a chain.
    cls.def("bounce", {"hops", "typed", "done"}, [](DChare& self, Args& a) {
      g_dyn_hits.fetch_add(1, std::memory_order_relaxed);
      if (cxf::Fiber::current() != nullptr) {
        g_bounce_in_fiber.fetch_add(1, std::memory_order_relaxed);
      }
      const std::int64_t hops = a[0].as_int();
      if (hops == 0) {
        future_from(a[2]).send(Value(1));
        return Value::none();
      }
      cx::CollectionProxy<TypedHop> typed(
          static_cast<cx::CollectionId>(a[1].as_int()));
      typed[cx::Index(next_of(self.this_index()))].send<&TypedHop::hop>(
          hops - 1, to_value(collection_proxy_of(self)), a[2]);
      return Value::none();
    });
  }
};
const RelayClass relay_class;

using Futures = std::vector<cx::Future<Value>>;

Futures start_wave(const DCollection& dyn, std::int64_t typed_id,
                   int chains) {
  Futures fs;
  for (int e = 0; e < kPes; ++e) {
    for (int c = 0; c < chains; ++c) {
      auto f = cx::make_future<Value>();
      dyn[e].send("bounce", {Value(static_cast<std::int64_t>(kHops)),
                             Value(typed_id), to_value(f)});
      fs.push_back(f);
    }
  }
  return fs;
}

void await_all(Futures& fs) {
  for (auto& f : fs) EXPECT_EQ(f.get().as_int(), 1);
}

TEST(MethodTable, NoRegistryLockOnSendOrDispatchAndLateMethodIsThreaded) {
  run_program(threaded_cfg(kPes), [] {
    auto dyn = create_array("TableRelay", {kPes});
    auto typed = cx::create_array<TypedHop>(cx::Index(kPes));
    const auto typed_id = static_cast<std::int64_t>(typed.id());

    // Warm-up wave: first-use allocations settle before counting.
    Futures warm = start_wave(dyn, typed_id, 1);
    await_all(warm);
    g_dyn_hits = 0;
    g_typed_hits = 0;

    // Steady state: every link resolves the method (sender) and the
    // class and method (receiver), all without the registry mutex.
    const std::uint64_t locks0 = detail::class_registry_locks();
    for (int w = 0; w < kWaves; ++w) {
      Futures fs = start_wave(dyn, typed_id, kChains);
      await_all(fs);
    }
    EXPECT_EQ(detail::class_registry_locks(), locks0)
        << "a send or dispatch took the class registry's mutex";
    const std::uint64_t links =
        std::uint64_t{kPes} * kChains * kWaves * (kHops + 1);
    EXPECT_EQ(g_dyn_hits.load(), links / 2);
    EXPECT_EQ(g_typed_hits.load(), links / 2);
    EXPECT_EQ(g_bounce_in_fiber.load(), 0u);

    // Mid-run definition while the other PEs dispatch a wave. `dyn`
    // resolved its class before "late" existed and must still see it,
    // threaded flag included.
    Futures inflight = start_wave(dyn, typed_id, kChains);
    DClass("TableRelay").def_threaded("late", {"done"}, [](DChare&, Args& a) {
      g_late_runs.fetch_add(1, std::memory_order_relaxed);
      if (cxf::Fiber::current() != nullptr) {
        g_late_in_fiber.fetch_add(1, std::memory_order_relaxed);
      }
      future_from(a[0]).send(Value(1));
      return Value::none();
    });
    EXPECT_EQ(detail::class_registry_locks(), locks0 + 2)
        << "reopening the class and defining one method take it once each";
    Futures late;
    for (int e = 0; e < kPes; ++e) {
      auto f = cx::make_future<Value>();
      dyn[e].send("late", {to_value(f)});
      late.push_back(f);
    }
    await_all(inflight);
    await_all(late);
    EXPECT_EQ(g_late_runs.load(), std::uint64_t{kPes});
    EXPECT_EQ(g_late_in_fiber.load(), std::uint64_t{kPes});
    EXPECT_EQ(g_dyn_hits.load(), links / 2 + links / 2 / kWaves);
    EXPECT_EQ(g_typed_hits.load(), links / 2 + links / 2 / kWaves);
    EXPECT_EQ(detail::class_registry_locks(), locks0 + 2);
    cx::exit();
  });
}

/// "m<i>", appended rather than concatenated (GCC 12 warns falsely
/// about `"m" + std::to_string(i)` under -Wrestrict).
std::string method_name(int i) {
  std::string name = "m";
  name += std::to_string(i);
  return name;
}

TEST(MethodTable, LookupsSeeLaterDefinitionsThroughOneHandle) {
  DClass cls("TableLater");
  const MethodTable* t = find_class("TableLater");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(find_class("TableNoSuchClass"), nullptr);
  EXPECT_EQ(find_method(t, "m0"), nullptr);
  // Enough methods to grow the index several times.
  for (int i = 0; i < 40; ++i) {
    const std::string name = method_name(i);
    if (i % 2 == 0) {
      cls.def(name, {}, [](DChare&, Args&) { return Value::none(); });
    } else {
      cls.def_threaded(name, {}, [](DChare&, Args&) { return Value::none(); });
    }
    for (int j = 0; j <= i; ++j) {
      const MethodDef* d = find_method(t, method_name(j));
      ASSERT_NE(d, nullptr) << j;
      EXPECT_EQ(d->name, method_name(j));
      EXPECT_EQ(d->threaded, j % 2 == 1);
    }
  }
  EXPECT_EQ(find_method(t, "m40"), nullptr);
  EXPECT_EQ(find_method(nullptr, "m0"), nullptr);
  // The by-name lookup agrees, and a redefinition keeps the MethodDef.
  const MethodDef* m1 = find_method("TableLater", "m1");
  EXPECT_EQ(m1, find_method(t, "m1"));
  cls.def("m1", {"x"}, [](DChare&, Args&) { return Value(7); });
  EXPECT_EQ(find_method(t, "m1"), m1);
  EXPECT_EQ(m1->params.size(), 1u);
  EXPECT_TRUE(m1->threaded) << "def() keeps an existing method's flag";
}

// One reduction target per round, published before the broadcast that
// starts the round (the PEs read it after receiving that broadcast).
DTarget g_red_target;
Value g_red_done;

struct SummerClass {
  SummerClass() {
    DClass cls("TableSummer");
    cls.def("go", {}, [](DChare& self, Args&) {
      self.contribute_value(Value(self.this_index()[0]), "sum",
                            g_red_target);
      return Value::none();
    });
    cls.def("receive", {"result"}, [](DChare&, Args& a) {
      future_from(g_red_done).send(a[0]);
      return Value::none();
    });
  }
};
const SummerClass summer_class;

TEST(MethodTable, DynamicReductionsTakeNoRegistryLock) {
  run_program(threaded_cfg(kPes), [] {
    auto arr = create_array("TableSummer", {kPes});
    // Even rounds reduce to a future (the Value combiner), odd ones to
    // an entry method (the tagged combiner).
    const auto round = [&arr](int r) {
      auto f = cx::make_future<Value>();
      if (r % 2 == 0) {
        g_red_target = to_target(f);
      } else {
        g_red_done = to_value(f);
        g_red_target = arr[0].target("receive");
      }
      arr.broadcast("go");
      return f.get().as_int();
    };
    const std::uint64_t locks0 = detail::dyn_registry_locks();
    for (int r = 0; r < 20; ++r) {
      EXPECT_EQ(round(r), kPes * (kPes - 1) / 2) << "round " << r;
    }
    EXPECT_EQ(detail::dyn_registry_locks(), locks0)
        << "a contribute_value took the reducer registry's mutex";
    cx::exit();
  });
}

}  // namespace
