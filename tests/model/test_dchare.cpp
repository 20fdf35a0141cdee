// End-to-end tests of the dynamic model layer: the paper's programming
// model (method-by-name invocation, when-strings, wait-strings, dynamic
// reductions, automatic migration of the attribute dict).

#include <gtest/gtest.h>

#include "model/cpy.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cpy;
using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

// ---------------------------------------------------------------------------
// The paper's §II-B hello program, rendered in the model layer.

struct HelloClass {
  HelloClass() {
    DClass cls("MyChare");
    cls.def("SayHi", {"msg"}, [](DChare& self, Args& a) {
      self["last_msg"] = a[0];
      return Value::none();
    });
    cls.def("GetLast", {}, [](DChare& self, Args&) {
      return self.has_attr("last_msg") ? self["last_msg"] : Value::none();
    });
  }
};
const HelloClass hello_class;

TEST(DChare, PaperHelloWorld) {
  run_program(threaded_cfg(2), [] {
    auto proxy = create_chare("MyChare", -1);
    proxy.send("SayHi", {Value("Hello")});
    while (!proxy.call("GetLast").get().truthy()) {
    }
    EXPECT_EQ(proxy.call("GetLast").get().as_str(), "Hello");
    cx::exit();
  });
}

TEST(DChare, UnknownClassThrowsOnCreate) {
  run_program(threaded_cfg(1), [] {
    EXPECT_THROW((void)create_chare("NoSuchClass", 0), std::runtime_error);
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Constructor args via __init__, thisIndex attribute.

struct CounterClass {
  CounterClass() {
    DClass cls("Counter");
    cls.def("__init__", {"start"}, [](DChare& self, Args& a) {
      self["count"] = a.empty() ? Value(0) : a[0];
      return Value::none();
    });
    cls.def("inc", {"by"}, [](DChare& self, Args& a) {
      self["count"] = self["count"].as_int() + a[0].as_int();
      return Value::none();
    });
    cls.def("get", {}, [](DChare& self, Args&) { return self["count"]; });
    cls.def("my_index", {}, [](DChare& self, Args&) {
      return self["thisIndex"];
    });
    cls.def("add_count", {"target"}, [](DChare& self, Args&) {
      return Value::none();  // redefined below in reduction tests
    });
  }
};
const CounterClass counter_class;

TEST(DChare, InitAndAttributeState) {
  run_program(threaded_cfg(2), [] {
    auto c = create_chare("Counter", 1, {Value(100)});
    c.send("inc", {Value(5)});
    c.send("inc", {Value(7)});
    while (c.call("get").get().as_int() < 112) {
    }
    EXPECT_EQ(c.call("get").get().as_int(), 112);
    cx::exit();
  });
}

TEST(DChare, ThisIndexExposedAsAttribute) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Counter", {4}, {Value(0)});
    for (int i = 0; i < 4; ++i) {
      const Value idx = arr[i].call("my_index").get();
      EXPECT_EQ(idx.kind(), Kind::Tuple);
      EXPECT_EQ(idx.item(Value(0)).as_int(), i);
    }
    cx::exit();
  });
}

TEST(DChare, GroupBroadcastByName) {
  run_program(threaded_cfg(3), [] {
    auto grp = create_group("Counter", {Value(0)});
    grp.broadcast_done("inc", {Value(2)}).get();
    for (int pe = 0; pe < cx::num_pes(); ++pe) {
      EXPECT_EQ(grp[pe].call("get").get().as_int(), 2);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// when-strings: the paper's iteration matching, written as in the paper.

struct StreamClass {
  StreamClass() {
    DClass cls("Stream");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["iter"] = Value(0);
      self["log"] = Value::list({});
      return Value::none();
    });
    cls.def("recv", {"iter", "data"}, [](DChare& self, Args& a) {
      self["log"].as_list().push_back(a[1]);
      self["iter"] = self["iter"].as_int() + 1;
      return Value::none();
    });
    cls.when("recv", "self.iter == iter");
    cls.def("get_log", {}, [](DChare& self, Args&) { return self["log"]; });
  }
};
const StreamClass stream_class;

TEST(DChare, WhenStringBuffersOutOfOrderMessages) {
  run_program(threaded_cfg(2), [] {
    auto s = create_chare("Stream", 1);
    for (int it = 4; it >= 0; --it) {
      s.send("recv", {Value(it), Value(it * 100)});
    }
    Value log;
    while ((log = s.call("get_log").get()).length() < 5) {
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(log.item(Value(i)).as_int(), i * 100);
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Regression for the condition engine: a when condition reading an
// attribute that a *different* entry method writes must fire when that
// method runs (the dirty filter tracks every self[...] write).

struct LatchClass {
  LatchClass() {
    DClass cls("Latch");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["ready"] = Value(0);
      self["fired"] = Value(0);
      return Value::none();
    });
    cls.def("fire", {}, [](DChare& self, Args&) {
      self["fired"] = self["fired"].as_int() + 1;
      return Value::none();
    });
    cls.when("fire", "self.ready == 1");
    cls.def("arm", {}, [](DChare& self, Args&) {
      self["ready"] = Value(1);
      return Value::none();
    });
    cls.def("disarm", {}, [](DChare& self, Args&) {
      self["ready"] = Value(0);
      return Value::none();
    });
    // Writes the attribute named by a runtime std::string: it must reach
    // the same attribute, and the same dirty mark, as the literal
    // "ready" above and the `self.ready` of the condition.
    cls.def("arm_by_name", {"name"}, [](DChare& self, Args& a) {
      const std::string name = a[0].as_str();
      self[name] = Value(1);
      const bool same = &self[name] == &self["ready"];
      return Value(same);
    });
    cls.def("fired", {}, [](DChare& self, Args&) { return self["fired"]; });
    // Evaluates a condition over a never-set attribute through the
    // attribute index (as the when engine does) and through the plain
    // dict, returning both error messages and whether it got created.
    cls.def("probe_unset", {}, [](DChare& self, Args&) {
      const Expr& cond = Expr::compile_cached("self.never_set == 1");
      const auto error_of = [&](const EvalCtx& ctx) {
        try {
          (void)cond.test(ctx);
        } catch (const std::exception& e) {
          return std::string(e.what());
        }
        return std::string();
      };
      EvalCtx indexed;
      indexed.self = &self.attrs();
      indexed.chare = &self;
      EvalCtx dict;
      dict.self = &self.attrs();
      return Value::tuple({Value(error_of(indexed)), Value(error_of(dict)),
                           Value(self.has_attr("never_set")),
                           Value(static_cast<std::int64_t>(
                               self.attrs().length()))});
    });
  }
};
const LatchClass latch_class;

TEST(DChare, WhenFiresAfterOtherMethodMutatesItsDependency) {
  run_program(threaded_cfg(1), [] {
    auto l = create_chare("Latch", 0);
    l.send("fire", {});
    EXPECT_EQ(l.call("fired").get().as_int(), 0);  // buffered
    l.send("arm", {});
    while (l.call("fired").get().as_int() < 1) {
    }

    // A runtime std::string key and a literal key reach one attribute.
    l.send("disarm", {});
    l.send("fire", {});
    EXPECT_EQ(l.call("fired").get().as_int(), 1);  // buffered again
    EXPECT_TRUE(l.call("arm_by_name", {Value("ready")}).get().truthy());
    while (l.call("fired").get().as_int() < 2) {
    }

    // Reading a never-set attribute raises today's KeyError and does
    // not create it.
    const Value probe = l.call("probe_unset").get();
    const std::string indexed_error = probe.item(Value(0)).as_str();
    EXPECT_NE(indexed_error.find("KeyError"), std::string::npos)
        << indexed_error;
    EXPECT_EQ(indexed_error, probe.item(Value(1)).as_str());
    EXPECT_FALSE(probe.item(Value(2)).truthy());
    EXPECT_EQ(probe.item(Value(3)).as_int(), 3);  // thisIndex, ready, fired
    cx::exit();
  });
}

// The attribute index matches on the hash and then on the name, so two
// names with the same key (forced here; FNV-1a collisions are rare but
// real) stay distinct entries, across growth too.
struct NamedEntry {
  cx::AttrKey key = 0;
  const std::string* label = nullptr;
  [[nodiscard]] bool empty() const noexcept { return label == nullptr; }
  [[nodiscard]] std::string_view name() const noexcept { return *label; }
};

TEST(DChare, AttrIndexKeepsCollidingNamesApart) {
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) names.push_back("attr" + std::to_string(i));
  cpy::detail::NameIndex<NamedEntry> index;
  for (const std::string& n : names) index.insert({7, &n});  // one key
  for (const std::string& n : names) {
    const NamedEntry* e = index.find(7, n);
    ASSERT_NE(e, nullptr) << n;
    EXPECT_EQ(e->label, &n);
  }
  EXPECT_EQ(index.find(7, "attr40"), nullptr);
  EXPECT_EQ(index.find(8, "attr0"), nullptr);
  index.clear();
  EXPECT_EQ(index.find(7, "attr0"), nullptr);
}

// ---------------------------------------------------------------------------
// Chained comparisons in when-strings: the paper's windowed-stream shape
// `@when('self.lo <= seq < self.hi')`, previously mis-parsed as
// `(self.lo <= seq) < self.hi`.

struct WindowClass {
  WindowClass() {
    DClass cls("Window");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["lo"] = Value(0);
      self["hi"] = Value(0);
      self["log"] = Value::list({});
      return Value::none();
    });
    cls.def("recv", {"seq"}, [](DChare& self, Args& a) {
      self["log"].as_list().push_back(a[0]);
      return Value::none();
    });
    cls.when("recv", "self.lo <= seq < self.hi");
    cls.def("open", {"lo", "hi"}, [](DChare& self, Args& a) {
      self["lo"] = a[0];
      self["hi"] = a[1];
      return Value::none();
    });
    cls.def("get_log", {}, [](DChare& self, Args&) { return self["log"]; });
    cls.def_threaded("await_window", {}, [](DChare& self, Args&) {
      self.wait_until("0 < self.lo <= self.hi");
      self["woke"] = Value(1);
      return Value::none();
    });
    cls.def("woke", {}, [](DChare& self, Args&) {
      return self.has_attr("woke") ? self["woke"] : Value(0);
    });
  }
};
const WindowClass window_class;

TEST(DChare, ChainedComparisonWhenStringGatesByWindow) {
  run_program(threaded_cfg(1), [] {
    auto w = create_chare("Window", 0);
    for (int s = 0; s < 6; ++s) w.send("recv", {Value(s)});
    // Window [0, 0): everything buffered.
    EXPECT_EQ(w.call("get_log").get().length(), 0u);
    w.send("open", {Value(2), Value(5)});  // admits 2, 3, 4 only
    Value log;
    while ((log = w.call("get_log").get()).length() < 3) {
    }
    EXPECT_EQ(log.length(), 3u);
    for (int i = 0; i < 3; ++i) {
      const std::int64_t seq = log.item(Value(i)).as_int();
      EXPECT_GE(seq, 2);
      EXPECT_LT(seq, 5);
    }
    cx::exit();
  });
}

TEST(DChare, ChainedComparisonWaitString) {
  run_program(threaded_cfg(2), [] {
    auto w = create_chare("Window", 1);
    w.send("await_window", {});
    EXPECT_EQ(w.call("woke").get().as_int(), 0);  // 0 < 0 fails: suspended
    w.send("open", {Value(3), Value(7)});         // 0 < 3 <= 7 holds
    while (w.call("woke").get().as_int() < 1) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Threaded methods + wait-strings: the paper's §II-H2 pattern.

struct IterWorkerClass {
  IterWorkerClass() {
    DClass cls("IterWorker");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["msg_count"] = Value(0);
      self["rounds"] = Value(0);
      return Value::none();
    });
    cls.def_threaded("work", {"neighbors", "iterations"},
                     [](DChare& self, Args& a) {
                       const std::int64_t nb = a[0].as_int();
                       const std::int64_t iters = a[1].as_int();
                       for (std::int64_t r = 0; r < iters; ++r) {
                         self.wait_until("self.msg_count >= " +
                                         std::to_string(nb));
                         self["msg_count"] =
                             Value(self["msg_count"].as_int() - nb);
                         self["rounds"] = self["rounds"].as_int() + 1;
                       }
                       return Value::none();
                     });
    cls.def("recvData", {"data"}, [](DChare& self, Args&) {
      self["msg_count"] = self["msg_count"].as_int() + 1;
      return Value::none();
    });
    cls.def("rounds", {}, [](DChare& self, Args&) {
      return self["rounds"];
    });
  }
};
const IterWorkerClass iter_worker_class;

TEST(DChare, WaitStringSuspendsThreadedMethod) {
  run_program(threaded_cfg(2), [] {
    auto w = create_chare("IterWorker", 1);
    w.send("work", {Value(3), Value(2)});
    EXPECT_EQ(w.call("rounds").get().as_int(), 0);
    for (int i = 0; i < 6; ++i) w.send("recvData", {Value(i)});
    while (w.call("rounds").get().as_int() < 2) {
    }
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Dynamic reductions (paper §II-F). Reduction targets are not Values, so
// the tests publish the target through a file-level slot the class
// methods read (one in-flight target per test).

DTarget g_test_target;

struct SummerClassReal {
  SummerClassReal() {
    DClass cls("Summer2");
    cls.def("go", {}, [](DChare& self, Args&) {
      const std::int64_t my = self["thisIndex"].item(Value(0)).as_int();
      self.contribute_value(Value(my), "sum", g_test_target);
      return Value::none();
    });
    cls.def("go_max", {}, [](DChare& self, Args&) {
      const std::int64_t my = self["thisIndex"].item(Value(0)).as_int();
      self.contribute_value(Value(my), "max", g_test_target);
      return Value::none();
    });
    cls.def("go_gather", {}, [](DChare& self, Args&) {
      const Value my = self["thisIndex"];
      self.contribute_value(
          Value::list({Value::tuple(
              {my, Value(my.item(Value(0)).as_int() * 10)})}),
          "gather", g_test_target);
      return Value::none();
    });
    cls.def("go_barrier", {}, [](DChare& self, Args&) {
      self.barrier(g_test_target);
      return Value::none();
    });
    cls.def("receive", {"result"}, [](DChare& self, Args& a) {
      self["received"] = a[0];
      return Value::none();
    });
    cls.def("received", {}, [](DChare& self, Args&) {
      return self.has_attr("received") ? self["received"] : Value::none();
    });
  }
};
const SummerClassReal summer_class;

TEST(DChareReduction, SumToFuture) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {6});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go");
    EXPECT_EQ(f.get().as_int(), 15);  // 0+..+5
    cx::exit();
  });
}

TEST(DChareReduction, MaxToFuture) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {5});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go_max");
    EXPECT_EQ(f.get().as_int(), 4);
    cx::exit();
  });
}

TEST(DChareReduction, GatherSortsByIndex) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {4});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go_gather");
    const Value items = f.get();
    ASSERT_EQ(items.length(), 4u);
    for (int i = 0; i < 4; ++i) {
      const Value pair = items.item(Value(i));
      EXPECT_EQ(pair.item(Value(0)).item(Value(0)).as_int(), i);
      EXPECT_EQ(pair.item(Value(1)).as_int(), i * 10);
    }
    cx::exit();
  });
}

TEST(DChareReduction, BarrierIsNone) {
  run_program(threaded_cfg(3), [] {
    auto grp = create_group("Summer2");
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    grp.broadcast("go_barrier");
    EXPECT_TRUE(f.get().is_none());  // paper: broadcast future value None
    cx::exit();
  });
}

TEST(DChareReduction, ResultToEntryMethodOfElement) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {4});
    g_test_target = arr[0].target("receive");
    arr.broadcast("go");
    while (arr[0].call("received").get().is_none()) {
    }
    EXPECT_EQ(arr[0].call("received").get().as_int(), 6);  // 0+1+2+3
    cx::exit();
  });
}

TEST(DChareReduction, ResultBroadcastToAllElements) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Summer2", {4});
    g_test_target = arr.target("receive");
    arr.broadcast("go");
    for (int i = 0; i < 4; ++i) {
      while (arr[i].call("received").get().is_none()) {
      }
      EXPECT_EQ(arr[i].call("received").get().as_int(), 6);
    }
    cx::exit();
  });
}

TEST(DChareReduction, CustomDynReducer) {
  add_dyn_reducer("strmax", [](Value& a, const Value& b) {
    if (b.as_str() > a.as_str()) a = b;
  });
  DClass cls("Shouter");
  cls.def("go", {}, [](DChare& self, Args&) {
    const std::int64_t my = self["thisIndex"].item(Value(0)).as_int();
    self.contribute_value(Value("w" + std::to_string(my)), "strmax",
                          g_test_target);
    return Value::none();
  });
  run_program(threaded_cfg(2), [] {
    auto arr = create_array("Shouter", {3});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go");
    EXPECT_EQ(f.get().as_str(), "w2");
    cx::exit();
  });
}

// ---------------------------------------------------------------------------
// Migration: attribute dict moves automatically (no pup code).

struct NomadClass {
  NomadClass() {
    DClass cls("Nomad");
    cls.def("__init__", {}, [](DChare& self, Args&) {
      self["history"] = Value::list({});
      self["gate"] = Value(0);
      self["passed"] = Value(0);
      return Value::none();
    });
    // Buffered until the gate (written at the chare's current PE, after
    // the hop) reaches `hop`.
    cls.def("pass", {"hop"}, [](DChare& self, Args&) {
      self["passed"] = Value(self["passed"].as_int() + 1);
      return Value::none();
    });
    cls.when("pass", "self.gate >= hop");
    cls.def("open_gate", {"hop"}, [](DChare& self, Args& a) {
      self["gate"] = a[0];
      return Value::none();
    });
    cls.def("passed", {}, [](DChare& self, Args&) { return self["passed"]; });
    cls.def("go_to", {"pe"}, [](DChare& self, Args& a) {
      self["history"].as_list().push_back(
          Value(static_cast<std::int64_t>(cx::my_pe())));
      self.migrate_to(static_cast<int>(a[0].as_int()));
      return Value::none();
    });
    cls.def("where", {}, [](DChare&, Args&) {
      return Value(static_cast<std::int64_t>(cx::my_pe()));
    });
    cls.def("history", {}, [](DChare& self, Args&) {
      return self["history"];
    });
  }
};
const NomadClass nomad_class;

TEST(DChare, MigrationCarriesAttributeDictAutomatically) {
  run_program(threaded_cfg(3), [] {
    auto n = create_chare("Nomad", 0);
    // After each hop, a when-gated message is buffered at the new PE and
    // released by a write there: the unpacked chare's attribute index
    // must point at its own dict and dirty clock, not the old ones.
    std::int64_t hop = 0;
    for (const int pe : {2, 1}) {
      n.send("go_to", {Value(pe)});
      while (n.call("where").get().as_int() != pe) {
      }
      ++hop;
      n.send("pass", {Value(hop)});
      EXPECT_EQ(n.call("passed").get().as_int(), hop - 1);  // buffered
      n.send("open_gate", {Value(hop)});
      while (n.call("passed").get().as_int() != hop) {
      }
    }
    const Value hist = n.call("history").get();
    ASSERT_EQ(hist.length(), 2u);
    EXPECT_EQ(hist.item(Value(0)).as_int(), 0);
    EXPECT_EQ(hist.item(Value(1)).as_int(), 2);

    // The same pup, unpacked into a live instance whose index already
    // points into its old dict (kept alive here through a shared
    // reference): reads and writes must reach the unpacked dict.
    DChare live;
    live["a"] = Value(1);
    const std::vector<std::byte> blob = pup::to_bytes(live);
    live["a"] = Value(2);
    live["b"] = Value(3);
    const Value old_dict = live.attrs();
    pup::Unpacker u(blob.data(), blob.size());
    live.pup(u);
    EXPECT_EQ(live["a"].as_int(), 1);
    live["a"] = Value(4);
    EXPECT_EQ(live.attrs().item(Value("a")).as_int(), 4);
    EXPECT_EQ(old_dict.item(Value("a")).as_int(), 2);
    EXPECT_FALSE(live.has_attr("b"));
    cx::exit();
  });
}

TEST(DChare, SimBackendEndToEnd) {
  run_program(sim_cfg(8), [] {
    auto arr = create_array("Summer2", {16});
    auto f = cx::make_future<Value>();
    g_test_target = to_target(f);
    arr.broadcast("go");
    EXPECT_EQ(f.get().as_int(), 120);
    cx::exit();
  });
}

}  // namespace
