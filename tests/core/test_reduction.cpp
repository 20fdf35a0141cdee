// Reductions (paper §II-F): built-in reducers, element-wise vector
// reductions (the NumPy case), gather, custom reducers, empty reductions,
// futures and entry methods as targets, multiple reductions in flight.

#include <gtest/gtest.h>

#include <vector>

#include "test_helpers.hpp"

namespace {

using namespace cx;
using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

struct Worker : Chare {
  void contribute_index(Future<int> target) {
    contribute(this_index()[0], reducer::sum<int>(), cb(target));
  }
  void contribute_double(double v, Future<double> target) {
    contribute(v, reducer::sum<double>(), cb(target));
  }
  void contribute_max(Future<int> target) {
    contribute(this_index()[0], reducer::max<int>(), cb(target));
  }
  void contribute_min(Future<int> target) {
    contribute(this_index()[0], reducer::min<int>(), cb(target));
  }
  void contribute_vector(Future<std::vector<double>> target) {
    std::vector<double> data = {1.0, static_cast<double>(this_index()[0])};
    contribute(data, reducer::sum<std::vector<double>>(), cb(target));
  }
  void contribute_gather_idx(Future<std::vector<std::pair<Index, int>>> t) {
    contribute_gather(this_index()[0] * 100, cb(t));
  }
  void barrier(Future<void> target) { contribute(cb(target)); }
  void two_in_flight(Future<int> a, Future<int> b) {
    contribute(1, reducer::sum<int>(), cb(a));
    contribute(10, reducer::sum<int>(), cb(b));
  }
};

TEST(Reduction, SumOverArray) {
  run_program(threaded_cfg(4), [] {
    auto arr = create_array<Worker>({10});
    auto f = make_future<int>();
    arr.broadcast<&Worker::contribute_index>(f);
    EXPECT_EQ(f.get(), 45);  // 0+1+...+9
    cx::exit();
  });
}

TEST(Reduction, SumOfDoubles) {
  run_program(threaded_cfg(3), [] {
    auto arr = create_array<Worker>({8});
    auto f = make_future<double>();
    arr.broadcast<&Worker::contribute_double>(0.5, f);
    EXPECT_DOUBLE_EQ(f.get(), 4.0);
    cx::exit();
  });
}

TEST(Reduction, MaxAndMin) {
  run_program(threaded_cfg(4), [] {
    auto arr = create_array<Worker>({7});
    auto fmax = make_future<int>();
    arr.broadcast<&Worker::contribute_max>(fmax);
    EXPECT_EQ(fmax.get(), 6);
    auto fmin = make_future<int>();
    arr.broadcast<&Worker::contribute_min>(fmin);
    EXPECT_EQ(fmin.get(), 0);
    cx::exit();
  });
}

TEST(Reduction, VectorSumIsElementwise) {
  run_program(threaded_cfg(4), [] {
    auto arr = create_array<Worker>({5});
    auto f = make_future<std::vector<double>>();
    arr.broadcast<&Worker::contribute_vector>(f);
    const auto v = f.get();
    ASSERT_EQ(v.size(), 2u);
    EXPECT_DOUBLE_EQ(v[0], 5.0);   // five ones
    EXPECT_DOUBLE_EQ(v[1], 10.0);  // 0+1+2+3+4
    cx::exit();
  });
}

TEST(Reduction, GatherSortedByIndex) {
  run_program(threaded_cfg(3), [] {
    auto arr = create_array<Worker>({4});
    auto f = make_future<std::vector<std::pair<Index, int>>>();
    arr.broadcast<&Worker::contribute_gather_idx>(f);
    const auto items = f.get();
    ASSERT_EQ(items.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(items[static_cast<std::size_t>(i)].first[0], i);
      EXPECT_EQ(items[static_cast<std::size_t>(i)].second, i * 100);
    }
    cx::exit();
  });
}

TEST(Reduction, EmptyReductionIsABarrier) {
  run_program(threaded_cfg(4), [] {
    auto grp = create_group<Worker>();
    auto f = make_future<void>();
    grp.broadcast<&Worker::barrier>(f);
    f.get();  // completes only after every group member contributed
    cx::exit();
  });
}

TEST(Reduction, MultipleReductionsInFlight) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array<Worker>({6});
    auto fa = make_future<int>();
    auto fb = make_future<int>();
    arr.broadcast<&Worker::two_in_flight>(fa, fb);
    EXPECT_EQ(fa.get(), 6);
    EXPECT_EQ(fb.get(), 60);
    cx::exit();
  });
}

// Custom reducer (paper §II-F1): concatenate strings.
struct Concatenator : Chare {
  void speak(CombineId reducer, Future<std::string> target) {
    std::string word = "w";
    word += std::to_string(this_index()[0]);
    contribute(word, reducer, cb(target));
  }
};

TEST(Reduction, CustomReducer) {
  static const CombineId concat =
      add_reducer<std::string>([](std::string& a, const std::string& b) {
        a = a < b ? a + "," + b : b + "," + a;  // order-insensitive concat
      });
  run_program(threaded_cfg(2), [] {
    auto arr = create_array<Concatenator>({3});
    auto f = make_future<std::string>();
    arr.broadcast<&Concatenator::speak>(concat, f);
    const std::string s = f.get();
    EXPECT_NE(s.find("w0"), std::string::npos);
    EXPECT_NE(s.find("w1"), std::string::npos);
    EXPECT_NE(s.find("w2"), std::string::npos);
    cx::exit();
  });
}

// Reduction target passed around as a first-class Callback value.
struct Contributor : Chare {
  void go(Callback target) {
    contribute(2, reducer::sum<int>(), target);
  }
};

TEST(Reduction, CallbackTargetPassedAsArgument) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array<Contributor>({5});
    auto f = make_future<int>();
    arr.broadcast<&Contributor::go>(cb(f));
    EXPECT_EQ(f.get(), 10);
    cx::exit();
  });
}

struct SingleArgSink : Chare {
  int received = -1;
  void absorb(int total) { received = total; }
  int value() { return received; }
};

TEST(Reduction, EntryMethodTargetReceivesResult) {
  run_program(threaded_cfg(2), [] {
    auto sink = create_chare<SingleArgSink>(1);
    (void)sink.call<&SingleArgSink::value>().get();  // ensure created
    auto arr = create_array<Contributor>({4});
    arr.broadcast<&Contributor::go>(sink.callback<&SingleArgSink::absorb>());
    while (sink.call<&SingleArgSink::value>().get() < 0) {
    }
    EXPECT_EQ(sink.call<&SingleArgSink::value>().get(), 8);
    cx::exit();
  });
}

// Broadcast as reduction target: every element receives the result.
struct BcastTarget : Chare {
  int sum_seen = -1;
  void go(Callback target) { contribute(3, reducer::sum<int>(), target); }
  void receive_sum(int total) { sum_seen = total; }
  int seen() { return sum_seen; }
};

TEST(Reduction, BroadcastTargetDeliversToAllElements) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_array<BcastTarget>({4});
    arr.broadcast<&BcastTarget::go>(
        arr.callback<&BcastTarget::receive_sum>());
    for (int i = 0; i < 4; ++i) {
      while (arr[i].call<&BcastTarget::seen>().get() < 0) {
      }
      EXPECT_EQ(arr[i].call<&BcastTarget::seen>().get(), 12);
    }
    cx::exit();
  });
}

TEST(ReductionSim, SumOnSimBackendAtScale) {
  run_program(sim_cfg(32), [] {
    auto arr = create_array<Worker>({64});
    auto f = make_future<int>();
    arr.broadcast<&Worker::contribute_index>(f);
    EXPECT_EQ(f.get(), 64 * 63 / 2);
    cx::exit();
  });
}

}  // namespace
