#include "bench_common.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/charm.hpp"
#include "util/stats.hpp"

namespace bench {

namespace {

struct TypedEcho : cx::Chare {
  long count = 0;
  void hit(std::int64_t a, double b) {
    count += a;
    (void)b;
  }
  long get() { return count; }
};

void register_dyn_echo() {
  static const bool once = [] {
    cpy::DClass cls("bench.Echo");
    cls.def("__init__", {}, [](cpy::DChare& self, cpy::Args&) {
      self["count"] = cpy::Value(0);
      return cpy::Value::none();
    });
    cls.def("hit", {"a", "b"}, [](cpy::DChare& self, cpy::Args& a) {
      self["count"] = cpy::Value(self["count"].as_int() + a[0].as_int());
      return cpy::Value::none();
    });
    cls.def("get", {}, [](cpy::DChare& self, cpy::Args&) {
      return self["count"];
    });
    return true;
  }();
  (void)once;
}

}  // namespace

DispatchCalibration measure_dispatch_overhead() {
  register_dyn_echo();
  // Rounds alternate which side goes first so slow drift in host speed
  // (frequency, neighbours) falls on both sides equally; the median of
  // the per-round differences ignores the odd preempted burst.
  constexpr int kRounds = 9;
  constexpr int kMessages = 5000;
  std::vector<double> per_msg;
  per_msg.reserve(kRounds);

  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 1;
  cfg.machine.backend = cxm::Backend::Threaded;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto typed = cx::create_chare<TypedEcho>(0);
    auto dyn = cpy::create_chare("bench.Echo", 0);
    (void)typed.call<&TypedEcho::get>().get();  // ensure created
    (void)dyn.call("get").get();
    long sent = 0;
    const auto typed_burst = [&] {
      cxu::Stopwatch sw;
      for (int i = 0; i < kMessages; ++i) {
        typed.send<&TypedEcho::hit>(1, 0.5);
      }
      while (typed.call<&TypedEcho::get>().get() < sent + kMessages) {
      }
      return sw.elapsed();
    };
    const auto dyn_burst = [&] {
      cxu::Stopwatch sw;
      for (int i = 0; i < kMessages; ++i) {
        dyn.send("hit", {cpy::Value(1), cpy::Value(0.5)});
      }
      while (dyn.call("get").get().as_int() < sent + kMessages) {
      }
      return sw.elapsed();
    };
    (void)typed_burst();  // warm both paths (pools, caches) once
    (void)dyn_burst();
    sent += kMessages;
    for (int r = 0; r < kRounds; ++r) {
      double typed_s = 0.0;
      double dyn_s = 0.0;
      if (r % 2 == 0) {
        typed_s = typed_burst();
        dyn_s = dyn_burst();
      } else {
        dyn_s = dyn_burst();
        typed_s = typed_burst();
      }
      sent += kMessages;
      per_msg.push_back((dyn_s - typed_s) / kMessages);
    }
    cx::exit();
  });
  DispatchCalibration cal;
  cal.rounds = kRounds;
  cal.median_s = cxu::percentile(per_msg, 50.0);
  cal.iqr_s = cxu::percentile(per_msg, 75.0) - cxu::percentile(per_msg, 25.0);
  if (!(cal.median_s > 0.0)) {
    throw std::runtime_error(
        "dispatch calibration: non-positive median overhead (" +
        std::to_string(cal.median_s * 1e6) +
        " us/message over " + std::to_string(kRounds) +
        " rounds); the host is too noisy to calibrate on");
  }
  return cal;
}

std::string DispatchCalibration::describe() const {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "dispatch calibration: %.2f us/message (IQR %.2f us over "
                "%d rounds)",
                median_s * 1e6, iqr_s * 1e6, rounds);
  return buf;
}

}  // namespace bench
