// rtt-xrank — the cross-rank message path under `cxrun -np 2 -ppn 1`.
//
// One launch of the job is one episode. Rank 0's PE 0 drives an Echo
// chare on rank 1's PE 1 (the ping-pong and bandwidth method of the
// Charm4Py-vs-mpi4py evaluation):
//
//   phase 1  closed loop, one typed call<>().get() in flight; kOps
//            round trips with 8 B and 64 KiB payloads interleaved in an
//            order drawn from the seed. The echo returns the payload
//            plus its arrival stamp.
//   phase 2  kWindows windows of kWindow 4 MiB one-way send<>()s, each
//            window closed by one acknowledging call.
//
// Payloads are built before timing. Every echo is compared with what was
// sent; the sink on rank 1 checks length and word sum of every 4 MiB
// message. perfbench/run.py repeats launches until its time budget is
// spent. Work per launch is fixed because every completed future keeps
// its value until the Runtime ends, so a long-lived job's memory grows
// with every 64 KiB reply.
//
// Each rank pins itself to one CPU before the Runtime starts, so its PE
// thread and comm thread share that CPU: when they sit on different
// CPUs every hand-off between them is a cross-CPU wake-up, and the 8 B
// round trip flips between ~20 and ~45 us (4-vCPU VM) depending on where
// the scheduler happens to place the threads.

#include <numeric>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "machine/machine.hpp"

namespace bench {

namespace {

constexpr int kLargeWords = 8192;      ///< 64 KiB
constexpr int kStreamWords = 1 << 19;  ///< 4 MiB
constexpr int kWindow = 4;             ///< 4 MiB sends per window
constexpr int kWindows = 3;            ///< stream windows per launch
constexpr int kWarmOps = 100;          ///< untimed round trips per size
constexpr int kOps = 400;              ///< timed round trips per launch
constexpr int kSends = 1000;           ///< send-call burst (traced)

struct Stamped8 {
  std::uint64_t v = 0;
  double t = 0.0;  ///< echo arrival, monotonic clock
  void pup(pup::Er& p) {
    p | v;
    p | t;
  }
};

struct StampedVec {
  std::vector<std::uint64_t> v;
  double t = 0.0;
  void pup(pup::Er& p) {
    p | v;
    p | t;
  }
};

std::uint64_t word_sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

}  // namespace

class Echo : public cx::Chare {
 public:
  Echo() = default;
  explicit Echo(std::uint64_t stream_sum) : stream_sum_(stream_sum) {}

  Stamped8 echo8(std::uint64_t v) { return {v, mono_now()}; }
  StampedVec echo64k(std::vector<std::uint64_t> v) {
    return {std::move(v), mono_now()};
  }
  void sink(std::vector<std::uint64_t> v) {
    ++got_;
    if (v.size() != static_cast<std::size_t>(kStreamWords) ||
        word_sum(v) != stream_sum_) {
      ++bad_;
    }
  }
  /// {4 MiB messages received, of which wrong}.
  std::vector<std::uint64_t> drain() { return {got_, bad_}; }
  void sink8(std::uint64_t v) { small_ += v; }
  std::uint64_t small_count() { return small_; }
  /// This rank's counters.
  Counts counts() {
    return read_counts(Snap::of(cx::trace::counters(cx::my_pe())));
  }
  double rss_mb() { return peak_rss_mb(); }

 private:
  std::uint64_t stream_sum_ = 0;
  std::uint64_t got_ = 0;
  std::uint64_t bad_ = 0;
  std::uint64_t small_ = 0;
};

void run_rtt(const Args& a, Report& r) {
  if (!cxm::socket_env_active()) {
    throw std::runtime_error("rtt-xrank must run under cxrun -np 2 -ppn 1");
  }
  if (a.launch_t < 0.0) {
    throw std::runtime_error("rtt-xrank needs --launch-t");
  }
  pin_to_nth_cpu(cxm::launched_rank());
  // Payloads, built before the job starts.
  std::vector<std::uint64_t> large(kLargeWords), stream(kStreamWords);
  for (int i = 0; i < kLargeWords; ++i) large[i] = mix(a.seed + 7 * i);
  for (int i = 0; i < kStreamWords; ++i) stream[i] = mix(a.seed ^ (i + 1ULL));
  const std::uint64_t stream_sum = word_sum(stream);

  Spans spans;
  cx::RuntimeConfig cfg;  // the CXRUN_* environment selects the socket job
  cx::Runtime rt(cfg);
  if (rt.num_pes() != 2 || rt.num_ranks() != 2) {
    throw std::runtime_error("rtt-xrank needs -np 2 -ppn 1");
  }
  rt.run([&] {
    LayerExtras x;
    const double c0 = mono_now();
    auto echo = cx::create_chare<Echo>(1, stream_sum);
    auto first = echo.call<&Echo::echo8>(std::uint64_t{1}).get();
    const double t_first = mono_now();
    spans.add("core.create", c0, t_first);
    x.wireup_s = t_first - a.launch_t;
    r.attempt();
    if (first.v != 1) r.fail("rtt-xrank: first echo returned wrong value");

    // One round trip of each kind; returns its seconds and the one-way
    // stamps, counting a wrong echo as a failure.
    std::uint64_t seq = 0;
    double fwd = 0.0, back = 0.0;
    auto small_rt = [&] {
      const std::uint64_t v = mix(a.seed + (++seq));
      const double ts = mono_now();
      const Stamped8 e = echo.call<&Echo::echo8>(v).get();
      const double tr = mono_now();
      fwd = e.t - ts;
      back = tr - e.t;
      r.attempt();
      if (e.v != v) r.fail("rtt-xrank: 8 B echo differs from payload");
      return tr - ts;
    };
    auto large_rt = [&] {
      large[0] = ++seq;  // distinct payload per call
      const double ts = mono_now();
      const StampedVec e = echo.call<&Echo::echo64k>(large).get();
      const double tr = mono_now();
      r.attempt();
      if (e.v != large) r.fail("rtt-xrank: 64 KiB echo differs from payload");
      return tr - ts;
    };
    for (int i = 0; i < kWarmOps; ++i) {
      (void)small_rt();
      (void)large_rt();
    }
    const double setup_s = mono_now() - a.launch_t;

    // Phase 1: closed loop, seeded size order.
    const Counts remote0 = echo.call<&Echo::counts>().get();
    const Counts local0 = read_counts(Snap::of(cx::trace::counters(0)));
    std::vector<double> rt_small, rt_large, fwd_small, back_small;
    std::uint64_t draw = a.seed;
    const double w0 = mono_now();
    for (int i = 0; i < kOps; ++i) {
      draw = mix(draw);
      if ((draw & 1) == 0) {
        rt_small.push_back(small_rt());
        fwd_small.push_back(fwd);
        back_small.push_back(back);
      } else {
        rt_large.push_back(large_rt());
      }
    }
    const double p1_wall = mono_now() - w0;
    const Counts local1 = read_counts(Snap::of(cx::trace::counters(0)));
    const Counts remote1 = echo.call<&Echo::counts>().get();

    // Phase 2: 4 MiB one-way stream in closed windows.
    std::vector<double> window_rate;
    std::uint64_t sent = 0;
    for (int w = 0; w < kWindows; ++w) {
      const double ts = mono_now();
      for (int i = 0; i < kWindow; ++i) echo.send<&Echo::sink>(stream);
      sent += kWindow;
      const std::vector<std::uint64_t> ack =
          echo.call<&Echo::drain>().get();
      window_rate.push_back(kWindow * kStreamWords * 8.0 /
                            (mono_now() - ts));
      r.attempt(kWindow);
      if (ack.size() != 2 || ack[0] != sent) {
        r.fail("rtt-xrank: stream window not acknowledged in full",
               kWindow);
      }
    }
    const std::vector<std::uint64_t> fin = echo.call<&Echo::drain>().get();
    if (fin.size() != 2 || fin[1] > 0) {
      r.fail("rtt-xrank: streamed 4 MiB payloads arrived wrong",
             fin.size() == 2 ? fin[1] : sent);
    }

    if (a.trace) {
      kernel_spans(spans);
      for (int i = 0; i < kSends; ++i) {
        const double ts = mono_now();
        echo.send<&Echo::sink8>(std::uint64_t{1});
        spans.add("core.send_call", ts, mono_now());
      }
      r.attempt();
      if (echo.call<&Echo::small_count>().get() != kSends) {
        r.fail("rtt-xrank: send burst lost messages");
      }
    }
    const double rss1 = echo.call<&Echo::rss_mb>().get();

    r.series("setup_s", {setup_s});
    r.series("op_s", rt_small);          // 8 B round trips
    r.series("work_per_s", window_rate); // streamed payload bytes/s
    r.metric("peak_rss_MB", std::max(peak_rss_mb(), rss1));

    if (a.trace) {
      const Counts d = counts_plus(
          counts_minus(local1, local0),
          counts_minus(remote1, remote0));
      x.ops = static_cast<double>(rt_small.size() + rt_large.size());
      x.wall_s = p1_wall;
      x.pes = 2;
      x.oneway_fwd_us = median(fwd_small) * 1e6;
      x.oneway_back_us = median(back_small) * 1e6;
      x.rtt_large_us = median(rt_large) * 1e6;
      emit_layers(r, spans, d, x);
      spans.dump(a.spans_out);
    }
    cx::exit();
  });
}

}  // namespace bench
