#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "apps/leanmd/leanmd_common.hpp"
#include "apps/stencil/stencil_common.hpp"
#include "pup/pup.hpp"

namespace bench {

void Spans::add(const std::string& name, double t0, double t1) {
  spans_.push_back({name, t0, t1});
}

double Spans::median_of(const std::string& name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (s.name == name) d.push_back(s.t1 - s.t0);
  }
  return median(std::move(d));
}

void Spans::dump(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream os(path);
  for (const Span& s : spans_) {
    char line[256];
    std::snprintf(line, sizeof(line), "{\"name\": \"%s\", \"t0\": %.9f, "
                  "\"t1\": %.9f}\n", s.name.c_str(), s.t0, s.t1);
    os << line;
  }
}

Counts read_counts(const Snap& snap) {
  return Counts{snap, cx::trace::wire_stats(), cx::trace::when_stats(),
                cx::trace::pool_stats()};
}

Counts counts_minus(const Counts& b, const Counts& a) {
  Counts d = b;
  d.snap = b.snap.minus(a.snap);
  d.wire.envelopes -= a.wire.envelopes;
  d.wire.bytes_packed -= a.wire.bytes_packed;
  d.wire.sbo_payloads -= a.wire.sbo_payloads;
  d.wire.buf_allocs -= a.wire.buf_allocs;
  d.wire.buf_hits -= a.wire.buf_hits;
  d.wire.msg_allocs -= a.wire.msg_allocs;
  d.wire.msg_hits -= a.wire.msg_hits;
  d.wire.transport_msgs -= a.wire.transport_msgs;
  d.when.tests -= a.when.tests;
  d.when.hits -= a.when.hits;
  d.when.buffered -= a.when.buffered;
  d.when.skipped -= a.when.skipped;
  d.pool.grants -= a.pool.grants;
  d.pool.granted_tasks -= a.pool.granted_tasks;
  d.pool.steal_attempts -= a.pool.steal_attempts;
  d.pool.steal_hits -= a.pool.steal_hits;
  d.pool.result_batches -= a.pool.result_batches;
  d.pool.tasks_done -= a.pool.tasks_done;
  d.pool.task_ns_sum -= a.pool.task_ns_sum;
  return d;
}

Counts counts_plus(const Counts& a, const Counts& b) {
  Counts s = a;
  s.snap += b.snap;
  s.wire.envelopes += b.wire.envelopes;
  s.wire.bytes_packed += b.wire.bytes_packed;
  s.wire.sbo_payloads += b.wire.sbo_payloads;
  s.wire.buf_allocs += b.wire.buf_allocs;
  s.wire.buf_hits += b.wire.buf_hits;
  s.wire.msg_allocs += b.wire.msg_allocs;
  s.wire.msg_hits += b.wire.msg_hits;
  s.wire.transport_msgs += b.wire.transport_msgs;
  s.when.tests += b.when.tests;
  s.when.hits += b.when.hits;
  s.when.buffered += b.when.buffered;
  s.when.skipped += b.when.skipped;
  s.pool.grants += b.pool.grants;
  s.pool.granted_tasks += b.pool.granted_tasks;
  s.pool.steal_attempts += b.pool.steal_attempts;
  s.pool.steal_hits += b.pool.steal_hits;
  s.pool.result_batches += b.pool.result_batches;
  s.pool.tasks_done += b.pool.tasks_done;
  s.pool.task_ns_sum += b.pool.task_ns_sum;
  s.pool.queue_high_water =
      std::max(s.pool.queue_high_water, b.pool.queue_high_water);
  return s;
}

namespace {

volatile double g_sink = 0.0;  // keeps kernel results observable

}  // namespace

void kernel_spans(Spans& spans) {
  // Stencil kernel at the halo3d block size (16^3 interior cells).
  stencil::Geometry g{4, 4, 4, 16, 16, 16};
  stencil::Block block(g, 1, 1, 1);
  for (int rep = 0; rep < 15; ++rep) {
    const double t0 = mono_now();
    for (int i = 0; i < 20; ++i) block.compute();
    spans.add("apps.stencil_compute20", t0, mono_now());
  }
  g_sink = block.checksum();

  // LJ pair kernel at the md-dyn density (16 atoms per 4^3 cell).
  leanmd::PhysParams p;
  p.cx = p.cy = p.cz = 4;
  p.ppc = 16;
  const leanmd::Atoms a = leanmd::init_cell(p, 1, 1, 1);
  const leanmd::Atoms b = leanmd::init_cell(p, 1, 1, 2);
  const double shift[3] = {0.0, 0.0, 0.0};
  std::vector<double> fa, fb;
  for (int rep = 0; rep < 15; ++rep) {
    const double t0 = mono_now();
    double e = 0.0;
    for (int i = 0; i < 200; ++i) {
      e += leanmd::lj_pair_forces(p, a.pos, b.pos, shift, fa, fb);
    }
    spans.add("apps.lj_pair200", t0, mono_now());
    g_sink = e;
  }

  // PUP: a 64 KiB payload plus one 16x16 ghost face per pack.
  std::vector<std::uint64_t> big(8192, 0x5a5a5a5a5a5a5a5aULL);
  std::vector<double> face(256, 1.5);
  for (int rep = 0; rep < 15; ++rep) {
    const double t0 = mono_now();
    std::size_t n = 0;
    for (int i = 0; i < 50; ++i) {
      n += pup::to_bytes(big).size();
      n += pup::to_bytes(face).size();
    }
    spans.add("pup.pack50", t0, mono_now());
    g_sink = static_cast<double>(n);
  }
}

void threaded_probes(Spans& spans, LayerExtras& x, Report& r) {
  constexpr int kStamps = 2000;
  constexpr int kSends = 2000;
  constexpr int kLarge = 500;
  cx::RuntimeConfig cfg;
  cfg.machine.num_pes = 4;
  const double t0 = mono_now();
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto probe = cx::create_group<Probe>();
    (void)probe[cx::Index(1)].call<&Probe::stamp>().get();
    x.wireup_s = mono_now() - t0;
    std::vector<double> fwd, back;
    for (int i = 0; i < kStamps; ++i) {
      const double ts = mono_now();
      const double te = probe[cx::Index(1)].call<&Probe::stamp>().get();
      const double tr = mono_now();
      fwd.push_back((te - ts) * 1e6);
      back.push_back((tr - te) * 1e6);
    }
    x.oneway_fwd_us = median(fwd);
    x.oneway_back_us = median(back);
    std::vector<std::uint64_t> payload(8192, 7);
    std::vector<double> large;
    for (int i = 0; i < kLarge; ++i) {
      payload[0] = static_cast<std::uint64_t>(i);
      const double ts = mono_now();
      const auto back_payload =
          probe[cx::Index(1)].call<&Probe::echo>(payload).get();
      large.push_back((mono_now() - ts) * 1e6);
      r.attempt();
      if (back_payload != payload) r.fail("probe 64 KiB echo differs");
    }
    x.rtt_large_us = median(large);
    for (int i = 0; i < kSends; ++i) {
      const double ts = mono_now();
      probe[cx::Index(1)].send<&Probe::sink>(std::uint64_t{1});
      spans.add("core.send_call", ts, mono_now());
    }
    r.attempt();
    const std::uint64_t got =
        probe[cx::Index(1)].call<&Probe::count>().get();
    if (got != static_cast<std::uint64_t>(kSends)) {
      r.fail("probe sink received " + std::to_string(got) + " of " +
             std::to_string(kSends) + " sends");
    }
    cx::exit();
  });
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void emit_layers(Report& r, const Spans& spans, const Counts& d,
                 const LayerExtras& x) {
  const double cells = 16.0 * 16.0 * 16.0;
  const double padded = 18.0 * 18.0 * 18.0;
  const double pairs = 16.0 * 16.0;
  const double pack_kib = 50.0 * (8192.0 * 8.0 + 256.0 * 8.0) / 1024.0;
  const double ops = std::max(1.0, x.ops);
  const Snap& s = d.snap;
  const double pe_wall = static_cast<double>(x.pes) * x.wall_s;

  r.metric("apps.stencil_ns_per_cell",
           spans.median_of("apps.stencil_compute20") * 1e9 / (20.0 * cells));
  // Computed: the padded current field read and the padded next field
  // written, per interior cell.
  r.metric("apps.stencil_bytes_per_cell", 2.0 * padded * 8.0 / cells);
  r.metric("apps.lj_ns_per_pair",
           spans.median_of("apps.lj_pair200") * 1e9 / (200.0 * pairs));

  r.metric("core.entry_busy_frac", ratio(s.entry_time, pe_wall));
  r.metric("core.idle_frac", ratio(s.idle_time, pe_wall));
  r.metric("core.msgs_per_iter", static_cast<double>(s.msgs_sent) / ops);
  r.metric("core.bytes_per_iter", static_cast<double>(s.bytes_sent) / ops);
  r.metric("core.when_buffered_per_iter",
           static_cast<double>(d.when.buffered) / ops);
  r.metric("core.when_tests_per_iter",
           static_cast<double>(d.when.tests) / ops);
  r.metric("core.when_skipped_frac",
           ratio(static_cast<double>(d.when.skipped),
                 static_cast<double>(d.when.tests + d.when.skipped)));
  r.metric("core.migrations_per_step",
           static_cast<double>(s.migrations_out) / ops);
  r.metric("core.send_call_ns", spans.median_of("core.send_call") * 1e9);
  r.metric("core.create_s", spans.median_of("core.create"));

  r.metric("model.dyn_over_typed", x.dyn_over_typed);
  r.metric("model.dispatches_per_iter",
           static_cast<double>(s.dyn_dispatches) / ops);
  r.metric("model.entry_us_mean",
           ratio(s.entry_time * 1e6, static_cast<double>(s.entries)));

  r.metric("pup.pack_ns_per_KiB", spans.median_of("pup.pack50") * 1e9 /
                                      pack_kib);

  const auto& w = d.wire;
  r.metric("wire.envelopes_per_op", static_cast<double>(w.envelopes) / ops);
  r.metric("wire.sbo_frac", ratio(static_cast<double>(w.sbo_payloads),
                                  static_cast<double>(w.envelopes)));
  r.metric("wire.buf_hit_frac",
           ratio(static_cast<double>(w.buf_hits),
                 static_cast<double>(w.buf_hits + w.buf_allocs)));
  r.metric("wire.msg_hit_frac",
           ratio(static_cast<double>(w.msg_hits),
                 static_cast<double>(w.msg_hits + w.msg_allocs)));

  r.metric("machine.transport_per_iter",
           static_cast<double>(w.transport_msgs) / ops);
  r.metric("machine.local_frac",
           ratio(static_cast<double>(s.msgs_sent) -
                     static_cast<double>(w.transport_msgs),
                 static_cast<double>(s.msgs_sent)));

  r.metric("net.oneway_fwd_us_p50", x.oneway_fwd_us);
  r.metric("net.oneway_back_us_p50", x.oneway_back_us);
  r.metric("net.rtt_large_us_p50", x.rtt_large_us);
  r.metric("net.wireup_s", x.wireup_s);

  r.metric("fiber.suspends_per_op",
           static_cast<double>(s.fiber_suspends) / ops);

  r.metric("ft.acks_per_msg", ratio(static_cast<double>(s.ft_acks),
                                    static_cast<double>(w.transport_msgs)));
  r.metric("ft.retransmit_frac",
           ratio(static_cast<double>(s.ft_retransmits),
                 static_cast<double>(w.transport_msgs)));

  const auto& p = d.pool;
  r.metric("pool.grants_per_ktask", x.grants_per_ktask);
  r.metric("pool.chunk_mean", p.mean_chunk());
  r.metric("pool.steal_hit_frac", p.steal_hit_rate());
  // Executions beyond one per granted task (resubmits and stolen reruns).
  r.metric("pool.rerun_frac",
           p.granted_tasks > 0
               ? ratio(static_cast<double>(p.tasks_done) -
                           static_cast<double>(p.granted_tasks),
                       static_cast<double>(p.granted_tasks))
               : 0.0);
  r.metric("pool.batches_per_ktask",
           ratio(1000.0 * static_cast<double>(p.result_batches),
                 static_cast<double>(p.tasks_done)));
  r.metric("pool.task_ns_mean", p.mean_task_s() * 1e9);
  r.metric("pool.queue_high_water", static_cast<double>(p.queue_high_water));

  r.metric("trace.count_mismatches", x.count_mismatches);
}

int compare_exact(const std::string& workload, const Counts& a,
                  const Counts& b, const std::vector<std::string>& names) {
  auto value = [](const Counts& c, const std::string& name) -> std::uint64_t {
    if (name == "msgs_sent") return c.snap.msgs_sent;
    if (name == "transport_msgs") return c.wire.transport_msgs;
    if (name == "envelopes") return c.wire.envelopes;
    if (name == "when_buffered") return c.when.buffered;
    if (name == "pool_grants") return c.pool.grants;
    throw std::invalid_argument("unknown exact count " + name);
  };
  int bad = 0;
  for (const std::string& name : names) {
    const std::uint64_t va = value(a, name), vb = value(b, name);
    if (va != vb) {
      ++bad;
      std::fprintf(stderr, "cxbench: %s: exact count %s differs between "
                   "count segments: %llu vs %llu\n", workload.c_str(),
                   name.c_str(), static_cast<unsigned long long>(va),
                   static_cast<unsigned long long>(vb));
    }
  }
  return bad;
}

}  // namespace bench
