// Kernel-level microbenchmarks (google-benchmark): serialization, the
// dynamic Value type, the condition-expression engine, and the numeric
// kernels. These quantify the constant factors behind the model layer's
// per-message overhead (paper §IV-B serialization and §IV-E Cython
// discussion).

#include <benchmark/benchmark.h>

#include "apps/leanmd/leanmd_common.hpp"
#include "apps/stencil/stencil_common.hpp"
#include "model/expr.hpp"
#include "model/value.hpp"
#include "pup/pup.hpp"

namespace {

// ------------------------------------------------------------------ PUP

void BM_PupPackVectorDouble(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    auto bytes = pup::to_bytes(v);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_PupPackVectorDouble)->Arg(64)->Arg(1024)->Arg(16384);

struct Record {
  std::int64_t id = 7;
  std::string name = "a-record-name";
  std::vector<double> values = std::vector<double>(32, 2.0);
  void pup(pup::Er& p) {
    p | id;
    p | name;
    p | values;
  }
};

void BM_PupRoundtripRecord(benchmark::State& state) {
  Record r;
  for (auto _ : state) {
    auto bytes = pup::to_bytes(r);
    auto back = pup::from_bytes<Record>(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_PupRoundtripRecord);

// ---------------------------------------------------------------- Value

void BM_ValueBoxScalars(benchmark::State& state) {
  for (auto _ : state) {
    cpy::Args args = {cpy::Value(1), cpy::Value(2.5),
                      cpy::Value("method_name")};
    benchmark::DoNotOptimize(args);
  }
}
BENCHMARK(BM_ValueBoxScalars);

void BM_ValuePupArrayFastPath(benchmark::State& state) {
  cpy::Value v = cpy::Value::zeros(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    auto bytes = pup::to_bytes(v);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_ValuePupArrayFastPath)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ValuePupNestedDict(benchmark::State& state) {
  cpy::Value v = cpy::Value::dict(
      {{"xs", cpy::Value::list({cpy::Value(1), cpy::Value("two"),
                                cpy::Value(3.5)})},
       {"cfg", cpy::Value::dict({{"k", cpy::Value(5)}})}});
  for (auto _ : state) {
    auto bytes = pup::to_bytes(v);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_ValuePupNestedDict);

// ----------------------------------------------------------------- Expr

void BM_ExprCompile(benchmark::State& state) {
  for (auto _ : state) {
    auto e = cpy::Expr::compile("self.msg_count == len(self.neighbors)");
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_ExprCompile);

void BM_ExprEvalWhenCondition(benchmark::State& state) {
  const auto expr = cpy::Expr::compile("self.iter == iter");
  const cpy::Value self =
      cpy::Value::dict({{"iter", cpy::Value(3)}});
  const std::vector<std::string> params = {"iter", "data"};
  const cpy::Args args = {cpy::Value(3), cpy::Value("payload")};
  for (auto _ : state) {
    const bool ok = expr.test(cpy::make_resolver(self, params, args));
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ExprEvalWhenCondition);

// -------------------------------------------------------------- kernels

/// An n^3 block whose ghost layers hold 1.0 in both buffers, so repeated
/// sweeps relax the field toward 1.0. With zero ghosts it decays toward
/// 0, and after ~1e5 sweeps of a small block the timing would measure
/// subnormal arithmetic instead of the kernel.
std::vector<double> relaxing_block(int n) {
  std::vector<double> f;
  stencil::kern::init_field(stencil::Geometry{1, 1, 1, n, n, n}, 0, 0, 0, f);
  const std::vector<double> ones(static_cast<std::size_t>(n) * n, 1.0);
  for (int face = 0; face < 6; ++face) {
    stencil::kern::inject_face(n, n, n, f, face, ones);
  }
  return f;
}

void BM_StencilKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> cur = relaxing_block(n);
  std::vector<double> next = cur;
  for (auto _ : state) {
    stencil::kern::compute(n, n, n, cur, next);
    cur.swap(next);
    benchmark::DoNotOptimize(cur.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_StencilKernel)->Arg(8)->Arg(16)->Arg(32);

/// One block's halo traffic: extract all six faces, inject all six.
void BM_StencilHaloFaces(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> f = relaxing_block(n);
  for (auto _ : state) {
    for (int face = 0; face < 6; ++face) {
      const auto data = stencil::kern::extract_face(n, n, n, f, face);
      stencil::kern::inject_face(n, n, n, f, face ^ 1, data);
    }
    benchmark::DoNotOptimize(f.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 6 * n * n);
}
BENCHMARK(BM_StencilHaloFaces)->Arg(16)->Arg(32);

void BM_LJPairForces(benchmark::State& state) {
  leanmd::PhysParams p;
  p.ppc = static_cast<int>(state.range(0));
  const leanmd::Atoms a = leanmd::init_cell(p, 0, 0, 0);
  const leanmd::Atoms b = leanmd::init_cell(p, 1, 0, 0);
  const double shift[3] = {0, 0, 0};
  std::vector<double> fa, fb;
  for (auto _ : state) {
    const double pe = leanmd::lj_pair_forces(p, a.pos, b.pos, shift, fa, fb);
    benchmark::DoNotOptimize(pe);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_LJPairForces)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
