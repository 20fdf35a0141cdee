// stencil3d: all three variants must agree with the serial reference,
// the imbalance model must match the paper's description, and load
// balancing must actually help the imbalanced configuration.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "apps/stencil/stencil_common.hpp"
#include "apps/stencil/stencil_cpy.hpp"
#include "apps/stencil/stencil_cx.hpp"
#include "apps/stencil/stencil_mpi.hpp"

namespace {

using namespace stencil;

cxm::MachineConfig threaded(int pes) {
  cxm::MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.backend = cxm::Backend::Threaded;
  return cfg;
}

cxm::MachineConfig sim(int pes) {
  cxm::MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.backend = cxm::Backend::Sim;
  return cfg;
}

Params small_params() {
  Params p;
  p.geo = {2, 2, 2, 6, 5, 4};
  p.iterations = 8;
  p.real_kernel = true;
  return p;
}

TEST(StencilKernel, SingleBlockMatchesSerial) {
  Geometry g{1, 1, 1, 8, 8, 8};
  Block b(g, 0, 0, 0);
  for (int it = 0; it < 5; ++it) b.compute();
  EXPECT_NEAR(b.checksum(), serial_checksum(g, 5), 1e-9);
}

// The one-cell-at-a-time Jacobi loop kern::compute replaced: the SIMD
// sweep must reproduce it bit for bit.
void scalar_compute(int nx, int ny, int nz, const std::vector<double>& cur,
                    std::vector<double>& next) {
  const auto at = [&](int i, int j, int k) {
    return (static_cast<std::size_t>(i) * static_cast<std::size_t>(ny + 2) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(nz + 2) +
           static_cast<std::size_t>(k);
  };
  for (int i = 1; i <= nx; ++i) {
    for (int j = 1; j <= ny; ++j) {
      for (int k = 1; k <= nz; ++k) {
        next[at(i, j, k)] =
            (cur[at(i, j, k)] + cur[at(i - 1, j, k)] + cur[at(i + 1, j, k)] +
             cur[at(i, j - 1, k)] + cur[at(i, j + 1, k)] +
             cur[at(i, j, k - 1)] + cur[at(i, j, k + 1)]) /
            7.0;
      }
    }
  }
}

std::vector<double> random_field(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-1e3, 1e3);
  std::vector<double> f(n);
  for (double& v : f) v = dist(rng);
  return f;
}

TEST(StencilKernel, ComputeIsBitIdenticalToScalarLoop) {
  std::mt19937_64 rng(20181015);
  for (const int nz : {1, 2, 3, 5, 16, 17}) {
    const int nx = 4;
    const int ny = 7;
    const std::size_t size = kern::field_size(nx, ny, nz);
    std::vector<double> cur = random_field(size, rng);
    std::vector<double> ref = cur;
    std::vector<double> next = random_field(size, rng);
    std::vector<double> ref_next = next;
    for (int sweep = 0; sweep < 4; ++sweep) {
      kern::compute(nx, ny, nz, cur, next);
      scalar_compute(nx, ny, nz, ref, ref_next);
      ASSERT_EQ(std::memcmp(next.data(), ref_next.data(),
                            size * sizeof(double)),
                0)
          << "nz=" << nz << " sweep=" << sweep;
      cur.swap(next);
      ref.swap(ref_next);
      // Fresh random ghosts, as a halo exchange would inject.
      for (int face = 0; face < 6; ++face) {
        const auto ghost = random_field(
            static_cast<std::size_t>(kern::face_cells(nx, ny, nz, face)), rng);
        kern::inject_face(nx, ny, nz, cur, face, ghost);
        kern::inject_face(nx, ny, nz, ref, face, ghost);
      }
    }
  }
}

TEST(StencilKernel, FaceRoundtrip) {
  const int nx = 4, ny = 5, nz = 6;
  const auto at = [&](int i, int j, int k) {
    return (static_cast<std::size_t>(i) * (ny + 2) +
            static_cast<std::size_t>(j)) *
               (nz + 2) +
           static_cast<std::size_t>(k);
  };
  // Every cell (ghosts included) holds its own linear index.
  std::vector<double> field(kern::field_size(nx, ny, nz));
  for (std::size_t n = 0; n < field.size(); ++n) {
    field[n] = static_cast<double>(n);
  }
  // Face f's cells in packing order, on layer `interior` (extract) or on
  // the ghost layer outside it (inject).
  const auto face_order = [&](int face, bool ghost) {
    const bool low = face % 2 == 0;
    const auto layer = [&](int n) {
      return low ? (ghost ? 0 : 1) : (ghost ? n + 1 : n);
    };
    std::vector<std::size_t> cells;
    for (int a = 1; a <= (face / 2 == 0 ? ny : nx); ++a) {
      for (int b = 1; b <= (face / 2 == 2 ? ny : nz); ++b) {
        switch (face / 2) {
          case 0: cells.push_back(at(layer(nx), a, b)); break;
          case 1: cells.push_back(at(a, layer(ny), b)); break;
          default: cells.push_back(at(a, b, layer(nz))); break;
        }
      }
    }
    return cells;
  };
  for (int face = 0; face < 6; ++face) {
    const auto data = kern::extract_face(nx, ny, nz, field, face);
    ASSERT_EQ(static_cast<std::int64_t>(data.size()),
              kern::face_cells(nx, ny, nz, face));
    const auto src = face_order(face, false);
    ASSERT_EQ(src.size(), data.size());
    for (std::size_t n = 0; n < data.size(); ++n) {
      EXPECT_EQ(data[n], field[src[n]]) << "face " << face << " value " << n;
    }

    std::vector<double> ghost(data.size());
    for (std::size_t n = 0; n < ghost.size(); ++n) {
      ghost[n] = -1.0 - static_cast<double>(n);
    }
    std::vector<double> target = field;
    kern::inject_face(nx, ny, nz, target, face, ghost);
    std::vector<double> want = field;
    const auto dst = face_order(face, true);
    for (std::size_t n = 0; n < dst.size(); ++n) want[dst[n]] = ghost[n];
    EXPECT_EQ(target, want) << "face " << face;
  }
}

TEST(StencilKernel, ShortOrLongGhostFaceIsRejected) {
  const int nx = 3, ny = 4, nz = 5;
  std::vector<double> field(kern::field_size(nx, ny, nz), 2.5);
  const std::vector<double> before = field;
  for (int face = 0; face < 6; ++face) {
    const auto cells =
        static_cast<std::size_t>(kern::face_cells(nx, ny, nz, face));
    const std::vector<double> short_face(cells - 1, 9.0);
    const std::vector<double> long_face(cells + 1, 9.0);
    EXPECT_THROW(kern::inject_face(nx, ny, nz, field, face, short_face),
                 std::invalid_argument);
    EXPECT_THROW(kern::inject_face(nx, ny, nz, field, face, long_face),
                 std::invalid_argument);
    EXPECT_THROW(kern::inject_face(nx, ny, nz, field, face, {}),
                 std::invalid_argument);
  }
  EXPECT_EQ(field, before);  // a rejected face writes nothing

  Block b(Geometry{1, 1, 1, nx, ny, nz}, 0, 0, 0);
  EXPECT_THROW(b.inject_face(4, std::vector<double>(3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(b.inject_face(6, std::vector<double>(12, 0.0)),
               std::invalid_argument);
  EXPECT_THROW((void)b.extract_face(-1), std::invalid_argument);

  // Fields of the wrong shape are rejected too, before any access.
  std::vector<double> small(field.size() - 1);
  std::vector<double> next(field.size());
  EXPECT_THROW(kern::compute(nx, ny, nz, small, next), std::invalid_argument);
  EXPECT_THROW(kern::compute(nx, ny, nz, next, small), std::invalid_argument);
  EXPECT_THROW(kern::compute(nx, ny, nz, next, next), std::invalid_argument);
  EXPECT_THROW((void)kern::extract_face(nx, ny, nz, small, 0),
               std::invalid_argument);
}

TEST(StencilCx, MatchesSerialReference) {
  const Params p = small_params();
  const double expected = serial_checksum(p.geo, p.iterations);
  const Result r = run_cx(p, threaded(3));
  EXPECT_NEAR(r.checksum, expected, 1e-8);
}

TEST(StencilCx, OverDecompositionDoesNotChangeResults) {
  Params p = small_params();
  p.geo = {4, 2, 2, 3, 5, 4};  // finer blocks, same global grid
  const double expected = serial_checksum(p.geo, p.iterations);
  const Result r = run_cx(p, threaded(2));
  EXPECT_NEAR(r.checksum, expected, 1e-8);
}

TEST(StencilCpy, MatchesSerialReference) {
  const Params p = small_params();
  const double expected = serial_checksum(p.geo, p.iterations);
  const Result r = run_cpy(p, threaded(3));
  EXPECT_NEAR(r.checksum, expected, 1e-8);
}

TEST(StencilMpi, MatchesSerialReference) {
  const Params p = small_params();  // 2x2x2 blocks = 8 ranks
  const double expected = serial_checksum(p.geo, p.iterations);
  const Result r = run_mpi(p, threaded(8));
  EXPECT_NEAR(r.checksum, expected, 1e-8);
}

TEST(StencilAll, VariantsAgreeOnSimBackend) {
  Params p = small_params();
  p.geo = {2, 2, 1, 4, 4, 4};
  p.iterations = 6;
  const double expected = serial_checksum(p.geo, p.iterations);
  EXPECT_NEAR(run_cx(p, sim(2)).checksum, expected, 1e-8);
  EXPECT_NEAR(run_cpy(p, sim(2)).checksum, expected, 1e-8);
  EXPECT_NEAR(run_mpi(p, sim(4)).checksum, expected, 1e-8);
}

TEST(StencilSim, ModeledKernelChargesVirtualTime) {
  Params p;
  p.geo = {2, 2, 2, 16, 16, 16};
  p.iterations = 10;
  p.real_kernel = false;
  p.cell_cost = 1e-8;
  const Result r = run_cx(p, sim(8));
  // 4096 cells * 1e-8 s = ~41 us per block per iteration; 10 iterations.
  EXPECT_GT(r.elapsed, 10 * 4096 * 1e-8 * 0.9);
  EXPECT_LT(r.elapsed, 10 * 4096 * 1e-8 * 20);
}

TEST(StencilImbalance, AlphaFactorMatchesPaperStructure) {
  const std::int64_t n = 100;
  // Edge fifths are fixed at 10.
  EXPECT_DOUBLE_EQ(alpha_factor(0, n, 0), 10.0);
  EXPECT_DOUBLE_EQ(alpha_factor(19, n, 3), 10.0);
  EXPECT_DOUBLE_EQ(alpha_factor(80, n, 7), 10.0);
  EXPECT_DOUBLE_EQ(alpha_factor(99, n, 7), 10.0);
  // Middle groups range in [100, 600).
  for (int iter = 0; iter < 5; ++iter) {
    for (std::int64_t i = 20; i < 80; i += 7) {
      const double a = alpha_factor(i, n, iter);
      EXPECT_GE(a, 100.0);
      EXPECT_LT(a, 600.0);
    }
  }
  // Time-varying: the phase moves with the iteration.
  EXPECT_NE(alpha_factor(40, n, 0), alpha_factor(40, n, 17));
}

TEST(StencilImbalance, LbImprovesImbalancedRunOnSim) {
  // Paper Fig. 3 in miniature: 4 chares/PE, greedy LB every 30 its.
  // (The exact gain depends on how the paper's rotating-phase load
  // aliases against the LB window; the fig3 bench sweeps the paper's
  // full configuration. Here we assert the qualitative claim.)
  Params p;
  p.geo = {8, 4, 4, 8, 8, 8};  // 128 blocks over 32 PEs = 4 per PE
  p.iterations = 120;
  p.real_kernel = false;
  p.cell_cost = 2e-9;
  p.imbalance = true;
  p.num_load_groups = 32;  // one "MPI block" per PE
  const Result no_lb = run_cx(p, sim(32));
  Params p_lb = p;
  p_lb.lb_period = 30;
  const Result lb = run_cx(p_lb, sim(32));
  EXPECT_GT(lb.lb_migrations, 0u);
  const double speedup = no_lb.elapsed / lb.elapsed;
  EXPECT_GT(speedup, 1.5);  // paper sees 1.9x-2.27x
  EXPECT_LT(lb.imbalance_after, lb.imbalance_before);
}

TEST(StencilImbalance, LbKeepsResultsCorrect) {
  Params p = small_params();
  p.geo = {4, 2, 2, 4, 4, 4};
  p.iterations = 12;
  p.imbalance = true;
  p.num_load_groups = 4;
  p.lb_period = 4;
  const double expected = serial_checksum(p.geo, p.iterations);
  const Result r = run_cx(p, sim(4));
  EXPECT_NEAR(r.checksum, expected, 1e-8);
  const Result rd = run_cpy(p, sim(4));
  EXPECT_NEAR(rd.checksum, expected, 1e-8);
}

}  // namespace
