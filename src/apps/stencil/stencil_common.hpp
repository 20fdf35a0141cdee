#pragma once
// Shared pieces of the stencil3d mini-app (paper §V-A/B): block geometry,
// the 7-point Jacobi kernel, ghost-face extraction/injection, the
// synthetic imbalance model, and a serial reference for correctness
// tests.
//
// The global grid is decomposed into bx*by*bz equal blocks of
// nx*ny*nz interior cells each. Faces are numbered 0:-x 1:+x 2:-y 3:+y
// 4:-z 5:+z; the opposite face of f is f^1.

#include <cstdint>
#include <vector>

#include "core/index.hpp"
#include "pup/pup.hpp"

namespace stencil {

struct Geometry {
  int bx = 2, by = 2, bz = 2;  ///< block grid (in blocks)
  int nx = 8, ny = 8, nz = 8;  ///< interior cells per block

  [[nodiscard]] std::int64_t num_blocks() const {
    return static_cast<std::int64_t>(bx) * by * bz;
  }
  [[nodiscard]] std::int64_t cells_per_block() const {
    return static_cast<std::int64_t>(nx) * ny * nz;
  }
  void pup(pup::Er& p) {
    p | bx;
    p | by;
    p | bz;
    p | nx;
    p | ny;
    p | nz;
  }
};

/// Execution parameters shared by all three variants.
struct Params {
  Geometry geo;
  int iterations = 10;
  bool real_kernel = true;  ///< false: charge modeled cost, skip the math
  double cell_cost = 2.0e-9;  ///< modeled seconds per cell update

  // Synthetic imbalance (paper §V-B). The block grid is partitioned
  // into `num_load_groups` contiguous chunks of the linearized index —
  // exactly the MPI-rank partition of the block map — and all chares in
  // one group ("MPI block") share the group's alpha factor.
  bool imbalance = false;
  int num_load_groups = 1;
  /// Iterations per phase step of the alpha model. The paper's formula
  /// is typographically garbled; with 1 (literal reading) the hot spot
  /// rotates every iteration, with ~lb_period (slow-drift reading) the
  /// load is near-static within an LB window — which reproduces the
  /// paper's 1.9x-2.27x LB gains. See EXPERIMENTS.md.
  int imb_drift = 1;

  int lb_period = 0;  ///< AtSync every N iterations (0 = off)

  /// cx::ft: checkpoint every N iterations (0 = off). The cx variant
  /// then runs in phases of N iterations with a collective checkpoint
  /// between phases, and rolls back to the last checkpoint when a PE
  /// dies mid-phase.
  int ckpt_every = 0;

  void pup(pup::Er& p) {
    p | geo;
    p | iterations;
    p | real_kernel;
    p | cell_cost;
    p | imbalance;
    p | num_load_groups;
    p | imb_drift;
    p | lb_period;
    p | ckpt_every;
  }
};

// Raw kernel functions over ghost-padded fields of shape
// (nx+2)*(ny+2)*(nz+2). These are the "numba-compiled" functions of the
// paper: the dynamic (cpy) variant applies them directly to the buffers
// of its array attributes, the typed variant through the Block wrapper.
//
// `compute` sweeps the field row by row over raw pointers and does two
// cells per 16-byte SIMD register (GCC/Clang vector extension), two
// registers per loop step with a scalar tail. Each lane does the scalar
// update's seven adds in the same order and divides by 7.0, so results
// are bit-identical to the one-cell-at-a-time loop on every backend. Face
// copies move whole nz-cell rows with memcpy (faces 0-3) or one strided
// pass (faces 4/5). compute and the face copies throw
// std::invalid_argument on a field of the wrong size, and inject_face
// also when `data` is not exactly one face.
namespace kern {

std::size_t field_size(int nx, int ny, int nz);
void init_field(const Geometry& g, int bx_i, int by_i, int bz_i,
                std::vector<double>& cur);
void compute(int nx, int ny, int nz, const std::vector<double>& cur,
             std::vector<double>& next);
std::vector<double> extract_face(int nx, int ny, int nz,
                                 const std::vector<double>& cur, int face);
void inject_face(int nx, int ny, int nz, std::vector<double>& cur, int face,
                 const std::vector<double>& data);
double checksum(int nx, int ny, int nz, const std::vector<double>& cur);
std::int64_t face_cells(int nx, int ny, int nz, int face);

}  // namespace kern

/// Dense block field with one ghost layer; linear index helper.
class Block {
 public:
  Block() = default;
  Block(const Geometry& g, int bx_i, int by_i, int bz_i);

  /// Jacobi 7-point update of the interior from `cur` into `next`,
  /// then swap. Ghost cells must have been injected first.
  void compute();

  [[nodiscard]] std::vector<double> extract_face(int face) const;
  void inject_face(int face, const std::vector<double>& data);
  /// Zero the ghost layer of a physical-boundary face.
  void zero_face(int face);

  [[nodiscard]] double checksum() const;  ///< sum of interior cells
  [[nodiscard]] std::int64_t face_cells(int face) const;

  void pup(pup::Er& p) {
    p | nx_;
    p | ny_;
    p | nz_;
    p | cur_;
    p | next_;
  }

  [[nodiscard]] const std::vector<double>& raw() const { return cur_; }
  [[nodiscard]] std::vector<double>& raw() { return cur_; }

 private:
  [[nodiscard]] std::size_t at(int i, int j, int k) const {
    return (static_cast<std::size_t>(i) * static_cast<std::size_t>(ny_ + 2) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(nz_ + 2) +
           static_cast<std::size_t>(k);
  }

  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<double> cur_, next_;
};

/// Deterministic initial value of global cell (gi, gj, gk) — used by all
/// variants and the serial reference so checksums agree.
double initial_value(int gi, int gj, int gk);

/// Number of existing neighbors of block (x, y, z) (non-periodic).
int neighbor_count(const Geometry& g, int x, int y, int z);

/// Visit existing neighbors: fn(face, nbr_x, nbr_y, nbr_z).
template <typename Fn>
void for_each_neighbor(const Geometry& g, int x, int y, int z, Fn&& fn) {
  if (x > 0) fn(0, x - 1, y, z);
  if (x < g.bx - 1) fn(1, x + 1, y, z);
  if (y > 0) fn(2, x, y - 1, z);
  if (y < g.by - 1) fn(3, x, y + 1, z);
  if (z > 0) fn(4, x, y, z - 1);
  if (z < g.bz - 1) fn(5, x, y, z + 1);
}

/// The paper's alpha load factor for load group `i` of `n` at iteration
/// `iter`: edge groups (i < 0.2n or i >= 0.8n) have a fixed alpha of 10;
/// middle groups cycle through [100, 600].
double alpha_factor(std::int64_t i, std::int64_t n, int iter);

/// Load group ("MPI block") of block (x, y, z): the contiguous chunk of
/// the linearized block index, matching the block placement map.
std::int64_t load_group(const Params& p, int x, int y, int z);

/// Serial reference: run the full grid for `iterations` steps; returns
/// the final checksum. Used by tests to validate all three variants.
double serial_checksum(const Geometry& g, int iterations);

/// Modeled kernel time of one block update.
inline double modeled_block_cost(const Params& p) {
  return p.cell_cost * static_cast<double>(p.geo.cells_per_block());
}

/// Result of one run (any variant).
struct Result {
  double elapsed = 0.0;        ///< seconds (virtual for Sim backend)
  double time_per_iter = 0.0;  ///< elapsed / iterations
  double checksum = 0.0;
  std::uint64_t lb_migrations = 0;
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
};

}  // namespace stencil
