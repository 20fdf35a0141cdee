#include "apps/stencil/stencil_common.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace stencil {

namespace kern {

namespace {
inline std::size_t at(int ny, int nz, int i, int j, int k) {
  return (static_cast<std::size_t>(i) * static_cast<std::size_t>(ny + 2) +
          static_cast<std::size_t>(j)) *
             static_cast<std::size_t>(nz + 2) +
         static_cast<std::size_t>(k);
}

// Two doubles in one 16-byte SIMD register (SSE2 on x86-64, NEON on
// AArch64): part of the baseline ISA, so no -O3, -march or fast-math
// is involved. Element-wise + and / are the scalar IEEE operations.
using f64x2 = double __attribute__((vector_size(16)));

inline f64x2 load2(const double* p) {
  f64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, f64x2 v) { std::memcpy(p, &v, sizeof v); }

/// Jacobi update of one row of `len` cells starting at `c` into `out`;
/// the i and j neighbours are the rows `sx` and `sy` cells away, the k
/// neighbours this row shifted by one cell. Each lane does the scalar
/// update's seven adds in the same order, then the same division, so
/// the results are bit-identical to one cell at a time.
inline void sweep_row(const double* c, double* out, std::size_t sx,
                      std::size_t sy, std::size_t len) {
  const double* xm = c - sx;
  const double* xp = c + sx;
  const double* ym = c - sy;
  const double* yp = c + sy;
  const f64x2 seven = {7.0, 7.0};
  const auto pair = [&](std::size_t k) {
    store2(out + k, (load2(c + k) + load2(xm + k) + load2(xp + k) +
                     load2(ym + k) + load2(yp + k) + load2(c + k - 1) +
                     load2(c + k + 1)) /
                        seven);
  };
  std::size_t k = 0;
  for (; k + 4 <= len; k += 4) {
    pair(k);
    pair(k + 2);
  }
  if (k + 2 <= len) {
    pair(k);
    k += 2;
  }
  for (; k < len; ++k) {
    out[k] =
        (c[k] + xm[k] + xp[k] + ym[k] + yp[k] + c[k - 1] + c[k + 1]) / 7.0;
  }
}

void check_face(int nx, int ny, int nz, const std::vector<double>& cur,
                int face) {
  if (face < 0 || face > 5) throw std::invalid_argument("bad face");
  if (cur.size() != field_size(nx, ny, nz)) {
    throw std::invalid_argument("stencil ghost face: field size mismatch");
  }
}

/// Walk face `face` of a field as rows: fn(offset, stride, len) per row,
/// in the order the face's values are packed. `ghost` selects the ghost
/// layer outside the face instead of the interior layer on it. Faces 0-3
/// are contiguous nz-cell rows (stride 1); faces 4/5 are strided.
template <typename Fn>
void for_each_face_row(int nx, int ny, int nz, int face, bool ghost,
                       Fn&& fn) {
  const bool low = face % 2 == 0;
  const auto layer = [&](int n) {
    return low ? (ghost ? 0 : 1) : (ghost ? n + 1 : n);
  };
  const auto row = static_cast<std::size_t>(nz);
  switch (face / 2) {
    case 0: {
      const int i = layer(nx);
      for (int j = 1; j <= ny; ++j) fn(at(ny, nz, i, j, 1), 1, row);
      break;
    }
    case 1: {
      const int j = layer(ny);
      for (int i = 1; i <= nx; ++i) fn(at(ny, nz, i, j, 1), 1, row);
      break;
    }
    default: {
      const int k = layer(nz);
      const std::size_t stride = row + 2;
      const auto len = static_cast<std::size_t>(ny);
      for (int i = 1; i <= nx; ++i) fn(at(ny, nz, i, 1, k), stride, len);
      break;
    }
  }
}
}  // namespace

std::size_t field_size(int nx, int ny, int nz) {
  return static_cast<std::size_t>(nx + 2) * static_cast<std::size_t>(ny + 2) *
         static_cast<std::size_t>(nz + 2);
}

void init_field(const Geometry& g, int bx_i, int by_i, int bz_i,
                std::vector<double>& cur) {
  cur.assign(field_size(g.nx, g.ny, g.nz), 0.0);
  for (int i = 1; i <= g.nx; ++i) {
    for (int j = 1; j <= g.ny; ++j) {
      for (int k = 1; k <= g.nz; ++k) {
        cur[at(g.ny, g.nz, i, j, k)] =
            initial_value(bx_i * g.nx + i - 1, by_i * g.ny + j - 1,
                          bz_i * g.nz + k - 1);
      }
    }
  }
}

void compute(int nx, int ny, int nz, const std::vector<double>& cur,
             std::vector<double>& next) {
  const std::size_t size = field_size(nx, ny, nz);
  if (cur.size() != size || next.size() != size) {
    throw std::invalid_argument("stencil kernel: field size mismatch");
  }
  if (cur.data() == next.data()) {
    throw std::invalid_argument("stencil kernel: cur and next alias");
  }
  const std::size_t sy = static_cast<std::size_t>(nz) + 2;
  const std::size_t sx = (static_cast<std::size_t>(ny) + 2) * sy;
  const auto len = static_cast<std::size_t>(nz);
  const double* src = cur.data();
  double* dst = next.data();
  for (int i = 1; i <= nx; ++i) {
    for (int j = 1; j <= ny; ++j) {
      const std::size_t row = at(ny, nz, i, j, 1);
      sweep_row(src + row, dst + row, sx, sy, len);
    }
  }
}

std::vector<double> extract_face(int nx, int ny, int nz,
                                 const std::vector<double>& cur, int face) {
  check_face(nx, ny, nz, cur, face);
  std::vector<double> out(
      static_cast<std::size_t>(face_cells(nx, ny, nz, face)));
  const double* field = cur.data();
  double* dst = out.data();
  for_each_face_row(nx, ny, nz, face, /*ghost=*/false,
                    [&](std::size_t off, std::size_t stride, std::size_t len) {
                      const double* src = field + off;
                      if (stride == 1) {
                        std::memcpy(dst, src, len * sizeof(double));
                      } else {
                        for (std::size_t n = 0; n < len; ++n) {
                          dst[n] = src[n * stride];
                        }
                      }
                      dst += len;
                    });
  return out;
}

void inject_face(int nx, int ny, int nz, std::vector<double>& cur, int face,
                 const std::vector<double>& data) {
  check_face(nx, ny, nz, cur, face);
  if (data.size() != static_cast<std::size_t>(face_cells(nx, ny, nz, face))) {
    throw std::invalid_argument("stencil ghost face: expected " +
                                std::to_string(face_cells(nx, ny, nz, face)) +
                                " values, got " + std::to_string(data.size()));
  }
  double* field = cur.data();
  const double* src = data.data();
  for_each_face_row(nx, ny, nz, face, /*ghost=*/true,
                    [&](std::size_t off, std::size_t stride, std::size_t len) {
                      double* dst = field + off;
                      if (stride == 1) {
                        std::memcpy(dst, src, len * sizeof(double));
                      } else {
                        for (std::size_t n = 0; n < len; ++n) {
                          dst[n * stride] = src[n];
                        }
                      }
                      src += len;
                    });
}

double checksum(int nx, int ny, int nz, const std::vector<double>& cur) {
  double sum = 0.0;
  for (int i = 1; i <= nx; ++i)
    for (int j = 1; j <= ny; ++j)
      for (int k = 1; k <= nz; ++k) sum += cur[at(ny, nz, i, j, k)];
  return sum;
}

std::int64_t face_cells(int nx, int ny, int nz, int face) {
  switch (face / 2) {
    case 0: return static_cast<std::int64_t>(ny) * nz;
    case 1: return static_cast<std::int64_t>(nx) * nz;
    default: return static_cast<std::int64_t>(nx) * ny;
  }
}

}  // namespace kern

// ---------------------------------------------------------------------------

Block::Block(const Geometry& g, int bx_i, int by_i, int bz_i)
    : nx_(g.nx), ny_(g.ny), nz_(g.nz) {
  kern::init_field(g, bx_i, by_i, bz_i, cur_);
  next_.assign(cur_.size(), 0.0);
}

void Block::compute() {
  kern::compute(nx_, ny_, nz_, cur_, next_);
  cur_.swap(next_);
}

std::vector<double> Block::extract_face(int face) const {
  return kern::extract_face(nx_, ny_, nz_, cur_, face);
}

void Block::inject_face(int face, const std::vector<double>& data) {
  kern::inject_face(nx_, ny_, nz_, cur_, face, data);
}

void Block::zero_face(int face) {
  const std::vector<double> zeros(
      static_cast<std::size_t>(face_cells(face)), 0.0);
  inject_face(face, zeros);
}

double Block::checksum() const {
  return kern::checksum(nx_, ny_, nz_, cur_);
}

std::int64_t Block::face_cells(int face) const {
  return kern::face_cells(nx_, ny_, nz_, face);
}

double initial_value(int gi, int gj, int gk) {
  // Smooth but non-trivial: distinguishable per cell, bounded.
  return std::sin(0.7 * gi) + std::cos(1.3 * gj) + std::sin(2.1 * gk + 0.5);
}

int neighbor_count(const Geometry& g, int x, int y, int z) {
  int n = 0;
  for_each_neighbor(g, x, y, z, [&](int, int, int, int) { ++n; });
  return n;
}

double alpha_factor(std::int64_t i, std::int64_t n, int iter) {
  if (n <= 0) return 0.0;
  const auto lo = static_cast<std::int64_t>(0.2 * static_cast<double>(n));
  const auto hi = static_cast<std::int64_t>(0.8 * static_cast<double>(n));
  if (i < lo || i >= hi) return 10.0;
  const std::int64_t phase = (static_cast<std::int64_t>(iter) + i) % n;
  return 100.0 *
         (1.0 + 5.0 * static_cast<double>(phase) / static_cast<double>(n));
}

std::int64_t load_group(const Params& p, int x, int y, int z) {
  const Geometry& g = p.geo;
  const std::int64_t lin =
      (static_cast<std::int64_t>(x) * g.by + y) * g.bz + z;
  return lin * p.num_load_groups / g.num_blocks();
}

double serial_checksum(const Geometry& g, int iterations) {
  const Geometry whole{1, 1, 1, g.bx * g.nx, g.by * g.ny, g.bz * g.nz};
  std::vector<double> cur;
  kern::init_field(whole, 0, 0, 0, cur);
  std::vector<double> next(cur.size(), 0.0);
  for (int it = 0; it < iterations; ++it) {
    kern::compute(whole.nx, whole.ny, whole.nz, cur, next);
    cur.swap(next);
  }
  return kern::checksum(whole.nx, whole.ny, whole.nz, cur);
}

}  // namespace stencil
