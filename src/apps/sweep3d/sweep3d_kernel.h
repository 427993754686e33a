// The per-block sweep kernel shared by the sequential, TreadMarks and
// OpenMP versions (they all index the full shared grid directly; the MPI
// version carries halo rows and has its own loop).
#pragma once

#include "apps/sweep3d/sweep3d.h"

namespace now::apps::sweep3d {

// Sweeps cells i in [0,nx), j in [jb,je), k in [kb,ke) for one octant,
// reading upwind values from the (already computed) neighbours in the full
// grid `phi` with index i + nx*(j + ny*k).  Upwind cells outside the grid
// contribute the vacuum boundary value 0.  Returns the cells swept.
inline std::uint64_t sweep_block(double* phi, const Params& p, Octant o, std::size_t jb,
                        std::size_t je, std::size_t kb, std::size_t ke) {
  const auto nx = static_cast<std::ptrdiff_t>(p.nx);
  const auto ny = static_cast<std::ptrdiff_t>(p.ny);
  const auto nz = static_cast<std::ptrdiff_t>(p.nz);
  auto idx = [&](std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    return static_cast<std::size_t>(i + nx * (j + ny * k));
  };
  auto in = [](std::ptrdiff_t v, std::ptrdiff_t n) { return v >= 0 && v < n; };

  // Each dimension iterates in the octant's flow direction, so the upwind
  // neighbour (one step against the flow) is already final.
  const auto kfirst = o.sz > 0 ? static_cast<std::ptrdiff_t>(kb)
                               : static_cast<std::ptrdiff_t>(ke) - 1;
  const auto jfirst = o.sy > 0 ? static_cast<std::ptrdiff_t>(jb)
                               : static_cast<std::ptrdiff_t>(je) - 1;
  const auto ifirst = o.sx > 0 ? std::ptrdiff_t{0} : nx - 1;
  const auto kn = static_cast<std::ptrdiff_t>(ke - kb);
  const auto jn = static_cast<std::ptrdiff_t>(je - jb);

  for (std::ptrdiff_t kk = 0; kk < kn; ++kk) {
    const std::ptrdiff_t k = kfirst + o.sz * kk;
    for (std::ptrdiff_t jj = 0; jj < jn; ++jj) {
      const std::ptrdiff_t j = jfirst + o.sy * jj;
      for (std::ptrdiff_t ii = 0; ii < nx; ++ii) {
        const std::ptrdiff_t i = ifirst + o.sx * ii;
        const double up_i = in(i - o.sx, nx) ? phi[idx(i - o.sx, j, k)] : 0.0;
        const double up_j = in(j - o.sy, ny) ? phi[idx(i, j - o.sy, k)] : 0.0;
        const double up_k = in(k - o.sz, nz) ? phi[idx(i, j, k - o.sz)] : 0.0;
        phi[idx(i, j, k)] =
            sweep_value(source(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                               static_cast<std::size_t>(k)),
                        up_i, up_j, up_k);
      }
    }
  }
  return static_cast<std::uint64_t>(kn * jn * nx);
}

}  // namespace now::apps::sweep3d
