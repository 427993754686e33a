// MPI Sweep3D: j-slab decomposition with halo rows; the pipeline boundary
// row travels as an explicit message per k-block — the KBA message-passing
// form.
#include <vector>

#include "apps/sweep3d/sweep3d.h"

namespace now::apps::sweep3d {

namespace {
constexpr int kTagBoundary = 300;

std::pair<std::size_t, std::size_t> block(std::size_t n, int t, int nt) {
  const std::size_t base = n / static_cast<std::size_t>(nt);
  const std::size_t rem = n % static_cast<std::size_t>(nt);
  const std::size_t tt = static_cast<std::size_t>(t);
  const std::size_t begin = tt * base + std::min(tt, rem);
  return {begin, begin + base + (tt < rem ? 1 : 0)};
}
}  // namespace

AppResult run_mpi(const Params& p, mpi::MpiConfig cfg) {
  mpi::MpiRuntime rt(cfg);
  AppResult result;

  rt.run([&](mpi::Comm& c) {
    const auto [jb, je] = block(p.ny, c.rank(), c.size());
    const std::size_t jloc = je - jb;
    const std::size_t nx = p.nx, nz = p.nz;
    // Local slab with one halo row on each j side: index
    // i + nx*((j - jb + 1) + (jloc + 2) * k).
    std::vector<double> phi(nx * (jloc + 2) * nz, 0.0);
    auto at = [&](std::size_t i, std::size_t jrel, std::size_t k) -> double& {
      return phi[i + nx * (jrel + (jloc + 2) * k)];
    };

    for (std::uint32_t s = 0; s < p.sweeps; ++s) {
      for (const Octant& o : kOctants) {
        const int up = o.sy > 0 ? c.rank() - 1 : c.rank() + 1;
        const int down = o.sy > 0 ? c.rank() + 1 : c.rank() - 1;
        const bool has_up = up >= 0 && up < c.size();
        const bool has_down = down >= 0 && down < c.size();
        // Halo row index facing upstream / our edge row facing downstream.
        const std::size_t halo_j = o.sy > 0 ? 0 : jloc + 1;
        const std::size_t edge_j = o.sy > 0 ? jloc : 1;

        std::vector<double> row(nx * p.k_block);
        for (std::size_t kb = 0; kb < nz; kb += p.k_block) {
          const std::size_t ke = std::min(kb + p.k_block, nz);
          const std::size_t kb_dir = o.sz > 0 ? kb : nz - ke;
          const std::size_t ke_dir = o.sz > 0 ? ke : nz - kb;
          const std::size_t kn = ke_dir - kb_dir;

          if (has_up) {
            c.recv(row.data(), kn * nx * sizeof(double), up, kTagBoundary);
            for (std::size_t kk = 0; kk < kn; ++kk)
              for (std::size_t i = 0; i < nx; ++i)
                at(i, halo_j, kb_dir + kk) = row[kk * nx + i];
          }

          // Sweep this (j-slab, k-block); indices are local with the halo.
          for (std::size_t kk = 0; kk < kn; ++kk) {
            const std::size_t k = o.sz > 0 ? kb_dir + kk : ke_dir - 1 - kk;
            for (std::size_t jj = 0; jj < jloc; ++jj) {
              const std::size_t jrel = o.sy > 0 ? 1 + jj : jloc - jj;
              const std::size_t jglob = jb + jrel - 1;
              for (std::size_t ii = 0; ii < nx; ++ii) {
                const std::size_t i = o.sx > 0 ? ii : nx - 1 - ii;
                const bool in_i = o.sx > 0 ? i > 0 : i + 1 < nx;
                const bool in_j = o.sy > 0 ? jglob > 0 : jglob + 1 < p.ny;
                const bool in_k = o.sz > 0 ? k > 0 : k + 1 < nz;
                auto shift = [](std::size_t v, int sign) {
                  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(v) - sign);
                };
                const double up_i = in_i ? at(shift(i, o.sx), jrel, k) : 0.0;
                const double up_j = in_j ? at(i, shift(jrel, o.sy), k) : 0.0;
                const double up_k = in_k ? at(i, jrel, shift(k, o.sz)) : 0.0;
                at(i, jrel, k) =
                    sweep_value(source(i, jglob, k), up_i, up_j, up_k);
              }
            }
          }
          c.compute(kn * jloc * nx, kHostNsPerCell);

          if (has_down) {
            for (std::size_t kk = 0; kk < kn; ++kk)
              for (std::size_t i = 0; i < nx; ++i)
                row[kk * nx + i] = at(i, edge_j, kb_dir + kk);
            c.send(row.data(), kn * nx * sizeof(double), down, kTagBoundary);
          }
        }
        c.barrier();  // octant separation, as in the shared-memory versions
      }
    }

    // Checksum: reduce the halo-free local sums.
    double local = 0;
    for (std::size_t k = 0; k < nz; ++k)
      for (std::size_t j = 1; j <= jloc; ++j)
        for (std::size_t i = 0; i < nx; ++i) local += at(i, j, k);
    double total = 0;
    c.reduce(&local, &total, 1, mpi::Op::kSum, 0);
    if (c.rank() == 0) result.checksum = total;
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  return result;
}

}  // namespace now::apps::sweep3d
