// MPI Water: replicated-data molecular dynamics.  Every rank holds all
// positions, computes the forces for its block of molecules (and its slice
// of the pair triangle), and one allreduce per step merges forces and
// energy.  Positions are then advanced redundantly on every rank, which
// costs no communication — the classic message-passing layout that gives
// MPI its edge over the DSM versions in the paper.
#include "apps/water/water.h"

namespace now::apps::water {

namespace {
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
    const std::size_t dof = p.nmol * kDof;
    auto pos = make_positions(p);  // deterministic: identical on every rank
    std::vector<double> vel(dof, 0.0);
    std::vector<double> local(dof + 1, 0.0);   // forces + energy tail
    std::vector<double> global(dof + 1, 0.0);
    const auto [mb, me] = block(p.nmol, c.rank(), c.size());

    double energy = 0;
    for (std::uint32_t step = 0; step < p.steps; ++step) {
      std::fill(local.begin(), local.end(), 0.0);
      for (std::size_t m = mb; m < me; ++m)
        local[dof] += intra_force(pos.data(), local.data(), m);
      for (std::size_t a = mb; a < me; ++a) {
        for (std::size_t b = a + 1; b < p.nmol; ++b)
          local[dof] += pair_force(pos.data(), local.data(), a, b);
        c.compute(p.nmol - a - 1, kHostNsPerPair);
      }

      c.allreduce(local.data(), global.data(), dof + 1, mpi::Op::kSum);
      energy = global[dof];
      for (std::size_t m = 0; m < p.nmol; ++m)
        integrate(pos.data(), vel.data(), global.data(), m, p.dt);
    }
    if (c.rank() == 0) result.checksum = checksum(pos.data(), p.nmol, energy);
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  return result;
}

}  // namespace now::apps::water
