// "Compiled OpenMP" Water: intra-molecular phase as `parallel do`,
// inter-molecular phase as a coarse-grain `parallel region` with an array
// reduction, integration as `parallel do` — the paper's directive structure.
#include "apps/water/water.h"
#include "omp/omp.h"

namespace now::apps::water {

AppResult run_omp(const Params& p, tmk::DsmConfig cfg) {
  omp::OmpRuntime rt(cfg);
  AppResult result;

  rt.run([&](omp::Team& team) {
    const std::size_t dof = p.nmol * kDof;
    auto pos = team.shared_array<double>(dof);
    auto vel = team.shared_array<double>(dof);
    auto frc = team.shared_array<double>(dof);
    auto energy = team.shared_scalar<double>(0.0);
    auto init = make_positions(p);
    for (std::size_t i = 0; i < dof; ++i) {
      pos[i] = init[i];
      vel[i] = 0.0;
    }

    const std::size_t nmol = p.nmol;
    const double dt = p.dt;
    for (std::uint32_t step = 0; step < p.steps; ++step) {
      *energy = 0.0;  // sequential part between regions (master)

      // parallel do: zero forces.
      team.parallel_for(0, static_cast<std::int64_t>(dof),
                        [=](omp::Par&, std::int64_t i) { frc[static_cast<std::size_t>(i)] = 0.0; });

      // parallel do + reduction: intra-molecular potentials.
      team.parallel([=](omp::Par& par) {
        double e_local = 0;
        auto [b, e] = par.static_range(0, static_cast<std::int64_t>(nmol));
        for (std::int64_t m = b; m < e; ++m)
          e_local += intra_force(pos.get(), frc.get(), static_cast<std::size_t>(m));
        par.reduce_sum(energy, &e_local, 1);
      });

      // parallel region: coarse-grain inter-molecular phase with an array
      // reduction of the force contributions (the paper's reduction-on-
      // arrays extension).
      team.parallel([=](omp::Par& par) {
        std::vector<double> local(dof, 0.0);
        double e_local = 0;
        auto [b, e] = par.static_range(0, static_cast<std::int64_t>(nmol));
        for (std::int64_t a = b; a < e; ++a) {
          for (std::size_t bm = static_cast<std::size_t>(a) + 1; bm < nmol; ++bm)
            e_local += pair_force(pos.get(), local.data(), static_cast<std::size_t>(a), bm);
          par.compute(nmol - static_cast<std::size_t>(a) - 1, kHostNsPerPair);
        }
        par.reduce_into(frc, local.data(), dof, [](double x, double y) { return x + y; });
        par.reduce_sum(energy, &e_local, 1);
      });

      // parallel do: integrate.
      team.parallel_for(0, static_cast<std::int64_t>(nmol), [=](omp::Par&, std::int64_t m) {
        integrate(pos.get(), vel.get(), frc.get(), static_cast<std::size_t>(m), dt);
      });
    }

    result.checksum = checksum(pos.get(), p.nmol, *energy);
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.dsm().total_stats();
  return result;
}

}  // namespace now::apps::water
