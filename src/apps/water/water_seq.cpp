#include "apps/water/water.h"

namespace now::apps::water {

AppResult run_seq(const Params& p, const sim::TimeModel& time) {
  auto pos = make_positions(p);
  return run_sequential(time, kHostNsPerPair, [&](std::uint64_t& pairs) -> double {
    std::vector<double> vel(p.nmol * kDof, 0.0);
    std::vector<double> frc(p.nmol * kDof, 0.0);
    double energy = 0;
    for (std::uint32_t step = 0; step < p.steps; ++step) {
      std::fill(frc.begin(), frc.end(), 0.0);
      energy = 0;
      for (std::size_t m = 0; m < p.nmol; ++m)
        energy += intra_force(pos.data(), frc.data(), m);
      for (std::size_t a = 0; a < p.nmol; ++a) {
        for (std::size_t b = a + 1; b < p.nmol; ++b)
          energy += pair_force(pos.data(), frc.data(), a, b);
        pairs += p.nmol - a - 1;
      }
      for (std::size_t m = 0; m < p.nmol; ++m)
        integrate(pos.data(), vel.data(), frc.data(), m, p.dt);
    }
    return checksum(pos.data(), p.nmol, energy);
  });
}

}  // namespace now::apps::water
