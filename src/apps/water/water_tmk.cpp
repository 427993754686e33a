// Hand-coded TreadMarks Water: SPMD with barriers between phases; the
// inter-molecular phase accumulates into a private buffer and merges into
// the shared force array under a lock (the classic TreadMarks Water
// structure).
#include "apps/water/water.h"

namespace now::apps::water {

namespace {
constexpr std::uint32_t kMergeLock = 0;

std::pair<std::size_t, std::size_t> block(std::size_t n, std::uint32_t t,
                                          std::uint32_t nt) {
  const std::size_t base = n / nt, rem = n % nt;
  const std::size_t begin = static_cast<std::size_t>(t) * base + std::min<std::size_t>(t, rem);
  return {begin, begin + base + (t < rem ? 1 : 0)};
}
}  // namespace

AppResult run_tmk(const Params& p, tmk::DsmConfig cfg) {
  tmk::DsmRuntime rt(cfg);
  AppResult result;

  rt.run_spmd([&](tmk::Tmk& tmk) {
    const std::size_t dof = p.nmol * kDof;
    if (tmk.id() == 0) {
      auto pos = tmk.alloc_array<double>(dof);
      auto vel = tmk.alloc_array<double>(dof);
      auto frc = tmk.alloc_array<double>(dof);
      auto energy = tmk.alloc_array<double>(1);
      auto init = make_positions(p);
      for (std::size_t i = 0; i < dof; ++i) {
        pos[i] = init[i];
        vel[i] = 0.0;
        frc[i] = 0.0;
      }
      *energy = 0.0;
      tmk.set_root(0, pos.cast<void>());
      tmk.set_root(1, vel.cast<void>());
      tmk.set_root(2, frc.cast<void>());
      tmk.set_root(3, energy.cast<void>());
    }
    tmk.barrier();

    auto pos = tmk.get_root<double>(0);
    auto vel = tmk.get_root<double>(1);
    auto frc = tmk.get_root<double>(2);
    auto energy = tmk.get_root<double>(3);
    const auto [mb, me] = block(p.nmol, tmk.id(), tmk.nprocs());

    for (std::uint32_t step = 0; step < p.steps; ++step) {
      // Phase 1: zero forces and the energy accumulator for this step.
      for (std::size_t m = mb; m < me; ++m)
        for (std::size_t k = 0; k < kDof; ++k) frc[m * kDof + k] = 0.0;
      if (tmk.id() == 0) *energy = 0.0;
      tmk.barrier();

      // Phase 2: intra-molecular forces — disjoint blocks, no races.
      double e_local = 0;
      for (std::size_t m = mb; m < me; ++m)
        e_local += intra_force(pos.get(), frc.get(), m);
      tmk.barrier();

      // Phase 3: inter-molecular forces into a private buffer, merged under
      // the lock.
      std::vector<double> local(dof, 0.0);
      for (std::size_t a = mb; a < me; ++a) {
        for (std::size_t b = a + 1; b < p.nmol; ++b)
          e_local += pair_force(pos.get(), local.data(), a, b);
        tmk.compute(p.nmol - a - 1, kHostNsPerPair);
      }
      tmk.lock_acquire(kMergeLock);
      for (std::size_t i = 0; i < dof; ++i)
        if (local[i] != 0.0) frc[i] = frc[i] + local[i];
      *energy = *energy + e_local;
      tmk.lock_release(kMergeLock);
      tmk.barrier();

      // Phase 4: integrate this block.
      for (std::size_t m = mb; m < me; ++m)
        integrate(pos.get(), vel.get(), frc.get(), m, p.dt);
      tmk.barrier();
    }

    if (tmk.id() == 0)
      result.checksum = checksum(pos.get(), p.nmol, *energy);
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.total_stats();
  return result;
}

}  // namespace now::apps::water
