// "Compiled OpenMP" Sweep3D: one parallel region per octant; the j-neighbour
// pipeline uses the paper's proposed sema_signal/sema_wait directives.
#include "apps/sweep3d/sweep3d.h"
#include "apps/sweep3d/sweep3d_kernel.h"
#include "omp/omp.h"

namespace now::apps::sweep3d {

namespace {
constexpr std::uint32_t kSemaDown = 0;
constexpr std::uint32_t kSemaUp = 32;
}  // namespace

AppResult run_omp(const Params& p, tmk::DsmConfig cfg) {
  omp::OmpRuntime rt(cfg);
  AppResult result;

  rt.run([&](omp::Team& team) {
    const std::size_t total = p.nx * p.ny * p.nz;
    auto phi = team.shared_array<double>(total);
    for (std::size_t i = 0; i < total; ++i) phi[i] = 0.0;

    const Params params = p;
    for (std::uint32_t s = 0; s < p.sweeps; ++s) {
      for (int oi = 0; oi < 8; ++oi) {
        const Octant o = kOctants[oi];
        // One `parallel` region per octant; the region end is the paper's
        // implicit barrier.
        team.parallel([=](omp::Par& par) {
          const std::uint32_t t = par.thread_num();
          const std::uint32_t nt = par.num_threads();
          auto [jb, je] = par.static_range(0, static_cast<std::int64_t>(params.ny));
          const bool has_up = o.sy > 0 ? t > 0 : t + 1 < nt;
          const bool has_down = o.sy > 0 ? t + 1 < nt : t > 0;
          const std::uint32_t wait_id = (o.sy > 0 ? kSemaDown : kSemaUp) + t;
          const std::uint32_t signal_id =
              o.sy > 0 ? kSemaDown + t + 1 : kSemaUp + t - 1;

          for (std::size_t kb = 0; kb < params.nz; kb += params.k_block) {
            const std::size_t ke = std::min(kb + params.k_block, params.nz);
            const std::size_t kb_dir = o.sz > 0 ? kb : params.nz - ke;
            const std::size_t ke_dir = o.sz > 0 ? ke : params.nz - kb;
            if (has_up) par.sema_wait(wait_id);
            par.compute(sweep_block(phi.get(), params, o, static_cast<std::size_t>(jb),
                                    static_cast<std::size_t>(je), kb_dir, ke_dir),
                        kHostNsPerCell);
            if (has_down) par.sema_signal(signal_id);
          }
        });
      }
    }
    result.checksum = checksum(phi.get(), total);
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.dsm().total_stats();
  return result;
}

}  // namespace now::apps::sweep3d
