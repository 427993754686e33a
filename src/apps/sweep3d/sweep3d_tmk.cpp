// Hand-coded TreadMarks Sweep3D: SPMD threads own j-blocks and pipeline
// over k-blocks with semaphores; the upwind j-row arrives implicitly as DSM
// page diffs when the downstream thread reads it.
#include "apps/sweep3d/sweep3d.h"
#include "apps/sweep3d/sweep3d_kernel.h"

namespace now::apps::sweep3d {

namespace {
// Pipeline semaphores: thread t waits on kSemaDown + t for its j-1
// neighbour (sy > 0 sweeps) and on kSemaUp + t for its j+1 neighbour.
constexpr std::uint32_t kSemaDown = 0;
constexpr std::uint32_t kSemaUp = 32;

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
    const std::size_t total = p.nx * p.ny * p.nz;
    if (tmk.id() == 0) {
      auto phi = tmk.alloc_array<double>(total);
      for (std::size_t i = 0; i < total; ++i) phi[i] = 0.0;
      tmk.set_root(0, phi.cast<void>());
    }
    tmk.barrier();

    auto phi = tmk.get_root<double>(0);
    const auto [jb, je] = block(p.ny, tmk.id(), tmk.nprocs());
    const std::uint32_t t = tmk.id();
    const std::uint32_t nt = tmk.nprocs();

    for (std::uint32_t s = 0; s < p.sweeps; ++s) {
      for (const Octant& o : kOctants) {
        const bool has_up = o.sy > 0 ? t > 0 : t + 1 < nt;
        const bool has_down = o.sy > 0 ? t + 1 < nt : t > 0;
        const std::uint32_t wait_id = (o.sy > 0 ? kSemaDown : kSemaUp) + t;
        const std::uint32_t signal_id =
            o.sy > 0 ? kSemaDown + t + 1 : kSemaUp + t - 1;

        for (std::size_t kb = 0; kb < p.nz; kb += p.k_block) {
          const std::size_t ke = std::min(kb + p.k_block, p.nz);
          // k-blocks are processed in the sweep's k direction.
          const std::size_t kb_dir = o.sz > 0 ? kb : p.nz - ke;
          const std::size_t ke_dir = o.sz > 0 ? ke : p.nz - kb;
          if (has_up) tmk.sema_wait(wait_id);
          tmk.compute(sweep_block(phi.get(), p, o, jb, je, kb_dir, ke_dir),
                      kHostNsPerCell);
          if (has_down) tmk.sema_signal(signal_id);
        }
        tmk.barrier();  // octants are separated by a full synchronization
      }
    }

    if (tmk.id() == 0) result.checksum = checksum(phi.get(), total);
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.total_stats();
  return result;
}

}  // namespace now::apps::sweep3d
