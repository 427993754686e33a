#include <vector>

#include "apps/sweep3d/sweep3d.h"
#include "apps/sweep3d/sweep3d_kernel.h"

namespace now::apps::sweep3d {

AppResult run_seq(const Params& p, const sim::TimeModel& time) {
  return run_sequential(time, kHostNsPerCell, [&](std::uint64_t& cells) -> double {
    std::vector<double> phi(p.nx * p.ny * p.nz, 0.0);
    for (std::uint32_t s = 0; s < p.sweeps; ++s)
      for (const Octant& o : kOctants)
        cells += sweep_block(phi.data(), p, o, 0, p.ny, 0, p.nz);
    return checksum(phi.data(), phi.size());
  });
}

}  // namespace now::apps::sweep3d
