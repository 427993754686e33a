// "Compiled OpenMP" 3D-FFT: every phase — plane FFTs, the global transpose,
// the z FFTs, the evolve — is a `parallel do`, exactly as the paper
// describes the OpenMP version.
#include "apps/fft3d/fft3d.h"
#include "omp/omp.h"

namespace now::apps::fft3d {

namespace {
Complex* as_complex(tmk::gptr<double> g) {
  return reinterpret_cast<Complex*>(g.get());
}
}  // namespace

AppResult run_omp(const Params& p, tmk::DsmConfig cfg) {
  omp::OmpRuntime rt(cfg);
  AppResult result;

  rt.run([&](omp::Team& team) {
    const std::size_t nx = p.nx, ny = p.ny, nz = p.nz;
    const std::size_t total = nx * ny * nz;
    auto ga = team.shared_array<double>(2 * total);
    auto gubar = team.shared_array<double>(2 * total);
    auto gw = team.shared_array<double>(2 * total);
    auto gv = team.shared_array<double>(2 * total);
    fill_initial(as_complex(ga), p);

    const Params params = p;
    // Forward: parallel do over z-planes.
    team.parallel_for(0, static_cast<std::int64_t>(nz), [=](omp::Par& par, std::int64_t z) {
      par.compute(fft_plane(as_complex(ga) + static_cast<std::size_t>(z) * nx * ny, nx, ny, false),
                  kHostNsPerButterfly);
    });
    // Global transpose: parallel do over destination x-planes.
    team.parallel_for(0, static_cast<std::int64_t>(nx), [=](omp::Par&, std::int64_t xi) {
      const auto x = static_cast<std::size_t>(xi);
      Complex* a = as_complex(ga);
      Complex* ubar = as_complex(gubar);
      for (std::size_t y = 0; y < ny; ++y)
        for (std::size_t z = 0; z < nz; ++z)
          ubar[z + nz * (y + ny * x)] = a[x + nx * (y + ny * z)];
    });
    team.parallel_for(0, static_cast<std::int64_t>(nx), [=](omp::Par& par, std::int64_t xi) {
      const auto x = static_cast<std::size_t>(xi);
      for (std::size_t y = 0; y < ny; ++y)
        par.compute(fft_1d(as_complex(gubar) + (x * ny + y) * nz, nz, 1, false),
                    kHostNsPerButterfly);
    });

    double cre = 0, cim = 0;
    for (std::uint32_t t = 1; t <= p.iters; ++t) {
      team.parallel_for(0, static_cast<std::int64_t>(nx), [=](omp::Par& par, std::int64_t xi) {
        const auto x = static_cast<std::size_t>(xi);
        Complex* ubar = as_complex(gubar);
        Complex* w = as_complex(gw);
        for (std::size_t y = 0; y < ny; ++y)
          for (std::size_t z = 0; z < nz; ++z)
            w[z + nz * (y + ny * x)] =
                ubar[z + nz * (y + ny * x)] * evolve_factor(params, t, x, y, z);
        for (std::size_t y = 0; y < ny; ++y)
          par.compute(fft_1d(w + (x * ny + y) * nz, nz, 1, true), kHostNsPerButterfly);
      });
      team.parallel_for(0, static_cast<std::int64_t>(nz), [=](omp::Par& par, std::int64_t zi) {
        const auto z = static_cast<std::size_t>(zi);
        Complex* w = as_complex(gw);
        Complex* v = as_complex(gv);
        for (std::size_t y = 0; y < ny; ++y)
          for (std::size_t x = 0; x < nx; ++x)
            v[x + nx * (y + ny * z)] = w[z + nz * (y + ny * x)];
        par.compute(fft_plane(v + z * nx * ny, nx, ny, true), kHostNsPerButterfly);
      });
      fold_checksum(as_complex(gv), total, cre, cim);  // sequential part
    }
    result.checksum = cre + cim;
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.dsm().total_stats();
  return result;
}

}  // namespace now::apps::fft3d
