// Hand-coded TreadMarks 3D-FFT: SPMD, shared grids, barriers between the
// data-parallel phases.  The global transpose is a loop over destination
// planes whose scattered reads become DSM page fetches.
#include "apps/fft3d/fft3d.h"

namespace now::apps::fft3d {

namespace {
std::pair<std::size_t, std::size_t> block(std::size_t n, std::uint32_t t,
                                          std::uint32_t nt) {
  const std::size_t base = n / nt, rem = n % nt;
  const std::size_t begin = static_cast<std::size_t>(t) * base + std::min<std::size_t>(t, rem);
  return {begin, begin + base + (t < rem ? 1 : 0)};
}

Complex* as_complex(tmk::gptr<double> g) {
  return reinterpret_cast<Complex*>(g.get());
}
}  // namespace

AppResult run_tmk(const Params& p, tmk::DsmConfig cfg) {
  tmk::DsmRuntime rt(cfg);
  AppResult result;

  rt.run_spmd([&](tmk::Tmk& tmk) {
    const std::size_t nx = p.nx, ny = p.ny, nz = p.nz;
    const std::size_t total = nx * ny * nz;
    if (tmk.id() == 0) {
      auto a = tmk.alloc_array<double>(2 * total);
      auto ubar = tmk.alloc_array<double>(2 * total);
      auto w = tmk.alloc_array<double>(2 * total);
      auto v = tmk.alloc_array<double>(2 * total);
      auto sums = tmk.alloc_array<double>(2);
      fill_initial(as_complex(a), p);
      sums[0] = sums[1] = 0.0;
      tmk.set_root(0, a.cast<void>());
      tmk.set_root(1, ubar.cast<void>());
      tmk.set_root(2, w.cast<void>());
      tmk.set_root(3, v.cast<void>());
      tmk.set_root(4, sums.cast<void>());
    }
    tmk.barrier();

    Complex* a = as_complex(tmk.get_root<double>(0));
    Complex* ubar = as_complex(tmk.get_root<double>(1));
    Complex* w = as_complex(tmk.get_root<double>(2));
    Complex* v = as_complex(tmk.get_root<double>(3));
    auto sums = tmk.get_root<double>(4);

    const auto [zb, ze] = block(nz, tmk.id(), tmk.nprocs());
    const auto [xb, xe] = block(nx, tmk.id(), tmk.nprocs());

    // Forward: plane FFTs over owned z-planes.
    for (std::size_t z = zb; z < ze; ++z)
      tmk.compute(fft_plane(a + z * nx * ny, nx, ny, false), kHostNsPerButterfly);
    tmk.barrier();
    // Global transpose into z-fastest layout, by destination x-plane.
    for (std::size_t x = xb; x < xe; ++x)
      for (std::size_t y = 0; y < ny; ++y)
        for (std::size_t z = 0; z < nz; ++z)
          ubar[z + nz * (y + ny * x)] = a[x + nx * (y + ny * z)];
    tmk.barrier();
    for (std::size_t x = xb; x < xe; ++x)
      for (std::size_t y = 0; y < ny; ++y)
        tmk.compute(fft_1d(ubar + (x * ny + y) * nz, nz, 1, false), kHostNsPerButterfly);
    tmk.barrier();

    for (std::uint32_t t = 1; t <= p.iters; ++t) {
      for (std::size_t x = xb; x < xe; ++x)
        for (std::size_t y = 0; y < ny; ++y)
          for (std::size_t z = 0; z < nz; ++z)
            w[z + nz * (y + ny * x)] =
                ubar[z + nz * (y + ny * x)] * evolve_factor(p, t, x, y, z);
      for (std::size_t x = xb; x < xe; ++x)
        for (std::size_t y = 0; y < ny; ++y)
          tmk.compute(fft_1d(w + (x * ny + y) * nz, nz, 1, true), kHostNsPerButterfly);
      tmk.barrier();
      for (std::size_t z = zb; z < ze; ++z)
        for (std::size_t y = 0; y < ny; ++y)
          for (std::size_t x = 0; x < nx; ++x)
            v[x + nx * (y + ny * z)] = w[z + nz * (y + ny * x)];
      for (std::size_t z = zb; z < ze; ++z)
        tmk.compute(fft_plane(v + z * nx * ny, nx, ny, true), kHostNsPerButterfly);
      tmk.barrier();
      if (tmk.id() == 0) {
        double cre = sums[0], cim = sums[1];
        fold_checksum(v, total, cre, cim);
        sums[0] = cre;
        sums[1] = cim;
      }
      tmk.barrier();
    }

    if (tmk.id() == 0) result.checksum = sums[0] + sums[1];
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.total_stats();
  return result;
}

}  // namespace now::apps::fft3d
