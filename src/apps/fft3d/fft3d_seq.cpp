#include "apps/fft3d/fft3d.h"

#include <vector>

namespace now::apps::fft3d {

AppResult run_seq(const Params& p, const sim::TimeModel& time) {
  return run_sequential(time, kHostNsPerButterfly, [&](std::uint64_t& butterflies) -> double {
    const std::size_t nx = p.nx, ny = p.ny, nz = p.nz;
    const std::size_t total = nx * ny * nz;
    std::vector<Complex> a(total), ubar(total), w(total), v(total);
    fill_initial(a.data(), p);

    // Forward 3D FFT: plane FFTs (x, y), transpose to z-fastest, z FFTs.
    for (std::size_t z = 0; z < nz; ++z)
      butterflies += fft_plane(a.data() + z * nx * ny, nx, ny, false);
    for (std::size_t x = 0; x < nx; ++x)
      for (std::size_t y = 0; y < ny; ++y)
        for (std::size_t z = 0; z < nz; ++z)
          ubar[z + nz * (y + ny * x)] = a[x + nx * (y + ny * z)];
    for (std::size_t x = 0; x < nx; ++x)
      for (std::size_t y = 0; y < ny; ++y)
        butterflies += fft_1d(ubar.data() + (x * ny + y) * nz, nz, 1, false);

    double cre = 0, cim = 0;
    for (std::uint32_t t = 1; t <= p.iters; ++t) {
      // Evolve in frequency space (z-fastest layout).
      for (std::size_t x = 0; x < nx; ++x)
        for (std::size_t y = 0; y < ny; ++y)
          for (std::size_t z = 0; z < nz; ++z)
            w[z + nz * (y + ny * x)] =
                ubar[z + nz * (y + ny * x)] * evolve_factor(p, t, x, y, z);
      // Inverse 3D FFT: z FFTs, transpose back, inverse plane FFTs.
      for (std::size_t x = 0; x < nx; ++x)
        for (std::size_t y = 0; y < ny; ++y)
          butterflies += fft_1d(w.data() + (x * ny + y) * nz, nz, 1, true);
      for (std::size_t z = 0; z < nz; ++z)
        for (std::size_t y = 0; y < ny; ++y)
          for (std::size_t x = 0; x < nx; ++x)
            v[x + nx * (y + ny * z)] = w[z + nz * (y + ny * x)];
      for (std::size_t z = 0; z < nz; ++z)
        butterflies += fft_plane(v.data() + z * nx * ny, nx, ny, true);
      fold_checksum(v.data(), total, cre, cim);
    }
    return cre + cim;
  });
}

}  // namespace now::apps::fft3d
