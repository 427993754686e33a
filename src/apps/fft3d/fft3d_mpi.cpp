// MPI 3D-FFT: slab decomposition with an all-to-all block transpose — the
// message-passing structure of NAS FT.  Requires nx and nz divisible by the
// rank count.
#include <vector>

#include "apps/fft3d/fft3d.h"
#include "common/check.h"

namespace now::apps::fft3d {

AppResult run_mpi(const Params& p, mpi::MpiConfig cfg) {
  const std::size_t np = cfg.num_ranks;
  NOW_CHECK(p.nx % np == 0 && p.nz % np == 0)
      << "slab transpose needs nx, nz divisible by ranks";
  mpi::MpiRuntime rt(cfg);
  AppResult result;

  rt.run([&](mpi::Comm& c) {
    const std::size_t nx = p.nx, ny = p.ny, nz = p.nz;
    const std::size_t n = static_cast<std::size_t>(c.size());
    const std::size_t r = static_cast<std::size_t>(c.rank());
    const std::size_t zloc = nz / n, xloc = nx / n;
    const std::size_t z0 = r * zloc, x0 = r * xloc;
    const std::size_t block = xloc * ny * zloc;  // complex per rank pair

    // Local slabs.
    std::vector<Complex> a(nx * ny * zloc);      // z-slab, x-fastest
    std::vector<Complex> ubar(ny * nz * xloc);   // x-slab, z-fastest
    std::vector<Complex> w(ny * nz * xloc);
    std::vector<Complex> v(nx * ny * zloc);
    std::vector<Complex> sendbuf(block * n), recvbuf(block * n);

    // Deterministic init: generate the full field and keep our slab (the
    // generator is cheap; data never crosses the wire).
    {
      std::vector<Complex> full(nx * ny * nz);
      fill_initial(full.data(), p);
      std::copy(full.begin() + static_cast<std::ptrdiff_t>(z0 * nx * ny),
                full.begin() + static_cast<std::ptrdiff_t>((z0 + zloc) * nx * ny),
                a.begin());
    }

    auto transpose_fwd = [&](const std::vector<Complex>& src, std::vector<Complex>& dst) {
      // src: z-slab x-fastest [x + nx*(y + ny*(z-z0))]
      // dst: x-slab z-fastest [z + nz*(y + ny*(x-x0))]
      for (std::size_t s = 0; s < n; ++s) {
        Complex* out = sendbuf.data() + s * block;
        std::size_t idx = 0;
        for (std::size_t x = s * xloc; x < (s + 1) * xloc; ++x)
          for (std::size_t y = 0; y < ny; ++y)
            for (std::size_t z = 0; z < zloc; ++z)
              out[idx++] = src[x + nx * (y + ny * z)];
      }
      c.alltoall(sendbuf.data(), block * sizeof(Complex), recvbuf.data());
      for (std::size_t s = 0; s < n; ++s) {
        const Complex* in = recvbuf.data() + s * block;
        std::size_t idx = 0;
        for (std::size_t x = 0; x < xloc; ++x)
          for (std::size_t y = 0; y < ny; ++y)
            for (std::size_t z = s * zloc; z < (s + 1) * zloc; ++z)
              dst[z + nz * (y + ny * x)] = in[idx++];
      }
    };
    auto transpose_bwd = [&](const std::vector<Complex>& src, std::vector<Complex>& dst) {
      for (std::size_t s = 0; s < n; ++s) {
        Complex* out = sendbuf.data() + s * block;
        std::size_t idx = 0;
        for (std::size_t x = 0; x < xloc; ++x)
          for (std::size_t y = 0; y < ny; ++y)
            for (std::size_t z = s * zloc; z < (s + 1) * zloc; ++z)
              out[idx++] = src[z + nz * (y + ny * x)];
      }
      c.alltoall(sendbuf.data(), block * sizeof(Complex), recvbuf.data());
      for (std::size_t s = 0; s < n; ++s) {
        const Complex* in = recvbuf.data() + s * block;
        std::size_t idx = 0;
        for (std::size_t x = s * xloc; x < (s + 1) * xloc; ++x)
          for (std::size_t y = 0; y < ny; ++y)
            for (std::size_t z = 0; z < zloc; ++z)
              dst[x + nx * (y + ny * z)] = in[idx++];
      }
    };

    // Forward.
    for (std::size_t z = 0; z < zloc; ++z)
      c.compute(fft_plane(a.data() + z * nx * ny, nx, ny, false), kHostNsPerButterfly);
    transpose_fwd(a, ubar);
    for (std::size_t x = 0; x < xloc; ++x)
      for (std::size_t y = 0; y < ny; ++y)
        c.compute(fft_1d(ubar.data() + (x * ny + y) * nz, nz, 1, false), kHostNsPerButterfly);

    double cre = 0, cim = 0;
    for (std::uint32_t t = 1; t <= p.iters; ++t) {
      for (std::size_t x = 0; x < xloc; ++x)
        for (std::size_t y = 0; y < ny; ++y)
          for (std::size_t z = 0; z < nz; ++z)
            w[z + nz * (y + ny * x)] =
                ubar[z + nz * (y + ny * x)] * evolve_factor(p, t, x0 + x, y, z);
      for (std::size_t x = 0; x < xloc; ++x)
        for (std::size_t y = 0; y < ny; ++y)
          c.compute(fft_1d(w.data() + (x * ny + y) * nz, nz, 1, true), kHostNsPerButterfly);
      transpose_bwd(w, v);
      for (std::size_t z = 0; z < zloc; ++z)
        c.compute(fft_plane(v.data() + z * nx * ny, nx, ny, true), kHostNsPerButterfly);

      // Sampled checksum: each rank sums the samples in its z-slab.
      double lre = 0, lim = 0;
      const std::size_t total = nx * ny * nz;
      for (std::size_t j = 1; j <= 1024; ++j) {
        const std::size_t q = (5 * j) % total;
        const std::size_t z = q / (nx * ny);
        if (z >= z0 && z < z0 + zloc)
          lre += v[q - z0 * nx * ny].real(), lim += v[q - z0 * nx * ny].imag();
      }
      double partial[2] = {lre, lim}, sum[2] = {0, 0};
      c.reduce(partial, sum, 2, mpi::Op::kSum, 0);
      cre += sum[0];
      cim += sum[1];
    }
    if (c.rank() == 0) result.checksum = cre + cim;
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  return result;
}

}  // namespace now::apps::fft3d
