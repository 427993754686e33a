// 3D-FFT: the NAS-FT-style PDE solver (paper Section 5).
//
// "3D-FFT from the NAS benchmark suite solves a partial differential
//  equation using three dimensional forward and inverse FFT. ... The
//  computation is decomposed so that every iteration includes local
//  computation and a global transpose, with both expressed as data parallel
//  operations.  In OpenMP the data parallelism is naturally expressed using
//  the parallel do directive."
//
// Structure per iteration: evolve the frequency-domain field, inverse-FFT it
// (2D plane FFTs, a global transpose, then the third-dimension FFTs), and
// fold a sampled checksum.  The DSM versions express the transpose as a
// parallel do over destination planes (reads of remote planes become page
// fetches); the MPI version uses an all-to-all block exchange.
#pragma once

#include <cstdint>

#include "apps/fft3d/fft.h"
#include "apps/harness.h"
#include "mpi/mpi.h"
#include "tmk/tmk.h"

namespace now::apps::fft3d {

// Compute is charged per butterfly of the 1D FFTs; the evolve and transpose
// passes are priced into the butterfly (they run in the same proportion in
// every version).  Host nanoseconds per butterfly: the sequential kernel at
// the Figure 5 workload (64x64x32, 2 iterations), host time over
// butterflies, median of five idle runs of `bench_fig5_speedup --calibrate`
// on a 4-vCPU Intel Xeon VM (gcc -O2).
inline constexpr double kHostNsPerButterfly = 9.83;

struct Params {
  std::size_t nx = 32, ny = 32, nz = 32;  // powers of two
  std::uint32_t iters = 3;
  double alpha = 1e-6;
  std::uint64_t seed = 1;
};

// Deterministic initial field (re, im pairs, x-fastest layout).
void fill_initial(Complex* u, const Params& p);

// exp(-4 pi^2 alpha t |kbar|^2) evolution factor for frequency (kx,ky,kz).
double evolve_factor(const Params& p, std::uint32_t t, std::size_t kx,
                     std::size_t ky, std::size_t kz);

// Folds the 1024-sample NAS-style checksum of one iteration into (re, im).
void fold_checksum(const Complex* v, std::size_t total, double& re, double& im);

AppResult run_seq(const Params& p, const sim::TimeModel& time);
AppResult run_tmk(const Params& p, tmk::DsmConfig cfg);
AppResult run_omp(const Params& p, tmk::DsmConfig cfg);
AppResult run_mpi(const Params& p, mpi::MpiConfig cfg);

}  // namespace now::apps::fft3d
