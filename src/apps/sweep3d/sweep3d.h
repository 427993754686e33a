// Sweep3D: discrete-ordinates neutron transport wavefront sweeps (paper
// Section 5, from the DOE ASCI Blue benchmark suite).
//
// "The main data structure is a 3D mesh.  The code uses a level of blocking
//  along all three dimensions to achieve a certain level of granularity.  It
//  then performs multiple 2D wavefront sweeping over the 3D blocks.  In
//  OpenMP the data dependence between two neighbor threads along each
//  pipeline is expressed using our proposed sema_signal / sema_wait
//  synchronization directives."
//
// Model: one transport-like recurrence per octant,
//   phi[i,j,k] = (S(i,j,k) + mu*phi_up_i + eta*phi_up_j + xi*phi_up_k) / d,
// swept in all 8 direction octants.  Threads own contiguous j-blocks and
// pipeline over k-blocks (KBA); the j-neighbour dependence is the pipeline.
#pragma once

#include <cstdint>

#include "apps/harness.h"
#include "mpi/mpi.h"
#include "tmk/tmk.h"

namespace now::apps::sweep3d {

struct Params {
  std::size_t nx = 32, ny = 32, nz = 32;
  std::size_t k_block = 4;  // pipeline granularity along k
  std::uint32_t sweeps = 1;  // full 8-octant passes
};

// Compute is charged per cell swept (one sweep_value update).  Host
// nanoseconds per cell: the sequential kernel at the Figure 5 workload
// (48^3 cells, 8 octants), host time over cells, median of five idle runs
// of `bench_fig5_speedup --calibrate` on a 4-vCPU Intel Xeon VM (gcc -O2).
inline constexpr double kHostNsPerCell = 10.25;

inline constexpr double kMu = 0.30, kEta = 0.25, kXi = 0.20;
inline constexpr double kDenom = 1.0 + kMu + kEta + kXi;

// Fixed source term.
inline double source(std::size_t i, std::size_t j, std::size_t k) {
  return 1.0 + 0.001 * static_cast<double>((i * 31 + j * 17 + k * 7) % 101);
}

inline double sweep_value(double s, double up_i, double up_j, double up_k) {
  return (s + kMu * up_i + kEta * up_j + kXi * up_k) / kDenom;
}

// Octant direction signs.
struct Octant {
  int sx, sy, sz;
};
inline constexpr Octant kOctants[8] = {
    {+1, +1, +1}, {-1, +1, +1}, {+1, -1, +1}, {-1, -1, +1},
    {+1, +1, -1}, {-1, +1, -1}, {+1, -1, -1}, {-1, -1, -1}};

double checksum(const double* phi, std::size_t total);

AppResult run_seq(const Params& p, const sim::TimeModel& time);
AppResult run_tmk(const Params& p, tmk::DsmConfig cfg);
AppResult run_omp(const Params& p, tmk::DsmConfig cfg);
AppResult run_mpi(const Params& p, mpi::MpiConfig cfg);

}  // namespace now::apps::sweep3d
