// Water: n-squared molecular dynamics in the style of SPLASH-2 Water
// (paper Section 5).
//
// "The main data structure in Water is a one-dimensional array of records in
//  which each record represents a molecule. ... The parallel algorithm
//  statically divides the array of molecules into equally sized contiguous
//  blocks, assigning each block to a processor.  The bulk of the
//  interprocessor communication [is] from synchronization that takes place
//  during the intermolecular force computation."
//
// Per the paper's OpenMP version: intra-molecular potentials use `parallel
// do`; the inter-molecular O(n^2) phase uses a coarse-grain `parallel
// region` with per-thread force accumulation merged under a lock.
//
// Physics model (simplified but structurally faithful): 3 atoms per molecule
// with harmonic O-H and H-H springs (intra) plus an O-O Lennard-Jones term
// over all molecule pairs (inter); explicit Euler integration.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/harness.h"
#include "mpi/mpi.h"
#include "tmk/tmk.h"

namespace now::apps::water {

inline constexpr std::size_t kDof = 9;  // 3 atoms x 3 coordinates

// Compute is charged per molecule pair of the inter-molecular phase; the
// O(n) intra-molecular and integration phases are priced into the pair.
// Host nanoseconds per pair: the sequential kernel at the Figure 5 workload
// (512 molecules, 3 steps), host time over pairs, median of five idle runs
// of `bench_fig5_speedup --calibrate` on a 4-vCPU Intel Xeon VM (gcc -O2).
inline constexpr double kHostNsPerPair = 14.0;

struct Params {
  std::size_t nmol = 216;  // SPLASH-2's classic molecule count
  std::uint32_t steps = 4;
  double dt = 1e-3;
  std::uint64_t seed = 1;
};

// Deterministic initial atom positions (velocities start at zero).
std::vector<double> make_positions(const Params& p);

// Intra-molecular forces of molecule m: adds into frc, returns its potential.
double intra_force(const double* pos, double* frc, std::size_t m);

// O-O Lennard-Jones between molecules a and b: adds into frc, returns the
// pair potential.
double pair_force(const double* pos, double* frc, std::size_t a, std::size_t b);

// Euler update of molecule m.
void integrate(double* pos, double* vel, const double* frc, std::size_t m, double dt);

// Position + energy fingerprint.
double checksum(const double* pos, std::size_t nmol, double energy);

AppResult run_seq(const Params& p, const sim::TimeModel& time);
AppResult run_tmk(const Params& p, tmk::DsmConfig cfg);
AppResult run_omp(const Params& p, tmk::DsmConfig cfg);
AppResult run_mpi(const Params& p, mpi::MpiConfig cfg);

}  // namespace now::apps::water
