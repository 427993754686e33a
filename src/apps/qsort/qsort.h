// QSORT: quicksort with a shared task queue (paper Section 5, "SQORT").
//
// "Quicksort sorts an array of integers by recursively partitioning the
//  array into subarrays and resorting to bubblesort when the subarray is
//  sufficiently short.  Quicksort employs a task queue wherein each task
//  element is a pointer to a subarray.  A thread repeatedly removes a
//  subarray from the task queue, subdivides it and puts generated tasks back
//  to the task queue.  The OpenMP EnQueue and DeQueue operations are
//  implemented with critical sections and a condition variable" (Figure 4).
//
// The MPI version uses hypercube quicksort (recursive bisection with pivot
// broadcast and pairwise exchange), the standard message-passing equivalent.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/harness.h"
#include "mpi/mpi.h"
#include "tmk/tmk.h"

namespace now::apps::qs {

struct Params {
  std::size_t n = 1 << 17;             // integers to sort
  std::size_t bubble_threshold = 512;  // leaf size handled by bubble sort
  std::uint64_t seed = 1;
};

// Deterministic unsorted input.
std::vector<std::uint32_t> make_input(const Params& p);

// Order-sensitive fingerprint: sum of value * (index+1), wrapping.
std::uint64_t checksum(const std::uint32_t* a, std::size_t n);

// Compute is charged per element compared: a partition of n elements
// charges n, a bubble sort the comparisons its passes make (the leaves do
// most of the work, so they have to be counted).  Host nanoseconds per
// element: the sequential kernel at the Figure 5 workload (2^18 integers,
// leaves of 1024), host time over elements, median of five idle runs of
// `bench_fig5_speedup --calibrate` on a 4-vCPU Intel Xeon VM (gcc -O2).
inline constexpr double kHostNsPerElement = 4.05;

// Sequential quicksort-with-bubble-leaves (also the per-task kernel);
// returns the comparisons made.
std::uint64_t bubble_sort(std::uint32_t* a, std::size_t n);
// Places a pivot in final position m: a[0..m) < a[m] <= a[m+1..n).
std::size_t partition(std::uint32_t* a, std::size_t n);

AppResult run_seq(const Params& p, const sim::TimeModel& time);
AppResult run_tmk(const Params& p, tmk::DsmConfig cfg);
AppResult run_omp(const Params& p, tmk::DsmConfig cfg);
AppResult run_mpi(const Params& p, mpi::MpiConfig cfg);

}  // namespace now::apps::qs
