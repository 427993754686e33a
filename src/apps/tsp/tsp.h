// TSP: branch-and-bound traveling salesman (paper Section 5).
//
// "The major data structures are a pool of partially evaluated tours, a
//  priority queue containing pointers to tours in the pool, a stack of
//  pointers to unused tour elements in the pool and the current shortest
//  path.  A process repeatedly dequeues the most promising path from the
//  priority queue, extends it by one city and enqueues the new path, or
//  takes the dequeued path and tries all permutations of the remaining
//  nodes. ... the dequeue and the following enqueue operations by the same
//  processor are actually carried out within one critical section.
//  Therefore there is no need to use condition variables for TSP."
//
// The MPI version is master/worker: rank 0 owns the pool and priority queue,
// workers run the exhaustive leaf searches.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/harness.h"
#include "mpi/mpi.h"
#include "tmk/tmk.h"

namespace now::apps::tsp {

inline constexpr std::size_t kMaxCities = 16;

// Compute is charged per tour node expanded: one per queued tour extended
// by a city, one per node of an exhaustive leaf search.  Host nanoseconds
// per node: the sequential kernel at the Figure 5 workload (12 cities, leaf
// depth 7), host time over nodes, median of five idle runs of
// `bench_fig5_speedup --calibrate` on a 4-vCPU Intel Xeon VM (gcc -O2).
inline constexpr double kHostNsPerNode = 21.8;

struct Params {
  std::uint32_t ncities = 12;
  std::uint32_t exhaustive_depth = 7;  // remaining cities solved by DFS leaf
  std::uint64_t seed = 1;
  std::size_t pool_capacity = 1 << 15;
};

// Symmetric random distance matrix (row-major ncities^2, diagonal zero).
std::vector<std::uint64_t> make_distances(const Params& p);

// A partially evaluated tour starting at city 0.
struct Tour {
  std::uint64_t length = 0;        // path length so far
  std::uint64_t visited_mask = 1;  // city 0 visited
  std::uint32_t depth = 1;         // cities on the path
  std::uint32_t last = 0;          // current endpoint
  std::uint8_t path[kMaxCities] = {0};
};

// DFS over the remaining cities with bound pruning; returns the best
// complete-tour length reachable from `t` (>= bound if none better) and
// adds the search nodes it expanded to `nodes`.
std::uint64_t exhaustive_best(const std::vector<std::uint64_t>& dist,
                              std::uint32_t ncities, const Tour& t,
                              std::uint64_t bound, std::uint64_t& nodes);

AppResult run_seq(const Params& p, const sim::TimeModel& time);
AppResult run_tmk(const Params& p, tmk::DsmConfig cfg);
AppResult run_omp(const Params& p, tmk::DsmConfig cfg);
AppResult run_mpi(const Params& p, mpi::MpiConfig cfg);

}  // namespace now::apps::tsp
