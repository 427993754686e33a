// Shared application-harness types: every paper application exposes the same
// four entry points (sequential, hand-coded TreadMarks, compiled-OpenMP
// style, MPI) returning a checksum and the measurements the paper reports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "simnet/model.h"
#include "simnet/traffic.h"
#include "tmk/stats.h"

namespace now::apps {

struct AppResult {
  double checksum = 0.0;
  double virtual_time_us = 0.0;
  sim::TrafficSnapshot traffic;       // zero for sequential runs
  tmk::DsmStatsSnapshot dsm;          // zero for sequential and MPI runs
};

// Runs a sequential workload, which returns its checksum and adds the work
// units it performed to `units`, and charges those units with the same
// TimeModel and per-unit price the parallel versions use — the denominator
// of every speedup in Figure 5.
AppResult run_sequential(const sim::TimeModel& time, double host_ns_per_unit,
                         const std::function<double(std::uint64_t& units)>& workload);

// Relative checksum comparison for floating-point workloads (parallel
// summation reassociates).
bool checksum_close(double a, double b, double rel_tol = 1e-9);

}  // namespace now::apps
