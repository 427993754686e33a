// Shared plumbing for the paper-reproduction benches: canonical workload
// sizes (Table 1) and the run-all-versions driver used by Figure 5 and
// Table 2.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/fft3d/fft3d.h"
#include "apps/qsort/qsort.h"
#include "apps/sweep3d/sweep3d.h"
#include "apps/tsp/tsp.h"
#include "apps/water/water.h"
#include "common/table.h"

namespace now::bench {

struct Workloads {
  apps::sweep3d::Params sweep;
  apps::fft3d::Params fft;
  apps::water::Params water;
  apps::tsp::Params tsp;
  apps::qs::Params qs;

  // Default sizes put every application in the paper's compute/communication
  // regime while keeping a full bench run to a couple of minutes; --scale 2
  // grows them toward the paper's exact inputs.
  static Workloads standard(int scale = 1) {
    Workloads w;
    w.sweep.nx = w.sweep.ny = w.sweep.nz = static_cast<std::size_t>(48) * scale;
    w.sweep.k_block = 6;
    w.fft.nx = w.fft.ny = 64 * static_cast<std::size_t>(scale);
    w.fft.nz = 32 * static_cast<std::size_t>(scale);
    w.fft.iters = 2;
    w.water.nmol = 512 * static_cast<std::size_t>(scale);
    w.water.steps = 3;
    w.tsp.ncities = scale > 1 ? 13 : 12;
    w.tsp.exhaustive_depth = 7;
    w.qs.n = std::size_t{1} << (17 + scale);
    w.qs.bubble_threshold = 1024;
    return w;
  }
};

struct VersionedResults {
  apps::AppResult seq, omp, tmk, mpi;
};

// The gated benches (bench/check_trajectory.py) measure exactly the
// configuration their code names.  Every TMK_* variable overrides a
// DsmConfig *default*, so a CI leg's environment would otherwise move a
// gated count; each gated bench calls this first thing in main, before any
// DsmConfig is built, and then assigns only the knobs its legs vary.
inline void clear_tmk_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "TMK_", 4) == 0)
      names.emplace_back(*e, std::strcspn(*e, "="));
  for (const std::string& name : names) unsetenv(name.c_str());
}

inline tmk::DsmConfig dsm_cfg(std::uint32_t nodes) {
  tmk::DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = std::size_t{96} << 20;
  return c;
}

inline mpi::MpiConfig mpi_cfg(std::uint32_t ranks) {
  mpi::MpiConfig c;
  c.num_ranks = ranks;
  return c;
}

template <typename App>
VersionedResults run_all(const App& params, std::uint32_t nodes) {
  VersionedResults r;
  r.seq = run_seq(params, sim::TimeModel{});
  r.omp = run_omp(params, dsm_cfg(nodes));
  r.tmk = run_tmk(params, dsm_cfg(nodes));
  r.mpi = run_mpi(params, mpi_cfg(nodes));
  return r;
}

inline double speedup(const apps::AppResult& seq, const apps::AppResult& par) {
  return par.virtual_time_us > 0 ? seq.virtual_time_us / par.virtual_time_us : 0;
}

inline int scale_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) return std::atoi(argv[i + 1]);
  return 1;
}

}  // namespace now::bench
