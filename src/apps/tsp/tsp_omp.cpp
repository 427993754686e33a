// "Compiled OpenMP" TSP: a parallel region whose pool/queue accesses sit in
// `critical` directives — the translation of the paper's OpenMP source.
#include "apps/tsp/tsp.h"
#include "apps/tsp/tsp_state.h"
#include "omp/omp.h"

namespace now::apps::tsp {

AppResult run_omp(const Params& p, tmk::DsmConfig cfg) {
  omp::OmpRuntime rt(cfg);
  AppResult result;
  const auto dist = make_distances(p);

  rt.run([&](omp::Team& team) {
    const std::uint64_t cap = p.pool_capacity;
    auto mem = team.shared_array<std::uint64_t>(TspState::words_needed(cap));
    TspState{mem, cap}.init_master();

    const Params params = p;
    // The distance matrix is read-only; ship it through shared memory so
    // slaves fetch it once (firstprivate would also be faithful, but the
    // paper's codes keep large read-only data shared).
    auto dist_sh = team.shared_array<std::uint64_t>(dist.size());
    for (std::size_t i = 0; i < dist.size(); ++i) dist_sh[i] = dist[i];
    const std::size_t dist_n = dist.size();

    team.parallel([=](omp::Par& par) {
      std::vector<std::uint64_t> local_dist(dist_n);
      for (std::size_t i = 0; i < dist_n; ++i) local_dist[i] = dist_sh[i];
      TspState st{mem, cap};
      auto locked = [&](const auto& body) { par.critical(body); };
      auto compute = [&](std::uint64_t nodes) { par.compute(nodes, kHostNsPerNode); };
      while (tsp_step(local_dist, params, st, locked, compute)) {
      }
    });

    TspState st{mem, cap};
    result.checksum = static_cast<double>(st.best());
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.dsm().total_stats();
  return result;
}

}  // namespace now::apps::tsp
