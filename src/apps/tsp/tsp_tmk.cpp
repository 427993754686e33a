// Hand-coded TreadMarks TSP: SPMD workers over the shared pool/queue state,
// mutual exclusion via Tmk locks.
#include "apps/tsp/tsp.h"
#include "apps/tsp/tsp_state.h"

namespace now::apps::tsp {

namespace {
constexpr std::uint32_t kLock = 0;
}

AppResult run_tmk(const Params& p, tmk::DsmConfig cfg) {
  tmk::DsmRuntime rt(cfg);
  AppResult result;
  const auto dist = make_distances(p);

  rt.run_spmd([&](tmk::Tmk& tmk) {
    if (tmk.id() == 0) {
      const std::uint64_t cap = p.pool_capacity;
      auto mem = tmk.alloc_array<std::uint64_t>(TspState::words_needed(cap));
      TspState st{mem, cap};
      st.init_master();
      tmk.set_root(0, mem.cast<void>());
      tmk.set_root(1, tmk::gptr<void>(cap));  // capacity via root slot
    }
    tmk.barrier();

    TspState st{tmk.get_root<std::uint64_t>(0),
                tmk.get_root<void>(1).offset()};
    auto locked = [&](const auto& body) {
      tmk.lock_acquire(kLock);
      body();
      tmk.lock_release(kLock);
    };
    auto compute = [&](std::uint64_t nodes) { tmk.compute(nodes, kHostNsPerNode); };
    while (tsp_step(dist, p, st, locked, compute)) {
    }
    tmk.barrier();
    if (tmk.id() == 0) result.checksum = static_cast<double>(st.best());
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.total_stats();
  return result;
}

}  // namespace now::apps::tsp
