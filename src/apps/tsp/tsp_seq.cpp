#include "apps/tsp/tsp.h"
#include "apps/tsp/tsp_state.h"

namespace now::apps::tsp {

AppResult run_seq(const Params& p, const sim::TimeModel& time) {
  auto dist = make_distances(p);
  return run_sequential(time, kHostNsPerNode, [&](std::uint64_t& nodes) -> double {
    // The parallel versions' search over host memory with no locks: the
    // same queue order and pruning, so a one-node run expands the same
    // tour nodes.
    using State = BasicTspState<std::uint64_t*>;
    std::vector<std::uint64_t> mem(State::words_needed(p.pool_capacity));
    const State st{mem.data(), p.pool_capacity};
    st.init_master();
    auto locked = [](const auto& body) { body(); };
    auto compute = [&](std::uint64_t n) { nodes += n; };
    while (tsp_step(dist, p, st, locked, compute)) {
    }
    return static_cast<double>(st.best());
  });
}

}  // namespace now::apps::tsp
