// MPI TSP: master/worker branch and bound.  Rank 0 owns the pool and the
// priority queue and hands leaf subproblems to workers; bound improvements
// ride on the request/reply messages.
#include <queue>

#include "apps/tsp/tsp.h"
#include "common/check.h"

namespace now::apps::tsp {

namespace {
constexpr int kTagRequest = 200;  // worker -> master: u64 best-found
constexpr int kTagTask = 201;     // master -> worker: u64 bound + Tour
constexpr int kTagDone = 202;

struct TaskMsg {
  std::uint64_t bound;
  Tour tour;
};
}  // namespace

AppResult run_mpi(const Params& p, mpi::MpiConfig cfg) {
  mpi::MpiRuntime rt(cfg);
  AppResult result;
  const auto dist = make_distances(p);

  rt.run([&](mpi::Comm& c) {
    if (c.rank() == 0) {
      using Entry = std::pair<std::uint64_t, Tour>;
      auto cmp = [](const Entry& a, const Entry& b) { return a.first > b.first; };
      std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> pq(cmp);
      pq.push({0, Tour{}});
      std::uint64_t best = ~std::uint64_t{0};
      int idle = 0;           // workers currently waiting for a task
      int live = c.size() - 1;  // workers not yet released
      std::vector<int> idle_ranks;

      auto next_leaf = [&]() -> std::optional<Tour> {
        while (!pq.empty()) {
          Tour t = pq.top().second;
          pq.pop();
          if (t.length >= best) continue;
          if (p.ncities - t.depth <= p.exhaustive_depth) return t;
          c.compute(1, kHostNsPerNode);
          for (std::uint32_t city = 1; city < p.ncities; ++city) {
            if (t.visited_mask & (std::uint64_t{1} << city)) continue;
            Tour next = t;
            next.length += dist[t.last * p.ncities + city];
            if (next.length >= best) continue;
            next.visited_mask |= std::uint64_t{1} << city;
            next.path[next.depth] = static_cast<std::uint8_t>(city);
            next.depth += 1;
            next.last = city;
            pq.push({next.length, next});
          }
        }
        return std::nullopt;
      };

      if (live == 0) {
        // Single-rank degenerate case: solve everything locally.
        std::uint64_t nodes = 0;
        for (auto leaf = next_leaf(); leaf; leaf = next_leaf())
          best = exhaustive_best(dist, p.ncities, *leaf, best, nodes);
        c.compute(nodes, kHostNsPerNode);
      }
      while (live > 0) {
        std::uint64_t found = 0;
        const int w = c.recv(&found, sizeof found, mpi::kAnySource, kTagRequest);
        if (found < best) best = found;
        if (auto leaf = next_leaf()) {
          std::uint8_t more = 0;
          c.send(&more, sizeof more, w, kTagDone);  // header: a task follows
          TaskMsg msg{best, *leaf};
          c.send(&msg, sizeof msg, w, kTagTask);
        } else {
          idle_ranks.push_back(w);
          ++idle;
          if (idle == live) {
            // Queue drained and every worker idle: global termination.
            std::uint8_t done = 1;
            for (int r : idle_ranks) c.send(&done, sizeof done, r, kTagDone);
            live = 0;
          }
        }
      }
      result.checksum = static_cast<double>(best);
    } else {
      std::uint64_t found = ~std::uint64_t{0};
      for (;;) {
        c.send(&found, sizeof found, 0, kTagRequest);
        // The master always answers with a 1-byte header: 0 = task follows,
        // 1 = released.
        std::uint8_t kind = 0;
        c.recv(&kind, sizeof kind, 0, kTagDone);
        if (kind == 1) break;
        TaskMsg msg{};
        c.recv(&msg, sizeof msg, 0, kTagTask);
        std::uint64_t nodes = 0;
        found = exhaustive_best(dist, p.ncities, msg.tour, msg.bound, nodes);
        c.compute(nodes, kHostNsPerNode);
      }
    }
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  return result;
}

}  // namespace now::apps::tsp
