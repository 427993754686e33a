#include "apps/tsp/tsp.h"

#include "common/check.h"
#include "common/rng.h"

namespace now::apps::tsp {

std::vector<std::uint64_t> make_distances(const Params& p) {
  NOW_CHECK_LE(p.ncities, kMaxCities);
  Rng rng(p.seed);
  const std::size_t n = p.ncities;
  std::vector<std::uint64_t> d(n * n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      d[i * n + j] = d[j * n + i] = 1 + rng.next_below(100);
  return d;
}

namespace {
void dfs(const std::vector<std::uint64_t>& dist, std::uint32_t n, std::uint64_t mask,
         std::uint32_t last, std::uint64_t len, std::uint32_t depth,
         std::uint64_t& best, std::uint64_t& nodes) {
  ++nodes;
  if (len >= best) return;  // bound
  if (depth == n) {
    const std::uint64_t total = len + dist[last * n + 0];
    if (total < best) best = total;
    return;
  }
  for (std::uint32_t c = 1; c < n; ++c) {
    if (mask & (std::uint64_t{1} << c)) continue;
    dfs(dist, n, mask | (std::uint64_t{1} << c), c, len + dist[last * n + c],
        depth + 1, best, nodes);
  }
}
}  // namespace

std::uint64_t exhaustive_best(const std::vector<std::uint64_t>& dist,
                              std::uint32_t ncities, const Tour& t,
                              std::uint64_t bound, std::uint64_t& nodes) {
  std::uint64_t best = bound;
  dfs(dist, ncities, t.visited_mask, t.last, t.length, t.depth, best, nodes);
  return best;
}

}  // namespace now::apps::tsp
