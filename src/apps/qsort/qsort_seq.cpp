#include "apps/qsort/qsort.h"

namespace now::apps::qs {

namespace {
// Iterative quicksort with bubble-sorted leaves — the same kernel every
// parallel version runs per task, so compute is comparable across versions.
// Returns the elements compared.
std::uint64_t seq_sort(std::uint32_t* a, std::size_t n, std::size_t threshold) {
  std::uint64_t elements = 0;
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, n}};
  while (!stack.empty()) {
    auto [lo, hi] = stack.back();
    stack.pop_back();
    while (hi - lo > threshold) {
      const std::size_t m = lo + partition(a + lo, hi - lo);
      elements += hi - lo;
      // Recurse into the smaller half via the stack; iterate on the larger.
      if (m - lo < hi - (m + 1)) {
        stack.emplace_back(m + 1, hi);
        hi = m;
      } else {
        stack.emplace_back(lo, m);
        lo = m + 1;
      }
    }
    if (hi - lo > 1) elements += bubble_sort(a + lo, hi - lo);
  }
  return elements;
}
}  // namespace

AppResult run_seq(const Params& p, const sim::TimeModel& time) {
  auto input = make_input(p);
  return run_sequential(time, kHostNsPerElement, [&](std::uint64_t& elements) -> double {
    elements += seq_sort(input.data(), input.size(), p.bubble_threshold);
    return static_cast<double>(checksum(input.data(), input.size()) %
                               9007199254740881ULL);
  });
}

}  // namespace now::apps::qs
