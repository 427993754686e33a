#include "apps/qsort/qsort.h"

#include <algorithm>

#include "common/rng.h"

namespace now::apps::qs {

std::vector<std::uint32_t> make_input(const Params& p) {
  Rng rng(p.seed);
  std::vector<std::uint32_t> a(p.n);
  for (auto& v : a) v = static_cast<std::uint32_t>(rng.next_u64());
  return a;
}

std::uint64_t checksum(const std::uint32_t* a, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i)
    sum += static_cast<std::uint64_t>(a[i]) * (i + 1);
  return sum;
}

std::uint64_t bubble_sort(std::uint32_t* a, std::size_t n) {
  std::uint64_t compares = 0;
  for (std::size_t end = n; end > 1; --end) {
    compares += end - 1;
    bool swapped = false;
    for (std::size_t i = 1; i < end; ++i) {
      if (a[i] < a[i - 1]) {
        std::swap(a[i], a[i - 1]);
        swapped = true;
      }
    }
    if (!swapped) break;
  }
  return compares;
}

std::size_t partition(std::uint32_t* a, std::size_t n) {
  // Median-of-three pivot, Lomuto partition.  Returns m with a[m] in its
  // final sorted position, a[0..m) < a[m] <= a[m+1..n): both remaining
  // subproblems are strictly smaller than n, so recursion always makes
  // progress, duplicates included.
  const std::size_t mid = n / 2;
  if (a[mid] < a[0]) std::swap(a[mid], a[0]);
  if (a[n - 1] < a[0]) std::swap(a[n - 1], a[0]);
  if (a[n - 1] < a[mid]) std::swap(a[n - 1], a[mid]);
  std::swap(a[mid], a[n - 1]);  // pivot to the end
  const std::uint32_t pivot = a[n - 1];

  std::size_t store = 0;
  for (std::size_t i = 0; i + 1 < n; ++i)
    if (a[i] < pivot) std::swap(a[i], a[store++]);
  std::swap(a[store], a[n - 1]);
  return store;
}

}  // namespace now::apps::qs
