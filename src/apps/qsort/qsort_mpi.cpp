// MPI QSORT: hypercube quicksort — recursive bisection with pivot broadcast
// and pairwise low/high exchange, then a local sort and a distributed
// checksum.  The message-passing counterpart of the task-queue versions:
// few large messages instead of many page diffs.
#include "apps/qsort/qsort.h"

#include <algorithm>

#include "common/check.h"

namespace now::apps::qs {

namespace {

constexpr int kTagScatterCount = 100;
constexpr int kTagScatterData = 101;
constexpr int kTagPivot = 102;
constexpr int kTagXchgCount = 103;
constexpr int kTagXchgData = 104;
constexpr int kTagCount = 105;

// Returns the elements compared (qsort.h's unit).
std::uint64_t local_sort(std::vector<std::uint32_t>& v, std::size_t threshold) {
  std::uint64_t elements = 0;
  if (v.size() < 2) return elements;
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, v.size()}};
  while (!stack.empty()) {
    auto [lo, hi] = stack.back();
    stack.pop_back();
    while (hi - lo > threshold) {
      const std::size_t m = lo + partition(v.data() + lo, hi - lo);
      elements += hi - lo;
      if (m - lo < hi - (m + 1)) {
        stack.emplace_back(m + 1, hi);
        hi = m;
      } else {
        stack.emplace_back(lo, m);
        lo = m + 1;
      }
    }
    if (hi - lo > 1) elements += bubble_sort(v.data() + lo, hi - lo);
  }
  return elements;
}

}  // namespace

AppResult run_mpi(const Params& p, mpi::MpiConfig cfg) {
  const std::uint32_t np = cfg.num_ranks;
  NOW_CHECK((np & (np - 1)) == 0) << "hypercube quicksort needs 2^k ranks";
  mpi::MpiRuntime rt(cfg);
  AppResult result;

  rt.run([&](mpi::Comm& c) {
    const int n = c.size();
    const int r = c.rank();

    // Root generates and scatters the input in blocks.
    std::vector<std::uint32_t> local;
    if (r == 0) {
      auto input = make_input(p);
      const std::size_t base = p.n / static_cast<std::size_t>(n);
      const std::size_t rem = p.n % static_cast<std::size_t>(n);
      std::size_t off = 0;
      for (int dst = 0; dst < n; ++dst) {
        const std::size_t count = base + (static_cast<std::size_t>(dst) < rem ? 1 : 0);
        if (dst == 0) {
          local.assign(input.begin(), input.begin() + static_cast<std::ptrdiff_t>(count));
        } else {
          const std::uint64_t cnt64 = count;
          c.send(&cnt64, sizeof cnt64, dst, kTagScatterCount);
          c.send(input.data() + off, count * sizeof(std::uint32_t), dst, kTagScatterData);
        }
        off += count;
      }
    } else {
      std::uint64_t cnt64 = 0;
      c.recv(&cnt64, sizeof cnt64, 0, kTagScatterCount);
      local.resize(cnt64);
      c.recv(local.data(), cnt64 * sizeof(std::uint32_t), 0, kTagScatterData);
    }

    // log2(n) bisection rounds.
    for (int step = n / 2; step >= 1; step /= 2) {
      const int group = r & ~(2 * step - 1);  // first rank of our subcube
      // Group root picks a pivot (median of its local data) and distributes
      // it within the subcube.
      std::uint32_t pivot = 0;
      if (r == group) {
        std::vector<std::uint32_t> tmp = local;
        if (!tmp.empty()) {
          std::nth_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(tmp.size() / 2), tmp.end());
          pivot = tmp[tmp.size() / 2];
        }
        c.compute(tmp.size(), kHostNsPerElement);  // selection: one partition pass
        for (int m = group; m < group + 2 * step; ++m)
          if (m != r) c.send(&pivot, sizeof pivot, m, kTagPivot);
      } else {
        c.recv(&pivot, sizeof pivot, group, kTagPivot);
      }

      // Split locally, exchange halves with the partner across the bisection.
      std::vector<std::uint32_t> low, high;
      for (std::uint32_t v : local)
        (v < pivot ? low : high).push_back(v);
      c.compute(local.size(), kHostNsPerElement);

      const int partner = r ^ step;
      std::vector<std::uint32_t>& keep = (r < partner) ? low : high;
      std::vector<std::uint32_t>& give = (r < partner) ? high : low;
      const std::uint64_t give_count = give.size();
      std::uint64_t get_count = 0;
      c.sendrecv(&give_count, sizeof give_count, partner, kTagXchgCount,
                 &get_count, sizeof get_count, partner, kTagXchgCount);
      std::vector<std::uint32_t> incoming(get_count);
      c.sendrecv(give.data(), give.size() * sizeof(std::uint32_t), partner,
                 kTagXchgData, incoming.data(), get_count * sizeof(std::uint32_t),
                 partner, kTagXchgData);
      keep.insert(keep.end(), incoming.begin(), incoming.end());
      local = std::move(keep);
    }

    c.compute(local_sort(local, p.bubble_threshold), kHostNsPerElement);

    // Distributed order-sensitive checksum: ranks hold ascending buckets;
    // compute global offsets, then reduce the weighted partial sums.
    std::uint64_t count = local.size();
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(n), 0);
    c.gather(&count, sizeof count, counts.data(), 0);
    std::uint64_t offset = 0;
    if (r == 0) {
      std::uint64_t acc = 0;
      for (int dst = 0; dst < n; ++dst) {
        const std::uint64_t this_count = counts[static_cast<std::size_t>(dst)];
        if (dst == 0) {
          offset = 0;
        } else {
          c.send(&acc, sizeof acc, dst, kTagCount);
        }
        acc += this_count;
      }
    } else {
      c.recv(&offset, sizeof offset, 0, kTagCount);
    }
    std::uint64_t partial = 0;
    for (std::size_t i = 0; i < local.size(); ++i)
      partial += static_cast<std::uint64_t>(local[i]) * (offset + i + 1);
    std::uint64_t total = 0;
    c.reduce(&partial, &total, 1, mpi::Op::kSum, 0);
    if (r == 0)
      result.checksum = static_cast<double>(total % 9007199254740881ULL);
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  return result;
}

}  // namespace now::apps::qs
