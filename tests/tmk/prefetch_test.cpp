// Multi-page prefetch on fault: a fault folds neighboring invalid pages'
// wanted interval seqs into the kDiffRequest it already sends, parking the
// extra chunks in the neighbors' requester-side diff caches.  These tests
// pin down
//  - the headline win: a strided traversal sends >= 2x fewer kDiffRequest
//    messages with prefetch on, with byte-identical final contents;
//  - the counters: prefetch_requests_batched / prefetch_pages_filled /
//    prefetch_hits move exactly when prefetch serves a fault, and stay zero
//    with the window disabled;
//  - writer scoping: only writers the fault already contacts are prefetched
//    from — a neighbor written by somebody else costs no extra message.
// (Budget eviction + transparent refetch lives in tmk_diff_cache_test; the
// prefetch/GC reclaim interplay in tmk_gc_test; cross-config byte identity
// in tmk_fuzz_consistency_test.)
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

DsmConfig cfg(std::uint32_t nodes, std::size_t prefetch) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.prefetch_pages = prefetch;
  c.gc_at_barriers = false;
  c.time.cpu_scale = 0.0;
  return c;
}

constexpr std::size_t kSweepPages = 32;
constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);

// Node 0 dirties a plane of pages; node 1 then walks them in ascending page
// order (the Sweep3D/FFT-transpose access shape): every page fault wants
// diffs from the same writer, so the window can batch ahead.
struct SweepOutcome {
  std::uint64_t diff_requests = 0;
  DsmStatsSnapshot stats;
  std::vector<std::uint64_t> contents;  // one probe word per page
};

SweepOutcome run_strided_sweep(std::size_t prefetch) {
  SweepOutcome out;
  out.contents.resize(kSweepPages);
  DsmRuntime rt(cfg(2, prefetch));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    if (tmk.id() == 0)
      for (std::size_t pg = 0; pg < kSweepPages; ++pg)
        for (std::size_t k = 0; k < 16; ++k)
          base[pg * kWordsPerPage + k] = pg * 1000 + k;
    tmk.barrier();
    if (tmk.id() == 1)
      for (std::size_t pg = 0; pg < kSweepPages; ++pg)
        out.contents[pg] = base[pg * kWordsPerPage + (pg % 16)];
    tmk.barrier();
  });
  out.diff_requests = rt.traffic().messages_by_type[kDiffRequest];
  out.stats = rt.total_stats();
  return out;
}

TEST(Prefetch, StridedSweepHalvesDiffRequestMessages) {
  const SweepOutcome off = run_strided_sweep(0);
  const SweepOutcome on = run_strided_sweep(4);

  // Identical bytes read either way.
  ASSERT_EQ(on.contents, off.contents);
  for (std::size_t pg = 0; pg < kSweepPages; ++pg)
    EXPECT_EQ(on.contents[pg], pg * 1000 + (pg % 16));

  // Without prefetch the walk pays one request per page; with a window of 4
  // one request serves the faulting page plus up to 4 neighbors.
  EXPECT_GE(off.diff_requests, kSweepPages);
  EXPECT_GE(off.diff_requests, 2 * on.diff_requests)
      << "prefetch=4 sent " << on.diff_requests << " kDiffRequests vs "
      << off.diff_requests << " with prefetch off";

  EXPECT_EQ(off.stats.prefetch_requests_batched, 0u);
  EXPECT_EQ(off.stats.prefetch_pages_filled, 0u);
  EXPECT_EQ(off.stats.prefetch_hits, 0u);
  EXPECT_EQ(off.stats.diff_cache_hits, 0u);

  EXPECT_GT(on.stats.prefetch_requests_batched, 0u);
  EXPECT_GT(on.stats.prefetch_pages_filled, 0u);
  // Most pages (all but the window-leading faults) are served from cache.
  EXPECT_GE(on.stats.prefetch_hits, kSweepPages / 2);
  EXPECT_EQ(on.stats.prefetch_hits, on.stats.diff_cache_hits);
  EXPECT_GT(on.stats.diff_cache_bytes_saved, 0u);
}

TEST(Prefetch, OnlyWritersAlreadyContactedAreBatched) {
  // Page A is written by node 0, its neighbor B by node 2: the fault on A
  // talks to node 0 only, so B must not be prefetched (that would be a new
  // message to a new writer, defeating the amortization).
  DsmRuntime rt(cfg(3, /*prefetch=*/4));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> a(kPageSize);
    gptr<std::uint64_t> b(kPageSize + kPageSize);
    if (tmk.id() == 0) a[0] = 11;
    if (tmk.id() == 2) b[0] = 22;
    tmk.barrier();
    if (tmk.id() == 1) {
      EXPECT_EQ(a[0], 11u);  // fault on A: no candidate shares a writer
      EXPECT_EQ(b[0], 22u);  // separate fault, separate request
    }
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  EXPECT_EQ(s.prefetch_requests_batched, 0u);
  EXPECT_EQ(s.prefetch_hits, 0u);
}

}  // namespace
}  // namespace now::tmk
