// Multi-page prefetch on fault: a fault outside a critical section folds
// neighboring invalid pages' wanted interval seqs into the kDiffRequest it
// already sends — only a neighbor the request covers whole — and validates
// it on arrival.  (Inside a critical section the window folds nothing:
// only the lock's batch prefetches there, tmk_routed_fetch_test.)  These
// tests pin down
//  - the headline win: a strided traversal sends >= 2x fewer kDiffRequest
//    messages and takes fewer read faults with prefetch on, with
//    byte-identical final contents;
//  - the counters: prefetch_requests_batched / prefetch_pages_validated
//    move exactly when prefetch serves a neighbor, and stay zero with the
//    window disabled;
//  - writer scoping: only writers the fault already contacts are prefetched
//    from, and a neighbor that would still need another writer is not
//    folded at all;
//  - a validated neighbor is current under lazy release consistency and is
//    invalidated again by the next notice, and a neighbor that gains a
//    notice while the fetch waits stays invalid;
//  - merged runs: outside a critical section a writer folds a run of its
//    intervals adjacent in apply order into one diff, never across another
//    writer's interval, and inside one every interval ships on its own.
// (The batch's parking, budget eviction and refetch live in
// tmk_diff_cache_test; the prefetch/GC reclaim interplay in tmk_gc_test;
// cross-config byte identity in tmk_fuzz_consistency_test.)
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
  EXPECT_EQ(off.stats.prefetch_pages_validated, 0u);
  EXPECT_EQ(off.stats.prefetch_pages_filled, 0u);
  EXPECT_EQ(off.stats.prefetch_hits, 0u);
  EXPECT_EQ(off.stats.diff_cache_hits, 0u);

  // Most pages (all but the window-leading faults) are validated on
  // arrival: each one is a read fault saved, and nothing is parked.
  EXPECT_GT(on.stats.prefetch_requests_batched, 0u);
  EXPECT_GE(on.stats.prefetch_pages_validated, kSweepPages / 2);
  EXPECT_LT(on.stats.read_faults, off.stats.read_faults);
  EXPECT_EQ(on.stats.read_faults + on.stats.prefetch_pages_validated,
            off.stats.read_faults);
  EXPECT_EQ(on.stats.prefetch_pages_filled, 0u);
  EXPECT_EQ(on.stats.diff_cache_hits, 0u);
  // Validated chunks count as applied, exactly as their faults' would.
  EXPECT_EQ(on.stats.diffs_applied, off.stats.diffs_applied);
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

// The tests below count one node's faults and page states, so they pin off
// the modes that would make pages valid at a sync point instead (update and
// lock push, checkpoint staging, on-demand GC) whatever the environment
// sets.
DsmConfig pinned_cfg(std::uint32_t nodes, std::size_t prefetch) {
  DsmConfig c = cfg(nodes, prefetch);
  c.update_mode = false;
  c.lock_push_bytes = 0;
  c.ckpt_every = 0;
  c.meta_ceiling_bytes = 0;
  return c;
}

TEST(Prefetch, NeighborNeedingAnotherWriterIsNotFolded) {
  // Page A is written by node 0; its neighbor B by nodes 0 and 2 (disjoint
  // words).  The fault on A contacts node 0 only, and B would still need
  // node 2, so B is not folded: it stays invalid and its own fault fetches
  // it whole, from both writers.
  DsmRuntime rt(pinned_cfg(3, /*prefetch=*/4));
  std::uint64_t b_faults = 0, b_requests = 0;
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> a(kPageSize);
    gptr<std::uint64_t> b(2 * kPageSize);
    if (tmk.id() == 0) {
      a[0] = 11;
      b[0] = 21;
    }
    if (tmk.id() == 2) b[1] = 22;
    tmk.barrier();
    if (tmk.id() == 1) {
      DsmStats& st = tmk.node.stats();
      EXPECT_EQ(a[0], 11u);
      EXPECT_EQ(st.prefetch_requests_batched.load(), 0u);
      const std::uint64_t faults = st.read_faults.load();
      const std::uint64_t requests = st.diff_fetches.load();
      EXPECT_EQ(b[0], 21u);
      EXPECT_EQ(b[1], 22u);
      b_faults = st.read_faults.load() - faults;
      b_requests = st.diff_fetches.load() - requests;
    }
    tmk.barrier();
  });
  EXPECT_EQ(b_faults, 1u);    // B was still invalid
  EXPECT_EQ(b_requests, 2u);  // ...and fetched from both of its writers
  const auto s = rt.total_stats();
  EXPECT_EQ(s.prefetch_pages_validated, 0u);
  EXPECT_EQ(s.prefetch_pages_filled, 0u);
  EXPECT_EQ(s.diff_cache_hits, 0u);
}

TEST(Prefetch, ValidatedNeighborIsCurrentAndInvalidatedAgain) {
  DsmRuntime rt(pinned_cfg(2, /*prefetch=*/4));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> a(kPageSize);
    gptr<std::uint64_t> b(2 * kPageSize);
    DsmStats& st = tmk.node.stats();
    if (tmk.id() == 0) {
      a[0] = 1;
      b[0] = 10;
    }
    tmk.barrier();
    if (tmk.id() == 1) {
      EXPECT_EQ(a[0], 1u);  // the fault on A validates B on arrival
      EXPECT_EQ(st.prefetch_pages_validated.load(), 1u);
      const std::uint64_t faults = st.read_faults.load();
      EXPECT_EQ(b[0], 10u);  // the barrier's write, already applied
      EXPECT_EQ(st.read_faults.load(), faults) << "validated B took a fault";
    }
    tmk.barrier();

    // A notice delivered over a lock invalidates the validated copy: node 1
    // polls under the lock until node 0's critical section has run, and
    // must then see its write (and, until then, the barrier's).
    if (tmk.id() == 0) {
      tmk.lock_acquire(0);
      b[1] = 11;
      tmk.lock_release(0);
    } else {
      const std::uint64_t inval = st.invalidations.load();
      for (;;) {
        tmk.lock_acquire(0);
        const std::uint64_t seen = b[1];
        EXPECT_EQ(b[0], 10u);
        tmk.lock_release(0);
        if (seen == 11) break;
        EXPECT_EQ(seen, 0u);
      }
      EXPECT_GT(st.invalidations.load(), inval);
    }
    tmk.barrier();

    // ...and so does one delivered by a barrier.
    if (tmk.id() == 0) b[2] = 12;
    const std::uint64_t inval = st.invalidations.load();
    tmk.barrier();
    if (tmk.id() == 1) {
      EXPECT_GT(st.invalidations.load(), inval);
      EXPECT_EQ(b[0], 10u);
      EXPECT_EQ(b[1], 11u);
      EXPECT_EQ(b[2], 12u);
    }
    tmk.barrier();
  });
}

// A neighbor that gains a notice while the fetch waits (here: a flush from
// the writer, merged by the reader's service thread) must not be validated
// with the notice's interval missing; it applies what the fetch covered,
// stays invalid, and its own fault applies the rest.  Node 0 rewrites word `r + 1` of
// every page and flushes, round after round, while node 1 sweeps the pages
// reading word 0 (written once, before the first barrier) until it sees
// node 0's last round; the service jitter widens the window in which a
// flush lands during a fetch.  Node 1's reads race node 0's writes only on
// other words (multi-writer pages), so every read of word 0 has one correct
// value, and after the last barrier every word does.
TEST(Prefetch, NeighborGainingANoticeDuringTheFetchStaysInvalid) {
  constexpr std::size_t kPages = 16;
  constexpr std::size_t kRounds = 32;
  DsmConfig c = pinned_cfg(2, /*prefetch=*/4);
  c.stress_service_jitter = true;
  DsmRuntime rt(c);
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    auto word = [](std::size_t pg, std::size_t r) {
      return pg * kWordsPerPage + r + 1;
    };
    if (tmk.id() == 0)
      for (std::size_t pg = 0; pg < kPages; ++pg) base[pg * kWordsPerPage] = pg;
    tmk.barrier();
    if (tmk.id() == 0) {
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t pg = 0; pg < kPages; ++pg)
          base[word(pg, r)] = 1000 * (r + 1) + pg;
        tmk.flush();
      }
    } else {
      std::size_t wrong = 0;
      while (base[word(kPages - 1, kRounds - 1)] == 0)
        for (std::size_t pg = 0; pg < kPages; ++pg)
          wrong += base[pg * kWordsPerPage] != pg;
      EXPECT_EQ(wrong, 0u);
    }
    tmk.barrier();
    if (tmk.id() == 1) {
      for (std::size_t pg = 0; pg < kPages; ++pg)
        for (std::size_t r = 0; r < kRounds; ++r)
          EXPECT_EQ(base[word(pg, r)], 1000 * (r + 1) + pg);
    }
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  EXPECT_GT(s.prefetch_pages_validated, 0u);
  // A neighbor that gained a notice while its fetch waited is applied only
  // partly (most folds in this loop, so the path is exercised on every
  // run); outside a critical section nothing fetched is parked.
  EXPECT_GT(s.prefetch_pages_partial, 0u);
  EXPECT_EQ(s.prefetch_pages_filled, 0u);
}

// Node 0 rewrites the same kilobyte of one page in kIntervals intervals
// (a private lock's release closes each one); after the barrier node 1
// reads the page, outside or inside a critical section.
struct RunOutcome {
  DsmStatsSnapshot stats;
  std::uint64_t payload_bytes = 0;
  std::uint64_t seen = 0;
};
constexpr std::size_t kIntervals = 8;
constexpr std::size_t kRunWords = 1024 / sizeof(std::uint64_t);

RunOutcome run_interval_stack(bool read_in_cs) {
  RunOutcome out;
  DsmRuntime rt(pinned_cfg(2, /*prefetch=*/0));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> page(kPageSize);
    if (tmk.id() == 0) {
      for (std::size_t r = 0; r < kIntervals; ++r) {
        tmk.lock_acquire(7);
        for (std::size_t k = 0; k < kRunWords; ++k) page[k] = 1000 * (r + 1) + k;
        tmk.lock_release(7);
      }
    }
    tmk.barrier();
    if (tmk.id() == 1) {
      if (read_in_cs) tmk.lock_acquire(3);
      for (std::size_t k = 0; k < kRunWords; ++k) out.seen += page[k];
      if (read_in_cs) tmk.lock_release(3);
    }
    tmk.barrier();
  });
  out.stats = rt.total_stats();
  out.payload_bytes = rt.traffic().payload_bytes;
  return out;
}

TEST(Prefetch, ContiguousRunIsFetchedMerged) {
  const RunOutcome merged = run_interval_stack(/*read_in_cs=*/false);
  const RunOutcome split = run_interval_stack(/*read_in_cs=*/true);
  std::uint64_t want = 0;
  for (std::size_t k = 0; k < kRunWords; ++k) want += 1000 * kIntervals + k;
  EXPECT_EQ(merged.seen, want);
  EXPECT_EQ(split.seen, want);

  // One run of kIntervals dense, fully overlapping diffs folds into one
  // diff the size of each: (kIntervals - 1) of them never cross the wire.
  EXPECT_EQ(merged.stats.diff_runs_merged, 1u);
  EXPECT_GE(merged.stats.diff_merge_bytes_saved, (kIntervals - 1) * 1024);
  EXPECT_EQ(merged.stats.diffs_applied, 1u);
  // Inside a critical section every interval ships on its own.
  EXPECT_EQ(split.stats.diff_runs_merged, 0u);
  EXPECT_EQ(split.stats.diffs_applied, kIntervals);
  EXPECT_LT(merged.payload_bytes + (kIntervals - 2) * 1024, split.payload_bytes);
}

// A1 / B2 / A3 A4: node 0 writes word x (A1), node 1 overwrites it (B2),
// then node 0 writes words y and z in two intervals (A3, A4).  A reader
// that learns all four at once must fold A3 and A4 only: folding A1 into
// that run would replay A1's x after B2's.
TEST(Prefetch, RunIsNotFoldedAcrossAnotherWritersInterval) {
  DsmRuntime rt(pinned_cfg(3, /*prefetch=*/0));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> page(kPageSize);
    if (tmk.id() == 0) page[0] = 1;  // A1: x
    tmk.barrier();
    if (tmk.id() == 1) page[0] = 2;  // B2: x again
    tmk.barrier();
    if (tmk.id() == 0) {
      tmk.lock_acquire(7);
      page[100] = 3;  // A3: y
      tmk.lock_release(7);
      page[200] = 4;  // A4: z
    }
    tmk.barrier();
    if (tmk.id() == 2) {
      EXPECT_EQ(page[0], 2u) << "A1 was folded past B2";
      EXPECT_EQ(page[100], 3u);
      EXPECT_EQ(page[200], 4u);
    }
    tmk.barrier();
  });
  EXPECT_EQ(rt.total_stats().diff_runs_merged, 1u);  // A3 + A4 only
}

}  // namespace
}  // namespace now::tmk
