// The requester-side diff cache: structure-level behavior (hit/miss, FIFO
// eviction under the byte budget, GC pinning) and the protocol-level
// invariant that with barrier-time GC disabled the cache never changes what
// the simulation computes or transmits — without GC every (writer, seq)
// notice is learned and fetched at most once, so the hit counter must read
// zero.
// (With GC enabled the cache is load-bearing; tmk_gc_test covers that.)
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

DiffBytes chunk(std::size_t n, std::uint8_t fill) { return DiffBytes(n, fill); }

TEST(PageDiffCache, MissThenHit) {
  PageDiffCache c;
  EXPECT_EQ(c.find(1, 1), nullptr);
  c.insert(1, 1, {chunk(10, 0xaa)}, 1024);
  const auto* got = c.find(1, 1);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0], chunk(10, 0xaa));
  EXPECT_EQ(c.bytes(), 10u);
  EXPECT_EQ(c.entries(), 1u);
}

TEST(PageDiffCache, DistinctWritersAndSeqsAreDistinctKeys) {
  PageDiffCache c;
  c.insert(1, 1, {chunk(4, 1)}, 1024);
  c.insert(1, 2, {chunk(4, 2)}, 1024);
  c.insert(2, 1, {chunk(4, 3)}, 1024);
  EXPECT_EQ((*c.find(1, 1))[0][0], 1);
  EXPECT_EQ((*c.find(1, 2))[0][0], 2);
  EXPECT_EQ((*c.find(2, 1))[0][0], 3);
}

TEST(PageDiffCache, InsertIsIdempotent) {
  PageDiffCache c;
  c.insert(1, 1, {chunk(8, 1)}, 1024);
  c.insert(1, 1, {chunk(8, 9)}, 1024);  // duplicate key: first copy wins
  EXPECT_EQ((*c.find(1, 1))[0][0], 1);
  EXPECT_EQ(c.bytes(), 8u);
}

TEST(PageDiffCache, FifoEvictionUnderBudget) {
  PageDiffCache c;
  c.insert(1, 1, {chunk(40, 1)}, 100);
  c.insert(1, 2, {chunk(40, 2)}, 100);
  EXPECT_EQ(c.bytes(), 80u);
  c.insert(1, 3, {chunk(40, 3)}, 100);  // evicts the oldest, (1,1)
  EXPECT_EQ(c.find(1, 1), nullptr);
  ASSERT_NE(c.find(1, 2), nullptr);
  ASSERT_NE(c.find(1, 3), nullptr);
  EXPECT_EQ(c.bytes(), 80u);
}

TEST(PageDiffCache, OversizedEntryIsNotCached) {
  PageDiffCache c;
  c.insert(1, 1, {chunk(50, 1)}, 100);
  c.insert(1, 2, {chunk(200, 2)}, 100);  // bigger than the whole budget
  EXPECT_EQ(c.find(1, 2), nullptr);
  ASSERT_NE(c.find(1, 1), nullptr);  // and nothing was evicted for it
  EXPECT_EQ(c.bytes(), 50u);
}

TEST(PageDiffCache, MultiChunkEntryCountsAllBytes) {
  PageDiffCache c;
  c.insert(3, 7, {chunk(10, 1), chunk(20, 2)}, 1024);
  EXPECT_EQ(c.bytes(), 30u);
  ASSERT_EQ(c.find(3, 7)->size(), 2u);
}

TEST(PageDiffCache, GcInsertIgnoresBudgetAndEviction) {
  PageDiffCache c;
  c.insert_gc(1, 1, {chunk(500, 1)});  // far beyond any budget given below
  ASSERT_NE(c.find(1, 1), nullptr);
  EXPECT_EQ(c.bytes(), 500u);
  // FIFO inserts under a budget the pinned entry already exceeds must not
  // evict it: only FIFO-ordered entries are eviction victims.
  c.insert(2, 1, {chunk(40, 2)}, 100);
  c.insert(2, 2, {chunk(40, 3)}, 100);
  c.insert(2, 3, {chunk(40, 4)}, 100);
  ASSERT_NE(c.find(1, 1), nullptr);  // pin survived
  EXPECT_EQ(c.find(2, 1), nullptr);  // FIFO entries evicted among themselves
}

TEST(PageDiffCache, GcInsertPromotesFifoEntryToPinned) {
  PageDiffCache c;
  c.insert(1, 1, {chunk(40, 1)}, 100);   // budgeted, evictable
  c.insert_gc(1, 1, {chunk(40, 1)});     // same key: must become a pin
  // Enough FIFO churn to evict anything still in eviction order.
  c.insert(2, 1, {chunk(40, 2)}, 100);
  c.insert(2, 2, {chunk(40, 3)}, 100);
  c.insert(2, 3, {chunk(40, 4)}, 100);
  ASSERT_NE(c.find(1, 1), nullptr);  // survived: promotion un-FIFO'd it
}

TEST(PageDiffCache, EraseReleasesEntry) {
  PageDiffCache c;
  c.insert_gc(1, 1, {chunk(100, 1)});
  c.insert(2, 1, {chunk(10, 2)}, 1024);
  c.erase(1, 1);
  c.erase(9, 9);  // absent: no-op
  EXPECT_EQ(c.find(1, 1), nullptr);
  EXPECT_EQ(c.bytes(), 10u);
  EXPECT_EQ(c.entries(), 1u);
  c.erase(2, 1);  // FIFO entry: its key goes stale, its bytes must not linger
  EXPECT_EQ(c.bytes(), 0u);
}

// Erase, prune and pin leave their keys in the FIFO; only an over-budget
// insert pops.  A page that never overflows its budget (prefetch or relay
// inserts later applied and erased) must not grow the FIFO forever, and
// compacting the stale keys must not reorder the live ones.
TEST(PageDiffCache, FifoStaysBoundedUnderInsertEraseChurn) {
  PageDiffCache c;
  for (std::uint32_t s = 1; s <= 4; ++s) c.insert(1, s, {chunk(10, 1)}, 100);
  c.insert(5, 1, {chunk(10, 5)}, 100);
  c.pin_existing(5, 1);  // its key goes stale too
  std::size_t most_keys = 0;
  for (std::uint32_t i = 1; i <= 10000; ++i) {
    ASSERT_TRUE(c.insert(2, i, {chunk(10, 2)}, 100));
    c.erase(2, i);
    most_keys = std::max(most_keys, c.fifo_keys());
  }
  EXPECT_EQ(c.entries(), 5u);
  EXPECT_EQ(c.bytes(), 50u);
  EXPECT_LE(most_keys, 4 * c.entries());

  // Eviction is still oldest-first over the surviving inserts, with the pin
  // exempt, and a re-inserted key queues at the back: (1,2), (1,3), (1,4),
  // then (1,1).
  c.erase(1, 1);
  c.insert(1, 1, {chunk(10, 1)}, 100);
  c.insert(3, 1, {chunk(50, 3)}, 100);  // 100 bytes: fits exactly
  EXPECT_EQ(c.entries(), 6u);
  c.insert(3, 2, {chunk(10, 3)}, 100);  // evicts (1,2)
  EXPECT_EQ(c.find(1, 2), nullptr);
  ASSERT_NE(c.find(1, 1), nullptr);
  c.insert(3, 3, {chunk(20, 3)}, 100);  // evicts (1,3), then (1,4)
  EXPECT_EQ(c.find(1, 3), nullptr);
  EXPECT_EQ(c.find(1, 4), nullptr);
  ASSERT_NE(c.find(1, 1), nullptr);
  ASSERT_NE(c.find(5, 1), nullptr);  // pinned: never a victim
  EXPECT_EQ(c.bytes(), 100u);
}

// ---------------------------------------------------------------------------
// Protocol level: the cache must be invisible with barrier GC off AND
// multi-page prefetch off (each of those is a deliberate consumer; see
// tmk_gc_test and tmk_prefetch_test).  With prefetch on, the cache is
// load-bearing even without GC: neighbor faults hit the prefetched entries.
// ---------------------------------------------------------------------------

DsmConfig cfg(std::uint32_t nodes, std::size_t cache_bytes,
              std::size_t prefetch = 0) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.diff_cache_bytes_per_page = cache_bytes;
  c.prefetch_pages = prefetch;
  c.gc_at_barriers = false;  // GC makes the cache load-bearing; see tmk_gc_test
  c.update_mode = false;     // so does the update protocol; see tmk_update_test
  c.time.cpu_scale = 0.0;  // measured host time out; virtual time deterministic
  return c;
}

void multi_writer_workload(Tmk& tmk) {
  gptr<std::uint64_t> page(kPageSize);  // 512 slots, one page, all writers
  const std::size_t base = tmk.id() * 32;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < 32; ++k)
      page[base + k] = tmk.id() * 1000 + round * 100 + k;
    tmk.barrier();
    for (std::uint32_t n = 0; n < tmk.nprocs(); ++n)
      for (std::size_t k = 0; k < 32; ++k)
        ASSERT_EQ(page[static_cast<std::size_t>(n) * 32 + k],
                  n * 1000 + round * 100 + k);
    tmk.barrier();
  }
}

TEST(DiffCacheProtocol, SimulatedMetricsUnchangedByCache) {
  DsmRuntime rt(cfg(4, 16 * 1024));
  rt.run_spmd(multi_writer_workload);
  const DsmStatsSnapshot s = rt.total_stats();
  // No notice is ever learned twice in the current protocol, so with both
  // deliberate consumers (GC, prefetch) off the cache never hits — and a
  // cache that never hits cannot change a single simulated metric.
  EXPECT_EQ(s.diff_cache_hits, 0u);
  EXPECT_EQ(s.diff_cache_bytes_saved, 0u);
  EXPECT_EQ(s.prefetch_hits, 0u);
}

// Inside a critical section only the lock's batch prefetches: the pages
// the grant invalidated that this node touched under the lock before.  A
// lock's first section has no touch history, so with the window on it
// still folds no neighbor — each page's fault fetches it alone, exactly as
// with the window off, and reads the same bytes.  (The window's neighbors
// would evict the relay stock the lock's next holder is routed to; outside
// a critical section the window validates them instead: tmk_prefetch_test.)
TEST(DiffCacheProtocol, FirstSectionOfALockFoldsNoNeighbor) {
  constexpr std::size_t kPages = 8;
  constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);
  auto run = [&](std::size_t prefetch, std::vector<std::uint64_t>& seen) {
    DsmConfig c = cfg(2, 16 * 1024, prefetch);
    // A checkpoint pass stages pages at its barriers — faults outside any
    // critical section, where the window does fold: pinned off against the
    // CI TMK_CKPT_EVERY default.  Equal message counts are a perfect-wire
    // property.
    c.ckpt_every = 0;
    c.net_fault = {};
    c.net_reliable = false;
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) {
      gptr<std::uint64_t> base(kPageSize);
      if (tmk.id() == 0)
        for (std::size_t pg = 0; pg < kPages; ++pg)
          for (std::size_t k = 0; k < 8; ++k)
            base[pg * kWordsPerPage + k] = pg * 100 + k;
      tmk.barrier();
      if (tmk.id() == 1) {
        tmk.lock_acquire(0);
        for (std::size_t pg = 0; pg < kPages; ++pg)
          for (std::size_t k = 0; k < 8; ++k)
            seen.push_back(base[pg * kWordsPerPage + k]);
        tmk.lock_release(0);
      }
      tmk.barrier();
    });
    return std::make_pair(rt.total_stats(), rt.traffic());
  };
  std::vector<std::uint64_t> seen_pf, seen_off;
  const auto [stats_pf, traffic_pf] = run(4, seen_pf);
  const sim::TrafficSnapshot traffic_off = run(0, seen_off).second;
  EXPECT_EQ(stats_pf.prefetch_requests_batched, 0u);
  EXPECT_EQ(stats_pf.prefetch_hits, 0u);
  EXPECT_EQ(traffic_pf.messages_by_type[kDiffRequest], kPages);
  EXPECT_EQ(traffic_pf.messages, traffic_off.messages);
  ASSERT_EQ(seen_pf.size(), kPages * 8);
  for (std::size_t pg = 0; pg < kPages; ++pg)
    for (std::size_t k = 0; k < 8; ++k)
      EXPECT_EQ(seen_pf[pg * 8 + k], pg * 100 + k);
  EXPECT_EQ(seen_pf, seen_off);
}

// Budget eviction end to end: prefetched entries beyond
// diff_cache_bytes_per_page are FIFO-dropped and transparently refetched on
// the real fault — the counters prove both the drop and the refetch.  Node 0
// dirties page B across four intervals (~800 bytes each); a budget of 2000
// bytes keeps only the last two prefetched entries, so B's fault hits twice
// and refetches the two evicted intervals in one extra message.  Node 1
// reads inside a critical section, where only the lock's batch prefetches:
// an earlier section of the lock touched B, and the grant names B's last
// interval, so the batch folds B into A's request and parks it.
TEST(DiffCacheProtocol, PrefetchedEntriesBeyondBudgetAreDroppedAndRefetched) {
  constexpr std::size_t kDirtyBytes = 800;
  constexpr int kIntervals = 4;
  DsmConfig c = cfg(2, /*cache_bytes=*/2000, /*prefetch=*/4);
  // A checkpoint pass stages A at its barriers — a fault outside any
  // critical section, whose window would validate B before the section
  // below runs — and lock push would land B's last interval with the grant:
  // both pinned off against the CI TMK_CKPT_EVERY / TMK_LOCK_PUSH_BYTES
  // defaults.  Modulo manager placement puts semaphore 1 on node 1: node
  // 0's signal carries only the records cut before its last interval,
  // where a grant from node 0's own manager log could already carry it.
  c.ckpt_every = 0;
  c.lock_push_bytes = 0;
  c.shard_managers = false;
  DsmRuntime rt(c);
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint8_t> a(kPageSize);              // page A: the faulting page
    gptr<std::uint8_t> b(kPageSize + kPageSize);  // page B: its neighbor
    auto dirty_b = [&](int e) {
      for (std::size_t i = 0; i < kDirtyBytes; ++i)
        b[i] = static_cast<std::uint8_t>(100 + e + i);
    };
    if (tmk.id() == 1) {
      tmk.lock_acquire(0);
      EXPECT_EQ(b[0], 0);  // B joins the lock's touch history (cold: no fetch)
      tmk.lock_release(0);
    }
    tmk.barrier();
    for (int e = 0; e + 1 < kIntervals; ++e) {
      if (tmk.id() == 0) {
        if (e == 0) a[0] = 7;
        dirty_b(e);
      }
      tmk.barrier();  // each epoch closes one interval with a ~800-byte diff
    }
    if (tmk.id() == 0) {
      // The last interval rides the lock grant: node 1 queues while node 0
      // holds the lock, so the grant's delta names B.
      tmk.lock_acquire(0);
      tmk.sema_signal(1);
      dirty_b(kIntervals - 1);
      tmk.lock_release(0);
    } else {
      tmk.sema_wait(1);
      tmk.lock_acquire(0);
      EXPECT_EQ(a[0], 7);  // fault on A prefetches B's four intervals
      for (std::size_t i = 0; i < kDirtyBytes; ++i)
        EXPECT_EQ(b[i], static_cast<std::uint8_t>(100 + (kIntervals - 1) + i));
      tmk.lock_release(0);
    }
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  // All four intervals were folded into A's request (one batched page)...
  EXPECT_EQ(s.prefetch_requests_batched, 1u);
  EXPECT_EQ(s.prefetch_pages_filled, 1u);
  // ...but only the last two fit the budget: B's fault hit those two and
  // refetched the evicted two with one more kDiffRequest.
  EXPECT_EQ(s.prefetch_hits, 2u);
  EXPECT_EQ(s.diff_cache_hits, 2u);
  EXPECT_EQ(rt.traffic().messages_by_type[kDiffRequest], 2u);
}

}  // namespace
}  // namespace now::tmk
