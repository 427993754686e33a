// Barrier-time garbage collection of knowledge logs and diff stores:
//  - reclamation correctness: page contents stay byte-identical with GC on
//    (cache-pinned, or applied at the barrier once a page outgrows its
//    cache budget) and off, across multi-writer epochs;
//  - memory plateau: log record counts and diff-store bytes stay bounded by
//    an inter-barrier epoch instead of growing linearly with barrier count;
//  - the requester-side diff cache as GC's consumer: the read after a
//    barrier, and a fault that would re-request a reclaimed diff, are
//    served from the pins the validation pass left;
//  - sparse-log delta interaction: lock/sema/cond deltas stay contiguous
//    after floors have truncated both node and manager logs.
#include <gtest/gtest.h>

#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

DsmConfig cfg(std::uint32_t nodes, bool gc, std::size_t cache_bytes = 16 * 1024) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.gc_at_barriers = gc;
  c.diff_cache_bytes_per_page = cache_bytes;
  // Checkpoint passes materialize pages at their barriers (applying
  // pinned backlogs early), which shifts the precise pin/hit accounting
  // asserted below: pinned off against the CI TMK_CKPT_EVERY default.
  c.ckpt_every = 0;
  return c;
}

// Deterministic multi-writer churn: 8 pages, each owned by node (pg % n).
// Every epoch the owner rewrites a sliding window of its pages and every
// node then verifies every word it can predict — any GC bug that drops or
// mis-applies a diff shows up as a wrong byte.
constexpr std::size_t kChurnPages = 8;
constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);

std::uint64_t churn_value(int epoch, std::size_t pg, std::size_t k) {
  return 1 + static_cast<std::uint64_t>(epoch) * 100000 + pg * 1000 + k;
}

void churn_epoch_write(Tmk& tmk, gptr<std::uint64_t>& base, int e) {
  for (std::size_t pg = 0; pg < kChurnPages; ++pg) {
    if (pg % tmk.nprocs() != tmk.id()) continue;
    for (std::size_t k = 0; k < 16; ++k) {
      const std::size_t w = (static_cast<std::size_t>(e) * 16 + k) % 64;
      base[pg * kWordsPerPage + w] = churn_value(e, pg, w);
    }
  }
}

void churn_epoch_verify(Tmk& tmk, gptr<std::uint64_t>& base, int e) {
  for (std::size_t pg = 0; pg < kChurnPages; ++pg) {
    for (std::size_t w = 0; w < 64; ++w) {
      // Last epoch <= e that wrote word w of this page.
      std::uint64_t want = 0;
      for (int past = e; past >= 0; --past) {
        const std::size_t lo = (static_cast<std::size_t>(past) * 16) % 64;
        if (w >= lo && w < lo + 16) {
          want = churn_value(past, pg, w);
          break;
        }
      }
      ASSERT_EQ(base[pg * kWordsPerPage + w], want)
          << "epoch " << e << " page " << pg << " word " << w;
    }
  }
}

void churn_workload(Tmk& tmk, int epochs) {
  gptr<std::uint64_t> base(kPageSize);
  for (int e = 0; e < epochs; ++e) {
    churn_epoch_write(tmk, base, e);
    tmk.barrier();
    churn_epoch_verify(tmk, base, e);
    tmk.barrier();
  }
}

// Reclamation correctness: the same workload must read byte-identical
// contents with GC off, GC on with a roomy cache (lazy pinned prefetch), and
// GC on with a 256-byte cache (every validated page is over budget, so its
// pinned backlog is applied at the barrier).
TEST(GC, ContentsIdenticalAcrossGcAndCacheModes) {
  for (const bool gc : {false, true}) {
    for (const std::size_t cache : {std::size_t{256}, std::size_t{16 * 1024}}) {
      DsmRuntime rt(cfg(4, gc, cache));
      rt.run_spmd([](Tmk& tmk) { churn_workload(tmk, 10); });
      const auto s = rt.total_stats();
      if (gc) {
        EXPECT_GT(s.gc_records_reclaimed, 0u) << "gc=" << gc << " cache=" << cache;
        EXPECT_GT(s.gc_diff_bytes_reclaimed, 0u) << "gc=" << gc << " cache=" << cache;
      } else {
        EXPECT_EQ(s.gc_records_reclaimed, 0u);
        EXPECT_EQ(s.gc_diff_bytes_reclaimed, 0u);
      }
    }
  }
}

// The long-running stress: with GC on, knowledge-log records and diff-store
// bytes plateau (bounded by an epoch or two); with it off they grow linearly
// with barrier count.
TEST(GC, MemoryHighWaterPlateausAcrossManyBarriers) {
  constexpr int kEpochs = 36;
  constexpr int kEarly = 6, kLate = 34;
  struct Probe {
    std::size_t log_records = 0;
    std::size_t diff_bytes = 0;
  };

  auto run = [&](bool gc) {
    std::vector<Probe> probes(kEpochs);
    DsmRuntime rt(cfg(4, gc));
    rt.run_spmd([&](Tmk& tmk) {
      gptr<std::uint64_t> base(kPageSize);
      for (int e = 0; e < kEpochs; ++e) {
        churn_epoch_write(tmk, base, e);
        tmk.barrier();
        churn_epoch_verify(tmk, base, e);
        tmk.barrier();
        if (tmk.id() == 0) {
          const auto f = tmk.node.meta_footprint();
          probes[static_cast<std::size_t>(e)] = {f.log_records, f.diff_store_bytes};
        }
        tmk.barrier();  // keep the probe inside a quiet window
      }
    });
    return probes;
  };

  const auto with_gc = run(true);
  const auto without = run(false);

  // GC on: bounded by a constant independent of barrier count.
  EXPECT_LE(with_gc[kLate].log_records, 2 * with_gc[kEarly].log_records + 8);
  EXPECT_LE(with_gc[kLate].diff_bytes, 2 * with_gc[kEarly].diff_bytes + 4096);

  // GC off: the same window adds ~4 records and ~2 diffs per epoch.
  EXPECT_GE(without[kLate].log_records, without[kEarly].log_records + 40);
  EXPECT_GT(without[kLate].diff_bytes, without[kEarly].diff_bytes);

  // And the absolute separation is large.
  EXPECT_LT(with_gc[kLate].log_records * 4, without[kLate].log_records);
}

// The diff cache as GC's first real consumer: node 1 reads a page only after
// its writer has reclaimed the diff.  The barrier-GC pass pinned the diff in
// node 1's page cache, so the fault is served locally — if the pin were
// lost, the refetch would die on the writer's missing diff.
TEST(GC, ReclaimedDiffIsServedFromPinnedCache) {
  DsmRuntime rt(cfg(2, /*gc=*/true));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> p(kPageSize);
    if (tmk.id() == 0)
      for (std::size_t i = 0; i < 8; ++i) p[i] = 40 + i;
    tmk.barrier();  // records travel and the floor covers them: node 1 pins
    tmk.barrier();  // one barrier later: node 0 reclaims the diff
    if (tmk.id() == 1)
      for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(p[i], 40 + i);  // fault served from the pinned cache
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  EXPECT_GE(s.diff_cache_hits, 1u);
  EXPECT_GT(s.diff_cache_bytes_saved, 0u);
  EXPECT_GT(s.gc_diff_bytes_reclaimed, 0u);
  // The writer's diff store really is empty again.
  EXPECT_EQ(rt.node(0).meta_footprint().diff_store_entries, 0u);
}

// The floor's payoff: the barrier's validation pass fetched and pinned the
// epoch's diffs at the departure, so the read that follows is served from
// the pin — the fault sends no kDiffRequest — and sees the writer's bytes.
TEST(GC, ReadAfterBarrierIsServedFromThePin) {
  DsmStatsSnapshot before, after;
  std::vector<std::uint64_t> seen;
  DsmRuntime rt(cfg(2, /*gc=*/true));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> p(kPageSize);
    if (tmk.id() == 0)
      for (std::size_t w = 0; w < kWordsPerPage; w += 3) p[w] = 7 * w + 1;
    tmk.barrier();
    if (tmk.id() == 1) {
      before = tmk.node.stats().snapshot();
      for (std::size_t w = 0; w < kWordsPerPage; ++w) seen.push_back(p[w]);
      after = tmk.node.stats().snapshot();
    }
    tmk.barrier();
  });
  EXPECT_EQ(after.read_faults - before.read_faults, 1u);
  EXPECT_EQ(after.diff_fetches - before.diff_fetches, 0u);
  EXPECT_GE(after.diff_cache_hits - before.diff_cache_hits, 1u);
  ASSERT_EQ(seen.size(), kWordsPerPage);
  for (std::size_t w = 0; w < kWordsPerPage; ++w)
    EXPECT_EQ(seen[w], w % 3 == 0 ? 7 * w + 1 : 0) << "word " << w;
}

// A reader that stays away for many epochs accumulates one pinned diff per
// reclaimed interval and must apply them all, in lamport order, from the
// cache alone.
TEST(GC, LateReaderAppliesManyPinnedDiffs) {
  constexpr int kEpochs = 12;
  DsmRuntime rt(cfg(2, /*gc=*/true));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> p(kPageSize);
    for (int e = 0; e < kEpochs; ++e) {
      if (tmk.id() == 0) p[static_cast<std::size_t>(e % 16)] = 1000 + static_cast<std::uint64_t>(e);
      tmk.barrier();
    }
    tmk.barrier();
    tmk.barrier();
    if (tmk.id() == 1) {
      for (std::size_t w = 0; w < 16; ++w) {
        std::uint64_t want = 0;
        for (int e = kEpochs - 1; e >= 0; --e)
          if (static_cast<std::size_t>(e % 16) == w) {
            want = 1000 + static_cast<std::uint64_t>(e);
            break;
          }
        EXPECT_EQ(p[w], want) << "word " << w;
      }
    }
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  // Most of the twelve intervals were reclaimed by the time of the read and
  // could only have come from the pinned prefetches.
  EXPECT_GE(s.diff_cache_hits, static_cast<std::uint64_t>(kEpochs) - 3);
  EXPECT_GT(s.gc_diff_bytes_reclaimed, 0u);
}

// A page that is written every epoch but never read must not accumulate
// pinned prefetches forever: once a page's pinned bytes exceed the cache
// budget, the GC pass applies the backlog and unpins it.
TEST(GC, NeverReadPagePinnedBytesStayBounded) {
  constexpr int kEpochs = 30;
  constexpr std::size_t kBudget = 2048;
  DsmRuntime rt(cfg(2, /*gc=*/true, kBudget));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint8_t> p(kPageSize);
    for (int e = 0; e < kEpochs; ++e) {
      if (tmk.id() == 0)  // ~700 dirty bytes per epoch, sliding
        for (std::size_t i = 0; i < 700; ++i)
          p[(static_cast<std::size_t>(e) * 97 + i * 5) % kPageSize] =
              static_cast<std::uint8_t>(e + i);
      tmk.barrier();  // node 1 never reads: pins pile up, then GC applies
    }
  });
  const auto f = rt.node(1).meta_footprint();
  // Bounded by the budget plus at most one epoch's overshoot — not by
  // kEpochs * diff size (~20 KB+), which a leak would produce.
  EXPECT_LE(f.diff_cache_bytes, kBudget + 4096);
  EXPECT_GT(rt.total_stats().gc_diff_bytes_reclaimed, 0u);
}

// Prefetch/GC interaction, structure level: a GC pin arriving after a
// droppable prefetch entry for the same page must evict the droppable
// entries under budget pressure — never the pin.
TEST(GC, PinInsertedAfterPrefetchEntryEvictsDroppableNeverPin) {
  constexpr std::size_t kBudget = 400;
  PageDiffCache c;
  c.insert(1, 1, {DiffBytes(40, 1)}, kBudget, /*prefetched=*/true);
  c.insert(1, 2, {DiffBytes(40, 2)}, kBudget, /*prefetched=*/true);
  c.insert_gc(2, 9, {DiffBytes(300, 9)});  // pin lands after the prefetches
  EXPECT_EQ(c.pinned_bytes(), 300u);
  // Budget pressure: the droppable prefetch entries are the only victims.
  c.insert(1, 3, {DiffBytes(40, 3)}, kBudget, /*prefetched=*/true);
  EXPECT_EQ(c.find(1, 1), nullptr);  // oldest droppable evicted
  ASSERT_NE(c.find(2, 9), nullptr);  // pin untouched
  ASSERT_NE(c.find(1, 3), nullptr);
  // A GC pin for a key a prefetch already holds promotes it in place...
  EXPECT_TRUE(c.pin_existing(1, 2));
  EXPECT_EQ(c.pinned_bytes(), 340u);
  // ...after which no amount of FIFO churn can evict it.
  c.insert(3, 1, {DiffBytes(40, 4)}, kBudget);
  c.insert(3, 2, {DiffBytes(40, 5)}, kBudget);
  c.insert(3, 3, {DiffBytes(40, 6)}, kBudget);
  ASSERT_NE(c.find(1, 2), nullptr);
  EXPECT_TRUE(c.lookup(1, 2)->pinned);
  EXPECT_TRUE(c.lookup(1, 2)->prefetched);  // provenance survives promotion
  // Applying a promoted entry releases its pinned bytes too.
  c.erase(1, 2);
  c.erase(2, 9);
  EXPECT_EQ(c.pinned_bytes(), 0u);
}

// Prefetch/GC interaction, protocol level: a prefetch that lands just
// before the writer's one-barrier-delayed reclaim is still served.  The
// write notices reach node 1 through a lock grant, so no floor covers them
// yet, and its fault on page A inside the critical section folds B — a page
// an earlier section of the lock touched, which the grant names — into the
// lock's batch, parked droppable; the next barrier's validation pass must
// promote that entry to a pin (not skip it), because one barrier later the
// writer reclaims the only other copy.  The late read of B can then only be
// served from the promoted pin.
TEST(GC, PrefetchLandingJustBeforeReclaimIsStillServed) {
  DsmConfig c = cfg(2, /*gc=*/true);
  c.prefetch_pages = 4;
  // Lock push would land A and B with the grant instead of the batch:
  // pinned off against the CI TMK_LOCK_PUSH_BYTES default.  Modulo manager
  // placement puts semaphore 1 on node 1: node 0's signal carries only the
  // records cut before its writes, where a grant from node 0's own manager
  // log could already carry them, leaving the lock grant nothing to batch.
  c.lock_push_bytes = 0;
  c.shard_managers = false;
  std::size_t pinned_after_validate = 0;
  DsmRuntime rt(c);
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> a(kPageSize);
    gptr<std::uint64_t> b(2 * kPageSize);
    if (tmk.id() == 1) {
      tmk.lock_acquire(0);
      EXPECT_EQ(b[0], 0u);  // B joins the lock's touch history (cold)
      tmk.lock_release(0);
    }
    tmk.barrier();
    if (tmk.id() == 0) {
      tmk.lock_acquire(0);
      tmk.sema_signal(1);  // node 1 queues while node 0 holds the lock
      for (std::size_t i = 0; i < 8; ++i) a[i] = 40 + i;
      for (std::size_t i = 0; i < 8; ++i) b[i] = 50 + i;
      tmk.lock_release(0);
    } else {
      tmk.sema_wait(1);
      tmk.lock_acquire(0);  // records travel; no floor covers them yet
      for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(a[i], 40 + i);  // fault on A prefetches B (droppable)
      tmk.lock_release(0);
    }
    tmk.barrier();  // floor covers the writes: validation promotes B's entry
    if (tmk.id() == 1)
      pinned_after_validate = tmk.node.meta_footprint().diff_cache_pinned_bytes;
    tmk.barrier();  // one barrier later: node 0 reclaims its diffs
    if (tmk.id() == 1)
      for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(b[i], 50 + i);  // served from the promoted pin
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  EXPECT_GT(pinned_after_validate, 0u);  // the prefetched entry became a pin
  EXPECT_EQ(s.prefetch_pages_filled, 1u);
  EXPECT_GE(s.prefetch_hits, 1u);        // ...and still served the fault
  EXPECT_GT(s.gc_diff_bytes_reclaimed, 0u);
  EXPECT_EQ(rt.node(0).meta_footprint().diff_store_entries, 0u);
}

// Sparse-log deltas after GC: locks, semaphores and condvars keep their
// record deltas contiguous against floored node logs and floored (sparse)
// manager logs — the manager learns the floor from the piggyback, never from
// message-ordering luck.
TEST(GC, MixedSyncStaysContiguousOnFlooredLogs) {
  constexpr int kEpochs = 8;
  DsmRuntime rt(cfg(4, /*gc=*/true));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    gptr<std::uint64_t> counter(kPageSize + kChurnPages * kPageSize);
    for (int e = 0; e < kEpochs; ++e) {
      churn_epoch_write(tmk, base, e);
      tmk.barrier();
      // Lock-protected read-modify-write: exercises post-GC grant deltas
      // (lock 5's manager is node 1, its holders rotate).
      tmk.lock_acquire(5);
      *counter += 1;
      tmk.lock_release(5);
      // Semaphore ping-pong through a manager on node 2: its sparse manager
      // log merges deltas under piggybacked floors.
      if (tmk.id() == 0)
        for (std::uint32_t i = 0; i + 1 < tmk.nprocs(); ++i) tmk.sema_signal(2);
      else
        tmk.sema_wait(2);
      tmk.barrier();
      churn_epoch_verify(tmk, base, e);
      tmk.barrier();
    }
    if (tmk.id() == 0)
      EXPECT_EQ(*counter, static_cast<std::uint64_t>(kEpochs) * tmk.nprocs());
  });
  EXPECT_GT(rt.total_stats().gc_records_reclaimed, 0u);
}

}  // namespace
}  // namespace now::tmk
