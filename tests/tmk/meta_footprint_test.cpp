// Ground-truth checks for Node::meta_footprint() — the ledger the on-demand
// GC ceiling bounds.  Every field is cross-checked against an independent
// source of truth: the cache's own per-instance counters, wire-format sizes
// computed from IntervalRecord::serialized_size(), and the protocol stats
// that count the same bytes on a different code path (materialize_twin adds
// a diff's size to both stats_.diff_bytes_created and the store footprint).
// A drift between the O(1) ceiling metric's mirrors and the structures they
// mirror would make the ceiling fire late (leak) or early (GC storm); these
// tests pin the accounting exactly.
#include <gtest/gtest.h>

#include <cstddef>

#include "tmk/page.h"
#include "tmk/tmk.h"

namespace now::tmk {
namespace {

constexpr std::size_t kWpp = kPageSize / sizeof(std::uint64_t);

// A word value whose 8 bytes all change when `tag` changes: each byte equals
// tag (mod 256).  Writing these keeps diff chunks exactly predictable — all
// bytes of a written word differ from the twin, so N contiguous words always
// produce one chunk of 4 + 8*N bytes (u16 offset + u16 length + payload).
std::uint64_t word_of(std::uint64_t tag) {
  return (tag % 255 + 1) * 0x0101010101010101ULL;
}

DsmConfig precise_cfg(std::uint32_t nodes) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.gc_at_barriers = false;
  // Pin every protocol that could park bytes in the requester-side cache:
  // the exact-count assertions below must hold under any CI env default.
  c.prefetch_pages = 0;
  c.update_mode = false;
  c.lock_push_bytes = 0;
  c.meta_ceiling_bytes = 0;
  c.ckpt_every = 0;  // ckpt passes apply pinned backlogs early
  c.time.cpu_scale = 0.0;
  return c;
}

// ---------------------------------------------------------------------------
// The node-wide counter that PageDiffCache mirrors into must equal the sum of
// the caches' own bytes() across every mutation path: budgeted insert, FIFO
// eviction inside insert, pinned insert_gc, in-place pin promotion, erase,
// and floor pruning.  Two caches bound to one total model a node's per-page
// caches feeding one ceiling metric.
// ---------------------------------------------------------------------------
TEST(MetaFootprint, CacheMirrorTracksEveryMutationPath) {
  std::size_t total = 0;
  PageDiffCache a, b;
  a.bind_total(&total);
  b.bind_total(&total);
  auto sum = [&] { return a.bytes() + b.bytes(); };

  constexpr std::size_t kBudget = 400;
  EXPECT_TRUE(a.insert(1, 1, {DiffBytes(40, 1)}, kBudget));
  EXPECT_TRUE(b.insert(2, 1, {DiffBytes(60, 2)}, kBudget));
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(total, sum());

  // Pinned insert bypasses the budget; the mirror must still see it.
  a.insert_gc(3, 1, {DiffBytes(300, 3)});
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(total, sum());

  // This insert forces the eviction loop: (1,1) is the droppable victim.
  // The mirror must account both the eviction's subtract and the new add.
  EXPECT_TRUE(a.insert(1, 2, {DiffBytes(80, 4)}, kBudget));
  EXPECT_EQ(a.find(1, 1), nullptr);
  EXPECT_EQ(total, sum());

  // Promotion to pinned reclassifies the entry but moves no bytes.
  const std::size_t before_pin = total;
  EXPECT_TRUE(a.pin_existing(1, 2));
  EXPECT_EQ(total, before_pin);
  EXPECT_EQ(total, sum());

  // Erase releases pinned bytes from the mirror too.
  a.erase(3, 1);
  EXPECT_EQ(total, sum());

  // Stock pruning drops droppable relay stock (and skips pins) in both
  // caches.
  EXPECT_TRUE(b.insert(2, 2, {DiffBytes(50, 5)}, kBudget));
  EXPECT_TRUE(a.mark_relay(1, 2));  // pinned stock: exempt
  EXPECT_TRUE(b.mark_relay(2, 1));
  EXPECT_TRUE(b.mark_relay(2, 2));
  EXPECT_FALSE(b.mark_relay(2, 2));  // already stock
  std::size_t pruned_bytes = 0;
  EXPECT_FALSE(a.drop_stock(1, 2, &pruned_bytes));
  EXPECT_TRUE(b.drop_stock(2, 1, &pruned_bytes));
  EXPECT_TRUE(b.drop_stock(2, 2, &pruned_bytes));
  EXPECT_EQ(pruned_bytes, 110u);
  EXPECT_EQ(total, sum());
  ASSERT_NE(a.find(1, 2), nullptr);

  a.erase(1, 2);
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(sum(), 0u);
}

// ---------------------------------------------------------------------------
// One interval, one diff, exact byte counts.  Node 1 writes 16 contiguous
// words; node 0's read after the barrier forces the diff to materialize.
// Footprint deltas must match wire-format arithmetic: the interval record is
// serialized_size() for one page, and the diff is one chunk of 4 + 128
// bytes, counted identically by the store footprint and diff_bytes_created.
// ---------------------------------------------------------------------------
TEST(MetaFootprint, SingleIntervalExactByteAccounting) {
  constexpr std::uint32_t kNodes = 2;
  std::vector<Node::MetaFootprint> base(kNodes), fin(kNodes);
  std::vector<DsmStatsSnapshot> sbase(kNodes), sfin(kNodes);
  DsmRuntime rt(precise_cfg(kNodes));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> state(kWpp);
    const std::uint32_t id = tmk.id();
    tmk.barrier();
    base[id] = tmk.node.meta_footprint();
    sbase[id] = tmk.node.stats().snapshot();
    if (id == 1) {
      for (std::size_t w = 0; w < 16; ++w) state[w] = word_of(w + 1);
    }
    tmk.barrier();
    if (id == 0) {
      for (std::size_t w = 0; w < 16; ++w)
        EXPECT_EQ(state[w], word_of(w + 1)) << "word " << w;
    }
    tmk.barrier();
    fin[id] = tmk.node.meta_footprint();
    sfin[id] = tmk.node.stats().snapshot();
  });

  // Expected sizes derived from the formats themselves, not hardcoded.
  IntervalRecord rec;
  rec.pages = {0};
  const std::size_t kRecordBytes = rec.serialized_size();
  const std::size_t kDiffBytes = 4 + 16 * sizeof(std::uint64_t);  // one chunk

  for (std::uint32_t i = 0; i < kNodes; ++i) {
    // Both nodes learn exactly one new interval record (node 1's).
    EXPECT_EQ(fin[i].log_records - base[i].log_records, 1u) << "node " << i;
    EXPECT_EQ(fin[i].log_bytes - base[i].log_bytes, kRecordBytes)
        << "node " << i;
    // No prefetch, no update pushes, no lock pushes, no GC pins: the
    // requester-side cache must stay untouched on both nodes.
    EXPECT_EQ(fin[i].diff_cache_bytes, base[i].diff_cache_bytes);
    EXPECT_EQ(fin[i].diff_cache_pinned_bytes, base[i].diff_cache_pinned_bytes);
    EXPECT_EQ(fin[i].relay_bytes, base[i].relay_bytes);
  }

  // The writer's store holds exactly the one materialized diff, and the
  // stats counted the same bytes on the materialize path.
  EXPECT_EQ(fin[1].diff_store_entries - base[1].diff_store_entries, 1u);
  EXPECT_EQ(fin[1].diff_store_bytes - base[1].diff_store_bytes, kDiffBytes);
  EXPECT_EQ(sfin[1].diffs_created - sbase[1].diffs_created, 1u);
  EXPECT_EQ(sfin[1].diff_bytes_created - sbase[1].diff_bytes_created,
            kDiffBytes);
  // The reader materialized nothing.
  EXPECT_EQ(fin[0].diff_store_bytes, base[0].diff_store_bytes);
  EXPECT_EQ(sfin[0].diff_bytes_created, sbase[0].diff_bytes_created);
}

// ---------------------------------------------------------------------------
// The ledger stays exact across epochs and writers.  Every epoch each of 4
// nodes rewrites 8 words in each of its 2 own pages and its neighbor reads
// them (forcing materialization); after E epochs every field must equal the
// closed-form count: 4E records of 2 pages each in every log, 2E diffs of
// one 68-byte chunk in every writer's store, stats in lockstep.
// ---------------------------------------------------------------------------
TEST(MetaFootprint, MultiEpochLedgerMatchesClosedForm) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::size_t kEpochs = 6;
  std::vector<Node::MetaFootprint> base(kNodes), fin(kNodes);
  std::vector<DsmStatsSnapshot> sbase(kNodes), sfin(kNodes);
  DsmRuntime rt(precise_cfg(kNodes));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> state(2 * kNodes * kWpp);
    const std::uint32_t id = tmk.id();
    tmk.barrier();
    base[id] = tmk.node.meta_footprint();
    sbase[id] = tmk.node.stats().snapshot();
    for (std::size_t e = 0; e < kEpochs; ++e) {
      for (std::size_t pg = 0; pg < 2; ++pg)
        for (std::size_t w = 0; w < 8; ++w)
          state[(2 * id + pg) * kWpp + w] = word_of(e * kNodes + id + 1);
      tmk.barrier();
      const std::uint32_t left = (id + kNodes - 1) % kNodes;
      for (std::size_t pg = 0; pg < 2; ++pg)
        EXPECT_EQ(state[(2 * left + pg) * kWpp], word_of(e * kNodes + left + 1))
            << "epoch " << e << " page " << pg;
      tmk.barrier();
    }
    fin[id] = tmk.node.meta_footprint();
    sfin[id] = tmk.node.stats().snapshot();
  });

  IntervalRecord rec;
  rec.pages = {0, 1};
  const std::size_t kRecordBytes = rec.serialized_size();
  const std::size_t kDiffBytes = 4 + 8 * sizeof(std::uint64_t);  // one chunk

  for (std::uint32_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(fin[i].log_records - base[i].log_records, kNodes * kEpochs)
        << "node " << i;
    EXPECT_EQ(fin[i].log_bytes - base[i].log_bytes,
              kNodes * kEpochs * kRecordBytes)
        << "node " << i;
    EXPECT_EQ(fin[i].diff_store_entries - base[i].diff_store_entries,
              2 * kEpochs)
        << "node " << i;
    EXPECT_EQ(fin[i].diff_store_bytes - base[i].diff_store_bytes,
              2 * kEpochs * kDiffBytes)
        << "node " << i;
    EXPECT_EQ(sfin[i].diff_bytes_created - sbase[i].diff_bytes_created,
              2 * kEpochs * kDiffBytes)
        << "node " << i;
    EXPECT_EQ(fin[i].diff_cache_bytes, base[i].diff_cache_bytes) << "node " << i;
    // The composite metric is exactly its parts — the same identity
    // meta_bytes() relies on for the O(1) ceiling check.
    EXPECT_EQ(fin[i].total_bytes(),
              fin[i].log_bytes + fin[i].diff_store_bytes +
                  fin[i].diff_cache_bytes)
        << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Pinned bytes: when barrier-GC reclaims a diff its non-reader pinned, the
// pin's bytes must show up in both diff_cache_bytes and the pinned subset —
// sized exactly like the diff the writer gave up.
// ---------------------------------------------------------------------------
TEST(MetaFootprint, GcPinnedBytesMatchReclaimedDiff) {
  constexpr std::uint32_t kNodes = 2;
  DsmConfig c = precise_cfg(kNodes);
  c.gc_at_barriers = true;
  std::vector<Node::MetaFootprint> fin(kNodes);
  DsmRuntime rt(c);
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> state(4 * kWpp);
    const std::uint32_t id = tmk.id();
    tmk.barrier();
    // Node 1 writes page 0 once; node 0 never reads it.  Then enough churn
    // epochs on a different page for the floor to cover the interval and the
    // writer to reclaim — node 0's validation pass must fetch and pin.
    if (id == 1)
      for (std::size_t w = 0; w < 16; ++w) state[w] = word_of(w + 1);
    tmk.barrier();
    for (std::size_t e = 0; e < 6; ++e) {
      if (id == 1) state[2 * kWpp] = word_of(100 + e);
      tmk.barrier();
      if (id == 0) EXPECT_EQ(state[2 * kWpp], word_of(100 + e));
      tmk.barrier();
    }
    fin[id] = tmk.node.meta_footprint();
  });

  const std::size_t kDiffBytes = 4 + 16 * sizeof(std::uint64_t);
  // Node 0 holds the never-read page's diff as a pin (the only copy left).
  EXPECT_GE(fin[0].diff_cache_pinned_bytes, kDiffBytes);
  EXPECT_EQ(fin[0].diff_cache_pinned_bytes % kDiffBytes, 0u)
      << "pins must be whole reclaimed diffs";
  EXPECT_GE(fin[0].diff_cache_bytes, fin[0].diff_cache_pinned_bytes);
  EXPECT_EQ(fin[0].relay_bytes, 0u);
}

}  // namespace
}  // namespace now::tmk
