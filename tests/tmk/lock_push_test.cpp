// Migratory-data push on the lock-grant chain: each releaser tracks the
// pages its critical sections touch per lock, and piggybacks their diffs on
// the kLockGrant it forwards, so the next holder's acquire validates them
// before the critical section runs — no trap, no fetch round trip.  These
// tests pin promotion after stable handoffs, byte identity push vs pull,
// demotion when the chain stops touching a page, the sender-budget fallback
// to the pull path, a whole-page rewrite riding the push as diffs, and the
// interplay with barrier-GC floors (a pushed diff must never be sourced from
// a reclaimed diff-store entry — enforced by a loud NOW_CHECK on the grant
// path).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

constexpr std::size_t kWpp = kPageSize / sizeof(std::uint64_t);

DsmConfig cfg(std::uint32_t nodes, std::size_t lock_push_bytes) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.lock_push_bytes = lock_push_bytes;
  c.time.cpu_scale = 0.0;
  return c;
}

// The canonical migratory workload: every node repeatedly enters the same
// critical section and reads + rewrites the protected state (a TSP-style
// bound page plus a second state page).  No barriers inside the loop — the
// lock chain is the only carrier of consistency between handoffs, exactly
// the phase where the fault/fetch pair used to be unavoidable.  The yield
// after each release lets the service thread process queued forwards, so
// the lock actually migrates instead of degenerating into cached
// re-acquires (handoff counts still vary with host scheduling, which is
// why the stats assertions below normalize per handoff).
void bound_loop(Tmk& tmk, std::size_t iters, std::size_t dirty_words,
                std::vector<std::uint64_t>* out = nullptr) {
  gptr<std::uint64_t> bound(kPageSize);
  if (tmk.id() == 0) {
    tmk.lock_acquire(0);
    bound[0] = 1;
    bound[kWpp] = 1;
    tmk.lock_release(0);
  }
  tmk.barrier();
  for (std::size_t i = 0; i < iters; ++i) {
    tmk.lock_acquire(0);
    const std::uint64_t v = bound[0];
    bound[0] = v + 1;
    for (std::size_t k = 0; k < dirty_words; ++k)
      bound[kWpp + 1 + (v + k) % 8] = v * 100 + k;
    tmk.lock_release(0);
    std::this_thread::yield();
  }
  tmk.barrier();
  if (out != nullptr && tmk.id() == 0) {
    out->push_back(bound[0]);
    for (std::size_t k = 0; k < 16; ++k) out->push_back(bound[kWpp + k]);
  }
}

// Handoffs along the grant chain promote the critical section's pages into
// the protected set, and the pushes then serve the next holder's accesses
// without the fault/fetch pair.  Handoff counts depend on host scheduling,
// so the comparisons are normalized per kLockGrant: with two protected
// pages the pull path pays ~2 read faults and ~2 fetch round trips per
// handoff, while the push path pays only the armed probes.
TEST(LockPush, PromotionAfterStableHandoffs) {
  constexpr std::size_t kIters = 24;
  // The per-handoff message-count ratios below are perfect-wire properties:
  // under the CI features leg's lossy wire the two runs draw independent
  // fault streams, and retransmits/dups inflate their counters by
  // different amounts.
  auto pinned = [](std::size_t lock_push_bytes) {
    DsmConfig c = cfg(4, lock_push_bytes);
    c.net_fault = {};
    c.net_reliable = false;
    return c;
  };
  DsmStatsSnapshot pull, push;
  std::uint64_t pull_msgs = 0, push_msgs = 0, pull_grants = 0, push_grants = 0;
  {
    DsmRuntime rt(pinned(0));
    rt.run_spmd([&](Tmk& tmk) { bound_loop(tmk, kIters, 4); });
    pull = rt.total_stats();
    pull_msgs = rt.traffic().messages;
    pull_grants = rt.traffic().messages_by_type[kLockGrant];
  }
  {
    DsmRuntime rt(pinned(16 * 1024));
    rt.run_spmd([&](Tmk& tmk) { bound_loop(tmk, kIters, 4); });
    push = rt.total_stats();
    push_msgs = rt.traffic().messages;
    push_grants = rt.traffic().messages_by_type[kLockGrant];
  }
  ASSERT_GT(pull_grants, 8u);  // the lock actually migrated in both runs
  ASSERT_GT(push_grants, 8u);
  EXPECT_EQ(pull.lock_pushes_sent, 0u);
  // Nearly every handoff carries a push, and most pages land without any
  // remote fetch (validated at the acquire or consumed by a probe fault).
  EXPECT_GE(push.lock_pushes_sent + 8, push_grants);
  EXPECT_GE(push.lock_push_hits, push_grants);
  // The whole point, per handoff: the next holder stops paying the trap
  // and the fetch round trip (measured ~3.6x fewer faults, ~90x fewer
  // fetches, ~3x fewer messages; asserted at 2x/4x/1.5x for slack).
  EXPECT_LT(2 * push.read_faults * pull_grants,
            pull.read_faults * push_grants);
  EXPECT_LT(4 * push.diff_fetches * pull_grants,
            pull.diff_fetches * push_grants);
  EXPECT_LT(3 * push_msgs * pull_grants, 2 * pull_msgs * push_grants);
}

// The push path must produce byte-identical shared memory to the pull path.
TEST(LockPush, ByteIdentityPushVsPull) {
  constexpr std::size_t kIters = 16;
  std::vector<std::uint64_t> pull, push;
  {
    DsmRuntime rt(cfg(4, 0));
    rt.run_spmd([&](Tmk& tmk) { bound_loop(tmk, kIters, 4, &pull); });
  }
  {
    DsmRuntime rt(cfg(4, 16 * 1024));
    rt.run_spmd([&](Tmk& tmk) { bound_loop(tmk, kIters, 4, &push); });
  }
  ASSERT_EQ(pull.size(), push.size());
  EXPECT_EQ(pull, push);
  // The counter is deterministic regardless of handoff order.
  EXPECT_EQ(pull[0], 1u + 4 * kIters);
}

// A page the chain stops touching demotes: the armed probe goes unconsumed
// through a whole critical section, the holder denies the pusher, and the
// page leaves the protected set instead of burning push bytes forever.
TEST(LockPush, DemotionWhenChainStopsTouchingAPage) {
  constexpr std::size_t kIters = 24, kSwitch = 8;
  auto c = cfg(3, 16 * 1024);
  c.lock_push_reprobe = 1;  // every push armed: every dead push is judged
  // Demotion needs an armed push to sit untouched through a *whole* critical
  // section, which needs the lock to actually migrate; under the chaos CI
  // leg retransmit delays can collapse the chain into cached re-acquires
  // for long stretches and the demotion window never opens.  The mechanism
  // under test is wire-independent — pin the wire perfect.
  c.net_fault = {};
  c.net_reliable = false;
  DsmRuntime rt(c);
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> state(kPageSize);
    if (tmk.id() == 0) {
      tmk.lock_acquire(0);
      state[0] = 1;
      state[kWpp] = 1;  // second protected page, abandoned after kSwitch
      tmk.lock_release(0);
    }
    tmk.barrier();
    for (std::size_t i = 0; i < kIters; ++i) {
      tmk.lock_acquire(0);
      state[0] = state[0] + 1;
      if (i < kSwitch) state[kWpp] = state[kWpp] + 1;
      tmk.lock_release(0);
      std::this_thread::yield();
    }
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  EXPECT_GT(s.lock_pushes_sent, 0u);
  // The abandoned page's armed pushes go untouched and deny the pushers.
  EXPECT_GE(s.lock_push_demotions, 1u);
  // The live page keeps riding the chain: hits keep accumulating well past
  // the switch point.
  EXPECT_GE(s.lock_push_hits, kIters / 2);
}

// Pages whose diffs exceed the per-grant budget are simply not pushed — the
// requester falls back to the pull path, with identical bytes.
TEST(LockPush, BudgetOverflowFallsBackToPull) {
  constexpr std::size_t kIters = 12;
  std::vector<std::uint64_t> pull, tiny;
  DsmStatsSnapshot s;
  {
    DsmRuntime rt(cfg(3, 0));
    rt.run_spmd([&](Tmk& tmk) { bound_loop(tmk, kIters, 8, &pull); });
  }
  {
    // 16 bytes can hold no diff of these critical sections.
    DsmRuntime rt(cfg(3, 16));
    rt.run_spmd([&](Tmk& tmk) { bound_loop(tmk, kIters, 8, &tiny); });
    s = rt.total_stats();
  }
  EXPECT_EQ(s.lock_pages_pushed, 0u);
  EXPECT_EQ(s.lock_push_hits, 0u);
  EXPECT_EQ(pull, tiny);
}

// A critical section that rewrites a whole page produces diffs about as big
// as the page; they still ride the grant as diffs (the budget holds them),
// and the next holder skips the fetch.
TEST(LockPush, DenseRewriteRidesAsDiffs) {
  constexpr std::size_t kIters = 12;
  std::vector<std::uint64_t> pull, push;
  DsmStatsSnapshot s;
  auto workload = [](Tmk& tmk, std::vector<std::uint64_t>* out) {
    gptr<std::uint64_t> page(kPageSize);
    if (tmk.id() == 0) {
      tmk.lock_acquire(0);
      page[0] = 1;
      tmk.lock_release(0);
    }
    tmk.barrier();
    for (std::size_t i = 0; i < kIters; ++i) {
      tmk.lock_acquire(0);
      const std::uint64_t v = page[0];
      for (std::size_t k = 0; k < kWpp; ++k) page[k] = v * 1000 + k;
      page[0] = v + 1;
      tmk.lock_release(0);
      std::this_thread::yield();
    }
    tmk.barrier();
    if (out != nullptr && tmk.id() == 0)
      for (std::size_t k = 0; k < 16; ++k) out->push_back(page[k]);
  };
  {
    DsmRuntime rt(cfg(3, 0));
    rt.run_spmd([&](Tmk& tmk) { workload(tmk, &pull); });
  }
  {
    DsmRuntime rt(cfg(3, 16 * 1024));
    rt.run_spmd([&](Tmk& tmk) { workload(tmk, &push); });
    s = rt.total_stats();
  }
  EXPECT_EQ(pull, push);
  EXPECT_GT(s.lock_pages_pushed, 0u);
  EXPECT_GT(s.lock_push_hits, 0u);
}

// Interplay with barrier-GC floors: pushes keep flowing while barriers
// establish floors and writers reclaim diff stores.  The grant-path
// NOW_CHECK guarantees a pushed diff is never sourced from a reclaimed
// store entry, and the final bytes must match the pull path exactly.
TEST(LockPush, GcFloorsNeverReclaimPushedSources) {
  constexpr std::size_t kEpochs = 10, kCsPerEpoch = 4;
  auto workload = [](Tmk& tmk, std::vector<std::uint64_t>* out) {
    gptr<std::uint64_t> state(kPageSize);
    if (tmk.id() == 0) {
      tmk.lock_acquire(0);
      state[0] = 1;
      tmk.lock_release(0);
    }
    tmk.barrier();
    for (std::size_t e = 0; e < kEpochs; ++e) {
      for (std::size_t i = 0; i < kCsPerEpoch; ++i) {
        tmk.lock_acquire(0);
        const std::uint64_t v = state[0];
        state[0] = v + 1;
        state[1 + (v % 64)] = v;
        tmk.lock_release(0);
        std::this_thread::yield();
      }
      tmk.barrier();  // establishes a GC floor mid-stream
    }
    if (out != nullptr && tmk.id() == 0)
      for (std::size_t k = 0; k < 66; ++k) out->push_back(state[k]);
  };
  std::vector<std::uint64_t> pull, push;
  DsmStatsSnapshot s;
  {
    auto c = cfg(4, 0);
    c.gc_at_barriers = true;
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) { workload(tmk, &pull); });
  }
  {
    auto c = cfg(4, 16 * 1024);
    c.gc_at_barriers = true;
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) { workload(tmk, &push); });
    s = rt.total_stats();
  }
  EXPECT_EQ(pull, push);
  // Both machines must actually have been on for the run to mean anything.
  EXPECT_GT(s.gc_records_reclaimed, 0u);
  EXPECT_GT(s.lock_pushes_sent, 0u);
}

// Relay retention meets the on-demand ceiling: on a barrier-free migratory
// chain the relayed chunks are the push protocol's only unbounded state, and
// the GC exchange's applied floor is the only thing allowed to prune them.
// A long chain under a tight ceiling must (a) actually prune relay chunks,
// (b) keep pushing and hitting across the prunes (a pruned chunk is covered
// by the floor, so no future grant may want it — pushes source newer diffs),
// (c) keep every node's retained relay bytes on a plateau instead of the
// handoff-linear growth the unceilinged run shows, and (d) stay
// byte-identical to the plain pull path.
TEST(LockPush, CeilingPrunesRelayChunksWithoutBreakingThePush) {
  constexpr std::size_t kIters = 40;  // x4 nodes: 160 critical sections
  // Tight enough that ~160 handoffs' worth of records + diffs + relays
  // crosses it several times over.
  constexpr std::size_t kCeiling = 6 * 1024;

  // bound_loop with a per-iteration probe of this node's retained relay
  // bytes (the relay_bytes subset of its own diff caches).
  auto probed_loop = [](Tmk& tmk, std::size_t* relay_peak,
                        std::vector<std::uint64_t>* out) {
    gptr<std::uint64_t> bound(kPageSize);
    if (tmk.id() == 0) {
      tmk.lock_acquire(0);
      bound[0] = 1;
      bound[kWpp] = 1;
      tmk.lock_release(0);
    }
    tmk.barrier();
    for (std::size_t i = 0; i < kIters; ++i) {
      tmk.lock_acquire(0);
      const std::uint64_t v = bound[0];
      bound[0] = v + 1;
      for (std::size_t k = 0; k < 8; ++k)
        bound[kWpp + 1 + (v + k) % 8] = v * 100 + k;
      tmk.lock_release(0);
      if (relay_peak != nullptr)
        *relay_peak =
            std::max(*relay_peak, tmk.node.meta_footprint().relay_bytes);
      std::this_thread::yield();
    }
    tmk.barrier();
    if (out != nullptr && tmk.id() == 0) {
      out->push_back(bound[0]);
      for (std::size_t k = 0; k < 16; ++k) out->push_back(bound[kWpp + k]);
    }
  };

  std::vector<std::uint64_t> pull, push_free, push_capped;
  std::vector<std::size_t> free_peaks(4, 0), capped_peaks(4, 0);
  DsmStatsSnapshot s;
  {
    DsmRuntime rt(cfg(4, 0));
    rt.run_spmd([&](Tmk& tmk) { probed_loop(tmk, nullptr, &pull); });
  }
  {
    DsmRuntime rt(cfg(4, 16 * 1024));
    rt.run_spmd(
        [&](Tmk& tmk) { probed_loop(tmk, &free_peaks[tmk.id()], &push_free); });
  }
  {
    auto c = cfg(4, 16 * 1024);
    c.meta_ceiling_bytes = kCeiling;
    // The 2x-ceiling relay plateau is a perfect-wire property: injected
    // faults stretch the exchange by retransmit timeouts while the chain
    // keeps relaying (the lossy-wire plateau lives in tmk_soak_test).
    c.net_fault = {};
    c.net_reliable = false;
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) {
      probed_loop(tmk, &capped_peaks[tmk.id()], &push_capped);
    });
    s = rt.total_stats();
  }

  // (d) identity first: the prunes changed bytes held, never bytes applied.
  EXPECT_EQ(pull, push_free);
  EXPECT_EQ(pull, push_capped);

  // (a) the ceiling fired and the exchange floors pruned retained relays.
  EXPECT_GT(s.gc_exchanges, 0u);
  EXPECT_GT(s.relay_chunks_pruned, 0u);
  EXPECT_GT(s.relay_bytes_pruned, 0u);

  // (b) the chain kept pushing, and grants kept landing usefully, across
  // every prune (the floor only covers intervals no grant may want again).
  EXPECT_GT(s.lock_pushes_sent, 0u);
  EXPECT_GT(s.lock_push_hits, 0u);

  // (c) retention plateaus: some unceilinged node must retain more relay
  // bytes than any capped node ever held, and each capped node's retained
  // relay stays under the ceiling (relay is a subset of the bounded meta).
  const std::size_t free_max =
      *std::max_element(free_peaks.begin(), free_peaks.end());
  const std::size_t capped_max =
      *std::max_element(capped_peaks.begin(), capped_peaks.end());
  EXPECT_GT(free_max, capped_max);
  EXPECT_LE(capped_max, kCeiling + kCeiling);
}

}  // namespace
}  // namespace now::tmk
