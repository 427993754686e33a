// Routed diff fetch: a fault taken while the node holds a lock sends one
// kDiffRequest to the writer of the page's latest wanted interval, naming
// every wanted (writer, seq).  The writer answers its own intervals from its
// diff store and the others from the relay stock it kept when it faulted
// the page inside its own critical section; whatever it no longer holds is
// marked missing and fetched from its writer in a second round.  These tests
// pin
//  - the win: on a steady rotating lock chain every fault inside the
//    critical section costs exactly one kDiffRequest;
//  - byte identity with a cache so small the stock is evicted and the
//    second round fires;
//  - the scope: a multi-writer fault outside any critical section keeps its
//    per-writer requests;
//  - the miss path for concurrent writers whose lamport stamps tie.
#include <gtest/gtest.h>

#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::size_t kWpp = kPageSize / sizeof(std::uint64_t);
constexpr std::size_t kChainPages = 2;
constexpr std::size_t kRounds = 6;
// Each critical section rewrites a node-private run of words on both pages,
// so every page carries one interval per writer when the chain comes round.
constexpr std::size_t kRunWords = 16;

DsmConfig cfg(std::size_t cache_bytes) {
  DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = 4 << 20;
  c.diff_cache_bytes_per_page = cache_bytes;
  c.time.cpu_scale = 0.0;
  // Message counts per fault are perfect-wire properties.
  c.net_fault = {};
  c.net_reliable = false;
  // Modulo manager placement: with hashed managers one writer's lock grant
  // can already carry the other's interval, so the two writers of the
  // lamport-tie test are no longer concurrent and the stock serves both.
  c.shard_managers = false;
  return c;
}

std::uint64_t word_of(std::uint32_t node, std::size_t round, std::size_t page,
                      std::size_t k) {
  return 1 + node * 1000000 + round * 10000 + page * 100 + k;
}

struct ChainOutcome {
  DsmStatsSnapshot stats;
  // Per node, the kDiffRequests each critical-section fault sent from the
  // third round on (the first rounds warm the chain's stock).
  std::vector<std::vector<std::uint64_t>> steady_fetches{kNodes};
  std::vector<std::uint64_t> contents;  // both pages, read by node 0 at the end
};

// A 4-node chain that rotates deterministically: node i waits on semaphore
// i, takes the lock, reads both pages (each read faults: three other writers
// have rewritten them since this node's last turn), rewrites its own runs,
// releases, and hands the turn to node i+1.
ChainOutcome run_chain(std::size_t cache_bytes) {
  ChainOutcome out;
  DsmRuntime rt(cfg(cache_bytes));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    const std::uint32_t id = tmk.id();
    tmk.barrier();
    for (std::size_t round = 0; round < kRounds; ++round) {
      if (round > 0 || id > 0) tmk.sema_wait(id);
      tmk.lock_acquire(0);
      for (std::size_t pg = 0; pg < kChainPages; ++pg) {
        const DsmStatsSnapshot before = tmk.node.stats().snapshot();
        // The previous holder's word: the chain's latest interval.
        const std::uint32_t prev = (id + kNodes - 1) % kNodes;
        const std::size_t prev_round = id == 0 ? round - 1 : round;
        const std::uint64_t seen = base[pg * kWpp + prev * kRunWords];
        if (round > 0 || id > 0)
          EXPECT_EQ(seen, word_of(prev, prev_round, pg, 0)) << "node " << id;
        const DsmStatsSnapshot after = tmk.node.stats().snapshot();
        if (round >= 2) {
          EXPECT_EQ(after.read_faults - before.read_faults, 1u);
          out.steady_fetches[id].push_back(after.diff_fetches -
                                           before.diff_fetches);
        }
        for (std::size_t k = 0; k < kRunWords; ++k)
          base[pg * kWpp + id * kRunWords + k] = word_of(id, round, pg, k);
      }
      tmk.lock_release(0);
      tmk.sema_signal((id + 1) % kNodes);
    }
    if (id == 0) tmk.sema_wait(0);  // the last round's final handoff
    tmk.barrier();
    if (id == 0)
      for (std::size_t pg = 0; pg < kChainPages; ++pg)
        for (std::size_t w = 0; w < kNodes * kRunWords; ++w)
          out.contents.push_back(base[pg * kWpp + w]);
  });
  out.stats = rt.total_stats();
  return out;
}

std::vector<std::uint64_t> expected_contents() {
  std::vector<std::uint64_t> want;
  for (std::size_t pg = 0; pg < kChainPages; ++pg)
    for (std::uint32_t n = 0; n < kNodes; ++n)
      for (std::size_t k = 0; k < kRunWords; ++k)
        want.push_back(word_of(n, kRounds - 1, pg, k));
  return want;
}

TEST(RoutedFetch, SteadyChainFaultSendsOneRequest) {
  const ChainOutcome out = run_chain(16 * 1024);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    ASSERT_EQ(out.steady_fetches[n].size(), (kRounds - 2) * kChainPages);
    for (std::uint64_t f : out.steady_fetches[n])
      EXPECT_EQ(f, 1u) << "node " << n;
  }
  // Routed, with the stock answering the other writers.
  EXPECT_GT(out.stats.diff_fetches_routed, 0u);
  EXPECT_GT(out.stats.diff_stock_served, 0u);
  EXPECT_EQ(out.contents, expected_contents());
}

TEST(RoutedFetch, EvictedStockTakesTheSecondRound) {
  // Each interval's diff is one 4 + 128-byte chunk: a 256-byte page cache
  // holds one of them, so the routed writer has lost most of its stock.
  const ChainOutcome tiny = run_chain(256);
  EXPECT_GT(tiny.stats.diff_fetches_routed, 0u);
  EXPECT_GT(tiny.stats.diff_stock_misses, 0u);
  // A miss costs a direct fetch, never a lost interval.
  EXPECT_EQ(tiny.contents, expected_contents());
}

TEST(RoutedFetch, FaultOutsideCriticalSectionAsksEveryWriter) {
  DsmStatsSnapshot delta;
  std::vector<std::uint64_t> seen;
  DsmRuntime rt(cfg(16 * 1024));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    const std::uint32_t id = tmk.id();
    tmk.barrier();
    // The notices travel by semaphore: a barrier's validation pass would
    // already have pinned every diff, leaving the fault nothing to fetch.
    if (id > 0) {
      for (std::size_t k = 0; k < kRunWords; ++k)
        base[id * kRunWords + k] = word_of(id, 0, 0, k);
      tmk.sema_signal(0);
    }
    if (id == 0) {
      for (std::uint32_t n = 1; n < kNodes; ++n) tmk.sema_wait(0);
      const DsmStatsSnapshot before = tmk.node.stats().snapshot();
      for (std::uint32_t n = 1; n < kNodes; ++n) seen.push_back(base[n * kRunWords]);
      const DsmStatsSnapshot after = tmk.node.stats().snapshot();
      delta.read_faults = after.read_faults - before.read_faults;
      delta.diff_fetches = after.diff_fetches - before.diff_fetches;
      delta.diff_fetches_routed =
          after.diff_fetches_routed - before.diff_fetches_routed;
    }
    tmk.barrier();
  });
  EXPECT_EQ(delta.read_faults, 1u);
  EXPECT_EQ(delta.diff_fetches, kNodes - 1);
  EXPECT_EQ(delta.diff_fetches_routed, 0u);
  EXPECT_EQ(rt.total_stats().diff_fetches_routed, 0u);
  for (std::uint32_t n = 1; n < kNodes; ++n)
    EXPECT_EQ(seen[n - 1], word_of(n, 0, 0, 0));
}

TEST(RoutedFetch, LamportTiedConcurrentWritersTakeTheMissPath) {
  // Nodes 1 and 2 write disjoint halves of one page under different locks
  // right after a barrier, so their intervals are concurrent and carry the
  // same lamport stamp.  Node 3 learns both and faults the page inside a
  // critical section: the tie-break routes it to node 2, which never
  // applied node 1's interval, so that one comes back missing and is fetched
  // from node 1 in a second round.
  DsmStatsSnapshot delta;
  std::vector<std::uint64_t> seen;
  DsmRuntime rt(cfg(16 * 1024));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    const std::uint32_t id = tmk.id();
    tmk.barrier();
    if (id == 1 || id == 2) {
      tmk.lock_acquire(id);
      for (std::size_t k = 0; k < kRunWords; ++k)
        base[id * kRunWords + k] = word_of(id, 0, 0, k);
      tmk.lock_release(id);
      tmk.sema_signal(0);
    }
    if (id == 3) {
      tmk.sema_wait(0);
      tmk.sema_wait(0);
      tmk.lock_acquire(1);
      const DsmStatsSnapshot before = tmk.node.stats().snapshot();
      for (std::uint32_t n = 1; n <= 2; ++n)
        for (std::size_t k = 0; k < kRunWords; ++k)
          seen.push_back(base[n * kRunWords + k]);
      const DsmStatsSnapshot after = tmk.node.stats().snapshot();
      tmk.lock_release(1);
      delta.read_faults = after.read_faults - before.read_faults;
      delta.diff_fetches = after.diff_fetches - before.diff_fetches;
      delta.diff_fetches_routed =
          after.diff_fetches_routed - before.diff_fetches_routed;
      delta.diff_stock_misses = after.diff_stock_misses - before.diff_stock_misses;
    }
    tmk.barrier();
  });
  EXPECT_EQ(delta.read_faults, 1u);
  EXPECT_EQ(delta.diff_fetches_routed, 1u);
  EXPECT_EQ(delta.diff_stock_misses, 1u);
  EXPECT_EQ(delta.diff_fetches, 2u);  // the routed request + one retry
  std::vector<std::uint64_t> want;
  for (std::uint32_t n = 1; n <= 2; ++n)
    for (std::size_t k = 0; k < kRunWords; ++k) want.push_back(word_of(n, 0, 0, k));
  EXPECT_EQ(seen, want);
}

}  // namespace
}  // namespace now::tmk
