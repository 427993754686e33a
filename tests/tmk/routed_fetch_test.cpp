// Routed diff fetch: a fault taken while the node holds a lock sends one
// kDiffRequest to the writer of the page's latest wanted interval, naming
// every wanted (writer, seq).  The writer answers its own intervals from its
// diff store and the others from the relay stock it kept when it faulted
// the page inside its own critical section; whatever it no longer holds is
// marked missing and fetched from its writer in a second round.  The first
// such request of a critical section also carries the section's other
// pages the lock grant invalidated — those this node touched in an earlier
// critical section of the lock (the critical-section batch), the only
// prefetch inside a critical section; a batch entry the writer no longer
// holds is dropped and fetched by the page's own fault.  These tests pin
//  - the win: on a steady rotating lock chain every fault inside the
//    critical section costs exactly one kDiffRequest, and when the grant
//    carries the chain's writes, so does every critical section, its
//    second page far outside the prefetch window;
//  - the stock: no prefetch inside a critical section evicts it;
//  - byte identity with a cache so small the stock is evicted, the second
//    round fires and batch entries come back missing;
//  - the touch-history filter: pages written outside the critical section
//    are never batched;
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
// A second page this far above the header page lies outside any prefetch
// window the test configurations use (4, or 16 in the all-features leg):
// wherever a page lies, only the critical-section batch can fold it into
// the header's request.
constexpr std::size_t kFarGap = 24;

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

// How node i hands the turn to node i+1.
enum class Handoff {
  // After its release: the semaphore carries node i's writes, and the lock
  // grant that follows names nothing new.
  kAfterRelease,
  // As its critical section starts: node i+1 queues for the lock while node
  // i holds it, so the grant carries node i's writes — a lock-only chain's
  // shape (TSP's), where the grant invalidates the section's pages.
  kInsideSection,
};

struct ChainOutcome {
  DsmStatsSnapshot stats;
  // Per node, from the third round on (the first rounds warm the chain's
  // stock and the lock's touch history): the kDiffRequests each
  // critical-section fault sent, and per critical section the requests it
  // sent and the remote lock acquires that opened it.
  std::vector<std::vector<std::uint64_t>> steady_fetches{kNodes};
  std::vector<std::vector<std::uint64_t>> section_fetches{kNodes};
  std::vector<std::vector<std::uint64_t>> section_remote_acquires{kNodes};
  std::vector<std::uint64_t> contents;  // both pages, read by node 0 at the end
};

std::uint64_t remote_acquires(const DsmStatsSnapshot& s) {
  return s.lock_acquires - s.lock_acquires_cached;
}

// A 4-node chain that rotates deterministically: node i waits on semaphore
// i, takes the lock, reads the header page and a page `gap` pages above it
// (each read faults: three other writers have rewritten both since this
// node's last turn), rewrites its own runs, releases, and hands the turn to
// node i+1.
ChainOutcome run_chain(std::size_t cache_bytes, std::size_t gap = 1,
                       Handoff handoff = Handoff::kAfterRelease) {
  ChainOutcome out;
  const std::size_t page_off[kChainPages] = {0, gap * kWpp};
  DsmRuntime rt(cfg(cache_bytes));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    const std::uint32_t id = tmk.id();
    const std::uint32_t next = (id + 1) % kNodes;
    tmk.barrier();
    for (std::size_t round = 0; round < kRounds; ++round) {
      if (round > 0 || id > 0) tmk.sema_wait(id);
      const DsmStatsSnapshot entry = tmk.node.stats().snapshot();
      tmk.lock_acquire(0);
      const DsmStatsSnapshot granted = tmk.node.stats().snapshot();
      if (handoff == Handoff::kInsideSection) tmk.sema_signal(next);
      for (std::size_t pg = 0; pg < kChainPages; ++pg) {
        const DsmStatsSnapshot before = tmk.node.stats().snapshot();
        // The previous holder's word: the chain's latest interval.
        const std::uint32_t prev = (id + kNodes - 1) % kNodes;
        const std::size_t prev_round = id == 0 ? round - 1 : round;
        const std::uint64_t seen = base[page_off[pg] + prev * kRunWords];
        if (round > 0 || id > 0) {
          EXPECT_EQ(seen, word_of(prev, prev_round, pg, 0)) << "node " << id;
        }
        const DsmStatsSnapshot after = tmk.node.stats().snapshot();
        if (round >= 2) {
          EXPECT_EQ(after.read_faults - before.read_faults, 1u);
          out.steady_fetches[id].push_back(after.diff_fetches -
                                           before.diff_fetches);
        }
        for (std::size_t k = 0; k < kRunWords; ++k)
          base[page_off[pg] + id * kRunWords + k] = word_of(id, round, pg, k);
      }
      const DsmStatsSnapshot done = tmk.node.stats().snapshot();
      tmk.lock_release(0);
      if (round >= 2) {
        out.section_fetches[id].push_back(done.diff_fetches - granted.diff_fetches);
        out.section_remote_acquires[id].push_back(remote_acquires(granted) -
                                                  remote_acquires(entry));
      }
      if (handoff == Handoff::kAfterRelease) tmk.sema_signal(next);
    }
    if (id == 0) tmk.sema_wait(0);  // the last round's final handoff
    tmk.barrier();
    if (id == 0)
      for (std::size_t pg = 0; pg < kChainPages; ++pg)
        for (std::size_t w = 0; w < kNodes * kRunWords; ++w)
          out.contents.push_back(base[page_off[pg] + w]);
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

TEST(RoutedFetch, PrefetchLeavesTheStockAlone) {
  // A 256-byte page cache holds the two other writers' intervals a holder's
  // stock must answer for when the chain comes round.  Inside a critical
  // section only the lock's batch prefetches, so no neighbor the window
  // would park displaces that stock (TSP's shape): every routed entry is
  // served.
  const ChainOutcome snug = run_chain(256);
  EXPECT_GT(snug.stats.diff_fetches_routed, 0u);
  EXPECT_GT(snug.stats.diff_stock_served, 0u);
  EXPECT_EQ(snug.stats.diff_stock_misses, 0u);
  EXPECT_EQ(snug.contents, expected_contents());
}

TEST(RoutedFetch, EvictedStockTakesTheSecondRound) {
  // A 128-byte page cache holds at most one of those intervals, so the
  // routed writer has lost part of its stock.
  const ChainOutcome tiny = run_chain(128);
  EXPECT_GT(tiny.stats.diff_fetches_routed, 0u);
  EXPECT_GT(tiny.stats.diff_stock_misses, 0u);
  // A miss costs a direct fetch, never a lost interval.
  EXPECT_EQ(tiny.contents, expected_contents());
}

TEST(RoutedFetch, LockChainSendsOneRequestPerCriticalSection) {
  const ChainOutcome out = run_chain(16 * 1024, kFarGap, Handoff::kInsideSection);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    ASSERT_EQ(out.section_fetches[n].size(), kRounds - 2);
    // Every section opened with a remote acquire and sent one request: the
    // header page's fault, which also fetched the far page.
    EXPECT_EQ(out.section_fetches[n], out.section_remote_acquires[n]) << "node " << n;
    for (std::uint64_t f : out.section_fetches[n]) EXPECT_EQ(f, 1u) << "node " << n;
  }
  EXPECT_GT(out.stats.diff_fetches_routed, 0u);
  EXPECT_GT(out.stats.diff_stock_served, 0u);
  EXPECT_GT(out.stats.prefetch_hits, 0u);
  EXPECT_EQ(out.contents, expected_contents());
}

TEST(RoutedFetch, BatchedMissIsFetchedByThePagesOwnFault) {
  // The evicted-stock starvation on the far page: the batch entries the
  // contacted writer lost come back missing, are dropped, and the far
  // page's own fault fetches them.  The final bytes match a run whose
  // stock holds everything.
  const ChainOutcome tiny = run_chain(256, kFarGap, Handoff::kInsideSection);
  const ChainOutcome roomy = run_chain(16 * 1024, kFarGap, Handoff::kInsideSection);
  EXPECT_GT(tiny.stats.diff_stock_misses, 0u);
  EXPECT_GT(tiny.stats.prefetch_requests_batched, 0u);
  EXPECT_EQ(tiny.contents, roomy.contents);
  EXPECT_EQ(tiny.contents, expected_contents());
}

TEST(RoutedFetch, PagesWrittenOutsideTheSectionAreNotBatched) {
  // QSORT's shape: the lock guards only a queue page, and before each
  // critical section a node rewrites its words of one data page, a
  // different one each turn.  No semaphore orders the turns, so each
  // grant's delta carries the data-page records of the holders before:
  // pages invalid here and touched here before, but never under the lock.
  // The batch must leave them alone — their notices stay unapplied until
  // this node's own write fault outside the section fetches them.
  constexpr std::size_t kDataPage0 = 40;
  constexpr std::size_t kTurns = 8;
  auto data_off = [](std::size_t d) { return (kDataPage0 + d * kFarGap) * kWpp; };
  std::vector<std::uint64_t> batched(kNodes), remote(kNodes), data_hits(kNodes);
  std::uint64_t queued = 0;
  std::vector<std::uint64_t> seen;
  DsmRuntime rt(cfg(16 * 1024));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> queue(kPageSize);
    gptr<std::uint64_t> heap(0);
    const std::uint32_t id = tmk.id();
    tmk.barrier();
    for (std::size_t turn = 0; turn < kTurns; ++turn) {
      const std::size_t d = (id + turn) % kNodes;
      const DsmStatsSnapshot start = tmk.node.stats().snapshot();
      for (std::size_t k = 0; k < kRunWords; ++k)
        heap[data_off(d) + id * kRunWords + k] = word_of(id, turn, d, k);
      const DsmStatsSnapshot entry = tmk.node.stats().snapshot();
      tmk.lock_acquire(0);
      const DsmStatsSnapshot granted = tmk.node.stats().snapshot();
      queue[0] = queue[0] + 1;
      const DsmStatsSnapshot done = tmk.node.stats().snapshot();
      tmk.lock_release(0);
      data_hits[id] += entry.diff_cache_hits - start.diff_cache_hits;
      batched[id] += done.prefetch_requests_batched - granted.prefetch_requests_batched;
      remote[id] += remote_acquires(granted) - remote_acquires(entry);
    }
    tmk.barrier();
    if (id == 0) {
      queued = queue[0];
      for (std::size_t d = 0; d < kNodes; ++d)
        for (std::uint32_t n = 0; n < kNodes; ++n)
          seen.push_back(heap[data_off(d) + n * kRunWords]);
    }
  });
  std::uint64_t remote_total = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(batched[n], 0u) << "node " << n;
    EXPECT_EQ(data_hits[n], 0u) << "node " << n;
    remote_total += remote[n];
  }
  EXPECT_GT(remote_total, 0u);  // the lock did migrate
  EXPECT_EQ(queued, kNodes * kTurns);
  std::vector<std::uint64_t> want;
  for (std::size_t d = 0; d < kNodes; ++d)
    for (std::uint32_t n = 0; n < kNodes; ++n)
      // Node n last wrote page d in the last turn t with (n + t) % 4 == d.
      for (std::size_t t = kTurns; t-- > 0;)
        if ((n + t) % kNodes == d) {
          want.push_back(word_of(n, t, d, 0));
          break;
        }
  EXPECT_EQ(seen, want);
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
