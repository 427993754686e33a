// The lazily populated page table: a node allocates a chunk of
// kPageChunkPages entries only when one of its pages is first touched, so a
// runtime's cost tracks the pages a program uses, not heap_bytes.  These
// tests pin down
//  - an empty program on a 96 MB heap allocates no chunk on any node;
//  - touching k pages costs at most ceil(k/64) + 1 chunks per node, and the
//    prefetch window's neighbor scan never allocates an untouched chunk;
//  - two threads taking turns on one fresh chunk publish it exactly once;
//  - checkpoint staging, which skips absent chunks, still rolls a crashed
//    run back to byte-identical memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

constexpr std::size_t kWpp = kPageSize / sizeof(std::uint64_t);

DsmConfig cfg(std::uint32_t nodes, std::size_t heap_bytes) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = heap_bytes;
  c.prefetch_pages = 4;
  c.time.cpu_scale = 0.0;
  return c;
}

TEST(PageTable, EmptyProgramAllocatesNoChunks) {
  DsmRuntime rt(cfg(4, std::size_t{96} << 20));
  rt.run_spmd([](Tmk&) {});
  for (std::uint32_t n = 0; n < 4; ++n) EXPECT_EQ(rt.node(n).page_chunks(), 0u);
}

// Node 0 writes pages [first, first + k), node 1 reads them back in order.
// The notices travel by semaphore, so node 1's faults fetch (and prefetch)
// them; a barrier's validation pass would pin them all first.  Returns each
// node's chunk count.
std::vector<std::size_t> touch_pages(std::size_t first, std::size_t k,
                                     DsmStatsSnapshot* stats) {
  DsmRuntime rt(cfg(2, std::size_t{8} << 20));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> base(first * kPageSize);
    if (tmk.id() == 0) {
      for (std::size_t p = 0; p < k; ++p) base[p * kWpp] = p + 1;
      tmk.sema_signal(0);
    } else {
      tmk.sema_wait(0);
      for (std::size_t p = 0; p < k; ++p) EXPECT_EQ(base[p * kWpp], p + 1);
    }
    tmk.barrier();
  });
  *stats = rt.total_stats();
  return {rt.node(0).page_chunks(), rt.node(1).page_chunks()};
}

TEST(PageTable, ChunksTrackTouchedPages) {
  DsmStatsSnapshot s;
  // Unaligned: 100 pages starting mid-chunk span three chunks.
  for (std::size_t chunks : touch_pages(100, 100, &s))
    EXPECT_LE(chunks, (100 + kPageChunkPages - 1) / kPageChunkPages + 1);
  // Exactly one chunk: node 1's faults near its end scan a prefetch window
  // reaching into the next, untouched chunk, which must stay absent.
  for (std::size_t chunks : touch_pages(kPageChunkPages, kPageChunkPages, &s))
    EXPECT_EQ(chunks, 1u);
  EXPECT_GT(s.prefetch_requests_batched, 0u);  // the scan did run
}

TEST(PageTable, TurnTakingFirstTouchPublishesOneChunk) {
  // The compute and the service thread both reach fresh chunks (faults;
  // merges at flush/fork/join), taking turns under their node's protocol
  // lock: whichever touches a chunk first allocates it, and both see the
  // same entries.
  for (int round = 0; round < 100; ++round) {
    std::size_t total = 0;
    PageTable t(2 * kPageChunkPages, &total);
    std::mutex proto_mu;
    std::vector<PageEntry*> seen[2];
    auto touch = [&](int who) {
      seen[who].resize(kPageChunkPages);
      // Opposite directions, so each thread's first index differs.
      for (std::size_t i = 0; i < kPageChunkPages; ++i) {
        const std::size_t p = who == 0 ? i : kPageChunkPages - 1 - i;
        std::lock_guard<std::mutex> lock(proto_mu);
        seen[who][p] = &t[static_cast<PageIndex>(p)];
      }
    };
    std::thread a(touch, 0), b(touch, 1);
    a.join();
    b.join();
    ASSERT_EQ(t.chunks(), 1u) << "round " << round;
    ASSERT_EQ(seen[0], seen[1]) << "round " << round;
    ASSERT_EQ(t.find(static_cast<PageIndex>(kPageChunkPages)), nullptr);
    std::size_t present = 0;
    t.for_each([&](PageIndex p, PageEntry& e) {
      EXPECT_EQ(&e, seen[0][p]);
      ++present;
    });
    ASSERT_EQ(present, kPageChunkPages);
  }
}

// A restart-aware round loop (the tmk_crash_test shape): each round node i
// rewrites part of its data page, everyone adds to a lock-protected sum,
// node 0 advances the progress word, barrier.  The heap is mostly untouched,
// so most chunks are absent when the checkpoint pass walks the table.
void rounds(Tmk& tmk, std::size_t n, std::vector<std::uint64_t>* mem) {
  constexpr std::uint32_t kNodes = 4;
  gptr<std::uint64_t> ctl(kPageSize);
  gptr<std::uint64_t> data(2 * kPageSize);
  const std::uint32_t id = tmk.id();
  const std::size_t start = ctl[0];
  tmk.barrier();
  for (std::size_t r = start; r < n; ++r) {
    for (std::size_t k = 0; k < 24; ++k)
      data[id * kWpp + (r * 7 + k) % kWpp] = (r + 1) * 1000003u + id * 131u + k;
    tmk.lock_acquire(1);
    ctl[1] += (r + 1) * (id + 1);
    if (id == 0) ctl[0] = r + 1;
    tmk.lock_release(1);
    tmk.barrier();
  }
  if (id == 0) {
    mem->assign({ctl[0], ctl[1]});
    for (std::size_t w = 0; w < kNodes * kWpp; ++w) mem->push_back(data[w]);
  }
}

TEST(PageTable, CheckpointRollbackStaysByteIdentical) {
  constexpr std::size_t kRounds = 8;
  DsmConfig c = cfg(4, std::size_t{16} << 20);
  c.net_fault = {};
  c.net_reliable = false;
  c.net_max_retries = 3;
  c.ckpt_every = 0;
  std::vector<std::uint64_t> ref;
  {
    DsmRuntime rt(c);
    EXPECT_TRUE(rt.run_spmd([&](Tmk& tmk) { rounds(tmk, kRounds, &ref); }).completed);
  }
  c.ckpt_every = 2;
  c.net_crash_node = 2;
  c.net_crash_at = 13;  // round 4's lock acquire, two epochs banked
  std::vector<std::uint64_t> mem;
  DsmRuntime rt(c);
  const RunReport rep = rt.run_spmd([&](Tmk& tmk) { rounds(tmk, kRounds, &mem); });
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.recoveries, 1u);
  EXPECT_GT(rt.total_stats().ckpt_epochs, 0u);
  EXPECT_EQ(mem, ref);
  // The rebuilt nodes rehydrated only the durable pages: one chunk each.
  for (std::uint32_t n = 0; n < 4; ++n) EXPECT_EQ(rt.node(n).page_chunks(), 1u);
}

}  // namespace
}  // namespace now::tmk
