// The adaptive hybrid invalidate/update protocol: copyset tracking promotes
// epoch-stable reader sets to barrier-time diff pushes, armed probes demote
// pushes nobody reads, and the whole exchange must be byte-identical to the
// pull path and safe under barrier GC's diff reclamation.
#include <gtest/gtest.h>

#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

DsmConfig cfg(std::uint32_t nodes, bool update) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.update_mode = update;
  c.time.cpu_scale = 0.0;
  return c;
}

constexpr std::size_t kWpp = kPageSize / sizeof(std::uint64_t);

// One producer-consumer cycle: node 0 rewrites `pages` pages, barrier, node 1
// reads them (first `read_epochs` epochs only), barrier.
void producer_consumer(Tmk& tmk, std::size_t pages, std::size_t epochs,
                       std::size_t read_epochs,
                       std::vector<std::uint64_t>* out = nullptr) {
  gptr<std::uint64_t> base(kPageSize);
  volatile std::uint64_t sink = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    if (tmk.id() == 0)
      for (std::size_t pg = 0; pg < pages; ++pg)
        for (std::size_t k = 0; k < 8; ++k)
          base[pg * kWpp + k] = e * 100000 + pg * 100 + k + 1;
    tmk.barrier();
    if (tmk.id() == 1 && e < read_epochs)
      for (std::size_t pg = 0; pg < pages; ++pg)
        sink += base[pg * kWpp + (e % 8)];
    tmk.barrier();
  }
  (void)sink;
  if (out != nullptr && tmk.id() == 1)
    for (std::size_t pg = 0; pg < pages; ++pg)
      for (std::size_t k = 0; k < 8; ++k) out->push_back(base[pg * kWpp + k]);
}

// A stable reader set is promoted after update_promote_epochs epochs and the
// pushes then serve the reads without faults or fetch round trips.
TEST(UpdateProtocol, PromotionAfterStableEpochs) {
  constexpr std::size_t kPages = 8, kEpochs = 10;
  DsmStatsSnapshot pull, push;
  {
    DsmRuntime rt(cfg(2, false));
    rt.run_spmd([&](Tmk& tmk) { producer_consumer(tmk, kPages, kEpochs, kEpochs); });
    pull = rt.total_stats();
  }
  {
    DsmRuntime rt(cfg(2, true));
    rt.run_spmd([&](Tmk& tmk) { producer_consumer(tmk, kPages, kEpochs, kEpochs); });
    push = rt.total_stats();
  }
  EXPECT_EQ(pull.update_pushes_sent, 0u);
  // Promotion takes update_promote_epochs read epochs, then every epoch
  // rides the push path.  The reads are served from the barrier validation
  // pass's pins, so no kDiffRequest names the reader: its marks ride the
  // barrier ending each read epoch, in time for that epoch's fold.
  EXPECT_EQ(push.update_pushes_sent, kEpochs - DsmConfig{}.update_promote_epochs);
  EXPECT_GE(push.update_pages_pushed, 6u * kPages);
  // Every pushed epoch's pages come out valid (or armed and locally
  // validated); none of them pay a fetch round trip.
  EXPECT_GE(push.update_push_hits, 6u * kPages);
  EXPECT_LT(push.read_faults, pull.read_faults);
  EXPECT_LT(push.diff_fetches, pull.diff_fetches);
  EXPECT_EQ(push.update_demotions, 0u);
}

// A reader that stops touching the pushed pages demotes them at the writer:
// pushes stop within the probe cadence instead of streaming forever.
TEST(UpdateProtocol, DemotionOnUntouchedPush) {
  constexpr std::size_t kPages = 8, kEpochs = 16, kReadEpochs = 5;
  DsmStatsSnapshot s;
  {
    DsmRuntime rt(cfg(2, true));
    rt.run_spmd(
        [&](Tmk& tmk) { producer_consumer(tmk, kPages, kEpochs, kReadEpochs); });
    s = rt.total_stats();
  }
  EXPECT_GE(s.update_demotions, kPages);
  // After the reader stops at epoch 5, the next armed probe goes untouched
  // and the deny lands: pushes must stop well before the run's 16 epochs
  // could have produced (16 - 3) of them.
  EXPECT_GE(s.update_pushes_sent, 2u);
  EXPECT_LE(s.update_pushes_sent, 10u);
}

// The push path must produce byte-identical shared memory to the pull path.
TEST(UpdateProtocol, ByteIdentityPushVsPull) {
  constexpr std::size_t kPages = 6, kEpochs = 8;
  std::vector<std::uint64_t> pull, push;
  {
    DsmRuntime rt(cfg(2, false));
    rt.run_spmd(
        [&](Tmk& tmk) { producer_consumer(tmk, kPages, kEpochs, kEpochs, &pull); });
  }
  {
    DsmRuntime rt(cfg(2, true));
    rt.run_spmd(
        [&](Tmk& tmk) { producer_consumer(tmk, kPages, kEpochs, kEpochs, &push); });
  }
  ASSERT_EQ(pull.size(), push.size());
  EXPECT_EQ(pull, push);
}

// Multi-writer page: pushes from one promoted writer must not validate the
// page past another writer's un-pushed notice — the cover check keeps the
// lamport apply order intact.  Both nodes write disjoint halves of the same
// pages; a third node reads them every epoch.
TEST(UpdateProtocol, MultiWriterCoverStaysCorrect) {
  constexpr std::size_t kPages = 4, kEpochs = 8;
  std::vector<std::uint64_t> got;
  DsmRuntime rt(cfg(3, true));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    volatile std::uint64_t sink = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      if (tmk.id() < 2)
        for (std::size_t pg = 0; pg < kPages; ++pg)
          for (std::size_t k = 0; k < 4; ++k)
            base[pg * kWpp + tmk.id() * 4 + k] = e * 1000 + tmk.id() * 100 + k + 1;
      tmk.barrier();
      if (tmk.id() == 2)
        for (std::size_t pg = 0; pg < kPages; ++pg)
          sink += base[pg * kWpp + (e % 8)];
      tmk.barrier();
    }
    (void)sink;
    if (tmk.id() == 2)
      for (std::size_t pg = 0; pg < kPages; ++pg)
        for (std::size_t k = 0; k < 8; ++k) got.push_back(base[pg * kWpp + k]);
  });
  ASSERT_EQ(got.size(), kPages * 8);
  for (std::size_t pg = 0; pg < kPages; ++pg)
    for (std::size_t k = 0; k < 8; ++k) {
      const std::uint64_t writer = k / 4;
      EXPECT_EQ(got[pg * 8 + k], (kEpochs - 1) * 1000 + writer * 100 + (k % 4) + 1)
          << "page " << pg << " slot " << k;
    }
}

// GC-floor interaction: with barrier GC reclaiming diff stores, parked
// pushes that go unconsumed must survive via the GC pin path — a later
// fault is served locally even though the writer has reclaimed the diffs —
// and the byte contents stay identical to the pull path.
TEST(UpdateProtocol, GcFloorKeepsPushedDiffsServable) {
  constexpr std::size_t kPages = 4, kEpochs = 12;
  // Reader reads in bursts with idle epochs in between, so pushed pages sit
  // unconsumed across barriers (and GC floors) before a fault finally wants
  // them.
  auto workload = [&](Tmk& tmk, std::vector<std::uint64_t>* out) {
    gptr<std::uint64_t> base(kPageSize);
    volatile std::uint64_t sink = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      if (tmk.id() == 0)
        for (std::size_t pg = 0; pg < kPages; ++pg)
          for (std::size_t k = 0; k < 8; ++k)
            base[pg * kWpp + k] = e * 100000 + pg * 100 + k + 1;
      tmk.barrier();
      if (tmk.id() == 1 && e % 3 != 2)  // skip every third epoch
        for (std::size_t pg = 0; pg < kPages; ++pg)
          sink += base[pg * kWpp + (e % 8)];
      tmk.barrier();
    }
    (void)sink;
    if (out != nullptr && tmk.id() == 1)
      for (std::size_t pg = 0; pg < kPages; ++pg)
        for (std::size_t k = 0; k < 8; ++k) out->push_back(base[pg * kWpp + k]);
  };

  std::vector<std::uint64_t> pull, push;
  DsmStatsSnapshot s;
  {
    auto c = cfg(2, false);
    c.gc_at_barriers = true;
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) { workload(tmk, &pull); });
  }
  {
    auto c = cfg(2, true);
    c.gc_at_barriers = true;
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) { workload(tmk, &push); });
    s = rt.total_stats();
  }
  EXPECT_EQ(pull, push);
  // GC must have reclaimed diff bytes while pushes were flowing; the run is
  // only meaningful if both machines were actually on.
  EXPECT_GT(s.gc_diff_bytes_reclaimed, 0u);
  EXPECT_GT(s.update_pushes_sent, 0u);
}

// Pushes the per-page cache budget can never hold (oversized epoch diffs)
// must demote instead of streaming wasted bytes every epoch: the insert
// rejection sends a deny, and re-promotion backs off.
TEST(UpdateProtocol, BudgetRejectedPushesDemote) {
  constexpr std::size_t kPages = 4, kEpochs = 12;
  auto c = cfg(2, true);
  c.diff_cache_bytes_per_page = 512;  // a full-page diff can never fit
  DsmRuntime rt(c);
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> base(kPageSize);
    volatile std::uint64_t sink = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      if (tmk.id() == 0)
        for (std::size_t pg = 0; pg < kPages; ++pg)
          for (std::size_t k = 0; k < kWpp; ++k)  // dirty the whole page
            base[pg * kWpp + k] = e * 1000000 + pg * 10000 + k + 1;
      tmk.barrier();
      if (tmk.id() == 1)
        for (std::size_t pg = 0; pg < kPages; ++pg)
          sink += base[pg * kWpp + (e % kWpp)];
      tmk.barrier();
    }
    (void)sink;
  });
  const auto s = rt.total_stats();
  // The reader keeps faulting (reads are live), so the copyset looks stable
  // and the page promotes — but every pushed chunk bounces off the budget.
  // Without the rejection deny this would push every epoch to the end.
  EXPECT_GE(s.update_demotions, kPages);
  EXPECT_LE(s.update_pushes_sent, 6u);
  EXPECT_EQ(s.update_push_hits, 0u);
}

}  // namespace
}  // namespace now::tmk
