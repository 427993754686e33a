// Tmk_fork / Tmk_join tests: the OpenMP-style master/slave execution model,
// firstprivate argument blobs, and visibility across fork and join.
#include <gtest/gtest.h>

#include <cstring>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

DsmConfig cfg(std::uint32_t nodes) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  return c;
}

struct RegionArg {
  gptr<std::uint64_t> out;
  std::uint64_t scale;  // a "firstprivate" value
};

void region_fill(Tmk& tmk, const void* raw, std::size_t size) {
  ASSERT_EQ(size, sizeof(RegionArg));
  RegionArg arg;
  std::memcpy(&arg, raw, sizeof arg);
  arg.out[tmk.id()] = (tmk.id() + 1) * arg.scale;
}

TEST(ForkJoin, MasterSeesSlaveWritesAfterJoin) {
  for (std::uint32_t n : {2u, 4u, 8u}) {
    DsmRuntime rt(cfg(n));
    rt.run_master([n](Tmk& tmk) {
      auto out = tmk.alloc_array<std::uint64_t>(n);
      RegionArg arg{out, 10};
      tmk.fork(&region_fill, &arg, sizeof arg);
      region_fill(tmk, &arg, sizeof arg);  // master participates
      tmk.join();
      for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], (i + 1) * 10u) << "nodes=" << n;
    });
  }
}

void region_read_master_data(Tmk& tmk, const void* raw, std::size_t size) {
  ASSERT_EQ(size, sizeof(gptr<std::uint64_t>));
  gptr<std::uint64_t> data;
  std::memcpy(&data, raw, sizeof data);
  // The master initialized this before the fork; the fork's consistency
  // records make it visible here.
  EXPECT_EQ(data[0], 777u);
  data[1 + tmk.id()] = data[0] + tmk.id();
}

TEST(ForkJoin, SequentialInitVisibleInParallelRegion) {
  DsmRuntime rt(cfg(4));
  rt.run_master([](Tmk& tmk) {
    auto data = tmk.alloc_array<std::uint64_t>(16);
    data[0] = 777;  // sequential-phase write by the master
    tmk.fork(&region_read_master_data, &data, sizeof data);
    region_read_master_data(tmk, &data, sizeof data);
    tmk.join();
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(data[1 + i], 777u + i);
  });
}

void region_step(Tmk& tmk, const void* raw, std::size_t) {
  struct A {
    gptr<std::uint64_t> acc;
    std::uint64_t step;
  } arg;
  std::memcpy(&arg, raw, sizeof arg);
  arg.acc[tmk.id()] = arg.acc[tmk.id()] + arg.step;
}

TEST(ForkJoin, RepeatedRegionsAccumulate) {
  DsmRuntime rt(cfg(4));
  rt.run_master([](Tmk& tmk) {
    auto acc = tmk.alloc_array<std::uint64_t>(4);
    struct A {
      gptr<std::uint64_t> acc;
      std::uint64_t step;
    };
    for (std::uint64_t s = 1; s <= 5; ++s) {
      A arg{acc, s};
      tmk.fork(&region_step, &arg, sizeof arg);
      region_step(tmk, &arg, sizeof arg);
      tmk.join();
    }
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(acc[i], 15u);
  });
}

TEST(ForkJoin, ForkJoinMessageCount) {
  // A region costs (n-1) forks + (n-1) joins.
  const std::uint32_t n = 8;
  DsmRuntime rt(cfg(n));
  rt.run_master([](Tmk& tmk) {
    auto out = tmk.alloc_array<std::uint64_t>(8);
    RegionArg arg{out, 3};
    tmk.fork(&region_fill, &arg, sizeof arg);
    region_fill(tmk, &arg, sizeof arg);
    tmk.join();
  });
  const auto t = rt.traffic();
  EXPECT_EQ(t.messages_by_type[kFork], n - 1);
  EXPECT_EQ(t.messages_by_type[kJoin], n - 1);
  EXPECT_EQ(t.messages_by_type[kShutdown], n - 1);
}

void region_rewrite(Tmk& tmk, const void* raw, std::size_t) {
  struct A {
    gptr<std::uint64_t> data;
    std::uint64_t round;
  } arg;
  std::memcpy(&arg, raw, sizeof arg);
  // Each thread rewrites its slab and reads a neighbour's previous-round
  // slab, so every region both creates diffs and learns records.
  constexpr std::size_t kSlab = 256;
  const std::size_t base = tmk.id() * kSlab;
  for (std::size_t k = 0; k < kSlab; ++k)
    arg.data[base + k] = arg.round * 1000 + tmk.id() * 10 + k;
  const std::size_t peer = ((tmk.id() + 1) % tmk.nprocs()) * kSlab;
  volatile std::uint64_t sink = arg.data[peer];
  (void)sink;
}

// The fork after a join is a barrier-equivalent reclamation point: the
// master's post-join vector time rides each kFork as a GC floor, so
// fork/join-only programs (the OpenMP execution model — regions end in a
// kJoin, never a Tmk barrier) reclaim knowledge-log records and diff-store
// bytes instead of growing without bound.
TEST(ForkJoin, ForkAfterJoinReclaims) {
  struct A {
    gptr<std::uint64_t> data;
    std::uint64_t round;
  };
  constexpr std::uint64_t kRounds = 24;
  auto program = [](Tmk& tmk) {
    auto data = tmk.alloc_array<std::uint64_t>(4 * 256);
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      A arg{data, r};
      tmk.fork(&region_rewrite, &arg, sizeof arg);
      region_rewrite(tmk, &arg, sizeof arg);
      tmk.join();
    }
    for (std::uint32_t t = 0; t < 4; ++t)
      EXPECT_EQ(data[t * 256 + 5], (kRounds - 1) * 1000 + t * 10 + 5);
  };

  DsmStatsSnapshot on, off;
  std::size_t on_records = 0, off_records = 0;
  {
    auto c = cfg(4);
    c.gc_fork_join = true;
    DsmRuntime rt(c);
    rt.run_master(program);
    on = rt.total_stats();
    for (std::uint32_t n = 0; n < 4; ++n)
      on_records += rt.node(n).meta_footprint().log_records;
  }
  {
    auto c = cfg(4);
    c.gc_fork_join = false;
    DsmRuntime rt(c);
    rt.run_master(program);
    off = rt.total_stats();
    for (std::uint32_t n = 0; n < 4; ++n)
      off_records += rt.node(n).meta_footprint().log_records;
  }
  EXPECT_EQ(off.gc_records_reclaimed, 0u);
  EXPECT_GT(on.gc_records_reclaimed, 0u);
  EXPECT_GT(on.gc_diff_bytes_reclaimed, 0u);
  // With fork-point GC the logs plateau at roughly one region's worth of
  // records; without it they grow linearly with the region count.
  EXPECT_LT(4 * on_records, off_records);
}

void region_with_barrier(Tmk& tmk, const void* raw, std::size_t) {
  gptr<std::uint64_t> data;
  std::memcpy(&data, raw, sizeof data);
  data[tmk.id()] = tmk.id() + 1;
  tmk.barrier();
  // Everyone checks a neighbour's write inside the region.
  const std::uint32_t peer = (tmk.id() + 1) % tmk.nprocs();
  EXPECT_EQ(data[peer], peer + 1);
}

TEST(ForkJoin, BarriersInsideParallelRegion) {
  DsmRuntime rt(cfg(4));
  rt.run_master([](Tmk& tmk) {
    auto data = tmk.alloc_array<std::uint64_t>(4);
    tmk.fork(&region_with_barrier, &data, sizeof data);
    region_with_barrier(tmk, &data, sizeof data);
    tmk.join();
  });
}

// A slave that signals a semaphore and then ends the region ships the same
// interval record twice to the master: once through the sema grant its
// compute thread merges, and once in the kJoin its service thread merges.
// Whichever merge loses the log race sees only duplicates; it must not
// return before the winner has invalidated the written pages, or the master
// reads stale bytes (the OpenMP pipeline pattern of Sweep3D).
constexpr std::size_t kSignalPages = 128;
constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);

void region_signal_then_join(Tmk& tmk, const void* raw, std::size_t) {
  struct A {
    gptr<std::uint64_t> data;
    std::uint64_t round;
  } arg;
  std::memcpy(&arg, raw, sizeof arg);
  if (tmk.id() == 1) {
    for (std::size_t p = 0; p < kSignalPages; ++p)
      arg.data[p * kWordsPerPage] = arg.round * 1000 + p;
    tmk.sema_signal(0);
    return;  // straight into the kJoin
  }
  tmk.sema_wait(0);
  for (std::size_t p = 0; p < kSignalPages; ++p)
    ASSERT_EQ(arg.data[p * kWordsPerPage], arg.round * 1000 + p)
        << "round " << arg.round << " page " << p;
}

TEST(ForkJoin, SemaGrantRacingJoinNeverExposesStalePages) {
  DsmRuntime rt(cfg(2));
  rt.run_master([](Tmk& tmk) {
    auto data = tmk.alloc_array<std::uint64_t>(kSignalPages * kWordsPerPage);
    struct A {
      gptr<std::uint64_t> data;
      std::uint64_t round;
    };
    for (std::uint64_t r = 1; r <= 300 && !::testing::Test::HasFatalFailure();
         ++r) {
      A arg{data, r};
      tmk.fork(&region_signal_then_join, &arg, sizeof arg);
      region_signal_then_join(tmk, &arg, sizeof arg);
      tmk.join();
    }
  });
}

TEST(ForkJoin, VirtualTimeAdvancesMonotonically) {
  DsmRuntime rt(cfg(2));
  rt.run_master([](Tmk& tmk) {
    auto out = tmk.alloc_array<std::uint64_t>(2);
    RegionArg arg{out, 1};
    tmk.fork(&region_fill, &arg, sizeof arg);
    region_fill(tmk, &arg, sizeof arg);
    tmk.join();
  });
  EXPECT_GT(rt.virtual_time_ns(), 0u);
}

}  // namespace
}  // namespace now::tmk
