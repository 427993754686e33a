// Node-crash chaos + barrier-aligned checkpoint/rollback recovery.
//
// The contract under test: with checkpointing on, a node scripted to die at
// *any* synchronization point — barrier arrival, mid lock chain, inside an
// on-demand GC exchange — is detected by the reliability channel (retransmit
// exhaustion + keepalive probes), the cluster rolls back to the last durable
// barrier epoch, replays, and finishes with final shared memory
// byte-identical to a crash-free run.  With checkpointing off the same crash
// is a clean reported failure (RunReport), not a hang or an abort.  And the
// checkpoints themselves are incremental: a mostly-read-only heap costs a
// few pages per epoch, not a full image.
//
// Workloads here are restart-aware the way a recoverable TreadMarks program
// must be: all progress state lives in shared memory (a round counter
// advanced just before each round's barrier), initialization is gated on
// Tmk::resume_epoch() == 0, and every round's writes are idempotent
// functions of (round, node) — or commutative lock-protected accumulations —
// so a replay from any durable epoch reproduces the crash-free bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/worker_pool.h"
#include "tmk/tmk.h"

namespace now::tmk {
namespace {

constexpr std::size_t kWpp = kPageSize / sizeof(std::uint64_t);
constexpr std::uint32_t kNodes = 4;

DsmConfig crash_cfg() {
  DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = 1 << 20;
  c.time.cpu_scale = 0.0;
  // Deterministic byte-identity legs: pin the wire perfect; crash legs turn
  // the channel on implicitly (crash_enabled forces it).
  c.net_fault = {};
  c.net_reliable = false;
  // Detection latency is host time: the default 24-retry exhaustion with
  // exponential backoff takes minutes.  3 retries keep the verdict under a
  // couple hundred milliseconds without weakening the protocol under test.
  c.net_max_retries = 3;
  // Pinned off so the crash-free reference runs stay checkpoint-free under
  // the CI leg that makes TMK_CKPT_EVERY=2 the session default; the legs
  // that checkpoint say so explicitly.
  c.ckpt_every = 0;
  return c;
}

// Checkpoint cadence for the recovery legs: every other barrier, unless a
// session default (TMK_CKPT_EVERY) asks for a different one — the CI crash
// leg re-runs this sweep with checkpoints at every barrier.  Legs whose
// assertions count epochs at a fixed cadence pin their own value instead.
std::uint32_t ckpt_cadence() {
  const std::uint32_t env = DsmConfig{}.ckpt_every;
  return env != 0 ? env : 2;
}

// The restart-aware chaos workload.  Layout (fixed offsets, allocator-free):
//   page 1: ctl[0] = fully completed rounds (progress), ctl[1] = lock-sum
//   pages 2..2+kNodes-1: node i's data page
// Each round: node i rewrites a window of its data page with values that are
// pure functions of (round, node, slot); everyone adds (r+1)*(id+1) to the
// shared sum under lock 1; node 0 advances the progress word; barrier.
// Round 0 additionally banks a sema token (sema 99) that only the *last*
// round consumes — any checkpoint in between must carry the count across a
// rollback or the final wait hangs.
void chaos_rounds(Tmk& tmk, std::size_t rounds, std::vector<std::uint64_t>* mem) {
  gptr<std::uint64_t> ctl(kPageSize);
  gptr<std::uint64_t> data(2 * kPageSize);
  const std::uint32_t id = tmk.id();
  // Checkpointed progress: 0 on a fresh heap, the durable round count after
  // a rollback (rehydrated pages are resident before any thread runs).
  const std::size_t start = ctl[0];
  if (start == 0 && id == 0) tmk.sema_signal(99);  // the banked token
  tmk.barrier();
  for (std::size_t r = start; r < rounds; ++r) {
    for (std::size_t k = 0; k < 24; ++k)
      data[id * kWpp + (r * 7 + k) % kWpp] =
          (r + 1) * 1000003u + id * 131u + k;
    tmk.lock_acquire(1);
    ctl[1] += (r + 1) * (id + 1);
    if (id == 0) ctl[0] = r + 1;
    tmk.lock_release(1);
    if (r + 1 == rounds && id == 0) tmk.sema_wait(99);  // banked in round 0
    tmk.barrier();
  }
  if (id == 0 && mem != nullptr) {
    mem->clear();
    mem->push_back(ctl[0]);
    mem->push_back(ctl[1]);
    for (std::size_t w = 0; w < kNodes * kWpp; ++w) mem->push_back(data[w]);
  }
}

struct RunResult {
  RunReport report;
  DsmStatsSnapshot stats;
  std::vector<std::uint64_t> mem;
};

RunResult run_chaos(DsmConfig c, std::size_t rounds) {
  RunResult out;
  DsmRuntime rt(c);
  out.report =
      rt.run_spmd([&](Tmk& tmk) { chaos_rounds(tmk, rounds, &out.mem); });
  out.stats = rt.total_stats();
  return out;
}

// Crash-free reference, no knobs: the bytes every recovery leg must hit.
std::vector<std::uint64_t> reference_mem(std::size_t rounds) {
  RunResult ref = run_chaos(crash_cfg(), rounds);
  EXPECT_TRUE(ref.report.completed);
  EXPECT_FALSE(ref.report.node_down);
  EXPECT_EQ(ref.stats.recoveries, 0u);
  EXPECT_EQ(ref.stats.ckpt_epochs, 0u);
  return ref.mem;
}

// The tentpole acceptance sweep: kill the victim at sync-point indices that
// land on lock acquires, lock releases and barrier arrivals, early (before
// the first durable epoch — rollback to scratch) through late (several
// checkpoints banked).  Every leg must detect, roll back, replay and match
// the crash-free bytes exactly.
//
// Index map for this workload on a non-zero victim (kNodes=4, rounds=10):
// 0 = initial barrier, then per round r: acquire = 3r+1, release = 3r+2,
// barrier arrival = 3r+3.  Index 0 is excluded by design, not oversight: a
// node that dies before ever exchanging a packet is indistinguishable from
// one that never booted — detection starts with first contact (README,
// "Failure model").
TEST(Crash, SweepOverSyncPointsRecoversByteIdentical) {
  constexpr std::size_t kRounds = 10;
  const std::vector<std::uint64_t> ref = reference_mem(kRounds);
  ASSERT_EQ(ref.size(), 2 + kNodes * kWpp);
  EXPECT_EQ(ref[0], kRounds);
  // Sum of (r+1)*(id+1): rounds triangle x node triangle.
  EXPECT_EQ(ref[1], (kRounds * (kRounds + 1) / 2) * (kNodes * (kNodes + 1) / 2));

  const std::uint32_t sweep[] = {1, 2, 3, 8, 13, 15, 22, 27};
  for (std::uint32_t at : sweep) {
    DsmConfig c = crash_cfg();
    c.ckpt_every = ckpt_cadence();
    c.net_crash_node = 2;
    c.net_crash_at = at;
    RunResult r = run_chaos(c, kRounds);
    EXPECT_TRUE(r.report.completed) << "crash_at " << at;
    EXPECT_TRUE(r.report.node_down) << "crash_at " << at;
    EXPECT_EQ(r.report.victim, 2u) << "crash_at " << at;
    EXPECT_EQ(r.report.recoveries, 1u) << "crash_at " << at;
    EXPECT_EQ(r.stats.recoveries, 1u) << "crash_at " << at;
    EXPECT_GT(r.stats.ckpt_epochs, 0u) << "crash_at " << at;
    EXPECT_EQ(r.mem, ref) << "crash_at " << at;
  }
}

// Killing the barrier root / lock manager / allocation server (node 0) is
// the worst case: every manager role reboots from the checkpoint image.
TEST(Crash, RootDeathRecoversByteIdentical) {
  constexpr std::size_t kRounds = 8;
  const std::vector<std::uint64_t> ref = reference_mem(kRounds);

  for (std::uint32_t at : {5u, 12u}) {
    DsmConfig c = crash_cfg();
    c.ckpt_every = ckpt_cadence();
    c.net_crash_node = 0;
    c.net_crash_at = at;
    RunResult r = run_chaos(c, kRounds);
    EXPECT_TRUE(r.report.completed) << "crash_at " << at;
    EXPECT_EQ(r.report.victim, 0u) << "crash_at " << at;
    EXPECT_EQ(r.report.recoveries, 1u) << "crash_at " << at;
    EXPECT_EQ(r.mem, ref) << "crash_at " << at;
  }
}

// With checkpointing off the same crash must be a clean reported failure:
// run_spmd returns (no hang), completed=false, and the runtime stays
// destructible.  This is the ISSUE's "clean reported failure" acceptance leg.
TEST(Crash, CkptOffCrashReportsCleanFailure) {
  DsmConfig c = crash_cfg();
  c.ckpt_every = 0;
  c.net_crash_node = 1;
  c.net_crash_at = 7;
  RunResult r = run_chaos(c, /*rounds=*/10);
  EXPECT_FALSE(r.report.completed);
  EXPECT_TRUE(r.report.node_down);
  EXPECT_EQ(r.report.victim, 1u);
  EXPECT_EQ(r.report.recoveries, 0u);
  EXPECT_EQ(r.stats.recoveries, 0u);
  EXPECT_EQ(r.stats.ckpt_epochs, 0u);
}

// Checkpointing alone (no crash) must not perturb program results, and its
// accounting must be visible: durable epochs counted at the root, staged
// bytes and incremental skips totted up per node.
TEST(Crash, CkptOnCrashFreeRunMatchesAndCounts) {
  constexpr std::size_t kRounds = 10;
  const std::vector<std::uint64_t> ref = reference_mem(kRounds);

  DsmConfig c = crash_cfg();
  c.ckpt_every = 2;
  RunResult r = run_chaos(c, kRounds);
  EXPECT_TRUE(r.report.completed);
  EXPECT_FALSE(r.report.node_down);
  EXPECT_EQ(r.report.recoveries, 0u);
  EXPECT_EQ(r.mem, ref);
  // Barrier epochs: 1 initial + kRounds = 11; every 2nd is durable.
  EXPECT_EQ(r.stats.ckpt_epochs, (1 + kRounds) / 2);
  EXPECT_GT(r.stats.ckpt_bytes_written, 0u);
  EXPECT_EQ(r.stats.recoveries, 0u);
  EXPECT_EQ(r.stats.rollback_epochs_lost, 0u);
}

// Incremental checkpointing, the ISSUE's efficiency criterion: a heap whose
// working set is written once and then left mostly read-only must cost a few
// pages per epoch after the first checkpoint, not a full image each time.
TEST(Crash, IncrementalCheckpointsStayNearWriteFootprint) {
  constexpr std::size_t kArrPages = 48;
  constexpr std::size_t kRounds = 13;  // 14 abs epochs -> 7 durable at every=2

  DsmConfig c = crash_cfg();
  c.ckpt_every = 2;
  DsmRuntime rt(c);
  RunReport report = rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> ctl(kPageSize);
    gptr<std::uint64_t> arr(2 * kPageSize);
    const std::uint32_t id = tmk.id();
    const std::size_t start = ctl[0];
    if (start == 0 && id == 0)  // init: dirty the whole array once
      for (std::size_t p = 0; p < kArrPages; ++p)
        for (std::size_t w = 0; w < kWpp; w += 8) arr[p * kWpp + w] = p + w;
    tmk.barrier();
    for (std::size_t r = start; r < kRounds; ++r) {
      // Mostly read-only: everyone scans, only node (r % kNodes) rewrites
      // two pages' worth of words.
      std::uint64_t acc = 0;
      for (std::size_t p = 0; p < kArrPages; p += 4) acc += arr[p * kWpp];
      if (id == r % kNodes)
        for (std::size_t w = 0; w < 2 * kWpp; w += 4)
          arr[(r % kArrPages) * kWpp + w] = acc + r * 17 + w;
      tmk.lock_acquire(1);
      if (id == 0) ctl[0] = r + 1;
      ctl[1] += acc ^ (r + 1);
      tmk.lock_release(1);
      tmk.barrier();
    }
  });
  EXPECT_TRUE(report.completed);
  const DsmStatsSnapshot s = rt.total_stats();
  EXPECT_EQ(s.ckpt_epochs, (1 + kRounds) / 2);

  // The durable image covers the touched footprint (~50 pages), not the
  // 256-page heap.
  const std::uint64_t image = rt.checkpoint().durable_page_bytes();
  EXPECT_GE(image, kArrPages * kPageSize);
  EXPECT_LE(image, (kArrPages + 12) * kPageSize);

  // Incremental: 7 full images would be ~350 pages.  The first epoch pays
  // the footprint once; each later epoch stages only the few pages the
  // round actually dirtied.  3x one image is a generous ceiling that a
  // non-incremental implementation blows past immediately.
  EXPECT_LT(s.ckpt_bytes_written, 3 * image);
  EXPECT_GT(s.ckpt_pages_incremental, 4 * s.ckpt_epochs);
}

// Crash *inside the on-demand GC exchange*: a barrier-sparse lock chain under
// a tiny metadata ceiling keeps exchanges in flight, and the sweep indices
// land on the victim's GC sites (parked-floor applies, exchange initiations)
// interleaved with its lock chain.  Recovery must replay to the same bytes
// with the exchange machinery live the whole time.
TEST(Crash, DuringCeilingGcExchangeRecoversByteIdentical) {
  constexpr std::size_t kRounds = 6;
  constexpr std::size_t kCs = 12;  // critical sections per round per node

  auto workload = [&](Tmk& tmk, std::vector<std::uint64_t>* mem) {
    gptr<std::uint64_t> ctl(kPageSize);
    gptr<std::uint64_t> data(2 * kPageSize);
    const std::uint32_t id = tmk.id();
    const std::size_t start = ctl[0];
    tmk.barrier();
    for (std::size_t r = start; r < kRounds; ++r) {
      for (std::size_t j = 0; j < kCs; ++j) {
        tmk.lock_acquire(0);
        ctl[1] += (r * kCs + j + 1) * (id + 1);
        data[id * kWpp + (r * kCs + j) % kWpp] = r * 1000 + j * 10 + id;
        tmk.lock_release(0);
      }
      tmk.lock_acquire(1);
      if (id == 0) ctl[0] = r + 1;
      tmk.lock_release(1);
      tmk.barrier();
    }
    if (id == 0 && mem != nullptr) {
      mem->clear();
      mem->push_back(ctl[0]);
      mem->push_back(ctl[1]);
      for (std::size_t w = 0; w < kNodes * kWpp; ++w) mem->push_back(data[w]);
    }
  };

  auto gc_cfg = [&] {
    DsmConfig c = crash_cfg();
    c.meta_ceiling_bytes = 4 * 1024;  // exchanges fire throughout the chain
    // Barrier GC would reclaim the chain's metadata before it ever reaches
    // the ceiling; with it off, only the on-demand exchange reclaims between
    // barriers — the checkpoint pass rides the same barriers either way.
    c.gc_at_barriers = false;
    return c;
  };

  std::vector<std::uint64_t> ref;
  {
    DsmRuntime rt(gc_cfg());
    RunReport rep = rt.run_spmd([&](Tmk& tmk) { workload(tmk, &ref); });
    EXPECT_TRUE(rep.completed);
    // The crash sweep below only means "during GC exchange" if exchanges
    // actually run in this window.
    EXPECT_GT(rt.total_stats().gc_exchanges, 0u);
  }

  for (std::uint32_t at : {9u, 20u, 33u, 47u}) {
    DsmConfig c = gc_cfg();
    c.ckpt_every = ckpt_cadence();
    c.net_crash_node = 3;
    c.net_crash_at = at;
    std::vector<std::uint64_t> mem;
    DsmRuntime rt(c);
    RunReport rep = rt.run_spmd([&](Tmk& tmk) { workload(tmk, &mem); });
    EXPECT_TRUE(rep.completed) << "crash_at " << at;
    EXPECT_TRUE(rep.node_down) << "crash_at " << at;
    EXPECT_EQ(rep.victim, 3u) << "crash_at " << at;
    EXPECT_EQ(rep.recoveries, 1u) << "crash_at " << at;
    EXPECT_EQ(mem, ref) << "crash_at " << at;
  }
}

// Runtime threads are parked workers that later runtimes reuse
// (common/worker_pool.h).  A crash unwinds the victim's threads and the
// survivors' — a survivor blocked in a fault's fetch unwinds out of the
// SIGSEGV handler with SIGSEGV still blocked — so every reused worker must
// start its next task with a clean signal mask: a fresh runtime after the
// crash legs runs a fault-heavy program to completion, on reused workers
// only.
TEST(Crash, FreshRuntimeAfterCrashesFaultsOnReusedWorkers) {
  constexpr std::size_t kRounds = 6;
  const std::vector<std::uint64_t> ref = reference_mem(kRounds);
  for (std::uint32_t at : {2u, 7u, 11u}) {
    DsmConfig c = crash_cfg();
    c.ckpt_every = ckpt_cadence();
    c.net_crash_node = 1;
    c.net_crash_at = at;
    RunResult r = run_chaos(c, kRounds);
    EXPECT_TRUE(r.report.node_down) << "crash_at " << at;
    EXPECT_EQ(r.mem, ref) << "crash_at " << at;
  }

  // Every node rewrites its run of every page, then reads everyone's runs:
  // each round faults every page on every node (read, then write upgrade).
  constexpr std::size_t kPages = 32;
  constexpr std::size_t kRun = kWpp / kNodes;
  constexpr std::size_t kFaultRounds = 4;
  const std::uint64_t started = PooledThread::threads_started();
  std::vector<std::uint64_t> sums(kNodes, 0);
  DsmRuntime rt(crash_cfg());
  const RunReport rep = rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> heap(kPageSize);
    const std::uint32_t id = tmk.id();
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < kFaultRounds; ++r) {
      for (std::size_t p = 0; p < kPages; ++p)
        for (std::size_t k = 0; k < kRun; ++k)
          heap[p * kWpp + id * kRun + k] = r * 1000000 + p * 1000 + id * 100 + k;
      tmk.barrier();
      for (std::size_t p = 0; p < kPages; ++p)
        for (std::size_t w = 0; w < kNodes * kRun; ++w) sum += heap[p * kWpp + w];
      tmk.barrier();
    }
    sums[id] = sum;
  });
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(PooledThread::threads_started(), started);  // reused workers only
  EXPECT_GE(rt.total_stats().read_faults, kNodes * kPages);
  std::uint64_t want = 0;
  for (std::size_t r = 0; r < kFaultRounds; ++r)
    for (std::size_t p = 0; p < kPages; ++p)
      for (std::uint32_t n = 0; n < kNodes; ++n)
        for (std::size_t k = 0; k < kRun; ++k)
          want += r * 1000000 + p * 1000 + n * 100 + k;
  for (std::uint32_t n = 0; n < kNodes; ++n) EXPECT_EQ(sums[n], want) << "node " << n;
}

// Back-to-back runtimes hand their threads on: after the first, the pool
// already holds every worker the next one needs.
TEST(Crash, BackToBackRuntimesCreateOneRuntimesThreads) {
  auto one_runtime = [] {
    DsmRuntime rt(crash_cfg());
    rt.run_spmd([](Tmk& tmk) { tmk.barrier(); });
  };
  const std::uint64_t before = PooledThread::threads_started();
  one_runtime();
  const std::uint64_t warmed = PooledThread::threads_started();
  for (int i = 0; i < 50; ++i) one_runtime();
  // One runtime needs a service and a compute thread per node.
  EXPECT_LE(PooledThread::threads_started() - before, 2 * kNodes);
  EXPECT_EQ(PooledThread::threads_started(), warmed);
}

}  // namespace
}  // namespace now::tmk
