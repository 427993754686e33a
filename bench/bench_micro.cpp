// Section 6's basic performance characteristics:
//   "TreadMarks uses the UDP/IP protocol ... The round-trip latency for a
//    small message ... The time to acquire a lock varies from ... to ...
//    The time for an eight processor barrier ... The time to obtain a diff
//    varies from ... to ...  MPICH uses the TCP protocol.  The empty message
//    round trip time is ...  The maximal bandwidth is ... MB/s."
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "omp/omp.h"
#include "tmk/diff.h"

namespace {
// Micro benches isolate the protocol cost model: application compute is not
// part of what Section 6 reports, so the meter is disabled.
now::tmk::DsmConfig micro_dsm(std::uint32_t nodes) {
  auto c = now::bench::dsm_cfg(nodes);
  c.time.cpu_scale = 0.0;
  return c;
}
now::mpi::MpiConfig micro_mpi(std::uint32_t ranks) {
  auto c = now::bench::mpi_cfg(ranks);
  c.time.cpu_scale = 0.0;
  return c;
}

// ---------------------------------------------------------------------------
// Host-side diff-engine throughput: the twin/page scan is the hottest real
// loop under the simulator, so its trajectory is tracked here (and emitted as
// JSON with --json for machines to diff across PRs).
// ---------------------------------------------------------------------------

struct DiffCase {
  const char* name;
  std::vector<std::uint8_t> twin, cur;
};

std::vector<DiffCase> diff_cases() {
  using now::tmk::kPageSize;
  now::Rng rng(42);
  std::vector<std::uint8_t> base(kPageSize);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next_u64());

  DiffCase sparse{"sparse-dirty", base, base};  // 16 scattered 4-byte stores
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t k = 0; k < 4; ++k) sparse.cur[i * 256 + 32 + k] ^= 0x5a;

  DiffCase dense{"dense-dirty", base, base};  // half the page rewritten
  for (std::size_t i = 1024; i < 1024 + 2048; ++i) dense.cur[i] ^= 0xa5;

  DiffCase clean{"clean-page", base, base};

  return {sparse, dense, clean};
}

using DiffFn = now::tmk::DiffBytes (*)(const std::uint8_t*, const std::uint8_t*,
                                       std::size_t, std::size_t);

struct DiffThroughput {
  std::string name;
  double scalar_mbps, fast_mbps;  // MB of page scanned per second, best rep
  double speedup;                 // median over reps of scalar time / fast time
};

// The scalar reference and the fast path, timed in alternating reps.  Host
// drift (frequency steps, a neighbor's burst) then lands on both sides of a
// rep alike instead of on one whole block, and the gated speedup is the
// median of the per-rep ratios.  The throughputs are best-of-reps: the
// minimum time is the one least polluted by scheduler noise.
DiffThroughput diff_throughput(const DiffCase& c) {
  using now::tmk::kPageSize;
  constexpr int kWarmup = 500, kReps = 11, kItersPerRep = 2500;
  std::size_t sink = 0;
  const auto time_rep = [&](DiffFn fn, int iters) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
      sink += fn(c.twin.data(), c.cur.data(), kPageSize, 8).size();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  time_rep(&now::tmk::diff_create_scalar, kWarmup);
  time_rep(&now::tmk::diff_create, kWarmup);
  double best_scalar = 1e30, best_fast = 1e30;
  std::vector<double> ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    const double scalar = time_rep(&now::tmk::diff_create_scalar, kItersPerRep);
    const double fast = time_rep(&now::tmk::diff_create, kItersPerRep);
    best_scalar = std::min(best_scalar, scalar);
    best_fast = std::min(best_fast, fast);
    ratios.push_back(scalar / fast);
  }
  // Keep the result observable so the loops cannot be optimized away.
  if (sink == static_cast<std::size_t>(-1)) std::abort();
  std::nth_element(ratios.begin(), ratios.begin() + kReps / 2, ratios.end());
  const double mb = static_cast<double>(kItersPerRep) * kPageSize / (1024.0 * 1024.0);
  return {c.name, mb / best_scalar, mb / best_fast, ratios[kReps / 2]};
}

std::vector<DiffThroughput> measure_diff_throughput() {
  std::vector<DiffThroughput> out;
  for (const DiffCase& c : diff_cases()) out.push_back(diff_throughput(c));
  return out;
}

// ---------------------------------------------------------------------------
// Strided-sweep fetch amortization: the Sweep3D/FFT-transpose access shape —
// one node dirties a plane of pages, a neighbor then walks them in page
// order.  Message count, not bandwidth, dominates NOW performance (Table 2),
// so the multi-page prefetch window's job is to cut kDiffRequests.  The
// notices travel by semaphore: after a barrier the validation pass has
// already fetched the whole plane in one request, leaving nothing to fault.
// ---------------------------------------------------------------------------

struct SweepResult {
  std::uint64_t diff_requests = 0;
  std::uint64_t read_faults = 0;
  std::uint64_t validated = 0;  // neighbors applied on arrival (no fault)
  std::uint64_t prefetch_hits = 0;
  double virtual_us = 0;
};

// ---------------------------------------------------------------------------
// Producer-consumer push vs pull: the epoch-stable sharing shape the adaptive
// update protocol targets — one node rewrites the same pages every epoch, a
// neighbor reads them every epoch.  Under the invalidate protocol every epoch
// re-pays the post-barrier faults and the barrier's validation round trips;
// with update mode on the writer's barrier-time push makes the pages come
// out of the barrier valid.
// ---------------------------------------------------------------------------

struct PushPullResult {
  std::uint64_t read_faults = 0;
  std::uint64_t diff_requests = 0;
  std::uint64_t messages = 0;
  std::uint64_t pushes = 0;
  std::uint64_t push_hits = 0;
  double virtual_us = 0;
};

PushPullResult producer_consumer(bool update_on, std::size_t pages,
                                 std::size_t epochs) {
  auto c = micro_dsm(2);
  c.update_mode = update_on;
  const std::size_t words_per_page = now::tmk::kPageSize / sizeof(std::uint64_t);
  now::tmk::DsmRuntime rt(c);
  rt.run_spmd([pages, epochs, words_per_page](now::tmk::Tmk& tmk) {
    now::tmk::gptr<std::uint64_t> base(now::tmk::kPageSize);
    volatile std::uint64_t sink = 0;
    for (std::size_t e = 0; e < epochs; ++e) {
      if (tmk.id() == 0)
        for (std::size_t pg = 0; pg < pages; ++pg)
          for (std::size_t k = 0; k < 32; ++k)
            base[pg * words_per_page + k] = e * 1000000 + pg * 100 + k;
      tmk.barrier();
      if (tmk.id() == 1)
        for (std::size_t pg = 0; pg < pages; ++pg)
          sink += base[pg * words_per_page + (e % 32)];
      tmk.barrier();
    }
    (void)sink;
  });
  const auto s = rt.total_stats();
  PushPullResult r;
  r.read_faults = s.read_faults;
  r.diff_requests = rt.traffic().messages_by_type[now::tmk::kDiffRequest];
  r.messages = rt.traffic().messages;
  r.pushes = s.update_pushes_sent;
  r.push_hits = s.update_push_hits;
  r.virtual_us = rt.virtual_time_us();
  return r;
}

// ---------------------------------------------------------------------------
// Migratory lock chain push vs pull: N nodes round-robin a bound update (the
// TSP branch-and-bound shape — acquire, read + improve the bound, release)
// with no barriers in the loop, so the grant chain is the only consistency
// carrier.  Under pull every handoff pays the trap and a kDiffRequest round
// trip per protected page; with lock_push_bytes set the grant piggybacks the
// chain's accumulated diffs and the next holder's acquire validates the
// pages up front.
// ---------------------------------------------------------------------------

struct LockMigResult {
  std::uint64_t read_faults = 0;
  std::uint64_t diff_requests = 0;
  std::uint64_t messages = 0;
  std::uint64_t grants = 0;
  std::uint64_t pushes = 0;
  std::uint64_t push_hits = 0;
  double virtual_us = 0;
};

LockMigResult lock_migration(bool push_on, std::uint32_t nodes,
                             std::size_t rounds) {
  auto c = micro_dsm(nodes);
  c.lock_push_bytes = push_on ? 16 * 1024 : 0;
  const std::size_t wpp = now::tmk::kPageSize / sizeof(std::uint64_t);
  now::tmk::DsmRuntime rt(c);
  rt.run_spmd([rounds, wpp](now::tmk::Tmk& tmk) {
    now::tmk::gptr<std::uint64_t> bound(now::tmk::kPageSize);
    if (tmk.id() == 0) {
      tmk.lock_acquire(0);
      bound[0] = 1;
      bound[wpp] = 1;
      tmk.lock_release(0);
    }
    tmk.barrier();
    for (std::size_t r = 0; r < rounds; ++r) {
      tmk.lock_acquire(0);
      const std::uint64_t v = bound[0];
      bound[0] = v + 1;                     // the bound page
      bound[wpp + 1 + (v % 8)] = v * 100;   // a second protected state page
      tmk.lock_release(0);
      // Let the service thread process queued forwards so the lock actually
      // migrates instead of degenerating into cached re-acquires.
      std::this_thread::yield();
    }
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  LockMigResult r;
  r.read_faults = s.read_faults;
  r.diff_requests = rt.traffic().messages_by_type[now::tmk::kDiffRequest];
  r.messages = rt.traffic().messages;
  r.grants = rt.traffic().messages_by_type[now::tmk::kLockGrant];
  r.pushes = s.lock_pushes_sent;
  r.push_hits = s.lock_push_hits;
  r.virtual_us = rt.virtual_time_us();
  return r;
}

SweepResult strided_sweep(std::size_t prefetch_pages, std::size_t pages) {
  auto c = micro_dsm(2);
  c.prefetch_pages = prefetch_pages;
  const std::size_t words_per_page = now::tmk::kPageSize / sizeof(std::uint64_t);
  now::tmk::DsmRuntime rt(c);
  rt.run_spmd([pages, words_per_page](now::tmk::Tmk& tmk) {
    now::tmk::gptr<std::uint64_t> base(now::tmk::kPageSize);
    if (tmk.id() == 0) {
      for (std::size_t pg = 0; pg < pages; ++pg)
        for (std::size_t k = 0; k < 32; ++k)
          base[pg * words_per_page + k] = pg * 100 + k;
      tmk.sema_signal(0);
    } else {
      tmk.sema_wait(0);
      volatile std::uint64_t sink = 0;
      for (std::size_t pg = 0; pg < pages; ++pg)
        sink += base[pg * words_per_page + (pg % 32)];
      (void)sink;
    }
    tmk.barrier();
  });
  SweepResult r;
  r.diff_requests = rt.traffic().messages_by_type[now::tmk::kDiffRequest];
  const auto s = rt.total_stats();
  r.read_faults = s.read_faults;
  r.validated = s.prefetch_pages_validated;
  r.prefetch_hits = s.prefetch_hits;
  r.virtual_us = rt.virtual_time_us();
  return r;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace now;
  using namespace now::bench;
  clear_tmk_env();

  bool json = false;
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--json")) json = true;

  if (json) {
    // Machine-readable trajectory record: host-side diff engine throughput,
    // plus the (deterministic, virtual-time) producer-consumer push-vs-pull
    // protocol win.
    const auto rows = measure_diff_throughput();
    std::cout << "{\n  \"diff_create_mbps\": {\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::cout << "    \"" << rows[i].name << "\": {\"scalar\": "
                << Table::fmt(rows[i].scalar_mbps, 1)
                << ", \"fast\": " << Table::fmt(rows[i].fast_mbps, 1)
                << ", \"speedup\": " << Table::fmt(rows[i].speedup, 2) << "}"
                << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    const PushPullResult pull = producer_consumer(false, 16, 12);
    const PushPullResult push = producer_consumer(true, 16, 12);
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    std::cout << "  },\n  \"update_push\": {\n"
              << "    \"pull\": {\"read_faults\": " << pull.read_faults
              << ", \"diff_requests\": " << pull.diff_requests
              << ", \"messages\": " << pull.messages << "},\n"
              << "    \"push\": {\"read_faults\": " << push.read_faults
              << ", \"diff_requests\": " << push.diff_requests
              << ", \"messages\": " << push.messages
              << ", \"pushes_sent\": " << push.pushes
              << ", \"push_hits\": " << push.push_hits << "},\n"
              << "    \"fault_reduction\": "
              << Table::fmt(ratio(pull.read_faults, push.read_faults), 2)
              << ",\n    \"message_reduction\": "
              << Table::fmt(ratio(pull.messages, push.messages), 2) << "\n"
              << "  },\n";
    // Migratory lock chain (4 nodes round-robin a bound update).  Handoff
    // counts vary a little with host scheduling, so the gated numbers are
    // normalized per kLockGrant: the push leg's own messages per grant, and
    // the pull/push fault ratio.
    const LockMigResult lpull = lock_migration(false, 4, 24);
    const LockMigResult lpush = lock_migration(true, 4, 24);
    const auto per_grant = [](std::uint64_t v, std::uint64_t grants) {
      return grants > 0 ? static_cast<double>(v) / static_cast<double>(grants)
                        : 0.0;
    };
    const auto norm_ratio = [&](std::uint64_t a, std::uint64_t ag,
                                std::uint64_t b, std::uint64_t bg) {
      const double denom = per_grant(b, bg);
      return denom > 0 ? per_grant(a, ag) / denom : 0.0;
    };
    std::cout << "  \"lock_push\": {\n"
              << "    \"pull\": {\"read_faults\": " << lpull.read_faults
              << ", \"diff_requests\": " << lpull.diff_requests
              << ", \"messages\": " << lpull.messages
              << ", \"grants\": " << lpull.grants << "},\n"
              << "    \"push\": {\"read_faults\": " << lpush.read_faults
              << ", \"diff_requests\": " << lpush.diff_requests
              << ", \"messages\": " << lpush.messages
              << ", \"grants\": " << lpush.grants
              << ", \"pushes_sent\": " << lpush.pushes
              << ", \"push_hits\": " << lpush.push_hits
              << ", \"messages_per_grant\": "
              << Table::fmt(per_grant(lpush.messages, lpush.grants), 2) << "},\n"
              << "    \"fault_reduction\": "
              << Table::fmt(norm_ratio(lpull.read_faults, lpull.grants,
                                       lpush.read_faults, lpush.grants), 2)
              << ",\n    \"message_reduction\": "
              << Table::fmt(norm_ratio(lpull.messages, lpull.grants,
                                       lpush.messages, lpush.grants), 2)
              << "\n  },\n  \"page_size\": " << tmk::kPageSize << "\n}\n";
    return 0;
  }

  std::cout << "== Section 6: basic operation costs (8 simulated workstations) ==\n";
  Table t({"Operation", "Cost", "Unit"});

  // Small-message UDP round trip: sema signal is exactly two small messages.
  {
    tmk::DsmRuntime rt(micro_dsm(2));
    rt.run_spmd([](tmk::Tmk& tmk) {
      if (tmk.id() == 0) {
        for (int i = 0; i < 10; ++i) tmk.sema_signal(0);
      }
    });
    const double us = rt.node(0).clock().now_us() / 10.0;
    t.add_row({"UDP small-message round trip (sema signal+ack)",
               Table::fmt(us, 1), "us"});
  }

  // Remote lock acquisition (3 messages: request, forward, grant).
  {
    tmk::DsmRuntime rt(micro_dsm(8));
    rt.run_spmd([](tmk::Tmk& tmk) {
      // Bounce a lock between nodes 1 and 2 (manager on another node).
      for (int i = 0; i < 10; ++i) {
        if (tmk.id() == 1 + (i % 2)) {
          tmk.lock_acquire(3);
          tmk.lock_release(3);
        }
        tmk.barrier();
      }
    });
    // Lower bound: cached re-acquire is free.
    t.add_row({"lock acquire (cached)", "~0", "us"});
    t.add_row({"lock acquire (remote, 3 messages)", Table::fmt(3 * 65.0 + 25.0, 0),
               "us (modeled)"});
  }

  // Eight-processor barrier.
  {
    tmk::DsmRuntime rt(micro_dsm(8));
    rt.run_spmd([](tmk::Tmk& tmk) {
      for (int i = 0; i < 10; ++i) tmk.barrier();
    });
    t.add_row({"8-processor barrier", Table::fmt(rt.virtual_time_us() / 10.0, 0), "us"});
  }

  // Diff cost: one page modified, fetched by the other node.
  {
    tmk::DsmRuntime rt(micro_dsm(2));
    rt.run_spmd([](tmk::Tmk& tmk) {
      tmk::gptr<std::uint64_t> p(tmk::kPageSize);
      if (tmk.id() == 0)
        for (int i = 0; i < 512; ++i) p[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i);
      tmk.barrier();
      if (tmk.id() == 1) {
        volatile std::uint64_t sink = *p;  // force the page fetch
        (void)sink;
      }
    });
    const auto s = rt.total_stats();
    t.add_row({"diff create (full page)", Table::fmt(20.0 + 12.0 * 4.0, 0), "us (modeled)"});
    t.add_row({"diffs created in probe", Table::fmt(s.diffs_created), "count"});
  }

  // MPI TCP empty round trip and bandwidth.
  {
    mpi::MpiRuntime rt(micro_mpi(2));
    rt.run([](mpi::Comm& c) {
      std::uint8_t b = 0;
      for (int i = 0; i < 10; ++i) {
        if (c.rank() == 0) {
          c.send(&b, 1, 1, 0);
          c.recv(&b, 1, 1, 0);
        } else {
          c.recv(&b, 1, 0, 0);
          c.send(&b, 1, 0, 0);
        }
      }
    });
    t.add_row({"TCP empty-message round trip", Table::fmt(rt.virtual_time_us() / 10.0, 0), "us"});
  }
  {
    mpi::MpiRuntime rt(micro_mpi(2));
    constexpr std::size_t kBytes = 4 << 20;
    rt.run([](mpi::Comm& c) {
      std::vector<std::uint8_t> buf(kBytes);
      if (c.rank() == 0) c.send(buf.data(), buf.size(), 1, 0);
      else c.recv(buf.data(), buf.size(), 0, 0);
    });
    const double mbps = static_cast<double>(kBytes) / rt.virtual_time_us();
    t.add_row({"maximal bandwidth (4 MB transfer)", Table::fmt(mbps, 1), "MB/s"});
  }

  t.print(std::cout);
  std::cout << "\n(paper platform: 8x Pentium Pro, switched 100 Mbps Ethernet;"
               "\n UDP small-message RTT ~130 us, TCP RTT ~185 us, ~10.5 MB/s)\n";

  std::cout << "\n== diff engine host throughput (4 KB page scan) ==\n";
  Table dt({"Case", "Scalar MB/s", "Word-at-a-time MB/s", "Speedup"});
  for (const auto& r : measure_diff_throughput())
    dt.add_row({r.name, Table::fmt(r.scalar_mbps, 0), Table::fmt(r.fast_mbps, 0),
                Table::fmt(r.speedup, 2) + "x"});
  dt.print(std::cout);
  std::cout << "(--json emits these numbers machine-readably for trajectory"
               " tracking)\n";

  std::cout << "\n== multi-page prefetch: strided sweep over 64 pages"
               " (2 nodes) ==\n";
  Table pt({"prefetch_pages", "kDiffRequests", "Read faults", "Validated",
            "Prefetch hits", "Virtual us", "Msg reduction"});
  constexpr std::size_t kSweepPages = 64;
  const SweepResult base_sweep = strided_sweep(0, kSweepPages);
  for (std::size_t window : {std::size_t{0}, std::size_t{4}, std::size_t{16}}) {
    const SweepResult r =
        window == 0 ? base_sweep : strided_sweep(window, kSweepPages);
    pt.add_row({Table::fmt(window), Table::fmt(r.diff_requests),
                Table::fmt(r.read_faults), Table::fmt(r.validated),
                Table::fmt(r.prefetch_hits), Table::fmt(r.virtual_us, 0),
                Table::fmt(static_cast<double>(base_sweep.diff_requests) /
                               static_cast<double>(r.diff_requests), 2) + "x"});
  }
  pt.print(std::cout);
  std::cout << "(a window of N serves the faulting page plus up to N"
               " neighbors per round trip;\n outside a critical section it"
               " validates them on arrival, so their reads do not fault)\n";

  std::cout << "\n== adaptive update protocol: producer-consumer over 16"
               " pages x 12 epochs (2 nodes) ==\n";
  Table ut({"Protocol", "Read faults", "kDiffRequests", "Messages",
            "Pushes", "Push hits", "Virtual us"});
  for (bool update_on : {false, true}) {
    const PushPullResult r = producer_consumer(update_on, 16, 12);
    ut.add_row({update_on ? "update (push)" : "invalidate (pull)",
                Table::fmt(r.read_faults), Table::fmt(r.diff_requests),
                Table::fmt(r.messages), Table::fmt(r.pushes),
                Table::fmt(r.push_hits), Table::fmt(r.virtual_us, 0)});
  }
  ut.print(std::cout);
  std::cout << "(epoch-stable readers are promoted after "
            << tmk::DsmConfig{}.update_promote_epochs
            << " stable epochs; pushed pages leave the barrier valid,"
               "\n skipping both the trap and the diff round trip)\n";

  std::cout << "\n== migratory lock push: 4 nodes round-robin a bound update"
               " (24 CS each, no barriers) ==\n";
  Table lt({"Protocol", "Handoffs", "Read faults", "kDiffRequests", "Messages",
            "Pushes", "Push hits", "Virtual us"});
  for (bool push_on : {false, true}) {
    const LockMigResult r = lock_migration(push_on, 4, 24);
    lt.add_row({push_on ? "lock push (grant chain)" : "invalidate (pull)",
                Table::fmt(r.grants), Table::fmt(r.read_faults),
                Table::fmt(r.diff_requests), Table::fmt(r.messages),
                Table::fmt(r.pushes), Table::fmt(r.push_hits),
                Table::fmt(r.virtual_us, 0)});
  }
  lt.print(std::cout);
  std::cout << "(the grant piggybacks the chain's accumulated diffs for the"
               " lock's protected pages,\n so the next holder's acquire"
               " validates them before the critical section runs)\n";
  return 0;
}
