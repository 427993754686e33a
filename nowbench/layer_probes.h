// Per-layer probes for the traced benchmark run.  Each probe times calls into
// one layer's public interface from outside the layer — the omp Team, the
// Tmk handle, the diff engine, the knowledge log, the simnet mailbox,
// network and channel, the MPI communicator — so the traced run can split
// end-to-end time by layer without any span inside src/.
//
// Host times come from std::chrono::steady_clock.  Virtual times ("vus")
// are deltas of the probing node's virtual clock; with time.cpu_scale = 0
// (the benchmark's pinned setting) they are the Section 6 protocol model
// alone, compute costed at zero.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "mpi/mpi.h"
#include "omp/omp.h"
#include "simnet/network.h"
#include "tmk/diff.h"
#include "tmk/intervals.h"
#include "tmk/runtime.h"

namespace now::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Samples of one per-operation probe, in the probe's unit.
struct Samples {
  std::vector<double> v;

  void add(double x) { v.push_back(x); }
  void append(const Samples& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
  std::size_t n() const { return v.size(); }

  // Linear interpolation between closest ranks; q in [0, 1].
  double quantile(double q) const {
    if (v.empty()) return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
  }
};

// One operation timed on the host and on the probing node's virtual clock.
struct HostVirtual {
  Samples host_us, virtual_us;

  void add(Clock::time_point t0, std::uint64_t v0_ns, std::uint64_t v1_ns,
           double divisor = 1.0) {
    host_us.add(seconds_between(t0, Clock::now()) * 1e6 / divisor);
    virtual_us.add(static_cast<double>(v1_ns - v0_ns) / 1000.0 / divisor);
  }
  void append(const HostVirtual& o) {
    host_us.append(o.host_us);
    virtual_us.append(o.virtual_us);
  }
};

// Iterations run before recording, so lazy set-up (first-touch pages, first
// lock handoff, thread wake-up paths) is not in the samples.
inline constexpr std::size_t kWarmup = 16;

inline tmk::gptr<std::uint64_t> page_word(std::size_t page, std::size_t word = 0) {
  return tmk::gptr<std::uint64_t>(page * tmk::kPageSize +
                                  word * sizeof(std::uint64_t));
}

// A synchronization id whose manager is neither of the two probing nodes, so
// every operation the probe times goes over the wire.
template <typename ManagerOf>
std::uint32_t remote_managed_id(std::uint32_t first, ManagerOf manager_of) {
  for (std::uint32_t id = first;; ++id) {
    const std::uint32_t m = manager_of(id);
    if (m != 1 && m != 2) return id;
  }
}

inline void require_nodes(const tmk::DsmConfig& cfg, std::uint32_t n,
                          const char* probe) {
  if (cfg.num_nodes < n)
    throw std::invalid_argument(std::string(probe) + " needs at least " +
                                std::to_string(n) + " nodes");
}

// ---------------------------------------------------------------------------
// omp: an empty `parallel` region — one kFork per slave plus one kJoin back.
// ---------------------------------------------------------------------------
inline HostVirtual probe_fork_join(const tmk::DsmConfig& cfg, std::size_t n) {
  HostVirtual r;
  omp::OmpRuntime rt(cfg);
  rt.run([&](omp::Team& team) {
    sim::VirtualClock& clock = team.master().node.clock();
    for (std::size_t i = 0; i < n + kWarmup; ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t v0 = clock.now_ns();
      team.parallel([](omp::Par&) {});
      if (i >= kWarmup) r.add(t0, v0, clock.now_ns());
    }
  });
  return r;
}

// ---------------------------------------------------------------------------
// tmk fault path, timed on node 1 against pages node 0 wrote:
//  - remote_read: pages a stride beyond the prefetch window apart, so every
//    read is a trap + kDiffRequest/kDiffReply round trip + apply;
//  - prefetched_read: contiguous pages, so most reads are served from the
//    diff cache the previous fault's prefetch filled (trap + local apply);
//  - twin_write: first write to a page held read-only — trap + 4 KB twin.
// ---------------------------------------------------------------------------
struct FaultProbe {
  HostVirtual remote_read, prefetched_read, twin_write;
};

inline FaultProbe probe_faults(const tmk::DsmConfig& cfg, std::size_t n) {
  require_nodes(cfg, 2, "fault probe");
  const std::size_t stride = cfg.prefetch_window() + 4;
  const std::size_t strided_base = 16;
  const std::size_t dense_base = strided_base + n * stride + 16;
  if ((dense_base + n) * tmk::kPageSize > cfg.heap_bytes)
    throw std::invalid_argument("fault probe does not fit the heap");
  FaultProbe r;
  std::atomic<bool> bad{false};
  tmk::DsmRuntime rt(cfg);
  rt.run_spmd([&](tmk::Tmk& t) {
    if (t.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        page_word(strided_base + i * stride)[0] = i + 1;
        page_word(dense_base + i)[0] = i + 1;
      }
    }
    t.barrier();
    if (t.id() == 1) {
      sim::VirtualClock& clock = t.node.clock();
      const auto timed_read = [&](std::size_t page, std::uint64_t want,
                                  HostVirtual& into) {
        const auto t0 = Clock::now();
        const std::uint64_t v0 = clock.now_ns();
        const std::uint64_t got = page_word(page)[0];
        into.add(t0, v0, clock.now_ns());
        if (got != want) bad = true;
      };
      for (std::size_t i = 0; i < n; ++i)
        timed_read(strided_base + i * stride, i + 1, r.remote_read);
      for (std::size_t i = 0; i < n; ++i)
        timed_read(dense_base + i, i + 1, r.prefetched_read);
      for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        const std::uint64_t v0 = clock.now_ns();
        page_word(strided_base + i * stride)[1] = i;
        r.twin_write.add(t0, v0, clock.now_ns());
      }
    }
    t.barrier();
  });
  if (bad) throw std::runtime_error("fault probe read a stale value");
  return r;
}

// ---------------------------------------------------------------------------
// tmk sync fabric.
// ---------------------------------------------------------------------------

// Barrier round trip as a non-root node sees it.
inline HostVirtual probe_barrier(const tmk::DsmConfig& cfg, std::size_t n) {
  require_nodes(cfg, 2, "barrier probe");
  HostVirtual r;
  tmk::DsmRuntime rt(cfg);
  rt.run_spmd([&](tmk::Tmk& t) {
    sim::VirtualClock& clock = t.node.clock();
    for (std::size_t i = 0; i < n + kWarmup; ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t v0 = clock.now_ns();
      t.barrier();
      if (t.id() == 1 && i >= kWarmup) r.add(t0, v0, clock.now_ns());
    }
  });
  return r;
}

// A lock bounced between nodes 1 and 2, managed by a third node: every timed
// acquire is request -> manager -> forward -> previous holder -> grant.
inline HostVirtual probe_lock_remote(const tmk::DsmConfig& cfg, std::size_t n) {
  require_nodes(cfg, 3, "lock probe");
  tmk::DsmRuntime rt(cfg);
  const std::uint32_t lock = remote_managed_id(
      0, [&](std::uint32_t id) { return rt.topology().lock_manager(id); });
  std::vector<HostVirtual> per_node(cfg.num_nodes);
  rt.run_spmd([&](tmk::Tmk& t) {
    sim::VirtualClock& clock = t.node.clock();
    for (std::size_t i = 0; i < n + kWarmup; ++i) {
      if (t.id() == 1 + i % 2) {
        const auto t0 = Clock::now();
        const std::uint64_t v0 = clock.now_ns();
        t.lock_acquire(lock);
        if (i >= kWarmup) per_node[t.id()].add(t0, v0, clock.now_ns());
        t.lock_release(lock);
      }
      t.barrier();
    }
  });
  HostVirtual r;
  for (const HostVirtual& h : per_node) r.append(h);
  return r;
}

// Semaphore ping-pong between nodes 1 and 2 (remote manager): half of node
// 1's signal + wait round is one signal -> wait handoff, the Sweep3D
// pipeline's step.
inline HostVirtual probe_sema_pair(const tmk::DsmConfig& cfg, std::size_t n) {
  require_nodes(cfg, 3, "sema probe");
  tmk::DsmRuntime rt(cfg);
  const auto manager = [&](std::uint32_t id) { return rt.topology().sema_manager(id); };
  const std::uint32_t ping = remote_managed_id(0, manager);
  const std::uint32_t pong = remote_managed_id(ping + 1, manager);
  HostVirtual r;
  rt.run_spmd([&](tmk::Tmk& t) {
    sim::VirtualClock& clock = t.node.clock();
    for (std::size_t i = 0; i < n + kWarmup; ++i) {
      if (t.id() == 1) {
        const auto t0 = Clock::now();
        const std::uint64_t v0 = clock.now_ns();
        t.sema_signal(ping);
        t.sema_wait(pong);
        if (i >= kWarmup) r.add(t0, v0, clock.now_ns(), 2.0);
      } else if (t.id() == 2) {
        t.sema_wait(ping);
        t.sema_signal(pong);
      }
    }
  });
  return r;
}

// Condition-variable turn passing between nodes 1 and 2 under one lock (the
// QSORT task-queue shape): half of node 1's iteration is one handoff —
// signal, the waiter's wake-up, its lock reacquire and its read of the turn
// word.
inline HostVirtual probe_cond_pair(const tmk::DsmConfig& cfg, std::size_t n) {
  require_nodes(cfg, 3, "cond probe");
  tmk::DsmRuntime rt(cfg);
  const std::uint32_t lock = remote_managed_id(
      0, [&](std::uint32_t id) { return rt.topology().lock_manager(id); });
  constexpr std::uint32_t kCond = 0;
  const auto turn = page_word(8);
  HostVirtual r;
  rt.run_spmd([&](tmk::Tmk& t) {
    const std::uint64_t me = t.id();
    if (me == 1) {
      t.lock_acquire(lock);
      turn[0] = 1;
      t.lock_release(lock);
    }
    t.barrier();
    if (me == 1 || me == 2) {
      sim::VirtualClock& clock = t.node.clock();
      for (std::size_t i = 0; i < n + kWarmup; ++i) {
        const auto t0 = Clock::now();
        const std::uint64_t v0 = clock.now_ns();
        t.lock_acquire(lock);
        while (turn[0] != me) t.cond_wait(lock, kCond);
        turn[0] = 3 - me;
        t.cond_signal(lock, kCond);
        t.lock_release(lock);
        if (me == 1 && i >= kWarmup) r.add(t0, v0, clock.now_ns(), 2.0);
      }
    }
    t.barrier();
  });
  return r;
}

// Host cost of standing up and tearing down one DSM runtime around an empty
// SPMD program, in milliseconds.
inline Samples probe_runtime_setup(const tmk::DsmConfig& cfg, std::size_t n) {
  Samples s;
  for (std::size_t i = 0; i < n + 1; ++i) {
    const auto t0 = Clock::now();
    {
      tmk::DsmRuntime rt(cfg);
      rt.run_spmd([](tmk::Tmk&) {});
    }
    if (i > 0) s.add(seconds_between(t0, Clock::now()) * 1e3);
  }
  return s;
}

// ---------------------------------------------------------------------------
// tmk diff engine and twin, on the three page shapes of the diff micro:
// 16 scattered 4-byte stores, half the page rewritten, and an untouched page.
// Each sample is the mean of a batch of calls, in ns per call.
// ---------------------------------------------------------------------------
struct DiffProbe {
  Samples create_sparse, create_dense, create_clean, apply_dense, twin;
};

inline DiffProbe probe_diff(std::size_t n) {
  using tmk::kPageSize;
  constexpr std::size_t kBatch = 64;
  Rng rng(42);
  std::vector<std::uint8_t> base(kPageSize);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> sparse = base, dense = base;
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t k = 0; k < 4; ++k) sparse[i * 256 + 32 + k] ^= 0x5a;
  for (std::size_t i = 1024; i < 1024 + 2048; ++i) dense[i] ^= 0xa5;
  const tmk::DiffBytes dense_diff = tmk::diff_create(base.data(), dense.data(), kPageSize);

  std::size_t sink = 0;
  const auto batch = [&](Samples& into, auto&& op) {
    for (std::size_t i = 0; i < n + kWarmup; ++i) {
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < kBatch; ++k) sink += op();
      const double ns = seconds_between(t0, Clock::now()) * 1e9 / kBatch;
      if (i >= kWarmup) into.add(ns);
    }
  };
  DiffProbe r;
  const auto create = [&](const std::vector<std::uint8_t>& cur) {
    return tmk::diff_create(base.data(), cur.data(), kPageSize).size();
  };
  batch(r.create_sparse, [&] { return create(sparse); });
  batch(r.create_dense, [&] { return create(dense); });
  batch(r.create_clean, [&] { return create(base); });
  std::vector<std::uint8_t> target = base;
  batch(r.apply_dense, [&] {
    return tmk::diff_apply(target.data(), kPageSize, dense_diff);
  });
  // What the write-fault path does for a twin: allocate a page and copy it.
  batch(r.twin, [&] {
    auto twin = std::make_unique<std::uint8_t[]>(kPageSize);
    std::memcpy(twin.get(), dense.data(), kPageSize);
    return static_cast<std::size_t>(twin[kPageSize / 2]);
  });
  if (sink == static_cast<std::size_t>(-1)) std::abort();  // keep `sink` live
  return r;
}

// ---------------------------------------------------------------------------
// tmk knowledge log: extract a delta of 18 interval records (3 writers x 6
// intervals x 8 write notices) and merge it into an empty log — what every
// acquire does with the records a grant carries.
// ---------------------------------------------------------------------------
inline Samples probe_merge_delta(std::uint32_t nodes, std::size_t n) {
  constexpr std::uint32_t kIntervals = 6, kPages = 8;
  tmk::KnowledgeLog src(nodes);
  std::uint64_t lamport = 0;
  for (std::uint32_t seq = 1; seq <= kIntervals; ++seq)
    for (std::uint32_t w = 1; w < std::min<std::uint32_t>(nodes, 4); ++w) {
      tmk::IntervalRecord rec;
      rec.node = w;
      rec.seq = seq;
      rec.lamport = ++lamport;
      for (std::uint32_t p = 0; p < kPages; ++p) rec.pages.push_back(w * 1000 + seq * kPages + p);
      src.append_own(std::move(rec));
    }
  const tmk::VectorTime zero(nodes, 0);
  Samples s;
  std::size_t sink = 0;
  for (std::size_t i = 0; i < n + kWarmup; ++i) {
    tmk::KnowledgeLog dst(nodes);
    const auto t0 = Clock::now();
    sink += dst.merge(src.delta_since(zero)).size();
    if (i >= kWarmup) s.add(seconds_between(t0, Clock::now()) * 1e6);
  }
  if (sink == 0) throw std::runtime_error("merge probe merged nothing");
  return s;
}

// ---------------------------------------------------------------------------
// simnet.
// ---------------------------------------------------------------------------

// Half of a two-thread push/pop ping-pong through two mailboxes.
inline Samples probe_mailbox_hop(std::size_t n) {
  sim::Mailbox there, back;
  std::thread echo([&] {
    while (auto m = there.pop()) back.push(std::move(*m));
  });
  Samples s;
  for (std::size_t i = 0; i < n + kWarmup; ++i) {
    const auto t0 = Clock::now();
    there.push(sim::Message{});
    back.pop();
    if (i >= kWarmup) s.add(seconds_between(t0, Clock::now()) * 1e6 / 2.0);
  }
  there.close();
  echo.join();
  return s;
}

// Network::send of a 64-byte message, in ns; a sample is the mean of a
// batch.  The receiver's queue is drained between batches, untimed.
inline Samples probe_send(const sim::ChannelConfig& chan, std::size_t n) {
  constexpr std::size_t kBatch = 32;
  sim::Network net(2, sim::NetworkModel::udp_ethernet100(), chan);
  Samples s;
  for (std::size_t i = 0; i < n + kWarmup; ++i) {
    std::vector<sim::Message> batch(kBatch);
    for (sim::Message& m : batch) {
      m.type = 2;
      m.src = 0;
      m.dst = 1;
      m.payload.assign(64, 0x5a);
    }
    const auto t0 = Clock::now();
    for (sim::Message& m : batch) net.send(std::move(m));
    const double ns = seconds_between(t0, Clock::now()) * 1e9 / kBatch;
    if (i >= kWarmup) s.add(ns);
    while (net.try_recv(1)) {
    }
  }
  return s;
}

// The reliability channel's send path (sequencing, retransmit copy, fault
// draws) under the workload's wire faults, or a clean reliable wire.
inline sim::ChannelConfig reliable_channel(const sim::FaultConfig& fault) {
  sim::ChannelConfig c;
  c.reliable = true;
  c.fault = fault;
  c.ack_type = 1;
  return c;
}

// ---------------------------------------------------------------------------
// mpi: 1-byte ping-pong round trip between two ranks, host microseconds.
// ---------------------------------------------------------------------------
inline Samples probe_mpi_rtt(std::size_t n) {
  mpi::MpiConfig c;
  c.num_ranks = 2;
  c.time.cpu_scale = 0.0;
  mpi::MpiRuntime rt(c);
  Samples s;
  rt.run([&](mpi::Comm& comm) {
    std::uint8_t b = 0;
    for (std::size_t i = 0; i < n + kWarmup; ++i) {
      if (comm.rank() == 0) {
        const auto t0 = Clock::now();
        comm.send(&b, 1, 1, 0);
        comm.recv(&b, 1, 1, 0);
        if (i >= kWarmup) s.add(seconds_between(t0, Clock::now()) * 1e6);
      } else {
        comm.recv(&b, 1, 0, 0);
        comm.send(&b, 1, 0, 0);
      }
    }
  });
  return s;
}

}  // namespace now::bench
