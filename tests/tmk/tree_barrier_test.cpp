// The combining-tree barrier fabric: topology shape, byte-for-byte
// equivalence with the centralized (flat) barrier across arities, the GC
// floor every fabric departs with, update pushes draining at interior nodes,
// and the per-node message-load contraction the tree exists for.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tmk/tmk.h"
#include "tmk/topology.h"

namespace now::tmk {
namespace {

DsmConfig tree_cfg(std::uint32_t nodes, std::uint32_t arity, bool shard = false) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.barrier_tree_arity = arity;
  c.shard_managers = shard;
  c.time.cpu_scale = 0.0;
  return c;
}

TEST(SyncTopology, HeapIndexedTreeShape) {
  const SyncTopology t(tree_cfg(8, 2));
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(t.barrier_root(), 0u);
  EXPECT_EQ(t.barrier_children(0), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(t.barrier_children(1), (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(t.barrier_children(3), (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(t.barrier_children(4), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(t.barrier_parent(7), 3u);
  EXPECT_EQ(t.barrier_parent(4), 1u);
  // Leaves arrive at their parent; combining points arrive at themselves.
  EXPECT_EQ(t.barrier_owner(7), 3u);
  EXPECT_EQ(t.barrier_owner(3), 3u);
  EXPECT_EQ(t.barrier_owner(0), 0u);
  // Fan-in: child subtrees + the node's own compute thread.
  EXPECT_EQ(t.barrier_fanin(0), 3u);
  EXPECT_EQ(t.barrier_fanin(3), 2u);
  EXPECT_EQ(t.barrier_fanin(7), 1u);
  EXPECT_EQ(t.barrier_height(), 3u);       // node 7 sits 3 edges deep
  EXPECT_EQ(t.critical_path_hops(), 6u);
}

TEST(SyncTopology, FlatTreeIsTheCentralizedBarrier) {
  // Arity 0 (the default) and any arity >= n-1 degenerate to depth 1:
  // every node is a child of the root, which is the centralized manager.
  for (std::uint32_t arity : {0u, 7u, 8u, 100u}) {
    const SyncTopology t(tree_cfg(8, arity));
    EXPECT_EQ(t.barrier_height(), 1u) << "arity " << arity;
    EXPECT_EQ(t.barrier_fanin(0), 8u) << "arity " << arity;
    for (std::uint32_t n = 1; n < 8; ++n) {
      EXPECT_EQ(t.barrier_owner(n), 0u);
      EXPECT_FALSE(t.barrier_interior(n));
    }
  }
  // Single node: its own (trivial) owner.
  const SyncTopology one(tree_cfg(1, 2));
  EXPECT_EQ(one.barrier_owner(0), 0u);
  EXPECT_EQ(one.barrier_fanin(0), 1u);
  EXPECT_EQ(one.critical_path_hops(), 0u);
}

TEST(SyncTopology, ShardHashSpreadsDenseIds) {
  const SyncTopology mod(tree_cfg(8, 0, /*shard=*/false));
  EXPECT_EQ(mod.lock_manager(0), 0u);  // the paper's static placement
  EXPECT_EQ(mod.lock_manager(9), 1u);
  const SyncTopology hash(tree_cfg(8, 0, /*shard=*/true));
  // Deterministic, in range, and decorrelated from the id order: dense ids
  // 0..15 must not map to node (id % 8) everywhere (that would mean the
  // hash degenerated to the modulo and hot object 0 stays on node 0+tree
  // root forever).
  int moved = 0;
  for (std::uint32_t id = 0; id < 16; ++id) {
    const std::uint32_t n = hash.lock_manager(id);
    EXPECT_LT(n, 8u);
    EXPECT_EQ(n, hash.lock_manager(id));  // stable
    if (n != id % 8) ++moved;
  }
  EXPECT_GT(moved, 4);
  // Lock and sema spaces are salted apart.
  bool differs = false;
  for (std::uint32_t id = 0; id < 16 && !differs; ++id)
    differs = hash.lock_manager(id) != hash.sema_manager(id);
  EXPECT_TRUE(differs);
}

// Deterministic mini-workload shared by the equivalence tests: per epoch
// every node writes its strided slice of the data pages, all cross-read
// after the barrier, and half the nodes bump lock-guarded counters (so the
// sharded managers and the grant chain are exercised too).
constexpr std::size_t kPages = 6;
constexpr std::size_t kWordsPer = kPageSize / sizeof(std::uint64_t);
constexpr std::size_t kWords = kPages * kWordsPer;
constexpr std::size_t kEpochs = 6;

std::vector<std::uint64_t> run_workload(const DsmConfig& cfg) {
  std::vector<std::uint64_t> final_words(kWords + 4, 0);
  DsmRuntime rt(cfg);
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> data(kPageSize);
    gptr<std::uint64_t> counters(kPageSize + kPages * kPageSize);
    const std::uint32_t id = tmk.id();
    const std::uint32_t n = tmk.nprocs();
    for (std::size_t e = 0; e < kEpochs; ++e) {
      for (std::size_t w = id; w < kWords; w += n)
        data[w] = e * kWords + w + 1;
      if ((id + e) % 2 == 0) {
        const std::uint32_t lk = static_cast<std::uint32_t>((id + e) % 4);
        tmk.lock_acquire(lk);
        counters[lk] += id + 1;
        tmk.lock_release(lk);
      }
      tmk.barrier();
      // Cross-read another node's stripe (asserted: the barrier's departure
      // records must have invalidated our stale copy whatever the fabric).
      const std::size_t peer = (id + 1) % n;
      for (std::size_t w = peer; w < kWords; w += n)
        ASSERT_EQ(data[w], e * kWords + w + 1) << "epoch " << e << " word " << w;
      tmk.barrier();
    }
    if (id == 0) {
      for (std::size_t w = 0; w < kWords; ++w) final_words[w] = data[w];
      for (std::size_t k = 0; k < 4; ++k) final_words[kWords + k] = counters[k];
    }
  });
  return final_words;
}

// (c) The arity sweep: flat (centralized), chain, binary and 4-ary trees —
// with and without sharded managers — all end byte-identical.
TEST(TreeBarrier, AritySweepByteIdentical) {
  const auto centralized = run_workload(tree_cfg(8, 0));
  for (std::uint32_t arity : {1u, 2u, 4u, 8u}) {
    for (bool shard : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "arity=" << arity << " shard=" << shard);
      EXPECT_EQ(run_workload(tree_cfg(8, arity, shard)), centralized);
    }
  }
}

// (a) The tree's floor reaches as far as the centralized one: the GC floor
// is what truncates each node's knowledge log, so identical per-node record
// plateaus across fabrics — over a run long enough for logs to grow without
// GC — prove the floor fanned down the tree equals the flat root's.
TEST(TreeBarrier, FoldedGcFloorMatchesCentralized) {
  auto footprints = [&](std::uint32_t arity) {
    DsmConfig c = tree_cfg(8, arity);
    c.gc_at_barriers = true;
    std::vector<std::size_t> records;
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) {
      gptr<std::uint64_t> data(kPageSize);
      const std::uint32_t id = tmk.id();
      for (std::size_t e = 0; e < 12; ++e) {
        data[id * kWordsPer + e] = e + 1;
        tmk.barrier();
      }
    });
    for (std::uint32_t i = 0; i < 8; ++i)
      records.push_back(rt.node(i).meta_footprint().log_records);
    return records;
  };
  const auto flat = footprints(0);
  EXPECT_EQ(footprints(2), flat);
  EXPECT_EQ(footprints(1), flat);  // the chain folds through every node
  // And the floor actually moved: 12 epochs of 8 writers would hold ~96
  // records per log unGCed; the plateau must sit well below that.
  for (std::size_t r : flat) EXPECT_LT(r, 48u);
}

// The floor a barrier establishes is the departure's vector time — what
// every node holds once its departure is merged, like a fork's post-join
// floor — whatever the fabric: flat, the chain, binary and 3-ary trees, and
// arity n (flat again).  Every node applies the same floor, and it equals
// the node's own vector time right after the barrier.
TEST(TreeBarrier, FloorIsTheDepartureVectorTime) {
  constexpr std::uint32_t kNodes = 8;
  constexpr std::uint32_t kBarriers = 4;
  for (std::uint32_t arity : {0u, 1u, 2u, 3u, kNodes}) {
    SCOPED_TRACE(::testing::Message() << "arity=" << arity);
    DsmConfig c = tree_cfg(kNodes, arity);
    c.gc_at_barriers = true;
    std::vector<VectorTime> floors(kNodes), vts(kNodes);
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) {
      gptr<std::uint64_t> data(kPageSize);
      const std::uint32_t id = tmk.id();
      for (std::uint32_t b = 0; b < kBarriers; ++b) {
        data[id * kWordsPer + b] = b + 1;  // one interval per node per epoch
        tmk.barrier();
      }
      // Nothing is written after the last barrier, so no interval closes
      // and the vector time still is the departure's.
      floors[id] = tmk.node.gc_floor_snapshot();
      vts[id] = tmk.node.vector_time();
    });
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      EXPECT_EQ(vts[i], VectorTime(kNodes, kBarriers)) << "node " << i;
      EXPECT_EQ(floors[i], vts[i]) << "node " << i;
    }
  }
}

// The same write -> barrier -> read program over 3 nodes reads identical
// bytes with the tree on (arity 1: node 1 is a combining point between the
// root and the leaf, collecting its log to the floor only after cutting the
// leaf's departure delta) and off.  Reads are recorded and checked after
// the run: an assertion inside it would strand the other nodes at the next
// barrier, turning a stale read into a hang.
TEST(TreeBarrier, ThreeNodeReadsIdenticalWithTreeOnAndOff) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::size_t kRounds = 5;
  auto value = [](std::size_t round, std::size_t w) {
    return (round + 1) * 1000003 + w * 7;
  };
  auto reads = [&](std::uint32_t arity) {
    std::vector<std::vector<std::uint64_t>> seen(kNodes);
    DsmRuntime rt(tree_cfg(kNodes, arity));
    rt.run_spmd([&](Tmk& tmk) {
      gptr<std::uint64_t> data(kPageSize);
      const std::uint32_t id = tmk.id();
      for (std::size_t round = 0; round < kRounds; ++round) {
        // Every node rewrites its stride of every page: multi-writer pages.
        for (std::size_t w = id; w < kWords; w += kNodes) data[w] = value(round, w);
        tmk.barrier();
        for (std::size_t w = 0; w < kWords; ++w) seen[id].push_back(data[w]);
        tmk.barrier();
      }
    });
    return seen;
  };
  const auto flat = reads(0);
  EXPECT_EQ(reads(1), flat);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    ASSERT_EQ(flat[n].size(), kRounds * kWords);
    for (std::size_t round = 0; round < kRounds; ++round)
      for (std::size_t w = 0; w < kWords; ++w)
        ASSERT_EQ(flat[n][round * kWords + w], value(round, w))
            << "node " << n << " round " << round << " word " << w;
  }
}

// (b) Update pushes parked at interior nodes drain at the right barrier
// index: with the adaptive update protocol on and a populated tree, stable
// producer->consumer pages are pushed at the writer's arrival and must come
// out of the consumer's departure valid — including consumers that are
// themselves combining points (their service thread runs a barrier ahead of
// their compute thread more often than any leaf's).
TEST(TreeBarrier, UpdatePushesDrainAtInteriorNodes) {
  DsmConfig c = tree_cfg(8, 2);
  c.update_mode = true;
  DsmRuntime rt(c);
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> data(kPageSize);
    const std::uint32_t id = tmk.id();
    for (std::size_t e = 0; e < 10; ++e) {
      if (id == 7) {  // deepest leaf writes...
        for (std::size_t w = 0; w < 32; ++w) data[w] = e * 100 + w;
      }
      tmk.barrier();
      // ...and interior node 1 and leaf node 4 read every epoch (a stable
      // copyset, so the page promotes to update mode after two epochs).
      if (id == 1 || id == 4) {
        for (std::size_t w = 0; w < 32; ++w)
          ASSERT_EQ(data[w], e * 100 + w) << "epoch " << e << " reader " << id;
      }
      tmk.barrier();
    }
  });
  const auto total = rt.total_stats();
  // Both readers' marks reach the writer through the combining points in
  // time for each read epoch's fold: every epoch after promotion is pushed
  // to both.
  EXPECT_EQ(total.update_pushes_sent, 2 * (10 - c.update_promote_epochs));
  EXPECT_GT(total.update_push_hits, 0u);
  // The interior reader specifically consumed pushes (parked by its service
  // thread, drained by its compute thread at the matching barrier index).
  EXPECT_GT(rt.node(1).stats().snapshot().update_push_hits, 0u);
}

// The contraction the tree buys: per-barrier fabric messages at the busiest
// node.  Counts are deterministic functions of the topology, so they are
// asserted exactly: the flat root handles 2N+2 per barrier, a binary tree's
// busiest combining point 2*fanin+4 regardless of N.
TEST(TreeBarrier, PerNodeMessageLoadContracts) {
  auto max_per_barrier = [&](std::uint32_t nodes, std::uint32_t arity) {
    DsmRuntime rt(tree_cfg(nodes, arity));
    constexpr std::uint64_t kBarriers = 5;
    rt.run_spmd([&](Tmk& tmk) {
      for (std::uint64_t b = 0; b < kBarriers; ++b) tmk.barrier();
    });
    std::uint64_t mx = 0;
    for (std::uint32_t i = 0; i < nodes; ++i) {
      const auto s = rt.node(i).stats().snapshot();
      mx = std::max(mx, (s.barrier_msgs_sent + s.barrier_msgs_recv) / kBarriers);
    }
    return mx;
  };
  EXPECT_EQ(max_per_barrier(16, 0), 2u * 16 + 2);  // centralized: O(N) storm
  // Binary tree on 16 nodes: busiest node folds 2 children + itself, and
  // additionally arrives/departs as a child of its own parent.
  EXPECT_EQ(max_per_barrier(16, 2), 2u * 3 + 4);
  EXPECT_EQ(max_per_barrier(16, 4), 2u * 5 + 4);
}

}  // namespace
}  // namespace now::tmk
