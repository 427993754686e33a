// Randomized cross-config consistency fuzzer: a seeded PRNG schedule drives
// N nodes through random mixes of data-race-free reads, writes, barriers and
// lock-protected read-modify-writes over a shared region, and the final
// region contents are compared byte-for-byte across the full protocol config
// matrix {update on/off} x {prefetch 0/4} x {gc_at_barriers on/off}, plus
// wide-prefetch (16), lock-push and tiny-cache (relay stock evicted, routed
// faults missing, GC backlogs applied over budget) legs.
// Every run is also checked against a sequentially replayed model, so "all
// configs equally wrong" cannot slip through.  The seed is printed on
// failure; replay a specific one with
//   NOW_FUZZ_SEED_BASE=<seed> NOW_FUZZ_SEEDS=1 ./tmk_fuzz_consistency_test
// (NOW_FUZZ_SEEDS bounds the iteration count, e.g. for the sanitizer CI leg;
// NOW_FUZZ_EPOCHS deepens a single schedule.)
//
// Lock-heavy mix: roughly a third of the epochs are *lock-only* — no data
// writes, no barriers, no asserted reads, just rotating (and sometimes
// nested, always in ascending lock order) lock-guarded counter increments.
// These barrier-free stretches are exactly where the migratory lock push
// and the lock-chain GC floors operate, with the grant chain as the only
// carrier of consistency between handoffs.
//
// Determinism argument: per epoch, every data word has exactly one writer
// (the schedule partitions words by owner), so epoch-final contents do not
// depend on interleaving; counter words are guarded by their lock and only
// ever incremented, so their final value is the (schedule-determined) sum of
// increments regardless of lock-grant order.  Mid-epoch reads may observe
// stale copies — that is lazy release consistency working as specified — so
// they feed a sink, never an assertion; post-barrier reads are asserted.
#include <gtest/gtest.h>

#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::size_t kDataPages = 12;
constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);
constexpr std::size_t kWords = kDataPages * kWordsPerPage;
constexpr std::size_t kCounters = 4;  // one lock-guarded counter per lock id
constexpr std::size_t kMidReads = 24; // unasserted mid-epoch reads per node
constexpr std::size_t kVerifyReads = 16;  // asserted post-barrier reads
constexpr std::size_t kLockOnlyRounds = 3;  // CS rounds per lock-only epoch

// Env knobs reuse the config-default override parser (empty == unset).
using detail::env_size;

// Stateless schedule hash: every node and the host-side model evaluate the
// same (seed, stream, a, b) coordinates to the same value, with no shared
// RNG state to keep in sync.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
                  std::uint64_t b) {
  std::uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                    (a * 0xbf58476d1ce4e5b9ULL) ^ (b * 0x94d049bb133111ebULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// A lock-only epoch has no data writes, no barrier and no asserted reads:
// only the lock chains carry consistency until the next normal epoch.
bool lock_only(std::uint64_t seed, std::size_t e) {
  return mix(seed, 9, e, 1) % 3 == 0;
}
std::uint32_t owner_of(std::uint64_t seed, std::size_t e, std::size_t w) {
  return static_cast<std::uint32_t>(mix(seed, 1, e, w) % kNodes);
}
bool writes(std::uint64_t seed, std::size_t e, std::size_t w) {
  if (lock_only(seed, e)) return false;
  return mix(seed, 2, e, w) % 3 == 0;
}
std::uint64_t value_of(std::uint64_t seed, std::size_t e, std::size_t w) {
  return mix(seed, 3, e, w) | 1;  // nonzero, so "never written" is distinct
}
bool increments(std::uint64_t seed, std::size_t e, std::uint32_t node) {
  return mix(seed, 6, e, node) % 2 == 0;
}
std::size_t counter_of(std::uint64_t seed, std::size_t e, std::uint32_t node) {
  return mix(seed, 5, e, node) % kCounters;
}
// Nested critical sections: a second, distinct counter taken while the
// first's lock is held (always ascending lock order, so no deadlock).
bool nests(std::uint64_t seed, std::size_t e, std::uint32_t node) {
  return mix(seed, 10, e, node) % 3 == 0;
}
std::size_t second_counter_of(std::uint64_t seed, std::size_t e,
                              std::uint32_t node, std::size_t first) {
  return (first + 1 + mix(seed, 11, e, node) % (kCounters - 1)) % kCounters;
}
// Lock-only epochs run several rotating CS rounds per node.
bool lo_increments(std::uint64_t seed, std::size_t e, std::size_t round,
                   std::uint32_t node) {
  return mix(seed, 12, e * 16 + round, node) % 4 != 0;
}
std::size_t lo_counter_of(std::uint64_t seed, std::size_t e, std::size_t round,
                          std::uint32_t node) {
  return mix(seed, 13, e * 16 + round, node) % kCounters;
}

struct FuzzConfig {
  std::size_t prefetch;
  bool gc;
  std::size_t cache_bytes;
  bool update;
  std::size_t lock_push;           // lock_push_bytes; 0 = off
  std::uint32_t arity = 0;         // barrier_tree_arity; 0 = centralized
  bool shard = false;              // hash-sharded lock/sema managers
  std::size_t ceiling = 0;         // meta_ceiling_bytes; 0 = off
  // Lossy-wire legs: per-link fault rates fed to the simnet injector, with
  // the retransmission channel armed underneath.  The fault stream is
  // seeded from the fuzz seed, so a failing leg replays exactly.
  std::uint32_t drop_ppm = 0;
  std::uint32_t dup_ppm = 0;
  std::uint32_t reorder_ppm = 0;
  std::uint64_t jitter_ns = 0;
  bool pin_wire = false;  // force a perfect wire even under env chaos
  bool chaos() const {
    return drop_ppm != 0 || dup_ppm != 0 || reorder_ppm != 0 || jitter_ns != 0;
  }
};

// One node's lock-guarded counter increment, optionally nested with a
// second counter (ascending lock order).  Mirrored exactly by the model.
void increment_counters(Tmk& tmk, gptr<std::uint64_t> counters,
                        std::uint64_t seed, std::size_t e, std::uint32_t id) {
  const std::size_t a = counter_of(seed, e, id);
  if (nests(seed, e, id)) {
    const std::size_t b = second_counter_of(seed, e, id, a);
    const std::size_t lo = std::min(a, b), hi = std::max(a, b);
    tmk.lock_acquire(static_cast<std::uint32_t>(lo));
    tmk.lock_acquire(static_cast<std::uint32_t>(hi));
    counters[a] += id + 1;
    counters[b] += id + 2;
    tmk.lock_release(static_cast<std::uint32_t>(hi));
    tmk.lock_release(static_cast<std::uint32_t>(lo));
  } else {
    tmk.lock_acquire(static_cast<std::uint32_t>(a));
    counters[a] += id + 1;
    tmk.lock_release(static_cast<std::uint32_t>(a));
  }
}

// Final contents of the whole shared region (data pages + counter page),
// captured on node 0 after the last barrier.
std::vector<std::uint64_t> run_fuzz(const FuzzConfig& fc, std::uint64_t seed,
                                    std::size_t epochs,
                                    sim::TrafficSnapshot* traffic = nullptr,
                                    DsmStatsSnapshot* stats = nullptr) {
  DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = 4 << 20;
  c.prefetch_pages = fc.prefetch;
  c.gc_at_barriers = fc.gc;
  c.diff_cache_bytes_per_page = fc.cache_bytes;
  c.update_mode = fc.update;
  c.lock_push_bytes = fc.lock_push;
  c.barrier_tree_arity = fc.arity;
  c.shard_managers = fc.shard;
  c.meta_ceiling_bytes = fc.ceiling;
  c.time.cpu_scale = 0.0;
  // Chaos legs override whatever the TMK_NET_* env defaults injected (the
  // CI features leg faults every leg above via env; these legs pin their own
  // rates so a failure replays identically anywhere).
  if (fc.chaos()) {
    c.net_fault = {};
    c.net_fault.drop_ppm = fc.drop_ppm;
    c.net_fault.dup_ppm = fc.dup_ppm;
    c.net_fault.reorder_ppm = fc.reorder_ppm;
    c.net_fault.jitter_ns = fc.jitter_ns;
    c.net_fault.seed = seed;
  } else if (fc.pin_wire) {
    c.net_fault = {};
    c.net_reliable = false;
  }

  std::vector<std::uint64_t> final_words(kWords + kWordsPerPage, 0);
  DsmRuntime rt(c);
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> data(kPageSize);
    gptr<std::uint64_t> counters(kPageSize + kDataPages * kPageSize);
    const std::uint32_t id = tmk.id();
    std::uint64_t sink = 0;

    for (std::size_t e = 0; e < epochs; ++e) {
      if (lock_only(seed, e)) {
        // Barrier-free stretch: rotating lock ownership only (plus stale
        // mid-epoch reads).  Word owners cannot change hands here — the
        // schedule writes data only in barrier-separated epochs.
        for (std::size_t round = 0; round < kLockOnlyRounds; ++round) {
          for (std::size_t i = 0; i < kMidReads / kLockOnlyRounds; ++i)
            sink += data[mix(seed, 4, e, id * 1000 + round * 100 + i) % kWords];
          if (lo_increments(seed, e, round, id)) {
            const std::size_t ctr = lo_counter_of(seed, e, round, id);
            tmk.lock_acquire(static_cast<std::uint32_t>(ctr));
            counters[ctr] += id + 1;
            tmk.lock_release(static_cast<std::uint32_t>(ctr));
          }
        }
        continue;
      }

      // Race-free writes: each word has exactly one owner this epoch.
      for (std::size_t w = 0; w < kWords; ++w)
        if (owner_of(seed, e, w) == id && writes(seed, e, w))
          data[w] = value_of(seed, e, w);

      // Unasserted mid-epoch reads: random fault/prefetch timing.
      for (std::size_t i = 0; i < kMidReads; ++i)
        sink += data[mix(seed, 4, e, id * 1000 + i) % kWords];

      // Lock-guarded counter increments (commutative, so the final value is
      // interleaving-independent); the grant chain ships record deltas and,
      // with lock_push on, the diffs themselves.
      if (increments(seed, e, id)) increment_counters(tmk, counters, seed, e, id);

      tmk.barrier();

      // Asserted post-barrier reads against the replayed model.
      for (std::size_t i = 0; i < kVerifyReads; ++i) {
        const std::size_t w = mix(seed, 7, e, id * 1000 + i) % kWords;
        std::uint64_t want = 0;
        for (std::size_t past = e + 1; past-- > 0;)
          if (writes(seed, past, w)) {
            want = value_of(seed, past, w);
            break;
          }
        ASSERT_EQ(data[w], want)
            << "seed=" << seed << " node=" << id << " epoch=" << e << " word="
            << w << " lockpush=" << fc.lock_push
            << " (replay: NOW_FUZZ_SEED_BASE=" << seed
            << " NOW_FUZZ_SEEDS=1)";
      }
      tmk.barrier();
    }
    // A trailing barrier: the last epochs may have been lock-only, and the
    // capture below must observe every chain's increments.
    tmk.barrier();
    if (sink == static_cast<std::uint64_t>(-1)) std::abort();  // keep reads live

    if (id == 0) {
      for (std::size_t w = 0; w < kWords; ++w) final_words[w] = data[w];
      for (std::size_t k = 0; k < kWordsPerPage; ++k)
        final_words[kWords + k] = counters[k];
    }
  });

  // Ceiling legs additionally assert the footprint invariant the on-demand
  // GC exists for: no node's consistency metadata may end far above the
  // ceiling, under any schedule the seed produced.  (The slack absorbs the
  // metadata of the epochs between the last exchange and the end of the
  // run.)  A gc-off ceiling leg with a few epochs must also actually have
  // exchanged — a silently inert ceiling would pass the bound vacuously on
  // short runs while leaking on long ones.
  if (fc.ceiling > 0) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      EXPECT_LE(rt.node(i).meta_footprint().total_bytes(),
                fc.ceiling + 32 * 1024)
          << "seed=" << seed << " node=" << i << " ceiling=" << fc.ceiling;
    }
    if (!fc.gc && epochs >= 3)
      EXPECT_GT(rt.total_stats().gc_exchanges, 0u)
          << "seed=" << seed << " ceiling=" << fc.ceiling;
  }
  if (traffic != nullptr) *traffic = rt.traffic();
  if (stats != nullptr) *stats = rt.total_stats();
  return final_words;
}

TEST(FuzzConsistency, ByteIdenticalAcrossConfigMatrix) {
  const std::size_t seeds = env_size("NOW_FUZZ_SEEDS", 2);
  const std::uint64_t seed_base = env_size("NOW_FUZZ_SEED_BASE", 20260730);
  const std::size_t epochs = env_size("NOW_FUZZ_EPOCHS", 4);

  // Full cross at prefetch {0, 4}; the wide 16-page window re-tests the
  // prefetch batching against each GC mode, so it rides as four extra legs
  // instead of doubling the whole matrix.  Lock push rides the cross of
  // {prefetch 0/4} x {gc on/off} plus two update-mode legs.
  std::vector<FuzzConfig> matrix;
  for (bool update : {false, true})
    for (std::size_t prefetch : {std::size_t{0}, std::size_t{4}})
      for (bool gc : {false, true})
        matrix.push_back({prefetch, gc, 16 * 1024, update, 0});
  for (bool update : {false, true})
    for (bool gc : {false, true})
      matrix.push_back({16, gc, 16 * 1024, update, 0});
  for (std::size_t prefetch : {std::size_t{0}, std::size_t{4}})
    for (bool gc : {false, true})
      matrix.push_back({prefetch, gc, 16 * 1024, false, 16 * 1024});
  for (bool gc : {false, true})
    matrix.push_back({4, gc, 16 * 1024, true, 16 * 1024});
  // Combining-tree fabric legs, always with hash-sharded managers riding
  // along: arity 2 (one combining point below the root at 4 nodes) and the
  // arity-1 chain (every node a combining point, maximal depth — the
  // worst case for a departure wave racing next-epoch arrivals), across GC
  // modes; then the tree under each push protocol, whose barrier-indexed
  // parking is exactly what the deeper fabric must not skew.
  for (std::uint32_t arity : {1u, 2u})
    for (bool gc : {false, true})
      matrix.push_back({4, gc, 16 * 1024, false, 0, arity, true});
  matrix.push_back({0, true, 256, false, 0, 2, true});  // tiny cache + tree
  matrix.push_back({4, true, 16 * 1024, true, 0, 2, true});
  matrix.push_back({4, true, 16 * 1024, false, 16 * 1024, 1, true});
  // On-demand ceiling legs: a tight 4KB ceiling forces GC exchanges in the
  // middle of the schedule (including mid lock-only stretches), alone, on
  // top of barrier GC, under the migratory lock push (whose relay chunks
  // the exchange floor prunes), across the whole stack at once, and with a
  // 256-byte cache (exchange floors whose pinned backlogs overflow the
  // budget and are applied on the spot).
  matrix.push_back({0, false, 16 * 1024, false, 0, 0, false, 4096});
  matrix.push_back({0, true, 16 * 1024, false, 0, 0, false, 4096});
  matrix.push_back({0, false, 16 * 1024, false, 16 * 1024, 0, false, 4096});
  matrix.push_back({4, true, 16 * 1024, true, 0, 2, true, 4096});
  matrix.push_back({0, false, 256, false, 0, 0, false, 4096});
  // Tiny-cache legs: a 256-byte page cache evicts relay stock almost as soon
  // as it lands, so routed faults inside the schedule's critical sections
  // keep taking the second round (stock misses), and prefetched entries are
  // evicted before their fault — at both prefetch settings, across GC modes.
  for (std::size_t prefetch : {std::size_t{0}, std::size_t{4}})
    for (bool gc : {false, true})
      matrix.push_back({prefetch, gc, 256, false, 0});
  // The same tiny cache under the lock push: evicted relay stock makes
  // grants push only part of a page's chain history, which the requester
  // parks for its fault to complete.
  for (bool gc : {false, true})
    matrix.push_back({0, gc, 256, false, 16 * 1024});
  // Lossy-wire legs: each fault class alone at the issue's rates — drop 1%,
  // dup 0.5%, reorder 1%, delay jitter — then all four at once riding the
  // protocol combinations whose ordering assumptions a lossy wire attacks:
  // the migratory lock push (grant chain is the only consistency carrier),
  // update mode (pushes racing barriers across links), the combining tree
  // with sharded managers, and the GC ceiling (exchange floors mid-loss).
  matrix.push_back({4, true, 16 * 1024, false, 0, 0, false, 0,
                    10000, 0, 0, 0});
  matrix.push_back({4, true, 16 * 1024, false, 0, 0, false, 0,
                    0, 5000, 0, 0});
  matrix.push_back({4, true, 16 * 1024, false, 0, 0, false, 0,
                    0, 0, 10000, 0});
  matrix.push_back({4, true, 16 * 1024, false, 0, 0, false, 0,
                    0, 0, 0, 200'000});
  matrix.push_back({4, true, 16 * 1024, false, 16 * 1024, 0, false, 0,
                    10000, 5000, 10000, 200'000});
  matrix.push_back({4, true, 16 * 1024, true, 0, 0, false, 0,
                    10000, 5000, 10000, 200'000});
  matrix.push_back({4, true, 16 * 1024, false, 0, 2, true, 0,
                    10000, 5000, 10000, 200'000});
  matrix.push_back({0, false, 16 * 1024, false, 0, 0, false, 4096,
                    10000, 5000, 10000, 200'000});

  // Runs folded by the gc-off legs, over the whole seed set: without the
  // barrier's validation pass a page's notices pile up across epochs, so a
  // fault outside a critical section meets runs of one writer's intervals
  // to fold.
  std::uint64_t runs_merged_gc_off = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = seed_base + s;

    // Host-side sequential replay: the one truth every config must match.
    std::vector<std::uint64_t> model(kWords + kWordsPerPage, 0);
    for (std::size_t e = 0; e < epochs; ++e) {
      if (lock_only(seed, e)) {
        for (std::size_t round = 0; round < kLockOnlyRounds; ++round)
          for (std::uint32_t node = 0; node < kNodes; ++node)
            if (lo_increments(seed, e, round, node))
              model[kWords + lo_counter_of(seed, e, round, node)] += node + 1;
        continue;
      }
      for (std::size_t w = 0; w < kWords; ++w)
        if (writes(seed, e, w)) model[w] = value_of(seed, e, w);
      for (std::uint32_t node = 0; node < kNodes; ++node) {
        if (!increments(seed, e, node)) continue;
        const std::size_t a = counter_of(seed, e, node);
        model[kWords + a] += node + 1;
        if (nests(seed, e, node))
          model[kWords + second_counter_of(seed, e, node, a)] += node + 2;
      }
    }

    for (const FuzzConfig& fc : matrix) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " prefetch=" << fc.prefetch
                   << " gc=" << fc.gc << " cache=" << fc.cache_bytes
                   << " update=" << fc.update << " lockpush=" << fc.lock_push
                   << " arity=" << fc.arity << " shard=" << fc.shard
                   << " ceiling=" << fc.ceiling << " drop=" << fc.drop_ppm
                   << " dup=" << fc.dup_ppm << " reorder=" << fc.reorder_ppm
                   << " jitter=" << fc.jitter_ns
                   << " (replay: NOW_FUZZ_SEED_BASE=" << seed
                   << " NOW_FUZZ_SEEDS=1)");
      DsmStatsSnapshot stats;
      const auto got = run_fuzz(fc, seed, epochs, nullptr, &stats);
      ASSERT_EQ(got, model);  // byte-for-byte: every word, every counter
      if (!fc.gc) runs_merged_gc_off += stats.diff_runs_merged;
    }
  }
  EXPECT_GT(runs_merged_gc_off, 0u)
      << "no gc-off leg folded a run: the matrix no longer exercises merged "
         "diff runs";
}

// The retransmission protocol's price tag: at the issue's 1% drop rate the
// wire carries retransmitted copies and standalone acks, but the overhead
// must stay a bounded multiple of the perfect-wire traffic — losing 1% of
// packets must not double the bytes — while the results stay byte-identical.
TEST(FuzzConsistency, RetransmitOverheadBounded) {
  const std::uint64_t seed = env_size("NOW_FUZZ_SEED_BASE", 20260730);
  const std::size_t epochs = env_size("NOW_FUZZ_EPOCHS", 4);

  FuzzConfig clean{4, true, 16 * 1024, false, 0};
  clean.pin_wire = true;
  FuzzConfig lossy = clean;
  lossy.pin_wire = false;
  lossy.drop_ppm = 10000;

  sim::TrafficSnapshot clean_t, lossy_t;
  const auto clean_words = run_fuzz(clean, seed, epochs, &clean_t);
  const auto lossy_words = run_fuzz(lossy, seed, epochs, &lossy_t);

  ASSERT_EQ(clean_words, lossy_words);  // exactly-once restored the bytes
  EXPECT_EQ(clean_t.chan.retransmits, 0u);
  EXPECT_GT(lossy_t.chan.drops_injected, 0u);
  EXPECT_GT(lossy_t.chan.retransmits, 0u);

  // Bounded recovery: 1% loss costs at most 50% extra wire bytes.  (The
  // overhead is dominated by whole-message retransmit copies plus acks;
  // measured well under 1.2x — 1.5x absorbs host-timing-dependent extra
  // timeouts without letting regressions like per-loss storms through.)
  EXPECT_LT(lossy_t.wire_bytes, clean_t.wire_bytes + clean_t.wire_bytes / 2)
      << "clean=" << clean_t.wire_bytes << " lossy=" << lossy_t.wire_bytes;
}

}  // namespace
}  // namespace now::tmk
