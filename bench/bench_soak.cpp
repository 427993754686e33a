// Run-forever soak curve: the per-node consistency-metadata footprint of a
// barrier-free migratory lock loop, sampled along the run, with the
// on-demand GC ceiling on vs off.  With the ceiling on the curve must
// plateau near the ceiling; off, it grows linearly with critical sections —
// the leak the ceiling exists to cap.  The footprints are deterministic
// virtual-machine byte counts (not wall-clock), so check_trajectory.py
// gates the plateau absolutely against bench/baselines/soak_footprint.json.
//
// `--json` emits the machine-readable curve for the CI gate; the default
// output is a human-readable table of the same numbers.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "tmk/tmk.h"

namespace {

using namespace now;

constexpr std::uint32_t kNodes = 4;
constexpr std::size_t kIters = 512;      // per node: 2048 critical sections
constexpr std::size_t kSampleEvery = 64; // 8 points along the run
constexpr std::size_t kCeiling = 16 * 1024;
constexpr std::size_t kWpp = tmk::kPageSize / sizeof(std::uint64_t);

struct SoakCurve {
  // max over nodes of the node's own footprint at each sample boundary
  std::vector<std::size_t> max_node_bytes;
  std::uint64_t gc_exchanges = 0;
};

SoakCurve run(std::size_t ceiling) {
  tmk::DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = 4 << 20;
  c.meta_ceiling_bytes = ceiling;
  c.gc_at_barriers = false;  // the exchange is the only reclamation point
  c.time.cpu_scale = 0.0;
  const std::size_t samples = kIters / kSampleEvery;
  std::vector<std::vector<std::size_t>> per_node(
      kNodes, std::vector<std::size_t>(samples, 0));
  tmk::DsmRuntime rt(c);
  rt.run_spmd([&](tmk::Tmk& tmk) {
    tmk::gptr<std::uint64_t> state(tmk::kPageSize);
    const std::uint32_t id = tmk.id();
    if (id == 0) {
      tmk.lock_acquire(0);
      state[0] = 1;
      state[kWpp] = 1;
      tmk.lock_release(0);
    }
    tmk.barrier();
    for (std::size_t i = 0; i < kIters; ++i) {
      tmk.lock_acquire(0);
      const std::uint64_t v = state[0];
      state[0] = v + 1;
      for (std::size_t k = 0; k < 16; ++k)
        state[kWpp + 1 + (v + k) % 96] = v * 100 + k;
      tmk.lock_release(0);
      if (i % kSampleEvery == kSampleEvery - 1)
        per_node[id][i / kSampleEvery] =
            tmk.node.meta_footprint().total_bytes();
      std::this_thread::yield();
    }
    tmk.barrier();
  });
  SoakCurve curve;
  curve.max_node_bytes.assign(samples, 0);
  for (std::size_t s = 0; s < samples; ++s)
    for (std::uint32_t i = 0; i < kNodes; ++i)
      curve.max_node_bytes[s] =
          std::max(curve.max_node_bytes[s], per_node[i][s]);
  curve.gc_exchanges = rt.total_stats().gc_exchanges;
  return curve;
}

void print_points_json(const SoakCurve& c) {
  std::printf("\"points\": [");
  for (std::size_t s = 0; s < c.max_node_bytes.size(); ++s)
    std::printf("%s\n        {\"epoch\": %zu, \"max_node_bytes\": %zu}",
                s == 0 ? "" : ",", (s + 1) * kSampleEvery,
                c.max_node_bytes[s]);
  std::printf("\n      ], \"gc_exchanges\": %llu",
              static_cast<unsigned long long>(c.gc_exchanges));
}

int soak_json() {
  const SoakCurve on = run(kCeiling);
  const SoakCurve off = run(0);
  std::printf("{\n  \"soak_footprint\": {\n"
              "    \"nodes\": %u,\n    \"iters_per_node\": %zu,\n"
              "    \"ceiling_bytes\": %zu,\n    \"modes\": {\n",
              kNodes, kIters, kCeiling);
  std::printf("      \"ceiling_on\": {");
  print_points_json(on);
  std::printf("},\n      \"ceiling_off\": {");
  print_points_json(off);
  std::printf("}\n    }\n  }\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  now::bench::clear_tmk_env();
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--json")) return soak_json();

  const SoakCurve on = run(kCeiling);
  const SoakCurve off = run(0);
  std::printf("== Soak: per-node meta footprint, ceiling %zu bytes vs off ==\n",
              kCeiling);
  std::printf("%-12s %16s %16s\n", "iteration", "ceiling_on", "ceiling_off");
  for (std::size_t s = 0; s < on.max_node_bytes.size(); ++s)
    std::printf("%-12zu %16zu %16zu\n", (s + 1) * kSampleEvery,
                on.max_node_bytes[s], off.max_node_bytes[s]);
  std::printf("gc exchanges: %llu (on), %llu (off)\n",
              static_cast<unsigned long long>(on.gc_exchanges),
              static_cast<unsigned long long>(off.gc_exchanges));
  return 0;
}
