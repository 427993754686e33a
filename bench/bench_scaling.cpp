// Extension: speedup vs node count (the paper reports only 8-processor
// bars; the scaling curves make the pipeline fill/drain and communication
// crossover behaviour visible).
//
// `--json` switches to the sync-fabric scaling sweep instead: a pure
// barrier workload at 8/64/128/256 nodes under the centralized barrier and
// the combining tree, emitting per-barrier fabric message counts per node
// and the critical-path hop count.  These are virtual-network counts —
// deterministic functions of the topology — so bench/check_trajectory.py
// gates them tightly against bench/baselines/sync_scaling.json, including
// the growth exponent: the tree's per-node load must stay O(log N) while
// the centralized root's grows O(N).
#include <algorithm>
#include <cstring>
#include <iostream>

#include "bench_common.h"
#include "tmk/topology.h"

namespace {

using namespace now;

struct SyncPoint {
  std::uint32_t nodes = 0;
  double per_node_avg = 0;   // (sent+recv)/barriers averaged over nodes
  std::uint64_t per_node_max = 0;  // same, at the busiest node
  std::uint32_t hops = 0;    // critical path: leaf->root->leaf edges
  double virtual_ms = 0;
};

// A barrier-only workload: each node writes one word of its private page per
// epoch (so interval records flow and GC floors matter) and meets at the
// barrier.  Nothing cross-reads, so every fabric message is barrier traffic.
SyncPoint measure(std::uint32_t nodes, std::uint32_t arity,
                  std::uint32_t barriers) {
  tmk::DsmConfig c;
  c.num_nodes = nodes;
  // Small heap: the arena reserves num_nodes * heap_bytes of address space,
  // and 256 nodes x the default 96MB would map 24GB.
  c.heap_bytes = 2 << 20;
  c.barrier_tree_arity = arity;
  c.time.cpu_scale = 0.0;
  tmk::DsmRuntime rt(c);
  rt.run_spmd([&](tmk::Tmk& tmk) {
    tmk::gptr<std::uint64_t> data(tmk::kPageSize);
    const std::uint32_t id = tmk.id();
    for (std::uint32_t b = 0; b < barriers; ++b) {
      data[id * (tmk::kPageSize / sizeof(std::uint64_t))] = b + 1;
      tmk.barrier();
    }
  });
  SyncPoint p;
  p.nodes = nodes;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    const auto s = rt.node(i).stats().snapshot();
    const std::uint64_t per = (s.barrier_msgs_sent + s.barrier_msgs_recv) / barriers;
    total += per;
    p.per_node_max = std::max(p.per_node_max, per);
  }
  p.per_node_avg = static_cast<double>(total) / nodes;
  p.hops = rt.topology().critical_path_hops();
  p.virtual_ms = rt.virtual_time_us() / 1000.0;
  return p;
}

int sync_scaling_json() {
  constexpr std::uint32_t kBarriers = 12;
  const std::uint32_t node_counts[] = {8, 64, 128, 256};
  struct Fabric {
    const char* name;
    std::uint32_t arity;
  };
  const Fabric fabrics[] = {{"centralized", 0}, {"tree2", 2}};

  std::printf("{\n  \"sync_scaling\": {\n    \"barriers\": %u,\n"
              "    \"fabrics\": {\n", kBarriers);
  bool first_fabric = true;
  for (const Fabric& f : fabrics) {
    if (!first_fabric) std::printf(",\n");
    first_fabric = false;
    std::printf("      \"%s\": {\"arity\": %u, \"points\": [\n", f.name, f.arity);
    bool first_point = true;
    for (std::uint32_t n : node_counts) {
      const SyncPoint p = measure(n, f.arity, kBarriers);
      if (!first_point) std::printf(",\n");
      first_point = false;
      std::printf("        {\"nodes\": %u, \"per_node_max\": %llu, "
                  "\"per_node_avg\": %.2f, \"hops\": %u, \"virtual_ms\": %.2f}",
                  p.nodes, static_cast<unsigned long long>(p.per_node_max),
                  p.per_node_avg, p.hops, p.virtual_ms);
      std::fflush(stdout);
    }
    std::printf("\n      ]}");
  }
  std::printf("\n    }\n  }\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace now;
  using namespace now::bench;
  clear_tmk_env();
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--json")) return sync_scaling_json();

  const int scale = scale_from_args(argc, argv);
  const Workloads w = Workloads::standard(scale);

  std::cout << "== Scaling: speedup vs workstations (OpenMP / Tmk / MPI) ==\n";

  Table t({"Application", "nodes", "OpenMP", "Tmk", "MPI"});
  auto sweep_app = [&](const char* name, auto params) {
    const auto seq = run_seq(params, sim::TimeModel{});
    for (std::uint32_t n : {2u, 4u, 8u}) {
      const auto omp_r = run_omp(params, dsm_cfg(n));
      const auto tmk_r = run_tmk(params, dsm_cfg(n));
      const auto mpi_r = run_mpi(params, mpi_cfg(n));
      t.add_row({name, Table::fmt(static_cast<std::uint64_t>(n)),
                 Table::fmt(speedup(seq, omp_r)), Table::fmt(speedup(seq, tmk_r)),
                 Table::fmt(speedup(seq, mpi_r))});
    }
  };

  sweep_app("Water", w.water);
  sweep_app("3D-FFT", w.fft);
  sweep_app("Sweep3D", w.sweep);

  t.print(std::cout);
  return 0;
}
