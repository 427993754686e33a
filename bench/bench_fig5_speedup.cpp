// Figure 5: "Speedup comparison among the OpenMP, TreadMarks and MPI
// versions of the applications" on eight processors.
//
// The paper's headline claims, which this bench lets you check:
//   - the OpenMP versions achieve performance within a few percent of their
//     hand-coded TreadMarks counterparts;
//   - both still lag the MPI versions.
//
// `--json` prints, per app and version, the virtual time and the speedup.
// `--calibrate` times each sequential kernel on this host and prints its
// host nanoseconds per work unit beside the constant the app charges (the
// measurement behind the kHostNsPer* constants in the app headers).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_common.h"

namespace {

using namespace now;
using namespace now::bench;

constexpr std::uint32_t kNodes = 8;

struct Row {
  const char* name;
  VersionedResults r;
};

std::vector<Row> run_figure(const Workloads& w) {
  return {{"Sweep3D", run_all(w.sweep, kNodes)},
          {"3D-FFT", run_all(w.fft, kNodes)},
          {"Water", run_all(w.water, kNodes)},
          {"TSP", run_all(w.tsp, kNodes)},
          {"QSORT", run_all(w.qs, kNodes)}};
}

int print_json(const Workloads& w) {
  const std::vector<Row> rows = run_figure(w);
  std::printf("{\n  \"fig5_speedup\": {\n    \"nodes\": %u,\n    \"apps\": {", kNodes);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const VersionedResults& r = rows[i].r;
    std::printf("%s\n      \"%s\": {\"seq_us\": %.1f", i == 0 ? "" : ",",
                rows[i].name, r.seq.virtual_time_us);
    const std::pair<const char*, const apps::AppResult*> versions[] = {
        {"omp", &r.omp}, {"tmk", &r.tmk}, {"mpi", &r.mpi}};
    for (const auto& [version, res] : versions)
      std::printf(", \"%s\": {\"virtual_us\": %.1f, \"speedup\": %.4f}", version,
                  res->virtual_time_us, speedup(r.seq, *res));
    std::printf("}");
  }
  std::printf("\n    }\n  }\n}\n");
  return 0;
}

// Median over five runs of run_seq's host time divided by its unit count.
// The count comes from a run at cpu_scale 1: its virtual time is then
// units x the checked-in constant.
template <typename Params, typename RunSeq>
double host_ns_per_unit(const Params& params, double checked_in, RunSeq run_seq) {
  sim::TimeModel unit_scale;
  unit_scale.cpu_scale = 1.0;
  std::vector<double> per_unit;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const apps::AppResult r = run_seq(params, unit_scale);
    const std::chrono::duration<double, std::nano> host =
        std::chrono::steady_clock::now() - t0;
    const double units = r.virtual_time_us * 1000.0 / checked_in;
    per_unit.push_back(host.count() / units);
  }
  std::sort(per_unit.begin(), per_unit.end());
  return per_unit[per_unit.size() / 2];
}

int calibrate(const Workloads& w) {
  Table t({"Application", "unit", "host ns/unit", "checked in"});
  auto add = [&](const char* name, const char* unit, const auto& params,
                 double checked_in, auto run_seq) {
    t.add_row({name, unit, Table::fmt(host_ns_per_unit(params, checked_in, run_seq), 3),
               Table::fmt(checked_in, 3)});
  };
  add("Sweep3D", "cell", w.sweep, apps::sweep3d::kHostNsPerCell, apps::sweep3d::run_seq);
  add("3D-FFT", "butterfly", w.fft, apps::fft3d::kHostNsPerButterfly, apps::fft3d::run_seq);
  add("Water", "pair", w.water, apps::water::kHostNsPerPair, apps::water::run_seq);
  add("TSP", "tour node", w.tsp, apps::tsp::kHostNsPerNode, apps::tsp::run_seq);
  add("QSORT", "element", w.qs, apps::qs::kHostNsPerElement, apps::qs::run_seq);
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Workloads w = Workloads::standard(scale_from_args(argc, argv));
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json")) return print_json(w);
    if (!std::strcmp(argv[i], "--calibrate")) return calibrate(w);
  }

  std::cout << "== Figure 5: speedups on " << kNodes
            << " simulated workstations (OpenMP vs TreadMarks vs MPI) ==\n";

  Table t({"Application", "OpenMP", "Tmk", "MPI", "OpenMP/Tmk"});
  for (const Row& row : run_figure(w)) {
    const VersionedResults& r = row.r;
    const double so = speedup(r.seq, r.omp);
    const double st = speedup(r.seq, r.tmk);
    const double sm = speedup(r.seq, r.mpi);
    t.add_row({row.name, Table::fmt(so), Table::fmt(st), Table::fmt(sm),
               Table::fmt(st > 0 ? so / st : 0)});
  }
  t.print(std::cout);
  std::cout << "\n(expected shape: OpenMP within a few percent of Tmk; both"
               "\n behind MPI; bars comparable to the paper's Figure 5)\n";
  return 0;
}
