// google-benchmark microbenchmarks of the DSM primitives (host-time costs of
// the building blocks: RLE diffs, twins, interval-log operations, runtime
// set-up).
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "mpi/mpi.h"
#include "omp/omp.h"
#include "tmk/diff.h"
#include "tmk/intervals.h"
#include "tmk/tmk.h"

namespace {

using now::Rng;
using now::tmk::diff_apply;
using now::tmk::diff_create;
using now::tmk::IntervalRecord;
using now::tmk::KnowledgeLog;
using now::tmk::kPageSize;

std::vector<std::uint8_t> random_page(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> p(kPageSize);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
  return p;
}

void BM_DiffCreate(benchmark::State& state) {
  auto twin = random_page(1);
  auto cur = twin;
  // Dirty `range` bytes in the middle of the page (0 = clean page).
  const auto range = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < range; ++i) cur[1024 + i] ^= 0x5a;
  for (auto _ : state) {
    auto d = diff_create(twin.data(), cur.data(), kPageSize);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_DiffCreate)->Arg(0)->Arg(16)->Arg(256)->Arg(2048);

// The retired byte-at-a-time scanner, kept as the baseline the word-at-a-time
// path is judged against.
void BM_DiffCreateScalar(benchmark::State& state) {
  auto twin = random_page(1);
  auto cur = twin;
  const auto range = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < range; ++i) cur[1024 + i] ^= 0x5a;
  for (auto _ : state) {
    auto d = now::tmk::diff_create_scalar(twin.data(), cur.data(), kPageSize);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_DiffCreateScalar)->Arg(0)->Arg(16)->Arg(256)->Arg(2048);

// The allocation-free append variant reusing one buffer across pages.
void BM_DiffAppendReuse(benchmark::State& state) {
  auto twin = random_page(1);
  auto cur = twin;
  const auto range = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < range; ++i) cur[1024 + i] ^= 0x5a;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    now::tmk::diff_append(out, twin.data(), cur.data(), kPageSize);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_DiffAppendReuse)->Arg(16)->Arg(2048);

void BM_DiffApply(benchmark::State& state) {
  auto twin = random_page(2);
  auto cur = twin;
  const auto range = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < range; ++i) cur[512 + i] ^= 0xa5;
  const auto d = diff_create(twin.data(), cur.data(), kPageSize);
  auto target = twin;
  for (auto _ : state) {
    diff_apply(target.data(), kPageSize, d);
    benchmark::DoNotOptimize(target.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.size()));
}
BENCHMARK(BM_DiffApply)->Arg(16)->Arg(256)->Arg(2048);

void BM_TwinCopy(benchmark::State& state) {
  auto page = random_page(3);
  std::vector<std::uint8_t> twin(kPageSize);
  for (auto _ : state) {
    std::memcpy(twin.data(), page.data(), kPageSize);
    benchmark::DoNotOptimize(twin.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_TwinCopy);

void BM_IntervalMergeAndDelta(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    KnowledgeLog a(nodes), b(nodes);
    std::vector<now::tmk::IntervalRecordPtr> recs;
    for (std::uint32_t n = 1; n < nodes; ++n)
      for (std::uint32_t s = 1; s <= 16; ++s) {
        IntervalRecord r;
        r.node = n;
        r.seq = s;
        r.lamport = s;
        r.pages = {s, s + 1};
        recs.push_back(std::make_shared<const IntervalRecord>(std::move(r)));
      }
    state.ResumeTiming();
    a.merge(recs);
    auto delta = a.delta_since(b.vt());
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_IntervalMergeAndDelta)->Arg(2)->Arg(8);

// Building a runtime, running an empty SPMD program and tearing it down, on
// the shape the repository benchmark builds per pass: 4 nodes, 96 MB heap.
// The page table is allocated lazily, so this should not scale with the heap.
void BM_DsmRuntimeSetup(benchmark::State& state) {
  now::tmk::DsmConfig cfg;
  cfg.num_nodes = 4;
  cfg.heap_bytes = std::size_t{96} << 20;
  for (auto _ : state) {
    now::tmk::DsmRuntime rt(cfg);
    now::tmk::RunReport report = rt.run_spmd([](now::tmk::Tmk&) {});
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_DsmRuntimeSetup)->Unit(benchmark::kMillisecond);

// The other two runtime kinds the repository benchmark's set-up sample
// builds per pass, on the same 4-node shape: the OpenMP layer (a DSM
// runtime plus its fork-join team) and the MPI baseline (one thread per
// rank).  Together with the DSM probe they split that sample by kind.
void BM_OmpRuntimeSetup(benchmark::State& state) {
  now::tmk::DsmConfig cfg;
  cfg.num_nodes = 4;
  cfg.heap_bytes = std::size_t{96} << 20;
  for (auto _ : state) {
    now::omp::OmpRuntime rt(cfg);
    rt.run([](now::omp::Team&) {});
  }
}
BENCHMARK(BM_OmpRuntimeSetup)->Unit(benchmark::kMillisecond);

void BM_MpiRuntimeSetup(benchmark::State& state) {
  now::mpi::MpiConfig cfg;
  cfg.num_ranks = 4;
  for (auto _ : state) {
    now::mpi::MpiRuntime rt(cfg);
    rt.run([](now::mpi::Comm&) {});
  }
}
BENCHMARK(BM_MpiRuntimeSetup)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
