// Integration tests: every application version (hand-coded TreadMarks,
// compiled-OpenMP style, MPI) must reproduce the sequential checksum at 2, 4
// and 8 nodes.  This is the correctness gate for the Figure 5 / Table 2
// benchmarks.
#include <gtest/gtest.h>

#include "apps/fft3d/fft3d.h"
#include "apps/qsort/qsort.h"
#include "apps/sweep3d/sweep3d.h"
#include "apps/tsp/tsp.h"
#include "apps/water/water.h"

namespace now::apps {
namespace {

tmk::DsmConfig dsm_cfg(std::uint32_t nodes, std::size_t heap = 32 << 20) {
  tmk::DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = heap;
  return c;
}

mpi::MpiConfig mpi_cfg(std::uint32_t ranks) {
  mpi::MpiConfig c;
  c.num_ranks = ranks;
  return c;
}

class AppsAtNodes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AppsAtNodes, QsortAllVersionsMatchSequential) {
  qs::Params p;
  p.n = 1 << 14;
  p.bubble_threshold = 128;
  const auto seq = qs::run_seq(p, sim::TimeModel{});
  const auto tmkr = qs::run_tmk(p, dsm_cfg(GetParam()));
  const auto ompr = qs::run_omp(p, dsm_cfg(GetParam()));
  const auto mpir = qs::run_mpi(p, mpi_cfg(GetParam()));
  EXPECT_EQ(seq.checksum, tmkr.checksum);
  EXPECT_EQ(seq.checksum, ompr.checksum);
  EXPECT_EQ(seq.checksum, mpir.checksum);
}

TEST_P(AppsAtNodes, TspAllVersionsFindTheOptimum) {
  tsp::Params p;
  p.ncities = 10;
  p.exhaustive_depth = 6;
  const auto seq = tsp::run_seq(p, sim::TimeModel{});
  const auto tmkr = tsp::run_tmk(p, dsm_cfg(GetParam()));
  const auto ompr = tsp::run_omp(p, dsm_cfg(GetParam()));
  const auto mpir = tsp::run_mpi(p, mpi_cfg(GetParam()));
  EXPECT_EQ(seq.checksum, tmkr.checksum);
  EXPECT_EQ(seq.checksum, ompr.checksum);
  EXPECT_EQ(seq.checksum, mpir.checksum);
}

TEST_P(AppsAtNodes, WaterAllVersionsMatchSequential) {
  water::Params p;
  p.nmol = 64;
  p.steps = 2;
  const auto seq = water::run_seq(p, sim::TimeModel{});
  const auto tmkr = water::run_tmk(p, dsm_cfg(GetParam()));
  const auto ompr = water::run_omp(p, dsm_cfg(GetParam()));
  const auto mpir = water::run_mpi(p, mpi_cfg(GetParam()));
  EXPECT_TRUE(checksum_close(seq.checksum, tmkr.checksum, 1e-7))
      << seq.checksum << " vs " << tmkr.checksum;
  EXPECT_TRUE(checksum_close(seq.checksum, ompr.checksum, 1e-7))
      << seq.checksum << " vs " << ompr.checksum;
  EXPECT_TRUE(checksum_close(seq.checksum, mpir.checksum, 1e-7))
      << seq.checksum << " vs " << mpir.checksum;
}

TEST_P(AppsAtNodes, Fft3dAllVersionsMatchSequential) {
  fft3d::Params p;
  p.nx = p.ny = p.nz = 16;
  p.iters = 2;
  const auto seq = fft3d::run_seq(p, sim::TimeModel{});
  const auto tmkr = fft3d::run_tmk(p, dsm_cfg(GetParam()));
  const auto ompr = fft3d::run_omp(p, dsm_cfg(GetParam()));
  const auto mpir = fft3d::run_mpi(p, mpi_cfg(GetParam()));
  EXPECT_TRUE(checksum_close(seq.checksum, tmkr.checksum, 1e-9))
      << seq.checksum << " vs " << tmkr.checksum;
  EXPECT_TRUE(checksum_close(seq.checksum, ompr.checksum, 1e-9))
      << seq.checksum << " vs " << ompr.checksum;
  EXPECT_TRUE(checksum_close(seq.checksum, mpir.checksum, 1e-9))
      << seq.checksum << " vs " << mpir.checksum;
}

TEST_P(AppsAtNodes, Sweep3dAllVersionsMatchSequential) {
  sweep3d::Params p;
  p.nx = p.ny = p.nz = 16;
  p.k_block = 4;
  const auto seq = sweep3d::run_seq(p, sim::TimeModel{});
  const auto tmkr = sweep3d::run_tmk(p, dsm_cfg(GetParam()));
  const auto ompr = sweep3d::run_omp(p, dsm_cfg(GetParam()));
  const auto mpir = sweep3d::run_mpi(p, mpi_cfg(GetParam()));
  // The sweep recurrence is order-deterministic: exact match for the DSM
  // versions, tolerance only for MPI's tree-reduced checksum.
  EXPECT_EQ(seq.checksum, tmkr.checksum);
  EXPECT_EQ(seq.checksum, ompr.checksum);
  EXPECT_TRUE(checksum_close(seq.checksum, mpir.checksum, 1e-10))
      << seq.checksum << " vs " << mpir.checksum;
}

INSTANTIATE_TEST_SUITE_P(Nodes, AppsAtNodes, ::testing::Values(2u, 4u, 8u));

// Compute is charged in counted work units, so a one-node DSM run charges
// exactly the sequential run's compute: its virtual time at the default
// cpu_scale, minus the same run's protocol-only time at cpu_scale 0, is the
// sequential virtual time.
template <typename Params, typename RunSeq, typename RunTmk>
void expect_one_node_charges_sequential(const Params& p, RunSeq run_seq, RunTmk run_tmk) {
  const double seq_us = run_seq(p, sim::TimeModel{}).virtual_time_us;
  tmk::DsmConfig protocol_only = dsm_cfg(1);
  protocol_only.time.cpu_scale = 0.0;
  const double compute_us =
      run_tmk(p, dsm_cfg(1)).virtual_time_us - run_tmk(p, protocol_only).virtual_time_us;
  EXPECT_GT(seq_us, 0.0);
  EXPECT_NEAR(compute_us, seq_us, 0.02 * seq_us);
}

TEST(AppsOneNode, QsortChargesTheSequentialCompute) {
  qs::Params p;
  p.n = 1 << 14;
  p.bubble_threshold = 128;
  expect_one_node_charges_sequential(p, qs::run_seq, qs::run_tmk);
}

TEST(AppsOneNode, TspChargesTheSequentialCompute) {
  tsp::Params p;
  p.ncities = 10;
  p.exhaustive_depth = 6;
  expect_one_node_charges_sequential(p, tsp::run_seq, tsp::run_tmk);
}

TEST(AppsOneNode, WaterChargesTheSequentialCompute) {
  water::Params p;
  p.nmol = 64;
  p.steps = 2;
  expect_one_node_charges_sequential(p, water::run_seq, water::run_tmk);
}

TEST(AppsOneNode, Fft3dChargesTheSequentialCompute) {
  fft3d::Params p;
  p.nx = p.ny = p.nz = 16;
  p.iters = 2;
  expect_one_node_charges_sequential(p, fft3d::run_seq, fft3d::run_tmk);
}

TEST(AppsOneNode, Sweep3dChargesTheSequentialCompute) {
  sweep3d::Params p;
  p.nx = p.ny = p.nz = 16;
  p.k_block = 4;
  expect_one_node_charges_sequential(p, sweep3d::run_seq, sweep3d::run_tmk);
}

TEST(AppsTraffic, DsmVersionsReportTrafficAndMpiReportsLess) {
  // The paper's Table 2 shape on a small instance: the DSM versions send
  // more messages than MPI for the regular applications.
  water::Params p;
  p.nmol = 64;
  p.steps = 2;
  const auto tmkr = water::run_tmk(p, dsm_cfg(4));
  const auto mpir = water::run_mpi(p, mpi_cfg(4));
  EXPECT_GT(tmkr.traffic.messages, 0u);
  EXPECT_GT(mpir.traffic.messages, 0u);
  EXPECT_GT(tmkr.traffic.messages, mpir.traffic.messages);
}

TEST(AppsStats, DsmVersionsExerciseTheProtocol) {
  fft3d::Params p;
  p.nx = p.ny = p.nz = 16;
  p.iters = 1;
  const auto r = fft3d::run_tmk(p, dsm_cfg(4));
  EXPECT_GT(r.dsm.diffs_created, 0u);
  EXPECT_GT(r.dsm.twins_created, 0u);
  EXPECT_GT(r.dsm.barriers, 0u);
  EXPECT_GT(r.virtual_time_us, 0.0);
}

TEST(AppsSemantics, Sweep3dUsesSemaphores) {
  sweep3d::Params p;
  p.nx = p.ny = p.nz = 16;
  const auto r = sweep3d::run_tmk(p, dsm_cfg(4));
  EXPECT_GT(r.dsm.sema_ops, 0u);
}

TEST(AppsSemantics, QsortUsesCondVars) {
  qs::Params p;
  p.n = 1 << 12;
  p.bubble_threshold = 128;
  const auto r = qs::run_tmk(p, dsm_cfg(4));
  EXPECT_GT(r.dsm.cond_ops, 0u);
  EXPECT_GT(r.dsm.lock_acquires, 0u);
}

}  // namespace
}  // namespace now::apps
