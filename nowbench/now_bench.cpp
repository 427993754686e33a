// now_bench: the measuring program of the repository benchmark.
//
// One invocation runs one named workload — a fixed set of the paper's
// applications in their TreadMarks, OpenMP and MPI versions — on 4 simulated
// nodes and prints one JSON object on stdout.
//
//   now_bench --workload NAME --seed N --seconds S [--trace DIR]
//
// Load shape: a closed loop with one client.  The sequential reference runs
// once, untimed, and gives every checksum its expected value; one warm-up
// pass follows; then passes run back to back until S seconds have gone by.
// A pass runs every parallel version of every application of the workload
// with time.cpu_scale = 0, so its host wall time and its virtual (protocol
// model only) completion times come from the same runs.  After the passes,
// the runtimes of one pass are built, started with an empty program and torn
// down repeatedly: that is the set-up time.  Pass and set-up times are scaled
// to the reference machine's host speed (see calibration_s).
//
// With --trace the program instead runs a few untimed passes, one pass with
// spans around every application run, Figure 5 at cpu_scale = 150, and the
// per-layer probes of layer_probes.h, each under a span named after its
// layer; it writes DIR/trace.NAME.json (Chrome trace events) and adds the
// per-layer metrics to its JSON.
//
// Every DsmConfig knob is assigned explicitly (pinned_dsm), so no TMK_*
// environment variable can change what is measured.  README.md gives the
// workloads, the metrics and the reasons for both.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "apps/fft3d/fft3d.h"
#include "apps/qsort/qsort.h"
#include "apps/sweep3d/sweep3d.h"
#include "apps/tsp/tsp.h"
#include "apps/water/water.h"
#include "common/rng.h"
#include "layer_probes.h"
#include "trace.h"

namespace {

using namespace now;
using bench::Clock;
using bench::HostVirtual;
using bench::Samples;
using bench::seconds_between;
using bench::Span;
using bench::Tracer;

// nproc is 4 on the reference machine: 4 nodes keep one compute thread per
// core (8 nodes would run 16 threads on 4 cores and measure the scheduler).
constexpr std::uint32_t kNodes = 4;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kSetupSamples = 15;
constexpr std::size_t kProbeSamples = 256;
constexpr std::size_t kUntracedPasses = 3;
constexpr std::size_t kSpeedupReps = 3;

// The protocol defaults of the measured commit.  Every field a TMK_*
// variable could override is assigned; the cost-model fields have no
// environment override and keep their defaults.
tmk::DsmConfig pinned_dsm(const sim::FaultConfig& fault, double cpu_scale) {
  tmk::DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = std::size_t{96} << 20;
  c.net = sim::NetworkModel::udp_ethernet100();
  c.time.cpu_scale = cpu_scale;
  c.gc_at_barriers = true;
  c.gc_fork_join = true;
  c.gc_lock_floors = true;
  c.lock_push_bytes = 0;
  c.lock_push_probe = 8;
  c.lock_push_reprobe = 4;
  c.update_mode = false;
  c.update_promote_epochs = 2;
  c.update_reprobe_epochs = 4;
  c.prefetch_pages = 4;
  c.diff_cache_bytes_per_page = 16 * 1024;
  c.meta_ceiling_bytes = 0;
  c.barrier_tree_arity = 0;
  c.shard_managers = false;
  c.net_fault = fault;
  c.net_reliable = false;
  c.net_max_retries = 24;
  c.net_crash_node = tmk::DsmConfig::kNoCrashNode;
  c.net_crash_at = 0;
  c.ckpt_every = 0;
  c.stress_service_jitter = false;
  return c;
}

mpi::MpiConfig pinned_mpi(double cpu_scale) {
  mpi::MpiConfig c;
  c.num_ranks = kNodes;
  c.net = sim::NetworkModel::tcp_ethernet100();
  c.time.cpu_scale = cpu_scale;
  return c;
}

enum Version { kTmk, kOmp, kMpi, kNumVersions };
const char* const kVersionName[kNumVersions] = {"tmk", "omp", "mpi"};

// One application of a workload: its sequential reference and the parallel
// versions the workload runs, with the checksum tolerances of
// tests/apps/apps_test.cpp.
struct App {
  std::string name;
  double tol[kNumVersions] = {0, 0, 0};  // relative; 0 = exact
  std::vector<Version> versions;
  std::function<apps::AppResult()> seq;
  std::function<apps::AppResult(const tmk::DsmConfig&)> tmk, omp;
  std::function<apps::AppResult(const mpi::MpiConfig&)> mpi;
};

template <typename P>
App make_app(std::string name, const P& p, double tol_dsm, double tol_mpi,
             std::vector<Version> versions = {kTmk, kOmp, kMpi}) {
  App a;
  a.name = std::move(name);
  a.tol[kTmk] = a.tol[kOmp] = tol_dsm;
  a.tol[kMpi] = tol_mpi;
  a.versions = std::move(versions);
  a.seq = [p] { return run_seq(p, sim::TimeModel{}); };
  a.tmk = [p](const tmk::DsmConfig& c) { return run_tmk(p, c); };
  a.omp = [p](const tmk::DsmConfig& c) { return run_omp(p, c); };
  a.mpi = [p](const mpi::MpiConfig& c) { return run_mpi(p, c); };
  return a;
}

struct Workload {
  std::string name;
  std::vector<App> apps;
  sim::FaultConfig fault;  // all zero except on lossy-wire

  // Each pass draws its own wire-fault stream from (seed, pass number): the
  // retransmission waits a stream causes vary by about 10% between streams,
  // so a run's median over its passes averages many streams instead of
  // reporting one.
  sim::FaultConfig fault_for_pass(std::uint64_t pass) const {
    sim::FaultConfig f = fault;
    f.seed = Rng(fault.seed * 1000003 + pass).next_u64();
    return f;
  }
};

apps::fft3d::Params fft_params(std::size_t nx, std::size_t nz, std::uint64_t seed) {
  apps::fft3d::Params p;
  p.nx = p.ny = nx;
  p.nz = nz;
  p.iters = 2;
  p.seed = seed;
  return p;
}

apps::sweep3d::Params sweep_params(std::size_t n) {
  apps::sweep3d::Params p;
  p.nx = p.ny = p.nz = n;
  p.k_block = 6;
  return p;
}

// The workload table; README.md gives the reason for each choice.
//
// The seed reaches only inputs whose values do not change the amount of
// work: the FFT field, the Water positions and the wire-fault stream.  TSP's
// and QSORT's instances are fixed, like Sweep3D's mesh, because their
// branch-and-bound tree and partition tree are the work: across seeds 1-10
// TSP's message count varies 1.8x at 11 cities and QSORT's protocol time
// 1.3x at 2^18 keys, which would swamp any comparison made on another seed.
//
// Sweep3D's OpenMP version is left out: run after a TreadMarks run in the
// same process, about 1 run in 200 at 48^3 ends with one block's worth of
// cells computed from stale upwind values (a checksum 1.2e-7 off), and a
// benchmark run holds about 16 Sweep3D runs.
constexpr std::uint64_t kFixedInstanceSeed = 1;

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "bulk-pages") {
    w.apps.push_back(make_app("fft3d", fft_params(64, 32, seed), 1e-9, 1e-9));
    w.apps.push_back(make_app("sweep3d", sweep_params(48), 0.0, 1e-10, {kTmk, kMpi}));
  } else if (name == "migratory-locks") {
    apps::tsp::Params tsp;
    tsp.ncities = 11;
    tsp.exhaustive_depth = 7;
    tsp.seed = kFixedInstanceSeed;
    apps::water::Params water;
    water.nmol = 1024;
    water.steps = 3;
    water.seed = seed;
    w.apps.push_back(make_app("tsp", tsp, 0.0, 0.0));
    w.apps.push_back(make_app("water", water, 1e-7, 1e-7));
  } else if (name == "task-queue") {
    apps::qs::Params qs;
    qs.n = std::size_t{1} << 18;
    qs.bubble_threshold = 1024;
    qs.seed = kFixedInstanceSeed;
    w.apps.push_back(make_app("qsort", qs, 0.0, 0.0));
  } else if (name == "lossy-wire") {
    // MPI has no fault model, so only the DSM versions run here.
    w.apps.push_back(make_app("sweep3d", sweep_params(48), 0.0, 0.0, {kTmk}));
    w.apps.push_back(make_app("fft3d", fft_params(64, 32, seed), 1e-9, 0.0, {kTmk, kOmp}));
    w.fault.drop_ppm = 10000;
    w.fault.dup_ppm = 5000;
    w.fault.reorder_ppm = 10000;
    w.fault.seed = seed;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Everything one pass measured, summed over the workload's applications.
struct PassResult {
  double wall_s = 0;
  double host_s[kNumVersions] = {0, 0, 0};
  double virtual_ms[kNumVersions] = {0, 0, 0};
  sim::TrafficSnapshot traffic[kNumVersions];
  tmk::DsmStatsSnapshot dsm;  // tmk + omp versions

  std::uint64_t dsm_msgs() const {
    return traffic[kTmk].messages + traffic[kOmp].messages;
  }
  std::uint64_t dsm_wire_bytes() const {
    return traffic[kTmk].wire_bytes + traffic[kOmp].wire_bytes;
  }
};

bool checksum_ok(double want, double got, double tol) {
  return tol == 0.0 ? want == got : apps::checksum_close(want, got, tol);
}

// Runs one version of one application; a throw or a checksum that differs
// from the sequential reference counts as a failed run.
apps::AppResult run_version(const App& app, Version v, double cpu_scale,
                            const sim::FaultConfig& fault, double ref,
                            Tally& tally) {
  apps::AppResult r;
  bool ok = false;
  ++tally.attempted;
  try {
    switch (v) {
      case kTmk: r = app.tmk(pinned_dsm(fault, cpu_scale)); break;
      case kOmp: r = app.omp(pinned_dsm(fault, cpu_scale)); break;
      case kMpi: r = app.mpi(pinned_mpi(cpu_scale)); break;
      case kNumVersions: break;
    }
    ok = checksum_ok(ref, r.checksum, app.tol[v]);
    if (!ok)
      std::cerr << "now_bench: " << app.name << "." << kVersionName[v]
                << std::setprecision(17) << " checksum " << r.checksum
                << " != seq " << ref << "\n";
  } catch (const std::exception& e) {
    std::cerr << "now_bench: " << app.name << "." << kVersionName[v]
              << " threw: " << e.what() << "\n";
  }
  if (!ok) ++tally.failed;
  return r;
}

PassResult run_pass(const Workload& w, std::uint64_t pass,
                    const std::vector<double>& ref, double cpu_scale, Tally& tally,
                    Tracer* tr) {
  PassResult p;
  const sim::FaultConfig fault = w.fault_for_pass(pass);
  Span pass_span(tr, "pass", "apps");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < w.apps.size(); ++i) {
    const App& app = w.apps[i];
    Span app_span(tr, app.name, "apps");
    for (const Version v : app.versions) {
      Span version_span(tr, app.name + "." + kVersionName[v], kVersionName[v]);
      const auto v0 = Clock::now();
      const apps::AppResult r = run_version(app, v, cpu_scale, fault, ref[i], tally);
      p.host_s[v] += seconds_between(v0, Clock::now());
      p.virtual_ms[v] += r.virtual_time_us / 1000.0;
      p.traffic[v] += r.traffic;
      if (v != kMpi) p.dsm += r.dsm;
    }
  }
  p.wall_s = seconds_between(t0, Clock::now());
  return p;
}

// Host time to build, start with an empty program, and tear down every
// runtime one pass uses.
double setup_sample(const Workload& w) {
  const auto t0 = Clock::now();
  for (const App& app : w.apps)
    for (const Version v : app.versions) {
      if (v == kTmk) {
        tmk::DsmRuntime rt(pinned_dsm(w.fault, 0.0));
        rt.run_spmd([](tmk::Tmk&) {});
      } else if (v == kOmp) {
        omp::OmpRuntime rt(pinned_dsm(w.fault, 0.0));
        rt.run([](omp::Team&) {});
      } else {
        mpi::MpiRuntime rt(pinned_mpi(0.0));
        rt.run([](mpi::Comm&) {});
      }
    }
  return seconds_between(t0, Clock::now());
}

// Host speed.  On a shared machine the per-core speed drifts by 15-50%
// over minutes, which moved the median pass time of a 15 s run by up to 15%
// between runs of the same commit.  So a fixed single-threaded kernel
// (xorshift stores into a 512 KB buffer, part of this program, not of src/)
// is timed just before every pass and every set-up sample, and the sample
// is scaled by kReferenceCalibrationS / that time: host-time metrics read as
// seconds on the reference machine (a 4-vCPU Intel Xeon VM, gcc 12 -O2) at
// its usual speed.  Scaling cut the seed-to-seed spread of wall_s from
// 3-15% to 2-6%.
constexpr double kReferenceCalibrationS = 0.0065;

double calibration_s() {
  static std::vector<std::uint64_t> buf(std::size_t{1} << 16);
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ULL, sum = 0;
  for (int round = 0; round < 40; ++round)
    for (std::uint64_t& b : buf) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b += x;
      sum += b;
    }
  if (sum == 1) std::abort();  // keeps the loop observable
  return seconds_between(t0, Clock::now());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

// An object built member by member, in insertion order.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return add(key, num(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string config_json(const tmk::DsmConfig& c) {
  JsonObject o;
  o.add("num_nodes", c.num_nodes)
      .add("heap_bytes", static_cast<double>(c.heap_bytes))
      .add("cpu_scale", c.time.cpu_scale)
      .add("gc_at_barriers", c.gc_at_barriers)
      .add("gc_fork_join", c.gc_fork_join)
      .add("gc_lock_floors", c.gc_lock_floors)
      .add("lock_push_bytes", static_cast<double>(c.lock_push_bytes))
      .add("update_mode", c.update_mode)
      .add("prefetch_pages", static_cast<double>(c.prefetch_pages))
      .add("diff_cache_bytes_per_page", static_cast<double>(c.diff_cache_bytes_per_page))
      .add("meta_ceiling_bytes", static_cast<double>(c.meta_ceiling_bytes))
      .add("barrier_tree_arity", c.barrier_tree_arity)
      .add("shard_managers", c.shard_managers)
      .add("net_drop_ppm", c.net_fault.drop_ppm)
      .add("net_dup_ppm", c.net_fault.dup_ppm)
      .add("net_reorder_ppm", c.net_fault.reorder_ppm)
      .add("net_jitter_ns", static_cast<double>(c.net_fault.jitter_ns))
      .add("net_fault_seed", static_cast<double>(c.net_fault.seed))
      .add("net_reliable", c.channel().reliable)
      .add("net_crash", c.crash_enabled())
      .add("ckpt_every", c.ckpt_every);
  return o.str();
}

// ---------------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------------

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

double median(std::vector<double> v) {
  Samples s;
  s.v = std::move(v);
  return s.quantile(0.5);
}

// Per-layer metrics, plus a `probes` object with p50, p90 and n of every
// per-operation probe and a `section6` table of the paper's bands.
struct LayerReport {
  JsonObject metrics, probes, section6, speedups;

  void dist(const std::string& name, const Samples& s, bool with_p90 = true) {
    metrics.add(name + ".p50", s.quantile(0.5));
    if (with_p90) metrics.add(name + ".p90", s.quantile(0.9));
    probes.add(name, JsonObject()
                         .add("p50", s.quantile(0.5))
                         .add("p90", s.quantile(0.9))
                         .add("n", static_cast<double>(s.n()))
                         .str());
  }
  void host_virtual(const std::string& name, const HostVirtual& hv) {
    dist(name + "_us", hv.host_us);
    dist(name + "_vus", hv.virtual_us, false);
  }
  void band(const std::string& op, const Samples& s, double lo, double hi) {
    const double v = s.quantile(0.5);
    section6.add(op, JsonObject()
                         .add("measured_us", v)
                         .add("paper_lo_us", lo)
                         .add("paper_hi_us", hi)
                         .add("within", lo <= v && v <= hi)
                         .str());
  }
};

void counts_from_pass(const PassResult& p, LayerReport& L) {
  const tmk::DsmStatsSnapshot& d = p.dsm;
  sim::TrafficSnapshot dsm = p.traffic[kTmk];
  dsm += p.traffic[kOmp];
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  L.metrics.add("tmk.fault.read_faults", u(d.read_faults))
      .add("tmk.fault.write_faults", u(d.write_faults))
      .add("tmk.fault.diff_fetches", u(d.diff_fetches))
      .add("tmk.fault.fetch_per_fault", ratio(u(d.diff_fetches), u(d.read_faults)))
      .add("tmk.diff.created", u(d.diffs_created))
      .add("tmk.diff.bytes_created", u(d.diff_bytes_created))
      .add("tmk.diff.twins", u(d.twins_created))
      .add("tmk.sync.lock_acquires", u(d.lock_acquires))
      .add("tmk.sync.lock_cached_frac", ratio(u(d.lock_acquires_cached), u(d.lock_acquires)))
      .add("tmk.sync.barriers", u(d.barriers))
      .add("tmk.sync.sema_ops", u(d.sema_ops))
      .add("tmk.sync.cond_ops", u(d.cond_ops))
      .add("tmk.gc.records_reclaimed", u(d.gc_records_reclaimed))
      .add("tmk.gc.diff_kb_reclaimed", u(d.gc_diff_bytes_reclaimed) / 1024.0)
      .add("simnet.channel.retransmits", u(dsm.chan.retransmits))
      .add("simnet.channel.dup_drops", u(dsm.chan.dup_drops))
      .add("simnet.channel.reorder_holds", u(dsm.chan.reorder_holds))
      .add("simnet.channel.acks_sent", u(dsm.chan.acks_sent))
      .add("simnet.channel.retransmit_frac", ratio(u(dsm.chan.retransmits), u(dsm.messages)));
  for (tmk::MsgType t :
       {tmk::kDiffRequest, tmk::kDiffReply, tmk::kLockAcquire, tmk::kLockForward,
        tmk::kLockGrant, tmk::kBarrierArrive, tmk::kBarrierDepart, tmk::kSemaSignal,
        tmk::kSemaWait, tmk::kCondWait, tmk::kFork, tmk::kJoin})
    L.metrics.add(std::string("simnet.msgs.") + tmk::msg_type_name(t),
                  u(dsm.messages_by_type[t]));
  L.metrics.add("mpi.proto_ms", p.virtual_ms[kMpi])
      .add("mpi.msgs", u(p.traffic[kMpi].messages));
}

// Figure 5 at the default cpu_scale: a version's speedup is the sequential
// virtual time over its parallel virtual time, both summed over the
// workload's applications that run the version.
void figure5(const Workload& w, std::uint64_t first_pass,
             const std::vector<double>& ref, const std::vector<double>& seq_vus,
             Tally& tally, Tracer* tr, LayerReport& L) {
  Span span(tr, "figure5", "apps");
  const sim::TimeModel paper_time;
  double seq_ms[kNumVersions] = {0, 0, 0};
  for (std::size_t i = 0; i < w.apps.size(); ++i)
    for (const Version v : w.apps[i].versions) seq_ms[v] += seq_vus[i] / 1000.0;
  std::vector<double> speedup[kNumVersions];
  for (std::size_t rep = 0; rep < kSpeedupReps; ++rep) {
    const PassResult p =
        run_pass(w, first_pass + rep, ref, paper_time.cpu_scale, tally, nullptr);
    for (int v = 0; v < kNumVersions; ++v)
      speedup[v].push_back(ratio(seq_ms[v], p.virtual_ms[v]));
  }
  std::vector<double> omp_over_tmk;
  for (std::size_t rep = 0; rep < kSpeedupReps; ++rep)
    omp_over_tmk.push_back(ratio(speedup[kOmp][rep], speedup[kTmk][rep]));
  for (int v = 0; v < kNumVersions; ++v) {
    L.metrics.add(std::string("apps.speedup_") + kVersionName[v], median(speedup[v]));
    L.speedups.add(kVersionName[v], array(speedup[v]));
  }
  L.metrics.add("apps.omp_over_tmk", median(omp_over_tmk));
  L.speedups.add("omp_over_tmk", array(omp_over_tmk))
      .add("cpu_scale", paper_time.cpu_scale);
}

void run_probes(const Workload& w, Tracer* tr, LayerReport& L) {
  const tmk::DsmConfig cfg = pinned_dsm(w.fault, 0.0);
  const std::size_t n = kProbeSamples;
  {
    Span s(tr, "omp.fork_join", "omp");
    L.host_virtual("omp.fork_join", bench::probe_fork_join(cfg, n));
  }
  {
    Span s(tr, "tmk.fault", "tmk");
    const bench::FaultProbe f = bench::probe_faults(cfg, n);
    L.host_virtual("tmk.fault.remote_read", f.remote_read);
    L.dist("tmk.fault.prefetched_read_us", f.prefetched_read.host_us);
    L.dist("tmk.fault.twin_write_us", f.twin_write.host_us);
    L.band("diff_obtain", f.remote_read.virtual_us, 30, 80);
  }
  {
    Span s(tr, "tmk.diff", "tmk");
    const bench::DiffProbe d = bench::probe_diff(n);
    L.dist("tmk.diff.create_ns.sparse", d.create_sparse, false);
    L.dist("tmk.diff.create_ns.dense", d.create_dense, false);
    L.dist("tmk.diff.create_ns.clean", d.create_clean, false);
    L.dist("tmk.diff.apply_ns.dense", d.apply_dense, false);
    L.dist("tmk.diff.twin_ns", d.twin, false);
  }
  {
    Span s(tr, "tmk.intervals", "tmk");
    L.dist("tmk.intervals.merge_delta_us", bench::probe_merge_delta(kNodes, n));
  }
  {
    Span s(tr, "tmk.sync", "tmk");
    const HostVirtual lock = bench::probe_lock_remote(cfg, n);
    L.host_virtual("tmk.sync.barrier", bench::probe_barrier(cfg, n));
    L.host_virtual("tmk.sync.lock_remote", lock);
    L.host_virtual("tmk.sync.sema_pair", bench::probe_sema_pair(cfg, n));
    L.dist("tmk.sync.cond_pair_us", bench::probe_cond_pair(cfg, n).host_us);
    // Section 6 quotes an eight-processor barrier.
    tmk::DsmConfig eight = cfg;
    eight.num_nodes = 8;
    const HostVirtual barrier8 = bench::probe_barrier(eight, 64);
    L.dist("tmk.sync.barrier8_vus", barrier8.virtual_us, false);
    L.band("lock_remote", lock.virtual_us, 150, 500);
    L.band("barrier8", barrier8.virtual_us, 500, 700);
  }
  {
    Span s(tr, "tmk.runtime.setup", "tmk");
    L.metrics.add("tmk.runtime.setup_ms", bench::probe_runtime_setup(cfg, 25).quantile(0.5));
  }
  {
    Span s(tr, "simnet.mailbox", "simnet");
    L.dist("simnet.mailbox.hop_us", bench::probe_mailbox_hop(4 * n));
  }
  {
    Span s(tr, "simnet.network.send", "simnet");
    L.dist("simnet.network.send_ns", bench::probe_send(sim::ChannelConfig{}, n), false);
  }
  {
    Span s(tr, "simnet.channel.send", "simnet");
    L.dist("simnet.channel.send_ns",
           bench::probe_send(bench::reliable_channel(w.fault), n), false);
  }
  {
    Span s(tr, "mpi.rtt", "mpi");
    L.dist("mpi.rtt_us", bench::probe_mpi_rtt(n));
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_dir;  // empty: untraced
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "now_bench: " << why
            << "\nusage: now_bench --workload NAME --seed N --seconds S [--trace DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Workload w;
  try {
    w = make_workload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const bool traced = !args.trace_dir.empty();
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  Tally tally;

  std::vector<double> ref, seq_vus;
  const auto seq0 = Clock::now();
  {
    Span s(tr, "seq", "apps");
    for (const App& app : w.apps) {
      Span a(tr, app.name + ".seq", "apps");
      const apps::AppResult r = app.seq();
      ref.push_back(r.checksum);
      seq_vus.push_back(r.virtual_time_us);
    }
  }
  const double seq_s = seconds_between(seq0, Clock::now());

  std::uint64_t pass = 0;  // passes run so far; numbers each pass's inputs
  run_pass(w, pass++, ref, 0.0, tally, nullptr);  // warm-up

  JsonObject out;
  out.add("workload", quote(w.name))
      .add("seed", static_cast<double>(args.seed))
      .add("nodes", kNodes)
      .add("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .add("config", config_json(pinned_dsm(w.fault, 0.0)));

  if (!traced) {
    std::vector<double> wall, wall_raw, setup, setup_raw, calib;
    std::vector<double> proto_tmk, proto_omp, msgs, wire_mb;
    const auto t0 = Clock::now();
    while (wall.size() < kMinPasses || seconds_between(t0, Clock::now()) < args.seconds) {
      calib.push_back(calibration_s());
      const PassResult p = run_pass(w, pass++, ref, 0.0, tally, nullptr);
      wall_raw.push_back(p.wall_s);
      wall.push_back(p.wall_s * kReferenceCalibrationS / calib.back());
      proto_tmk.push_back(p.virtual_ms[kTmk]);
      proto_omp.push_back(p.virtual_ms[kOmp]);
      msgs.push_back(static_cast<double>(p.dsm_msgs()));
      wire_mb.push_back(static_cast<double>(p.dsm_wire_bytes()) / (1024.0 * 1024.0));
    }
    const double timed_s = seconds_between(t0, Clock::now());
    setup_sample(w);  // warm
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
      calib.push_back(calibration_s());
      setup_raw.push_back(setup_sample(w));
      setup.push_back(setup_raw.back() * kReferenceCalibrationS / calib.back());
    }
    out.add("passes", static_cast<double>(wall.size()))
        .add("reference_calibration_s", kReferenceCalibrationS)
        .add("timed_s", timed_s)
        .add("samples", JsonObject()
                            .add("wall_s", array(wall))
                            .add("setup_s", array(setup))
                            .add("proto_ms_tmk", array(proto_tmk))
                            .add("proto_ms_omp", array(proto_omp))
                            .add("msgs", array(msgs))
                            .add("wire_mb", array(wire_mb))
                            .add("wall_raw_s", array(wall_raw))
                            .add("setup_raw_s", array(setup_raw))
                            .add("calib_s", array(calib))
                            .str());
  } else {
    std::vector<double> untraced_wall;
    for (std::size_t i = 0; i < kUntracedPasses; ++i)
      untraced_wall.push_back(run_pass(w, pass++, ref, 0.0, tally, nullptr).wall_s);
    const PassResult traced_pass = run_pass(w, pass++, ref, 0.0, tally, tr);

    LayerReport L;
    L.metrics.add("apps.seq_s", seq_s)
        .add("apps.tmk_s", traced_pass.host_s[kTmk])
        .add("apps.omp_s", traced_pass.host_s[kOmp])
        .add("apps.mpi_s", traced_pass.host_s[kMpi])
        .add("trace_overhead_frac", traced_pass.wall_s / median(untraced_wall) - 1.0);
    counts_from_pass(traced_pass, L);
    figure5(w, pass, ref, seq_vus, tally, tr, L);
    run_probes(w, tr, L);

    const std::string path = args.trace_dir + "/trace." + w.name + ".json";
    std::ofstream f(path);
    tracer.write_chrome(f);
    f.close();
    if (!f) {
      std::cerr << "now_bench: cannot write " << path << "\n";
      return 1;
    }
    JsonObject spans;
    for (const auto& [name, t] : tracer.totals())
      spans.add(name, JsonObject()
                          .add("cat", quote(t.cat))
                          .add("count", static_cast<double>(t.count))
                          .add("total_s", static_cast<double>(t.total_ns) / 1e9)
                          .add("self_s", static_cast<double>(t.self_ns) / 1e9)
                          .str());
    out.add("trace_file", quote(path))
        .add("per_layer", L.metrics.str())
        .add("probes", L.probes.str())
        .add("section6", L.section6.str())
        .add("speedups", L.speedups.str())
        .add("spans", spans.str());
  }
  out.add("peak_rss_mb", peak_rss_mb())
      .add("attempted", static_cast<double>(tally.attempted))
      .add("failed", static_cast<double>(tally.failed));
  std::cout << out.str() << std::endl;
  return 0;
}
