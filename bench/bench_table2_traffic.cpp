// Table 2: "Amount of data transmitted and number of messages in the
// OpenMP, TreadMarks and MPI versions of the applications" (8 processors).
//
// The shape the paper reports: "both OpenMP and TreadMarks send more
// messages and data than MPI.  Separation of synchronization and data
// transfer, the use of an invalidate protocol, and false sharing contribute
// to this extra communication."
//
// `--json` prints each app's messages and wire MB per version, plus TSP's
// DSM runs with the prefetch window off, for check_trajectory.py to gate
// against bench/baselines/table2_traffic.json: inside a critical section
// only the lock's batch prefetches, so the window must not cost TSP's lock
// chain messages.  It clears TMK_* first, so the gate measures the default
// configuration whatever the CI leg's environment.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <iterator>

#include "bench_common.h"

namespace {

using namespace now;
using namespace now::bench;

constexpr std::uint32_t kNodes = 8;

void print_traffic(const char* version, const apps::AppResult& r) {
  std::printf("\"%s\": {\"messages\": %llu, \"wire_mb\": %.4f}", version,
              static_cast<unsigned long long>(r.traffic.messages),
              r.traffic.wire_mbytes());
}

int print_json(const Workloads& w) {
  struct Row {
    const char* name;
    VersionedResults r;
  };
  const Row rows[] = {{"Sweep3D", run_all(w.sweep, kNodes)},
                      {"3D-FFT", run_all(w.fft, kNodes)},
                      {"Water", run_all(w.water, kNodes)},
                      {"TSP", run_all(w.tsp, kNodes)},
                      {"QSORT", run_all(w.qs, kNodes)}};
  tmk::DsmConfig no_window = dsm_cfg(kNodes);
  no_window.prefetch_pages = 0;
  const apps::AppResult tsp_omp_no_window = run_omp(w.tsp, no_window);
  const apps::AppResult tsp_tmk_no_window = run_tmk(w.tsp, no_window);

  std::printf("{\n  \"table2_traffic\": {\n    \"nodes\": %u,\n"
              "    \"prefetch_pages\": %zu,\n    \"apps\": {",
              kNodes, dsm_cfg(kNodes).prefetch_window());
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    std::printf("%s\n      \"%s\": {", i == 0 ? "" : ",", rows[i].name);
    print_traffic("omp", rows[i].r.omp);
    std::printf(", ");
    print_traffic("tmk", rows[i].r.tmk);
    std::printf(", ");
    print_traffic("mpi", rows[i].r.mpi);
    std::printf("}");
  }
  std::printf("\n    },\n    \"window0\": {\"TSP\": {");
  print_traffic("omp", tsp_omp_no_window);
  std::printf(", ");
  print_traffic("tmk", tsp_tmk_no_window);
  std::printf("}}\n  }\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Workloads w = Workloads::standard(scale_from_args(argc, argv));
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json")) {
      clear_tmk_env();  // before any DsmConfig is built
      return print_json(w);
    }
  }

  std::cout << "== Table 2: data (MB) and messages on " << kNodes
            << " simulated workstations ==\n";

  Table t({"Application", "MB OpenMP", "MB Tmk", "MB MPI", "Msg OpenMP",
           "Msg Tmk", "Msg MPI"});
  // Barrier-GC, requester-side diff cache and multi-page prefetch activity:
  // records and diff bytes the DSM versions reclaimed at barriers, the fetch
  // round trips they skipped because GC pinned or a fault prefetched the
  // diffs locally, and the neighbor pages those faults batched (PfBatched)
  // and, outside critical sections, validated on arrival (PfValid).  The
  // columns of optional protocol modes follow the runtime configuration —
  // with a mode off its counters cannot move, so its rows are omitted rather
  // than printed as misleading zeros.  Barrier-free applications (TSP's
  // lock-only phases) legitimately reclaim nothing.
  const tmk::DsmConfig dsm = dsm_cfg(kNodes);
  const bool prefetch_on = dsm.prefetch_window() > 0;
  const bool update_on = dsm.update_enabled();
  const bool lock_push_on = dsm.lock_push_enabled();
  const bool ceiling_on = dsm.on_demand_gc_enabled();
  // Routed fetches and relay stock ride the diff cache: a fault inside a
  // critical section asks only the page's latest writer, which answers the
  // other writers' intervals from its relay stock (StockHit) or marks them
  // missing (StockMiss, fetched from their writers in a second round); GC
  // floors prune the stock they cover.  Outside critical sections a writer
  // folds each run of its intervals adjacent in a page's apply order into
  // one diff (Merged) and ships that many fewer reply bytes (MergeKB):
  // QSORT's task queue, whose enqueues stack dense diffs on one page, is
  // where runs form.
  std::vector<std::string> extra_head{
      "Application",  "GcRec OpenMP",  "GcRec Tmk",  "GcKB OpenMP",
      "GcKB Tmk",     "DCacheHit Tmk", "KB saved Tmk", "Routed Tmk",
      "StockHit Tmk", "StockMiss Tmk", "RelayPrune Tmk", "RelayKB Tmk",
      "Merged Tmk",   "MergeKB Tmk"};
  if (prefetch_on) {
    extra_head.push_back("PfBatched Tmk");
    extra_head.push_back("PfHit Tmk");
    extra_head.push_back("PfValid Tmk");
  }
  if (update_on) {
    extra_head.push_back("UpdPush Tmk");
    extra_head.push_back("UpdPg Tmk");
    extra_head.push_back("UpdHit Tmk");
    extra_head.push_back("UpdDemote Tmk");
  }
  if (lock_push_on) {
    extra_head.push_back("LkPush Tmk");
    extra_head.push_back("LkPg Tmk");
    extra_head.push_back("LkHit Tmk");
    extra_head.push_back("LkDemote Tmk");
  }
  if (ceiling_on) extra_head.push_back("GcXchg Tmk");
  // Lossy-wire channel columns, only when the wire can actually lose or the
  // protocol is armed (TMK_NET_* knobs): retransmitted copies, discarded
  // duplicates, out-of-order holds, and what acking the traffic cost.  With
  // the knobs at rest these are structurally zero and the rows stay clean.
  const bool chan_on = dsm.chaos_enabled() || dsm.net_reliable;
  if (chan_on) {
    extra_head.push_back("Retrans Tmk");
    extra_head.push_back("DupDrop Tmk");
    extra_head.push_back("ReoHold Tmk");
    extra_head.push_back("AckKB Tmk");
  }
  // Checkpoint/recovery columns, only when the knobs are armed (TMK_CKPT_EVERY
  // / TMK_NET_CRASH_NODE): durable epochs, staged vs incrementally-skipped
  // checkpoint traffic, and the rollback bill of any injected crash.  With
  // the knobs at rest the pass never runs and the default table stays
  // byte-identical to a pre-recovery build's.
  const bool ckpt_on = dsm.ckpt_enabled();
  const bool crash_on = dsm.crash_enabled();
  if (ckpt_on) {
    extra_head.push_back("CkptEp Tmk");
    extra_head.push_back("CkptKB Tmk");
    extra_head.push_back("CkptInc Tmk");
  }
  if (crash_on) {
    extra_head.push_back("Recov Tmk");
    extra_head.push_back("EpLost Tmk");
  }
  Table c(extra_head);
  auto add = [&](const char* name, const VersionedResults& r) {
    t.add_row({name, Table::fmt(r.omp.traffic.wire_mbytes()),
               Table::fmt(r.tmk.traffic.wire_mbytes()),
               Table::fmt(r.mpi.traffic.wire_mbytes()),
               Table::fmt(r.omp.traffic.messages), Table::fmt(r.tmk.traffic.messages),
               Table::fmt(r.mpi.traffic.messages)});
    std::vector<std::string> row{
        name, Table::fmt(r.omp.dsm.gc_records_reclaimed),
        Table::fmt(r.tmk.dsm.gc_records_reclaimed),
        Table::fmt(static_cast<double>(r.omp.dsm.gc_diff_bytes_reclaimed) / 1024.0, 1),
        Table::fmt(static_cast<double>(r.tmk.dsm.gc_diff_bytes_reclaimed) / 1024.0, 1),
        Table::fmt(r.tmk.dsm.diff_cache_hits),
        Table::fmt(static_cast<double>(r.tmk.dsm.diff_cache_bytes_saved) / 1024.0, 1),
        Table::fmt(r.tmk.dsm.diff_fetches_routed),
        Table::fmt(r.tmk.dsm.diff_stock_served),
        Table::fmt(r.tmk.dsm.diff_stock_misses),
        Table::fmt(r.tmk.dsm.relay_chunks_pruned),
        Table::fmt(static_cast<double>(r.tmk.dsm.relay_bytes_pruned) / 1024.0, 1),
        Table::fmt(r.tmk.dsm.diff_runs_merged),
        Table::fmt(static_cast<double>(r.tmk.dsm.diff_merge_bytes_saved) / 1024.0, 1)};
    if (prefetch_on) {
      row.push_back(Table::fmt(r.tmk.dsm.prefetch_requests_batched));
      row.push_back(Table::fmt(r.tmk.dsm.prefetch_hits));
      row.push_back(Table::fmt(r.tmk.dsm.prefetch_pages_validated));
    }
    if (update_on) {
      row.push_back(Table::fmt(r.tmk.dsm.update_pushes_sent));
      row.push_back(Table::fmt(r.tmk.dsm.update_pages_pushed));
      row.push_back(Table::fmt(r.tmk.dsm.update_push_hits));
      row.push_back(Table::fmt(r.tmk.dsm.update_demotions));
    }
    if (lock_push_on) {
      row.push_back(Table::fmt(r.tmk.dsm.lock_pushes_sent));
      row.push_back(Table::fmt(r.tmk.dsm.lock_pages_pushed));
      row.push_back(Table::fmt(r.tmk.dsm.lock_push_hits));
      row.push_back(Table::fmt(r.tmk.dsm.lock_push_demotions));
    }
    if (ceiling_on) row.push_back(Table::fmt(r.tmk.dsm.gc_exchanges));
    if (chan_on) {
      row.push_back(Table::fmt(r.tmk.traffic.chan.retransmits));
      row.push_back(Table::fmt(r.tmk.traffic.chan.dup_drops));
      row.push_back(Table::fmt(r.tmk.traffic.chan.reorder_holds));
      row.push_back(Table::fmt(
          static_cast<double>(r.tmk.traffic.chan.ack_wire_bytes) / 1024.0, 1));
    }
    if (ckpt_on) {
      row.push_back(Table::fmt(r.tmk.dsm.ckpt_epochs));
      row.push_back(Table::fmt(
          static_cast<double>(r.tmk.dsm.ckpt_bytes_written) / 1024.0, 1));
      row.push_back(Table::fmt(r.tmk.dsm.ckpt_pages_incremental));
    }
    if (crash_on) {
      row.push_back(Table::fmt(r.tmk.dsm.recoveries));
      row.push_back(Table::fmt(r.tmk.dsm.rollback_epochs_lost));
    }
    c.add_row(std::move(row));
  };

  // Adaptive update protocol, invalidate (pull) vs update (push) on the Tmk
  // versions: the regular applications (Sweep3D, 3D-FFT, Water) re-read the
  // same pages from the same writers every epoch, exactly the sharing the
  // copyset promotes; the irregular ones (TSP, QSORT) must not regress —
  // copysets never stabilize there and transient promotions demote via the
  // armed probes.  Pull and push always run the *same* inputs; the epoch-
  // bound applications (3D-FFT's 2 iterations, Water's 3 steps) are extended
  // so the run is longer than the adaptation window — promotion takes
  // update_promote_epochs of observation plus one epoch of lag, which at
  // Table 2's tiny defaults lands after the final read.
  Table u({"Application", "Faults pull", "Faults push", "Msg pull", "Msg push",
           "Pushes", "PushHits", "Demotions"});
  auto add_update = [&](const char* name, const auto& params,
                        const VersionedResults* r) {
    tmk::DsmConfig pushcfg = dsm_cfg(kNodes);
    pushcfg.update_mode = true;
    const apps::AppResult pl =
        r != nullptr ? r->tmk : run_tmk(params, dsm_cfg(kNodes));
    const apps::AppResult pu = run_tmk(params, pushcfg);
    u.add_row({name, Table::fmt(pl.dsm.read_faults),
               Table::fmt(pu.dsm.read_faults), Table::fmt(pl.traffic.messages),
               Table::fmt(pu.traffic.messages),
               Table::fmt(pu.dsm.update_pushes_sent),
               Table::fmt(pu.dsm.update_push_hits),
               Table::fmt(pu.dsm.update_demotions)});
  };

  // Migratory lock push, pull vs push on the lock-synchronized Tmk
  // versions: TSP's branch-and-bound bound and Water's force-merge lock are
  // the paper's canonical migratory data.  The barrier applications ride
  // along as controls — their lock traffic is negligible, so lock push must
  // leave them unchanged within run-to-run noise.
  Table l({"Application", "Faults pull", "Faults push", "Msg pull", "Msg push",
           "LkPushes", "LkHits", "LkDemotions"});
  auto add_lock_push = [&](const char* name, const auto& params,
                           const VersionedResults* r) {
    tmk::DsmConfig pushcfg = dsm_cfg(kNodes);
    pushcfg.lock_push_bytes = 16 * 1024;
    const apps::AppResult pl =
        r != nullptr ? r->tmk : run_tmk(params, dsm_cfg(kNodes));
    const apps::AppResult pu = run_tmk(params, pushcfg);
    l.add_row({name, Table::fmt(pl.dsm.read_faults),
               Table::fmt(pu.dsm.read_faults), Table::fmt(pl.traffic.messages),
               Table::fmt(pu.traffic.messages),
               Table::fmt(pu.dsm.lock_pushes_sent),
               Table::fmt(pu.dsm.lock_push_hits),
               Table::fmt(pu.dsm.lock_push_demotions)});
  };

  {
    const auto r = run_all(w.sweep, kNodes);
    add("Sweep3D", r);
    add_update("Sweep3D", w.sweep, &r);
    add_lock_push("Sweep3D", w.sweep, &r);
  }
  {
    const auto r = run_all(w.fft, kNodes);
    add("3D-FFT", r);
    auto fft_long = w.fft;
    fft_long.iters = 6;
    add_update("3D-FFT x6", fft_long, nullptr);
  }
  {
    const auto r = run_all(w.water, kNodes);
    add("Water", r);
    auto water_long = w.water;
    water_long.steps = 8;
    add_update("Water x8", water_long, nullptr);
    add_lock_push("Water", w.water, &r);
  }
  {
    const auto r = run_all(w.tsp, kNodes);
    add("TSP", r);
    add_update("TSP", w.tsp, &r);
    add_lock_push("TSP", w.tsp, &r);
  }
  {
    const auto r = run_all(w.qs, kNodes);
    add("QSORT", r);
    add_update("QSORT", w.qs, &r);
  }

  t.print(std::cout);
  std::cout << "\n(expected shape: OpenMP ~ Tmk; DSM versions send more"
               "\n messages than MPI for the regular applications)\n";
  std::cout << "\n== barrier-time GC + diff cache + multi-page prefetch"
            << (update_on ? " + update protocol" : "") << " ==\n";
  c.print(std::cout);
  std::cout << "\n== adaptive update protocol: Tmk invalidate (pull) vs"
               " update (push) ==\n";
  u.print(std::cout);
  std::cout << "(pull = the default invalidate protocol"
            << (update_on ? " — update mode is also on in the default config"
                : "")
            << "; push promotes pages whose\n copyset is stable for "
            << dsm.update_promote_epochs
            << " epochs and pushes their diffs at the barrier.  TSP and"
               "\n QSORT never promote — zero pushes — so their pull/push"
               " deltas are the branch-and-\n bound / lock-race run-to-run"
               " noise, not protocol cost)\n";
  std::cout << "\n== migratory lock push: Tmk invalidate (pull) vs lock-grant"
               " push (TMK_LOCK_PUSH_BYTES=16384) ==\n";
  l.print(std::cout);
  std::cout << "(the releaser piggybacks the diffs of its critical section's"
               " hot pages on the\n kLockGrant it forwards; TSP's bound and"
               " Water's force merge are the migratory\n targets, Sweep3D is"
               " the barrier-app control and must not move beyond noise)\n";
  return 0;
}
