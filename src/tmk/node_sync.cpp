// Synchronization: barriers (centralized manager), locks (distributed queue
// with manager forwarding and last-holder caching), semaphores (static
// manager, two messages per operation), condition variables (queued at the
// associated lock's manager), flush (the 2(n-1)-message primitive the paper
// proposes to remove), and the Tmk_fork/Tmk_join pair OpenMP-style execution
// rides on.
#include <algorithm>
#include <functional>
#include <map>

#include "common/bytes.h"
#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

namespace {
std::uint64_t cond_key(std::uint32_t lock_id, std::uint32_t cond_id) {
  return (static_cast<std::uint64_t>(lock_id) << 32) | cond_id;
}
}  // namespace

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void Node::barrier() {
  sync_cpu();
  maybe_crash();  // "at barrier arrival" crash site
  gc_poll();
  // 0-based index of the epoch this barrier ends; kDiffRequests sent after
  // the barrier returns carry epoch_done + 1 and are folded one barrier
  // later (see update_copyset_fold).
  const std::uint64_t epoch_done =
      stats_.barriers.fetch_add(1, std::memory_order_relaxed);
  const bool update_on = rt_.config().update_enabled();

  // Judge last epoch's landed pushes before anything else: pages still
  // armed demote at their writers (the denies race the writers' push
  // passes at worst into one wasted push).
  if (update_on) push_judge(kBarrierPushKey);
  close_interval();
  // Push this epoch's diffs for promoted pages *before* the arrival is
  // sent: mailbox FIFO then guarantees every push is parked at its reader
  // before the manager's departure releases that reader.
  if (update_on) update_push_promoted(epoch_done);

  // Arrive at the tree owner: this node's own service thread when it is a
  // combining point, its parent when it is a leaf.  The flat (centralized)
  // tree makes that node 0 for everyone — today's manager.
  const std::uint32_t owner = rt_.topology().barrier_owner(id_);
  auto delta = take_delta_for(owner, Cache::kMgrLog, nullptr);
  ByteWriter w;
  VectorTime vt;
  VectorTime floor_applied;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    vt = log_.vt();
    floor_applied = gc_floor_applied_;
  }
  KnowledgeLog::serialize_vt(w, vt);
  // The sender's applied GC floor, like every delta bound for a sparse
  // manager log (see sema_signal): a fork-point floor raises the sent-cache
  // past records the barrier manager never saw, so it must raise its own
  // floor before merging or the delta would look non-contiguous.
  KnowledgeLog::serialize_vt(w, floor_applied);
  KnowledgeLog::serialize_records(w, delta);

  stats_.barrier_msgs_sent.fetch_add(1, std::memory_order_relaxed);
  sim::Message reply = rpc_call(owner, kBarrierArrive, w.take());
  stats_.barrier_msgs_recv.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(reply.payload);
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  merge_and_invalidate(KnowledgeLog::deserialize_records(r));
  // With the departure's write notices merged, pages whose pushed chunks
  // fully cover their wanted intervals come out of the barrier valid.
  if (update_on) update_land_pushed(epoch_done);
  if (rt_.config().gc_at_barriers) gc_at_barrier(floor);
  if (update_on) update_copyset_fold(epoch_done);
  ckpt_at_barrier(epoch_done);
}

void Node::on_barrier_arrive(sim::Message&& m) {
  stats_.barrier_msgs_recv.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(m.payload);
  BarrierMgrState::Arrival a;
  a.node = m.src;
  a.vt = KnowledgeLog::deserialize_vt(r);
  a.rpc_seq = m.seq;
  a.arrive_ts = m.arrive_ts_ns;
  a.via_tree = false;
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  mgr_.barrier.arrivals.push_back(std::move(a));
  tree_barrier_advance();
}

void Node::on_tree_arrive(sim::Message&& m) {
  // A child combining point's folded subtree arrival.  Same shape as a
  // direct arrival — (vt, floor, records) — except the vt is the min fold
  // over the subtree and the floor is the child's manager-log floor (the
  // max of everything its subtree announced), so raising ours to it keeps
  // the delta's contiguity exactly as a single sender's floor would.
  stats_.barrier_msgs_recv.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(m.payload);
  BarrierMgrState::Arrival a;
  a.node = m.src;
  a.vt = KnowledgeLog::deserialize_vt(r);
  a.rpc_seq = 0;
  a.arrive_ts = m.arrive_ts_ns;
  a.via_tree = true;
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  mgr_.barrier.arrivals.push_back(std::move(a));
  tree_barrier_advance();
}

void Node::tree_barrier_advance() {
  const SyncTopology& topo = rt_.topology();
  if (mgr_.barrier.arrivals.size() < topo.barrier_fanin(id_)) return;

  std::uint64_t fold_ts = 0;
  for (const auto& arr : mgr_.barrier.arrivals)
    fold_ts = std::max(fold_ts, arr.arrive_ts);
  fold_ts += static_cast<std::uint64_t>(rt_.config().barrier_manager_us * 1000.0);

  // The fold: the minimal vector time across this subtree.  At the root
  // that *is* the GC floor — every node's knowledge dominated it when it
  // arrived, so records at or below it can be reclaimed everywhere.
  VectorTime fold = mgr_.barrier.arrivals.front().vt;
  for (const auto& arr : mgr_.barrier.arrivals) fold = vt_min(std::move(fold), arr.vt);

  if (id_ != topo.barrier_root()) {
    // Interior: forward one combined arrival to the parent and keep the
    // subtree parked until its departure wave comes back down.  The
    // announced floor is this manager log's own floor (already the max of
    // every floor the subtree announced, via mgr_gc_to above), and the
    // delta is cut against what the parent already holds of this log.
    VectorTime mgr_floor(num_nodes_, 0);
    for (std::uint32_t i = 0; i < num_nodes_; ++i)
      mgr_floor[i] = mgr_.log.gc_floor(i);
    ByteWriter w;
    KnowledgeLog::serialize_vt(w, fold);
    KnowledgeLog::serialize_vt(w, mgr_floor);
    KnowledgeLog::serialize_records(
        w, mgr_.log.delta_since(vt_max(std::move(mgr_floor), tree_sent_up_vt_)));
    tree_sent_up_vt_ = mgr_.log.vt();
    sim::Message up;
    up.type = kTreeArrive;
    up.src = id_;
    up.dst = topo.barrier_parent(id_);
    up.send_ts_ns = fold_ts;
    up.payload = w.take();
    stats_.barrier_msgs_sent.fetch_add(1, std::memory_order_relaxed);
    rt_.net().send(std::move(up));
    return;
  }

  // Root: the fold over every arrival is the global floor.
  if (rt_.config().gc_at_barriers) {
    const std::size_t dropped = mgr_.log.gc_to(fold);
    if (dropped)
      stats_.gc_records_reclaimed.fetch_add(dropped, std::memory_order_relaxed);
  }
  tree_barrier_fan_down(fold, fold_ts);
}

void Node::tree_barrier_fan_down(const VectorTime& floor, std::uint64_t depart_ts) {
  for (const auto& arr : mgr_.barrier.arrivals) {
    // Cut from the arrival's (folded) vector time: a superset of what each
    // subtree member is missing, deduplicated by merge() downstream.
    ByteWriter w;
    KnowledgeLog::serialize_vt(w, floor);
    KnowledgeLog::serialize_records(w, mgr_delta_since(arr.vt));
    sim::Message depart;
    depart.type = arr.via_tree ? kTreeDepart : kBarrierDepart;
    depart.src = id_;
    depart.dst = arr.node;
    depart.seq = arr.rpc_seq;
    depart.send_ts_ns = depart_ts;
    depart.payload = w.take();
    stats_.barrier_msgs_sent.fetch_add(1, std::memory_order_relaxed);
    rt_.net().send(std::move(depart));
  }
  mgr_.barrier.arrivals.clear();
}

void Node::on_tree_depart(sim::Message&& m) {
  // The departure wave reaching this combining point: learn the global
  // floor and every record the subtree fold was missing, then fan the same
  // (floor, per-arrival delta) shape down to the parked arrivals.  After
  // the merge this log holds the global record set, and the parent that
  // sent it holds at least as much — so the sent-up cache jumps to the
  // full log vt, not just past the records actually shipped up.
  stats_.barrier_msgs_recv.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(m.payload);
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  if (rt_.config().gc_at_barriers) mgr_gc_to(floor);
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  tree_sent_up_vt_ = mgr_.log.vt();
  const std::uint64_t depart_ts =
      m.arrive_ts_ns +
      static_cast<std::uint64_t>(rt_.config().barrier_manager_us * 1000.0);
  tree_barrier_fan_down(floor, depart_ts);
}

// ---------------------------------------------------------------------------
// Barrier-time garbage collection (TreadMarks-style, at every barrier)
// ---------------------------------------------------------------------------

void Node::mgr_gc_to(const VectorTime& floor) {
  const std::size_t dropped = mgr_.log.gc_to(floor);
  if (dropped)
    stats_.gc_records_reclaimed.fetch_add(dropped, std::memory_order_relaxed);
}

std::vector<IntervalRecordPtr> Node::mgr_delta_since(const VectorTime& since) {
  // A waiter's parked vector time can go stale against the manager log's
  // floor: a cond waiter registers *before* the release that closes its
  // interval, and an on-demand exchange running while it sleeps can raise
  // the floor past its registration.  Cutting from max(floor, since) is
  // exact, not lossy: every record in (since, floor] is either the waiter's
  // own or globally known (that is what the floor certifies), so the waiter
  // already holds it.
  VectorTime floor(num_nodes_, 0);
  for (std::uint32_t i = 0; i < num_nodes_; ++i) floor[i] = mgr_.log.gc_floor(i);
  return mgr_.log.delta_since(vt_max(std::move(floor), since));
}

void Node::gc_at_barrier(const VectorTime& floor) {
  // Own diff-store entries are reclaimed one reclamation point late: this
  // pass drops entries at or below the *previous* floor, while the current
  // floor's diffs stay servable until every node has validated its pages
  // against it.  (Causality makes the delay sufficient: a peer's validation
  // fetch is replied to before the peer can reach the next reclamation
  // point — the next barrier, or the next fork, which the master only sends
  // after every slave's join — and this node only reclaims after that next
  // point.)  Barriers and fork points interleave freely: both are global
  // sync points, so the drain argument holds across either sequence, and
  // the floors they establish are monotone (a fork floor is the master's
  // post-join vector time, which dominates any earlier barrier floor; a
  // later barrier's floor is a min over vector times that all dominate the
  // fork floor).
  const std::uint32_t prev_drop = gc_drop_seq_;
  gc_drop_seq_ = std::max(gc_drop_seq_, floor[id_]);
  // An on-demand exchange may have reclaimed past prev_drop already (its ack
  // proved the validation fetches drained); the bound never moves backwards.
  gc_reclaimed_seq_ = std::max(gc_reclaimed_seq_, prev_drop);

  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    const std::size_t dropped = log_.gc_to(floor);
    if (dropped)
      stats_.gc_records_reclaimed.fetch_add(dropped, std::memory_order_relaxed);
    // Every node already knows the records below the floor, so they must
    // never ride a delta again: raise the sent-caches so delta_since never
    // reaches into the reclaimed prefix.
    for (std::uint32_t p = 0; p < num_nodes_; ++p) {
      sent_node_vt_[p] = vt_max(std::move(sent_node_vt_[p]), floor);
      sent_mgr_vt_[p] = vt_max(std::move(sent_mgr_vt_[p]), floor);
    }
    gc_floor_applied_ = vt_max(std::move(gc_floor_applied_), floor);
  }

  gc_validate_pages(floor);
  {
    // Every notice at or below the floor is now resolved (pinned or applied):
    // the exchange's ack fold may release writers' diff sources against it.
    std::lock_guard<std::mutex> lock(meta_mu_);
    gc_floor_validated_ = vt_max(std::move(gc_floor_validated_), floor);
  }

  if (prev_drop > 0) {
    std::uint64_t bytes = 0;
    std::size_t entries = 0;
    std::lock_guard<std::mutex> lock(store_mu_);
    for (auto it = diff_store_.begin(); it != diff_store_.end();) {
      if (static_cast<std::uint32_t>(it->first) <= prev_drop) {
        for (const DiffBytes& d : it->second) bytes += d.size();
        ++entries;
        it = diff_store_.erase(it);
      } else {
        ++it;
      }
    }
    if (entries) {
      diff_store_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      stats_.gc_diff_bytes_reclaimed.fetch_add(bytes, std::memory_order_relaxed);
      NOW_LOG(kDebug, "node %u GC: reclaimed %zu diff entries (%llu bytes) <= seq %u",
              id_, entries, static_cast<unsigned long long>(bytes), prev_drop);
    }
  }

  relay_prune(floor);
}

void Node::gc_raise_floor(const VectorTime& floor) {
  // A floor learned off the lock-grant chain.  Floors are *established* only
  // at global sync points (barriers, forks) that this node also attends, so
  // a propagated floor almost never advances past the applied one and this
  // returns at the compare.  When it does advance (defensive: a config mix
  // where this node skipped a establishment point), the knowledge log and
  // sent-caches are raised and pages are validated — but the own-diff
  // reclamation bounds (gc_drop_seq_ / gc_reclaimed_seq_) are NOT moved:
  // advancing them requires proof that every peer's validation fetches have
  // drained, which only the global alignment of a barrier or fork provides.
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    bool advances = false;
    for (std::uint32_t i = 0; i < num_nodes_; ++i) {
      if (floor[i] > gc_floor_applied_[i]) {
        advances = true;
        break;
      }
    }
    if (!advances) {
      // An applied floor is by now also validated on this compute thread
      // (both passes complete before it returns); keep the validated vector
      // caught up so the exchange's ack fold never lags the applied one.
      gc_floor_validated_ = vt_max(std::move(gc_floor_validated_), floor);
      return;
    }
    const std::size_t dropped = log_.gc_to(floor);
    if (dropped)
      stats_.gc_records_reclaimed.fetch_add(dropped, std::memory_order_relaxed);
    for (std::uint32_t p = 0; p < num_nodes_; ++p) {
      sent_node_vt_[p] = vt_max(std::move(sent_node_vt_[p]), floor);
      sent_mgr_vt_[p] = vt_max(std::move(sent_mgr_vt_[p]), floor);
    }
    gc_floor_applied_ = vt_max(std::move(gc_floor_applied_), floor);
  }
  gc_validate_pages(floor);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    gc_floor_validated_ = vt_max(std::move(gc_floor_validated_), floor);
  }
}

void Node::gc_validate_pages(const VectorTime& floor) {
  const std::size_t cache_budget = rt_.config().diff_cache_bytes_per_page;

  // Scan the pages merge_and_invalidate flagged as carrying notices (not the
  // whole heap), collecting the write notices at or below the floor whose
  // diffs are not already held locally.  Pages still carrying notices are
  // re-flagged for the next pass — a notice that is above this floor will be
  // below a later one.  Only the compute thread removes notices or touches
  // the diff cache, so the collected work stays valid after the page locks
  // drop; the service thread can only append newer (above-floor) notices
  // meanwhile.
  std::vector<PageIndex> scan;
  {
    std::lock_guard<std::mutex> lock(gc_scan_mu_);
    scan.swap(gc_scan_pages_);
  }
  std::sort(scan.begin(), scan.end());
  scan.erase(std::unique(scan.begin(), scan.end()), scan.end());

  struct PageWork {
    PageIndex page = 0;
    std::vector<UnappliedNotice> old;                       // every old notice
    std::map<std::uint32_t, std::vector<std::uint32_t>> fetch;  // writer -> seqs
  };
  std::vector<PageWork> work;
  std::vector<PageIndex> keep;  // pages to revisit at the next barrier
  for (PageIndex page : scan) {
    PageEntry& e = pages_[page];
    std::lock_guard<std::mutex> lock(e.mu);
    if (e.unapplied.empty()) continue;  // a fault applied everything already
    keep.push_back(page);
    PageWork w;
    w.page = page;
    for (const UnappliedNotice& n : e.unapplied) {
      if (n.seq > floor[n.writer]) continue;
      w.old.push_back(n);
      // Already held locally: pinned by a previous GC pass (no fault
      // consumed it yet), or parked as a *droppable* entry by a fault's
      // prefetch window — promoted to a pin in place, because its writer is
      // about to reclaim the source copy and eviction would lose the only
      // survivor.
      if (cache_budget > 0 && e.diff_cache.pin_existing(n.writer, n.seq)) continue;
      w.fetch[n.writer].push_back(n.seq);
    }
    if (!w.old.empty()) work.push_back(std::move(w));
  }
  if (!keep.empty()) {
    std::lock_guard<std::mutex> lock(gc_scan_mu_);
    gc_scan_pages_.insert(gc_scan_pages_.end(), keep.begin(), keep.end());
  }
  if (work.empty()) return;

  // Fetch: one request per (page, writer), through the shared batched path.
  // (w.fetch is kept intact — the pin step below walks it again.)
  std::vector<DiffWant> wants;
  for (const PageWork& w : work)
    for (const auto& [writer, seqs] : w.fetch)
      wants.push_back({w.page, writer, seqs, {}});
  std::vector<sim::Message> replies;
  auto got = fetch_diffs(wants, replies, /*for_gc=*/true);

  // Stash or apply.  With the diff cache enabled the page stays invalid and
  // lazy — the fetched chunks are pinned locally and the next fault applies
  // them (the cache's first real hits) — until the page's pinned bytes
  // exceed the budget, at which point the backlog is applied and unpinned
  // right here, so a page nobody ever reads cannot accumulate pins forever.
  // With the cache disabled, the old diffs are applied immediately.  Either
  // way old notices lamport-precede anything learned after the barrier
  // (their writers knew every reclaimed record when they created them), so
  // applying the old prefix early is byte-identical to a later full apply.
  for (PageWork& w : work) {
    PageEntry& e = pages_[w.page];
    std::lock_guard<std::mutex> lock(e.mu);
    NOW_CHECK(e.state == PageState::kInvalid)
        << "page " << w.page << " has unapplied notices but is not invalid";
    if (cache_budget > 0) {
      for (const auto& [writer, seqs] : w.fetch) {
        for (std::uint32_t seq : seqs) {
          auto it = got.find({w.page, writer, seq});
          NOW_CHECK(it != got.end())
              << "writer " << writer << " had no diff for page " << w.page
              << " interval " << seq;
          std::vector<DiffBytes> owned;
          owned.reserve(it->second.size());
          for (const DiffChunkView& v : it->second)
            owned.emplace_back(v.first, v.first + v.second);
          e.diff_cache.insert_gc(writer, seq, std::move(owned));
        }
      }
      if (e.diff_cache.bytes() <= cache_budget) continue;  // stay lazy
    }

    std::stable_sort(w.old.begin(), w.old.end(), applies_before);
    rt_.arena().protect_rw(id_, w.page);
    std::uint8_t* mem = rt_.arena().page_ptr(id_, w.page);
    std::size_t patched = 0;
    std::uint64_t applied = 0;
    for (const UnappliedNotice& n : w.old) {
      if (cache_budget > 0) {
        // Everything old is pinned by now (this pass or an earlier one).
        const auto* cached = e.diff_cache.find(n.writer, n.seq);
        NOW_CHECK(cached != nullptr)
            << "writer " << n.writer << " had no pinned diff for page "
            << w.page << " interval " << n.seq;
        for (const DiffBytes& d : *cached) {
          patched += diff_apply(mem, kPageSize, d);
          ++applied;
        }
        e.diff_cache.erase(n.writer, n.seq);
      } else {
        auto it = got.find({w.page, n.writer, n.seq});
        NOW_CHECK(it != got.end())
            << "writer " << n.writer << " had no diff for page " << w.page
            << " interval " << n.seq;
        for (const DiffChunkView& d : it->second) {
          patched += diff_apply(mem, kPageSize, d.first, d.second);
          ++applied;
        }
      }
    }
    e.unapplied.erase(
        std::remove_if(e.unapplied.begin(), e.unapplied.end(),
                       [&](const UnappliedNotice& n) {
                         return n.seq <= floor[n.writer];
                       }),
        e.unapplied.end());
    rt_.arena().protect_none(id_, w.page);  // stays invalid: the fault is lazy
    stats_.diffs_applied.fetch_add(applied, std::memory_order_relaxed);
    clock_.advance_us(rt_.config().diff_apply_per_kb_us *
                      (static_cast<double>(patched) / 1024.0));
  }
}

// ---------------------------------------------------------------------------
// On-demand GC exchange (ceiling-triggered, barrier-free)
//
// A barrier-free lock loop grows every node's knowledge log and diff store
// without bound: the barrier-time GC never runs, and the lock-chain floors
// of PR 5 only *propagate* floors established at barriers — they never
// establish one.  When a node's metadata footprint crosses
// meta_ceiling_bytes, it initiates a dedicated all-node exchange over the
// combining-tree fabric that establishes a fresh global floor right now:
//
//   initiator --kGcRequest(initiate)--> root
//   root assigns a generation, fans kGcRequest(solicit) down the tree
//   each node snapshots (log vt, validated floor), folds its children's
//     kGcArrive replies by vt_min, sends the fold up
//   root folds the global (floor, ack), fans kGcDepart down
//
// The departure's floor is min-over-nodes of the log vt — exactly the
// barrier fold's invariant, so truncation and validation reuse the PR 2/5
// machinery unchanged (gc_raise_floor).  The ack is min-over-nodes of the
// *validated* floor: every node has already resolved (pinned or applied)
// all notices at or below it, so writers may destroy the diff sources for
// their own component immediately — replacing the barrier path's one-epoch
// reclamation delay with a proof that the validation fetches already
// drained.  (A fault-path fetch never requests a seq <= the requester's own
// validated floor — validation left those pinned locally or applied — and
// an in-flight validation fetch targets seqs above the requester's
// previous validated floor, which the ack cannot exceed.)
//
// Handlers run on the service thread and never block.  Results are parked
// and applied by the compute thread at its next sync operation (gc_poll),
// preserving the partition invariant that only the compute thread mutates
// page diff caches.  Generations cannot overlap at a node: the root starts
// g+1 only after folding every g arrival, and a node's fold completes
// before its kGcArrive is sent up.
// ---------------------------------------------------------------------------

void Node::gc_poll() {
  const auto& cfg = rt_.config();
  if (!cfg.on_demand_gc_enabled()) return;
  // Apply a parked departure first: its floor may already put this node
  // back under the ceiling without another exchange.
  if (gc_parked_flag_.load(std::memory_order_acquire)) {
    maybe_crash();  // "mid GC exchange" crash site: departure parked, not applied
    VectorTime floor, ack;
    {
      std::lock_guard<std::mutex> lock(gc_depart_mu_);
      floor = std::move(gc_parked_floor_);
      ack = std::move(gc_parked_ack_);
      gc_parked_floor_.clear();
      gc_parked_ack_.clear();
      gc_parked_flag_.store(false, std::memory_order_release);
    }
    gc_raise_floor(floor);
    gc_reclaim_store_to(ack[id_]);
    relay_prune(gc_floor_snapshot());
  }
  if (meta_bytes() <= cfg.meta_ceiling_bytes) return;
  // One initiation per generation, not one per sync op: while the exchange
  // this node asked for is still in flight, stay quiet.
  const std::uint32_t seen = gc_gen_seen_.load(std::memory_order_relaxed);
  if (gc_gen_requested_ > seen) return;
  maybe_crash();  // "mid GC exchange" crash site: about to root an exchange
  gc_gen_requested_ = seen + 1;
  ByteWriter w;
  w.u8(0);   // initiate
  w.u32(0);  // generation: assigned by the root
  sim::Message m;
  m.type = kGcRequest;
  m.dst = rt_.topology().barrier_root();
  m.payload = w.take();
  send_compute(std::move(m));
}

void Node::gc_reclaim_store_to(std::uint32_t ack_seq) {
  if (ack_seq <= gc_reclaimed_seq_) return;
  gc_reclaimed_seq_ = ack_seq;
  std::uint64_t bytes = 0;
  std::size_t entries = 0;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    for (auto it = diff_store_.begin(); it != diff_store_.end();) {
      if (static_cast<std::uint32_t>(it->first) <= ack_seq) {
        for (const DiffBytes& d : it->second) bytes += d.size();
        ++entries;
        it = diff_store_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (entries) {
    diff_store_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    stats_.gc_diff_bytes_reclaimed.fetch_add(bytes, std::memory_order_relaxed);
    NOW_LOG(kDebug, "node %u on-demand GC: reclaimed %zu diff entries (%llu bytes) <= seq %u",
            id_, entries, static_cast<unsigned long long>(bytes), ack_seq);
  }
}

namespace {
// Min-heap order for the relay stock index: lowest seq on top.
constexpr std::greater<std::pair<std::uint32_t, PageIndex>> kRelayHeapOrder{};
}  // namespace

void Node::relay_keep(PageIndex page, PageEntry& e, std::uint32_t writer,
                      std::uint32_t seq) {
  if (!e.diff_cache.mark_relay(writer, seq)) return;  // absent or indexed
  auto& heap = relay_index_[writer];
  heap.emplace_back(seq, page);
  std::push_heap(heap.begin(), heap.end(), kRelayHeapOrder);
  if (++relay_index_keys_ < relay_index_compact_) return;
  // Stale keys (evicted, applied-and-erased or pinned since) now outnumber
  // the live ones: keep only what still indexes stock.  Amortized O(1) per
  // key: the next compaction needs as many new keys as survive this one.
  // The caller holds e.mu, so this page's stock is checked without
  // re-locking it; taking a second page's mu under it cannot deadlock, as
  // no other thread ever holds two page locks.
  relay_index_keys_ = 0;
  for (std::uint32_t w = 0; w < num_nodes_; ++w) {
    auto& h = relay_index_[w];
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());
    h.erase(std::remove_if(h.begin(), h.end(),
                           [&](const std::pair<std::uint32_t, PageIndex>& k) {
                             if (k.second == page)
                               return !e.diff_cache.holds_stock(w, k.first);
                             PageEntry& ke = pages_[k.second];
                             std::lock_guard<std::mutex> lock(ke.mu);
                             return !ke.diff_cache.holds_stock(w, k.first);
                           }),
            h.end());
    std::make_heap(h.begin(), h.end(), kRelayHeapOrder);
    relay_index_keys_ += h.size();
  }
  relay_index_compact_ = 2 * relay_index_keys_ + 64;
}

void Node::relay_prune(const VectorTime& floor) {
  std::size_t chunks = 0;
  std::size_t bytes = 0;
  for (std::uint32_t w = 0; w < num_nodes_; ++w) {
    auto& heap = relay_index_[w];
    while (!heap.empty() && heap.front().first <= floor[w]) {
      std::pop_heap(heap.begin(), heap.end(), kRelayHeapOrder);
      const auto [seq, page] = heap.back();
      heap.pop_back();
      --relay_index_keys_;
      PageEntry& e = pages_[page];
      std::lock_guard<std::mutex> lock(e.mu);
      if (e.diff_cache.drop_stock(w, seq, &bytes)) ++chunks;
    }
  }
  if (chunks) {
    stats_.relay_chunks_pruned.fetch_add(chunks, std::memory_order_relaxed);
    stats_.relay_bytes_pruned.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void Node::on_gc_request(sim::Message&& m) {
  ByteReader r(m.payload);
  const bool solicit = r.u8() != 0;
  const std::uint32_t gen = r.u32();
  if (!solicit) {
    NOW_CHECK_EQ(id_, rt_.topology().barrier_root())
        << "GC initiation reached a non-root node";
    // Dedup: an initiation while an exchange is in flight joins it — its
    // departure serves every node, initiator or not.
    if (gc_root_active_) return;
    gc_root_active_ = true;
    stats_.gc_exchanges.fetch_add(1, std::memory_order_relaxed);
    gc_exchange_begin(++gc_root_gen_, m.arrive_ts_ns);
    return;
  }
  gc_exchange_begin(gen, m.arrive_ts_ns);
}

void Node::gc_exchange_begin(std::uint32_t gen, std::uint64_t base_ts) {
  NOW_CHECK(!gc_ex_.active) << "overlapping GC exchange generations";
  gc_ex_.active = true;
  gc_ex_.gen = gen;
  {
    // Snapshot under meta_mu_: a compute-thread validation pass racing this
    // snapshot can only make the validated floor *smaller* than current —
    // conservative for the ack fold, never unsafe.
    std::lock_guard<std::mutex> lock(meta_mu_);
    gc_ex_.fold_vt = log_.vt();
    gc_ex_.fold_ack = gc_floor_validated_;
  }
  const std::vector<std::uint32_t> children = rt_.topology().barrier_children(id_);
  gc_ex_.awaiting = static_cast<std::uint32_t>(children.size());
  for (std::uint32_t child : children) {
    ByteWriter w;
    w.u8(1);  // solicit
    w.u32(gen);
    sim::Message m;
    m.type = kGcRequest;
    m.dst = child;
    m.payload = w.take();
    send_service(std::move(m), base_ts);
  }
  gc_exchange_advance(base_ts);
}

void Node::gc_exchange_advance(std::uint64_t base_ts) {
  if (gc_ex_.awaiting > 0) return;
  gc_ex_.active = false;
  if (id_ != rt_.topology().barrier_root()) {
    ByteWriter w;
    w.u32(gc_ex_.gen);
    KnowledgeLog::serialize_vt(w, gc_ex_.fold_vt);
    KnowledgeLog::serialize_vt(w, gc_ex_.fold_ack);
    sim::Message up;
    up.type = kGcArrive;
    up.dst = rt_.topology().barrier_parent(id_);
    up.payload = w.take();
    send_service(std::move(up), base_ts);
    return;
  }
  gc_root_active_ = false;
  gc_depart_apply(gc_ex_.gen, gc_ex_.fold_vt, gc_ex_.fold_ack, base_ts);
}

void Node::on_gc_arrive(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t gen = r.u32();
  NOW_CHECK(gc_ex_.active && gc_ex_.gen == gen && gc_ex_.awaiting > 0)
      << "stray kGcArrive for generation " << gen;
  gc_ex_.fold_vt = vt_min(std::move(gc_ex_.fold_vt), KnowledgeLog::deserialize_vt(r));
  gc_ex_.fold_ack = vt_min(std::move(gc_ex_.fold_ack), KnowledgeLog::deserialize_vt(r));
  --gc_ex_.awaiting;
  gc_exchange_advance(m.arrive_ts_ns);
}

void Node::on_gc_depart(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t gen = r.u32();
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  const VectorTime ack = KnowledgeLog::deserialize_vt(r);
  gc_depart_apply(gen, floor, ack, m.arrive_ts_ns);
}

void Node::gc_depart_apply(std::uint32_t gen, const VectorTime& floor,
                           const VectorTime& ack, std::uint64_t base_ts) {
  // The manager-duty log lives on this service thread: truncate immediately.
  mgr_gc_to(floor);
  for (std::uint32_t child : rt_.topology().barrier_children(id_)) {
    ByteWriter w;
    w.u32(gen);
    KnowledgeLog::serialize_vt(w, floor);
    KnowledgeLog::serialize_vt(w, ack);
    sim::Message m;
    m.type = kGcDepart;
    m.dst = child;
    m.payload = w.take();
    send_service(std::move(m), base_ts);
  }
  // Park for the compute thread's next gc_poll.  Two departures may land
  // between polls: merge by vt_max (both vectors are monotone across
  // generations, so the merge is the newest of each).
  {
    std::lock_guard<std::mutex> lock(gc_depart_mu_);
    if (gc_parked_floor_.empty()) {
      gc_parked_floor_ = floor;
      gc_parked_ack_ = ack;
    } else {
      gc_parked_floor_ = vt_max(std::move(gc_parked_floor_), floor);
      gc_parked_ack_ = vt_max(std::move(gc_parked_ack_), ack);
    }
    gc_parked_flag_.store(true, std::memory_order_release);
  }
  // Monotone max: a straggling lower-generation departure (reordered behind
  // a newer one on another path) must not roll the seen mark back.
  std::uint32_t seen = gc_gen_seen_.load(std::memory_order_relaxed);
  while (seen < gen && !gc_gen_seen_.compare_exchange_weak(
                           seen, gen, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

std::uint32_t Node::consume_lock_grant(sim::Message& grant) {
  ByteReader r(grant.payload);
  const std::uint32_t lock_id = r.u32();
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  merge_and_invalidate(KnowledgeLog::deserialize_records(r));
  arrive(grant);
  // The push section must land after the merge (the pushed diffs cover the
  // write notices the records just created) and runs on this compute thread,
  // which is the only mutator of the page diff caches — the same partition
  // invariant the fault path relies on.
  lock_land_push(lock_id, grant.src, r);
  if (rt_.config().gc_lock_floors) gc_raise_floor(floor);
  // Relay stock at or below the applied floor can never serve a fault nor
  // ride a future grant delta again: drop it here, on the chain itself, so
  // a rotating barrier-free loop's stock stays bounded.  Pops only what the
  // floor covers — this runs on every grant.
  relay_prune(gc_floor_snapshot());
  return lock_id;
}

void Node::lock_acquire(std::uint32_t lock_id) {
  sync_cpu();
  maybe_crash();  // "mid lock chain" crash site (requester side)
  gc_poll();
  stats_.lock_acquires.fetch_add(1, std::memory_order_relaxed);
  NOW_CHECK_NE(lock_id, kBarrierPushKey) << "lock id reserved as a push key";
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    NOW_CHECK(!st.held) << "recursive acquire of lock " << lock_id;
    if (st.cached) {
      // This node was the last holder; re-acquiring is free (TreadMarks lock
      // caching).  Consistency needs nothing: the release chain ends here.
      st.held = true;
      stats_.lock_acquires_cached.fetch_add(1, std::memory_order_relaxed);
      lock_push_begin_cs(lock_id);
      return;
    }
    st.awaiting = true;
  }

  ByteWriter w;
  w.u32(lock_id);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    KnowledgeLog::serialize_vt(w, log_.vt());
    // Applied GC floor, for the manager's sparse duty log (see sema_signal).
    KnowledgeLog::serialize_vt(w, gc_floor_applied_);
  }
  sim::Message m;
  m.type = kLockAcquire;
  m.dst = rt_.topology().lock_manager(lock_id);
  m.payload = w.take();
  send_compute(std::move(m));

  sim::Message grant = lock_grant_slot_.take();
  const std::uint32_t granted = consume_lock_grant(grant);
  NOW_CHECK_EQ(granted, lock_id);
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    st.held = true;
    st.cached = true;
    st.awaiting = false;
  }
  lock_push_begin_cs(lock_id);
}

void Node::lock_release(std::uint32_t lock_id) {
  sync_cpu();
  maybe_crash();  // "mid lock chain" crash site (holder side: grant withheld)
  gc_poll();
  close_interval();
  // Fold before any grant can be assembled for this release: the pending
  // grant below (and any later cached grant from the service thread) reads
  // the protected set the fold just updated.
  lock_push_end_cs(lock_id);
  std::optional<PendingGrant> pending;
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    NOW_CHECK(st.held) << "release of unheld lock " << lock_id;
    st.held = false;
    if (st.pending) {
      pending = std::move(st.pending);
      st.pending.reset();
      st.cached = false;
    }
  }
  if (pending)
    grant_lock(lock_id, pending->requester, pending->vt, 0, /*from_service=*/false);
}

void Node::grant_lock(std::uint32_t lock_id, std::uint32_t requester,
                      const VectorTime& vt, std::uint64_t base_ts,
                      bool from_service) {
  // Both threads can grant to the same requester at once (compute: a
  // pending grant at release; service: a forward hitting the ownership
  // cache — two disjoint locks migrating along the same edge).  The cut
  // and the enqueue must not interleave, or the later cut's grant lands
  // on the wire first and the requester's dense merge sees a gap.
  std::lock_guard<std::mutex> order(delta_send_mu_[requester]);
  auto delta = take_delta_for(requester, Cache::kNodeLog, &vt);
  if (log_enabled(LogLevel::kDebug)) {
    std::string recs;
    for (const auto& rec : delta)
      recs += " (" + std::to_string(rec->node) + "," + std::to_string(rec->seq) + ")";
    NOW_LOG(kDebug, "node %u: grant lock %u to %u: delta%s [req vt0=%u vt1=%u]",
            id_, lock_id, requester, recs.empty() ? " <empty>" : recs.c_str(),
            vt.empty() ? 0 : vt[0], vt.size() > 1 ? vt[1] : 0);
  }
  ByteWriter w;
  w.u32(lock_id);
  KnowledgeLog::serialize_vt(w, gc_floor_snapshot());
  KnowledgeLog::serialize_records(w, delta);
  append_lock_push(w, lock_id, vt, delta);
  sim::Message m;
  m.type = kLockGrant;
  m.dst = requester;
  m.payload = w.take();
  if (from_service)
    send_service(std::move(m), base_ts);
  else
    send_compute(std::move(m));
}

void Node::on_lock_acquire(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const VectorTime vt = KnowledgeLog::deserialize_vt(r);
  // The requester's applied GC floor: raise the sparse manager duty log
  // before its next delta is cut, exactly like the sema/cond paths — this is
  // what lets lock-heavy phases reclaim manager-log records at all.
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  if (rt_.config().gc_lock_floors) mgr_gc_to(floor);
  mgr_route_lock(lock_id, m.src, vt, m.arrive_ts_ns);
}

void Node::mgr_route_lock(std::uint32_t lock_id, std::uint32_t requester,
                          const VectorTime& vt, std::uint64_t base_ts) {
  LockMgrState& L = mgr_.locks[lock_id];
  if (!L.ever_requested) {
    // Never held: the manager grants directly, with whatever knowledge has
    // been routed through it (usually nothing).
    L.ever_requested = true;
    L.tail = requester;
    ByteWriter w;
    w.u32(lock_id);
    KnowledgeLog::serialize_vt(w, gc_floor_snapshot());
    KnowledgeLog::serialize_records(w, mgr_delta_since(vt));
    w.u32(0);  // no migratory push from the manager (it holds no diffs)
    sim::Message grant;
    grant.type = kLockGrant;
    grant.dst = requester;
    grant.payload = w.take();
    send_service(std::move(grant), base_ts);
    return;
  }
  const std::uint32_t prev = L.tail;
  L.tail = requester;
  ByteWriter w;
  w.u32(lock_id);
  w.u32(requester);
  KnowledgeLog::serialize_vt(w, vt);
  sim::Message fwd;
  fwd.type = kLockForward;
  fwd.dst = prev;
  fwd.payload = w.take();
  send_service(std::move(fwd), base_ts);
}

void Node::on_lock_forward(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const std::uint32_t requester = r.u32();
  const VectorTime vt = KnowledgeLog::deserialize_vt(r);

  NOW_LOG(kDebug, "node %u: forward lock %u -> requester %u", id_, lock_id, requester);
  if (requester == id_) {
    // A condvar wakeup routed back to ourselves: nobody acquired the lock
    // since we released it in cond_wait, so we still cache it.
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    NOW_CHECK(!st.held && st.cached && st.awaiting)
        << "self-forward in unexpected lock state";
    ByteWriter w;
    w.u32(lock_id);
    KnowledgeLog::serialize_vt(w, gc_floor_snapshot());
    KnowledgeLog::serialize_records(w, {});
    w.u32(0);  // nothing to push to ourselves
    sim::Message grant;
    grant.type = kLockGrant;
    grant.dst = id_;
    grant.payload = w.take();
    send_service(std::move(grant), m.arrive_ts_ns);
    return;
  }

  bool grant_now = false;
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    // `awaiting && cached` means our compute thread is blocked in cond_wait:
    // it already released the lock (keeping the ownership cache), so the
    // service thread can pass the lock on immediately.  Queuing here would
    // deadlock — the signal that wakes us needs this very lock.
    if (st.held || (st.awaiting && !st.cached)) {
      NOW_CHECK(!st.pending) << "two pending lock requesters";
      st.pending = PendingGrant{requester, vt};
    } else {
      NOW_CHECK(st.cached) << "lock forward reached a non-owner";
      st.cached = false;
      grant_now = true;
    }
  }
  NOW_LOG(kDebug, "node %u: forward lock %u: %s", id_, lock_id,
          grant_now ? "grant from cache" : "queued pending");
  if (grant_now) grant_lock(lock_id, requester, vt, m.arrive_ts_ns, /*from_service=*/true);
}

// ---------------------------------------------------------------------------
// Semaphores
// ---------------------------------------------------------------------------

void Node::sema_wait(std::uint32_t sema_id) {
  sync_cpu();
  maybe_crash();
  gc_poll();
  stats_.sema_ops.fetch_add(1, std::memory_order_relaxed);
  ByteWriter w;
  w.u32(sema_id);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    KnowledgeLog::serialize_vt(w, log_.vt());
  }
  sim::Message reply = rpc_call(rt_.topology().sema_manager(sema_id), kSemaWait, w.take());
  ByteReader r(reply.payload);
  merge_and_invalidate(KnowledgeLog::deserialize_records(r));
}

void Node::sema_signal(std::uint32_t sema_id) {
  sync_cpu();
  maybe_crash();
  gc_poll();
  stats_.sema_ops.fetch_add(1, std::memory_order_relaxed);
  close_interval();
  const std::uint32_t mgr = rt_.topology().sema_manager(sema_id);
  auto delta = take_delta_for(mgr, Cache::kMgrLog, nullptr);
  ByteWriter w;
  w.u32(sema_id);
  // The GC floor rides on every delta bound for a manager log: the sparse
  // manager log raises its own floor before merging, so a delta that starts
  // above records the manager never saw still merges contiguously — with no
  // assumption about whether the manager has processed its own barrier
  // departure yet.
  KnowledgeLog::serialize_vt(w, gc_floor_snapshot());
  KnowledgeLog::serialize_records(w, delta);
  rpc_call(mgr, kSemaSignal, w.take());  // kSemaAck
}

void Node::on_sema_wait(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t sema_id = r.u32();
  VectorTime vt = KnowledgeLog::deserialize_vt(r);
  SemaMgrState& S = mgr_.semas[sema_id];
  if (S.count > 0) {
    --S.count;
    ByteWriter w;
    KnowledgeLog::serialize_records(w, mgr_delta_since(vt));
    sim::Message grant;
    grant.type = kSemaGrant;
    grant.dst = m.src;
    grant.seq = m.seq;
    grant.payload = w.take();
    send_service(std::move(grant), m.arrive_ts_ns);
  } else {
    S.waiters.push_back({m.src, std::move(vt), m.seq});
  }
}

void Node::on_sema_signal(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t sema_id = r.u32();
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  SemaMgrState& S = mgr_.semas[sema_id];
  if (!S.waiters.empty()) {
    SemaWaiter wtr = std::move(S.waiters.front());
    S.waiters.pop_front();
    ByteWriter w;
    KnowledgeLog::serialize_records(w, mgr_delta_since(wtr.vt));
    sim::Message grant;
    grant.type = kSemaGrant;
    grant.dst = wtr.node;
    grant.seq = wtr.rpc_seq;
    grant.payload = w.take();
    send_service(std::move(grant), m.arrive_ts_ns);
  } else {
    ++S.count;
  }
  sim::Message ack;
  ack.type = kSemaAck;
  ack.dst = m.src;
  ack.seq = m.seq;
  send_service(std::move(ack), m.arrive_ts_ns);
}

// ---------------------------------------------------------------------------
// Condition variables
// ---------------------------------------------------------------------------

void Node::cond_wait(std::uint32_t lock_id, std::uint32_t cond_id) {
  NOW_LOG(kDebug, "node %u: cond_wait(%u,%u) begin", id_, lock_id, cond_id);
  sync_cpu();
  gc_poll();
  stats_.cond_ops.fetch_add(1, std::memory_order_relaxed);
  close_interval();
  // cond_wait releases the lock: fold and judge the ending critical section
  // exactly as lock_release does, before any grant can be built from this
  // release.
  lock_push_end_cs(lock_id);

  // Register at the manager FIRST: the wait message reaches the manager's
  // mailbox before any signal that the lock's next holder could issue, which
  // is what makes release-and-wait atomic (no lost wakeups).
  const std::uint32_t mgr = rt_.topology().lock_manager(lock_id);
  auto delta = take_delta_for(mgr, Cache::kMgrLog, nullptr);
  ByteWriter w;
  w.u32(lock_id);
  w.u32(cond_id);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    KnowledgeLog::serialize_vt(w, log_.vt());
    KnowledgeLog::serialize_vt(w, gc_floor_applied_);  // see sema_signal
  }
  KnowledgeLog::serialize_records(w, delta);
  // On a perfect wire "reaches the mailbox first" holds by construction:
  // send_compute delivers synchronously, so the registration is queued
  // before we release the lock below.  On a lossy wire it does not — the
  // registration can be dropped and retransmitted milliseconds later, after
  // the released lock was granted onward and the next holder's signal
  // already hit the manager (a signal with no waiter is a legal noop, so
  // the wakeup is simply lost and we block forever).  When the reliability
  // channel is armed, turn the registration into an rpc: hold the lock
  // until the manager confirms we are on the queue (kCondWaitAck), exactly
  // the request-response shape TreadMarks' UDP protocol gave every message.
  const bool ack_registration =
      rt_.config().chaos_enabled() || rt_.config().net_reliable;
  const std::uint64_t tok = ack_registration ? rpc_.begin() : 0;
  sim::Message m;
  m.type = kCondWait;
  m.dst = mgr;
  m.seq = tok;
  m.payload = w.take();
  send_compute(std::move(m));
  if (ack_registration) {
    sim::Message ack = rpc_.wait(tok);
    arrive(ack);
  }

  // Now release the lock locally so other threads can enter the critical
  // section and change the condition.
  std::optional<PendingGrant> pending;
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    NOW_CHECK(st.held) << "cond_wait outside the critical section";
    st.held = false;
    st.awaiting = true;
    if (st.pending) {
      pending = std::move(st.pending);
      st.pending.reset();
      st.cached = false;
    }
  }
  if (pending)
    grant_lock(lock_id, pending->requester, pending->vt, 0, /*from_service=*/false);

  // Block until a signal re-routes the lock to us.
  sim::Message grant = lock_grant_slot_.take();
  const std::uint32_t granted = consume_lock_grant(grant);
  NOW_CHECK_EQ(granted, lock_id);
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    st.held = true;
    st.cached = true;
    st.awaiting = false;
  }
  lock_push_begin_cs(lock_id);
  NOW_LOG(kDebug, "node %u: cond_wait(%u,%u) woke", id_, lock_id, cond_id);
}

void Node::cond_notify(std::uint32_t lock_id, std::uint32_t cond_id, bool broadcast) {
  sync_cpu();
  gc_poll();
  stats_.cond_ops.fetch_add(1, std::memory_order_relaxed);
  // The signal itself is not a release of the lock, but the manager's later
  // grants are built from its log, so ship our release chain along.
  const std::uint32_t mgr = rt_.topology().lock_manager(lock_id);
  close_interval();
  auto delta = take_delta_for(mgr, Cache::kMgrLog, nullptr);
  ByteWriter w;
  w.u32(lock_id);
  w.u32(cond_id);
  KnowledgeLog::serialize_vt(w, gc_floor_snapshot());  // see sema_signal
  KnowledgeLog::serialize_records(w, delta);
  sim::Message m;
  m.type = broadcast ? kCondBroadcast : kCondSignal;
  m.dst = mgr;
  m.payload = w.take();
  send_compute(std::move(m));
}

void Node::cond_signal(std::uint32_t lock_id, std::uint32_t cond_id) {
  cond_notify(lock_id, cond_id, /*broadcast=*/false);
}

void Node::cond_broadcast(std::uint32_t lock_id, std::uint32_t cond_id) {
  cond_notify(lock_id, cond_id, /*broadcast=*/true);
}

void Node::on_cond_wait(sim::Message&& m) {
  NOW_LOG(kDebug, "node %u MGR: cond_wait from %u", id_, m.src);
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const std::uint32_t cond_id = r.u32();
  VectorTime vt = KnowledgeLog::deserialize_vt(r);
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  mgr_.conds[cond_key(lock_id, cond_id)].push_back({m.src, std::move(vt)});
  // Confirm the registration when the reliability channel is armed (see
  // cond_wait): the waiter holds the lock until this lands, so no signal
  // can precede its queue entry.  Off the chaos/reliable path the wire is
  // synchronous and the ack would be pure overhead — the knobs-off message
  // flow stays byte-identical.
  if (rt_.config().chaos_enabled() || rt_.config().net_reliable) {
    sim::Message ack;
    ack.type = kCondWaitAck;
    ack.dst = m.src;
    ack.seq = m.seq;
    send_service(std::move(ack), m.arrive_ts_ns);
  }
}

void Node::on_cond_signal(sim::Message&& m, bool broadcast) {
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const std::uint32_t cond_id = r.u32();
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  NOW_LOG(kDebug, "node %u MGR: cond_%s from %u (waiters=%zu)", id_,
          broadcast ? "broadcast" : "signal", m.src,
          mgr_.conds[cond_key(lock_id, cond_id)].size());
  auto& q = mgr_.conds[cond_key(lock_id, cond_id)];
  // "cond_signal has no effect if no thread is waiting" (paper, Sec. 3.2.3).
  std::size_t n = broadcast ? q.size() : std::min<std::size_t>(1, q.size());
  for (std::size_t i = 0; i < n; ++i) {
    CondWaiter wtr = std::move(q.front());
    q.pop_front();
    mgr_route_lock(lock_id, wtr.node, wtr.vt, m.arrive_ts_ns);
  }
}

// ---------------------------------------------------------------------------
// Flush (retained for the ablation study)
// ---------------------------------------------------------------------------

void Node::flush() {
  sync_cpu();
  gc_poll();
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  close_interval();

  // 2(n-1) messages: a notice to every other node, each acknowledged — the
  // cost the paper's Section 3.2.4 argues against.
  struct Call {
    std::uint64_t tok;
  };
  std::vector<Call> calls;
  for (std::uint32_t peer = 0; peer < num_nodes_; ++peer) {
    if (peer == id_) continue;
    // Cut-to-enqueue ordering vs a concurrent service-thread grant to the
    // same peer (see grant_lock).
    std::lock_guard<std::mutex> order(delta_send_mu_[peer]);
    auto delta = take_delta_for(peer, Cache::kNodeLog, nullptr);
    ByteWriter w;
    KnowledgeLog::serialize_records(w, delta);
    const std::uint64_t tok = rpc_.begin();
    sim::Message m;
    m.type = kFlushNotice;
    m.dst = peer;
    m.seq = tok;
    m.payload = w.take();
    send_compute(std::move(m));
    calls.push_back({tok});
  }
  for (const Call& c : calls) {
    sim::Message ack = rpc_.wait(c.tok);
    arrive(ack);
  }
}

// ---------------------------------------------------------------------------
// Fork / join
// ---------------------------------------------------------------------------

void Node::fork_slaves(ForkFn fn, const void* arg, std::size_t arg_size) {
  sync_cpu();
  close_interval();
  // Fork is a barrier-free release point: nothing is pushed here, so the
  // push pass's candidate list must not accumulate across regions.
  epoch_dirty_.clear();
  // The fork after a join is a barrier-equivalent reclamation point: the
  // master merged every slave's records at the join, so its vector time
  // dominates the whole cluster's — and the fork deltas below bring every
  // slave up to exactly it.  Piggyback it as a GC floor: each slave applies
  // it on its compute thread before the region body runs (so its validation
  // fetches are served before it can join), and the master applies it here.
  VectorTime floor;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    floor = log_.vt();
  }
  for (std::uint32_t slave = 0; slave < num_nodes_; ++slave) {
    if (slave == id_) continue;
    // Cut-to-enqueue ordering vs a concurrent service-thread grant to the
    // same peer (see grant_lock).
    std::lock_guard<std::mutex> order(delta_send_mu_[slave]);
    auto delta = take_delta_for(slave, Cache::kNodeLog, nullptr);
    ByteWriter w;
    w.u64(reinterpret_cast<std::uint64_t>(fn));
    w.bytes(arg, arg_size);
    KnowledgeLog::serialize_vt(w, floor);
    KnowledgeLog::serialize_records(w, delta);
    sim::Message m;
    m.type = kFork;
    m.dst = slave;
    m.payload = w.take();
    send_compute(std::move(m));
  }
  if (rt_.config().gc_fork_join) gc_at_barrier(floor);
}

void Node::join_slaves() {
  // Join records were already merged by the service thread on receipt (see
  // handle_message); here the master only synchronizes time.
  for (std::uint32_t i = 0; i + 1 < num_nodes_; ++i) {
    sim::Message m = join_slot_.take();
    arrive(m);
  }
}

void Node::shutdown_slaves() {
  for (std::uint32_t slave = 0; slave < num_nodes_; ++slave) {
    if (slave == id_) continue;
    sim::Message m;
    m.type = kShutdown;
    m.dst = slave;
    send_compute(std::move(m));
  }
}

bool Node::slave_serve_one(Tmk& tmk) {
  sim::Message m = fork_slot_.take();
  if (m.type == kShutdown) return false;

  // Fork records were already merged by the service thread on receipt.
  ByteReader r(m.payload);
  auto fn = reinterpret_cast<ForkFn>(r.u64());
  std::vector<std::uint8_t> arg = r.bytes();
  const VectorTime fork_floor = KnowledgeLog::deserialize_vt(r);
  arrive(m);
  gc_poll();

  // Fork-point GC (compute thread, before the region body): with the fork
  // delta merged, this node's knowledge dominates the piggybacked floor.
  // The validation fetches are synchronous, so they are served before this
  // slave can run the region and join — which is what lets every node
  // reclaim its own ≤-previous-floor diffs at the *next* fork safely.
  if (rt_.config().gc_fork_join) gc_at_barrier(fork_floor);

  fn(tmk, arg.data(), arg.size());

  sync_cpu();
  close_interval();
  epoch_dirty_.clear();  // join: barrier-free release point, see fork_slaves
  const std::uint32_t master = rt_.topology().master_node();
  sim::Message join;
  {
    // Cut-to-enqueue ordering vs a concurrent service-thread grant to the
    // same peer (see grant_lock).
    std::lock_guard<std::mutex> order(delta_send_mu_[master]);
    auto delta = take_delta_for(master, Cache::kNodeLog, nullptr);
    ByteWriter w;
    KnowledgeLog::serialize_records(w, delta);
    join.type = kJoin;
    join.dst = master;
    join.payload = w.take();
    send_compute(std::move(join));
  }
  return true;
}

void Node::debug_dump() {
  std::lock_guard<std::mutex> lock(lock_client_mu_);
  for (auto& [id, st] : lock_client_) {
    std::fprintf(stderr,
                 "[dump] node %u lock %u: held=%d cached=%d awaiting=%d pending=%s\n",
                 id_, id, st.held, st.cached, st.awaiting,
                 st.pending ? std::to_string(st.pending->requester).c_str() : "-");
  }
  for (auto& [id, L] : mgr_.locks)
    std::fprintf(stderr, "[dump] node %u MGR lock %u: ever=%d tail=%u\n", id_, id,
                 L.ever_requested, L.tail);
  for (auto& [key, q] : mgr_.conds)
    std::fprintf(stderr, "[dump] node %u MGR cond (%u,%u): %zu waiters\n", id_,
                 static_cast<std::uint32_t>(key >> 32),
                 static_cast<std::uint32_t>(key), q.size());
}

// ---------------------------------------------------------------------------
// Shared heap allocation
// ---------------------------------------------------------------------------

std::uint64_t Node::shared_malloc(std::size_t bytes, std::size_t align) {
  sync_cpu();
  ByteWriter w;
  w.u64(bytes);
  w.u64(align);
  sim::Message reply = rpc_call(rt_.topology().alloc_server(), kAllocRequest, w.take());
  ByteReader r(reply.payload);
  return r.u64();
}

void Node::shared_free(std::uint64_t offset) {
  sync_cpu();
  ByteWriter w;
  w.u64(offset);
  rpc_call(rt_.topology().alloc_server(), kFreeRequest, w.take());
}

}  // namespace now::tmk
