// Configuration for the TreadMarks-like DSM runtime.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/env.h"
#include "simnet/channel.h"
#include "simnet/model.h"
#include "tmk/msgs.h"

namespace now::tmk {

inline constexpr std::size_t kPageSize = 4096;

using PageIndex = std::uint32_t;

namespace detail {
// Environment override for a config default (CI runs the whole test suite
// under alternate protocol configurations, e.g. TMK_PREFETCH_PAGES=16).
// Only the *default* is overridden: a test that assigns the field explicitly
// keeps its value.  The parsers moved to common/env.h so simnet's
// FaultConfig shares them; these aliases keep the historical call sites.
using env::env_flag;
using env::env_size;
}  // namespace detail

struct DsmConfig {
  std::uint32_t num_nodes = 8;

  // Size of the shared address space (per-node region size).  Must be a
  // multiple of kPageSize.
  std::size_t heap_bytes = std::size_t{64} << 20;

  sim::NetworkModel net = sim::NetworkModel::udp_ethernet100();
  sim::TimeModel time;

  // Modeled CPU cost of protocol work, charged to virtual clocks.
  double fault_overhead_us = 8.0;        // kernel trap + handler dispatch
  double diff_create_base_us = 20.0;     // paper Sec. 6: "time to obtain a
  double diff_create_per_kb_us = 12.0;   //  diff varies from ... to ..."
  double diff_apply_per_kb_us = 6.0;
  double twin_copy_us = 10.0;            // 4 KB page copy on 1998 hardware
  double barrier_manager_us = 30.0;      // manager bookkeeping at departure

  // Garbage-collect consistency metadata at barriers (TreadMarks-style): the
  // manager piggybacks the vector time of its log once every arrival has
  // merged (what every node knows after it departs) on the departure
  // message; each node validates its pages against it (fetching and pinning
  // the epoch's diffs in one batched request per writer) and reclaims
  // knowledge-log records and its own diff-store entries below it (diffs
  // one barrier delayed, after every node has validated its pages).
  // Without it, logs and diff stores grow without bound with barrier count.
  bool gc_at_barriers = true;

  // Treat the fork that follows a join as a barrier-equivalent reclamation
  // point: at join the master has merged every slave's records, so its full
  // vector time is a sound GC floor for the whole cluster; the next kFork
  // piggybacks it, each slave applies it (truncate + validate) on its compute
  // thread before the region body runs, and own diff-store entries are
  // reclaimed one reclamation point later exactly as at barriers.  This is
  // what lets OpenMP fork/join programs (regions end in kJoin, not a Tmk
  // barrier) reclaim knowledge logs and diff stores at all.
  bool gc_fork_join = true;

  // Piggyback applied GC floors on the lock chain: kLockAcquire carries the
  // requester's applied floor (the lock manager raises its sparse manager-log
  // floor before serving first-grant deltas, exactly like the sema/cond
  // paths), and kLockGrant carries the granter's (the requester raises its
  // own knowledge-log floor if it somehow lags — floors only *propagate*
  // here; they are established at barriers and forks, so own-diff
  // reclamation bounds never move on the lock chain).
  bool gc_lock_floors = true;

  // Migratory-data push on the lock-grant chain.  Each node tracks, per
  // lock, the *protected page set* — pages its compute thread faulted or
  // wrote while holding the lock — and when it forwards a kLockGrant it
  // piggybacks, per member page, the diffs of every delta record it holds
  // (its own intervals and the chain history it relays — only records the
  // requester is missing anyway, so the diffs ride the message the protocol
  // already sends).  The requester applies them during its acquire, before
  // the critical section runs: the next holder's fault and
  // kDiffRequest/kDiffReply round trip — the classic migratory-sharing
  // cost (TSP's branch-and-bound bound, Water's force merge) — disappear.
  // `lock_push_bytes` budgets the pushed diff payload per grant (a page
  // whose diffs overflow the rest of the budget takes the pull path).  0
  // disables the push entirely.  Pushed chunks ride the requester-side diff
  // cache keyed (writer, seq), which keeps them idempotent against a
  // concurrent pull.  Default overridable via TMK_LOCK_PUSH_BYTES.
  std::size_t lock_push_bytes = detail::env_size("TMK_LOCK_PUSH_BYTES", 0);

  // Consecutive critical sections of *this* holder that leave a protected
  // page untouched before it decays out of the lock's set.  Kept above
  // lock_push_reprobe so a read-only consumer (whose touches are only
  // visible on armed probe faults, every reprobe-th push) does not decay
  // between probes.
  std::uint32_t lock_push_probe = 8;

  // The lock keying's probe cadence: the holder leaves every Nth push it
  // applies to a page *armed* (contents current, page unmapped), so its
  // first access faults once, locally, proving it still touches the page.  A page still
  // armed when that holder releases the lock was dead weight — the holder
  // denies the pusher (a lock-key kPushDeny) and the page demotes from the
  // set with exponential re-admission backoff.  Must be >= 1.
  std::uint32_t lock_push_reprobe = 4;

  // Adaptive hybrid invalidate/update protocol.  Writers track a per-page
  // *copyset* (every fault-path kDiffRequest served records the requester as
  // a reader of the page); a page whose copyset has been identical and
  // nonempty for `update_promote_epochs` consecutive barrier epochs is
  // promoted to update mode: at the writer's next barrier arrival it pushes
  // the epoch's diffs for the page to those readers in one batched
  // kUpdatePush per reader, and the reader applies them during its own
  // barrier departure — the page comes out of the barrier valid, paying
  // neither the trap nor the kDiffRequest/kDiffReply round trip.
  //
  // Adaptation is bidirectional.  Reads on a valid page are invisible to the
  // protocol, so liveness is probed: every `update_reprobe_epochs`-th push
  // is applied *armed* — page contents current but left unmapped, so the
  // next access faults once, locally (no messages), and disarms it (the
  // pushes in between, including the first, validate outright: promotion
  // already rests on faults observed in consecutive epochs).  A page still
  // armed at the next barrier means the reader no longer uses the data: the
  // reader sends the writers a barrier-key kPushDeny and the page demotes
  // back to invalidate mode (irregular sharing — TSP, QSORT — stays on the
  // pull path).  Pushes ride the requester-side diff cache keyed by
  // (writer, interval seq), so a racing pull-path fetch stays idempotent.
  // Update mode requires num_nodes <= 64 (copysets are bitmasks).  Default
  // overridable via TMK_UPDATE_MODE.
  bool update_mode = detail::env_flag("TMK_UPDATE_MODE", false);

  // Consecutive epochs a page's copyset must be stable before it is promoted
  // to update mode.
  std::uint32_t update_promote_epochs = 2;

  // Every Nth push that lands on a page is applied armed (liveness probe,
  // see update_mode): larger values skip more faults between probes but let
  // a stale promotion push uselessly for longer.  Must be >= 1.
  std::uint32_t update_reprobe_epochs = 4;

  // Multi-page prefetch on fault: when a fault outside a critical section
  // sends a kDiffRequest, up to this many neighboring invalid pages (the
  // window [page+1, page+N]) have their wanted interval seqs folded into the
  // same request, so a strided traversal (Sweep3D planes, FFT transposes)
  // pays one message per window instead of one per page.  The window folds
  // only a neighbor the request covers whole (every wanted interval from a
  // contacted writer or already cached) and validates it on arrival:
  // applied in lamport order and mapped read-only, so its first read does
  // not fault (a neighbor that gained a notice while the fetch waited
  // applies what the fetch covered and stays invalid).  Inside a critical
  // section the window folds nothing — only the lock's batch prefetches
  // there (Node::lock_batch_plan) — so no parked neighbor evicts the relay
  // stock.  0 disables the window.  Default overridable via
  // TMK_PREFETCH_PAGES.
  std::size_t prefetch_pages = detail::env_size("TMK_PREFETCH_PAGES", 4);

  // Per-page byte budget for the requester-side diff cache (already-fetched
  // diff chunks kept so a refault never re-requests them).  The cache is
  // always on — prefetch, both push keyings, relay stock and GC pins all
  // park chunks in it — so the budget must be > 0.  Barrier-time GC is its
  // load-bearing consumer: the GC pass prefetches a page's still-unapplied
  // old diffs into the cache (pinned, never evicted) so a post-GC fault is
  // served locally after the writer reclaimed them.  Once a page's pinned
  // bytes exceed this budget — a page written every epoch but never read
  // here — the GC pass applies the backlog and unpins it, so the cache
  // stays bounded per page.
  std::size_t diff_cache_bytes_per_page = 16 * 1024;

  // On-demand GC under a memory ceiling (TreadMarks' threshold-triggered
  // exchange).  0 (the default) disables it: a long-running program reclaims
  // only at its barriers/forks, and a barrier-free lock loop grows its
  // knowledge log and diff store until the next global sync point.  With a
  // ceiling set, any node whose consistency-metadata footprint (log records
  // + diff-store bytes + diff-cache bytes, the byte total behind
  // Node::meta_footprint()) crosses it asks the barrier root to run a GC
  // exchange over the combining-tree fabric: arrivals fold the cluster-wide
  // minimal vector time (and minimal *validated* floor) up the tree, the
  // departure wave fans the fresh floor back down, and every node truncates
  // its log, validates its pages and raises its sent-caches exactly as at a
  // barrier — without waiting for one.  Own diff-store entries are reclaimed
  // one exchange later (against the folded min of floors every node has
  // finished validating), preserving the barrier-GC delay invariant.  The
  // exchange costs O(arity) messages per node and degenerates to a
  // centralized all-node exchange at arity 0.  Default overridable via
  // TMK_META_CEILING_BYTES.
  std::size_t meta_ceiling_bytes =
      detail::env_size("TMK_META_CEILING_BYTES", 0);

  // Combining-tree barrier fabric.  0 (the default) keeps the centralized
  // barrier: every node arrives directly at the root, which is exactly a
  // depth-1 tree — any arity >= num_nodes - 1 produces the same shape, so
  // the centralized path is not a separate code path but the flat corner of
  // the tree.  An arity in [1, num_nodes - 2] builds a static heap-indexed
  // tree: arrivals fold min vector times, GC floors and interval deltas
  // pairwise up it, departures fan the combined floor and records back
  // down, and the O(N) in/out storm at node 0 becomes O(arity) per node
  // with an O(log_arity N)-hop critical path.  Default overridable via
  // TMK_BARRIER_ARITY.
  std::uint32_t barrier_tree_arity = static_cast<std::uint32_t>(
      detail::env_size("TMK_BARRIER_ARITY", 0));

  // Shard lock/sema/cond manager placement by a mixing hash of the id
  // instead of `id % num_nodes`.  Programs overwhelmingly number their
  // synchronization objects densely from 0, so the modulo already spreads
  // *counts* evenly — but it pins every hot low-numbered object (lock 0 is
  // the work-queue lock in TSP and QSORT) onto the same low-numbered nodes
  // that also root the barrier tree and serve allocations.  The hash
  // decorrelates manager placement from id assignment so no node owns all
  // migratory chains.  Off by default (the modulo is the paper's static
  // placement); CI's features leg runs the whole suite with it on.  Default
  // overridable via TMK_SHARD_MANAGERS.
  bool shard_managers = detail::env_flag("TMK_SHARD_MANAGERS", false);

  // Lossy-wire chaos injection: seeded per-link drop / duplicate / reorder
  // / delay-jitter probabilities for every non-local transmission, all
  // default off (the wire stays perfect and the channel layer is bypassed
  // entirely — zero cost).  Any nonzero fault forces the reliability
  // channel on: sequence numbers on every message, receiver-side dedup and
  // reorder holds restoring exactly-once per-sender FIFO before any
  // handler runs, sender-side loss repair (an ack request whose answer
  // names the missing transmissions, behind an RTO with backoff), acks
  // piggybacked on reverse traffic (standalone kAck only on an idle
  // reverse link or to answer an ack request).  Deterministic: faults are
  // drawn from a counter-indexed hash of the seed per link, so a failing
  // schedule replays exactly.
  // Defaults overridable via TMK_NET_DROP_PPM / TMK_NET_DUP_PPM /
  // TMK_NET_REORDER_PPM / TMK_NET_JITTER_NS / TMK_NET_FAULT_SEED.
  sim::FaultConfig net_fault = sim::FaultConfig::from_env();

  // Run the reliability channel even on a clean wire (sequencing, acks,
  // retransmit bookkeeping, no faults) — measures the protocol's zero-loss
  // overhead.  Default overridable via TMK_NET_RELIABLE.
  bool net_reliable = detail::env_flag("TMK_NET_RELIABLE", false);

  // Consecutive RTO expiries of one packet before the channel gives a
  // verdict (a retransmission an ack request's answer proved necessary
  // counts none and restarts the count: the answer proves the peer alive).
  // Without crash injection that verdict is a loud abort (the
  // protocol, not the wire, is broken — with every fault probability < 1,
  // that many losses of the same packet is astronomically unlikely); with
  // crash injection armed it is the node-down report that triggers
  // recovery.  Default overridable via TMK_NET_MAX_RETRIES.
  std::uint32_t net_max_retries = static_cast<std::uint32_t>(
      detail::env_size("TMK_NET_MAX_RETRIES", 24));

  // Node-crash chaos injection.  kNoCrashNode (the default) disables it.
  // With a victim set, that node counts its synchronization points (barrier
  // arrivals, lock acquires/releases, sema waits/signals, on-demand GC
  // exchange steps — in program order on its compute thread) and at count
  // `net_crash_at` it dies: its mailbox closes, its links go dark, its
  // threads halt.  Detection is the channel's job (retransmit exhaustion +
  // keepalive probes -> node-down verdict); recovery is the runtime's
  // (clean failure report, or checkpoint rollback when ckpt_every > 0).
  // The crash fires once per run, including across recoveries — a restarted
  // run re-executes the same sync points but must not re-crash.  Defaults
  // overridable via TMK_NET_CRASH_NODE / TMK_NET_CRASH_AT.
  static constexpr std::uint32_t kNoCrashNode = 0xffffffffu;
  std::uint32_t net_crash_node = static_cast<std::uint32_t>(
      detail::env_size("TMK_NET_CRASH_NODE", kNoCrashNode));
  std::uint32_t net_crash_at = static_cast<std::uint32_t>(
      detail::env_size("TMK_NET_CRASH_AT", 0));

  // Barrier-aligned coordinated checkpointing: every N-th barrier epoch
  // (counted across recoveries — epoch numbering survives a restart), the
  // departure is followed by a checkpoint pass in which each node snapshots
  // its assigned slice of the shared heap (incrementally, against the last
  // durable image), the sema manager counts, and the allocator state, then
  // a commit round at the barrier root promotes the staged epoch to
  // durable.  0 (the default) disables checkpointing: a detected crash is
  // then a clean reported failure instead of a rollback.  Default
  // overridable via TMK_CKPT_EVERY.
  std::uint32_t ckpt_every = static_cast<std::uint32_t>(
      detail::env_size("TMK_CKPT_EVERY", 0));

  // When true, each service-thread request handled also injects a random
  // short host-level delay, shaking out message-ordering assumptions in
  // stress tests.  Never enabled in benchmarks.
  bool stress_service_jitter = false;
  std::uint64_t stress_seed = 1;

  std::size_t num_pages() const { return heap_bytes / kPageSize; }

  // The multi-page prefetch window in effect.
  std::size_t prefetch_window() const { return prefetch_pages; }

  // Whether the adaptive update protocol is actually in effect: copyset
  // bitmasks bound the node count.
  bool update_enabled() const { return update_mode && num_nodes <= 64; }

  // Whether the migratory lock-grant push is actually in effect.
  bool lock_push_enabled() const { return lock_push_bytes > 0; }

  // Whether the threshold-triggered on-demand GC exchange is in effect.
  bool on_demand_gc_enabled() const { return meta_ceiling_bytes > 0; }

  // Whether any wire fault is being injected (the reliability channel may
  // additionally be on without faults via net_reliable).
  bool chaos_enabled() const { return net_fault.any(); }

  // Whether node-crash injection is armed (forces the reliability channel
  // and its keepalive probes on — detection needs retransmit exhaustion).
  bool crash_enabled() const {
    return net_crash_node != kNoCrashNode && net_crash_node < num_nodes;
  }

  // Whether barrier-aligned checkpointing is in effect.
  bool ckpt_enabled() const { return ckpt_every > 0; }

  // The simnet channel configuration this DSM config implies: faults force
  // the reliability protocol on, acks travel as kAck, and Network::send
  // validates types against the tmk registry.  Crash injection additionally
  // arms keepalive probes (detection of a silently dead peer that owes
  // nobody traffic) — pure checkpointing does not: a ckpt-only run keeps
  // the perfect bypassed wire and its exact message counts.
  sim::ChannelConfig channel() const {
    sim::ChannelConfig c;
    c.reliable = net_reliable || net_fault.any() || crash_enabled();
    c.fault = net_fault;
    c.ack_type = static_cast<std::uint16_t>(kAck);
    c.num_msg_types = static_cast<std::uint16_t>(kNumMsgTypes);
    c.max_retries = net_max_retries;
    if (crash_enabled()) {
      c.probe_idle_host_us = 10000;
      c.probe_type = static_cast<std::uint16_t>(kPing);
    }
    return c;
  }

  // Whether any reclamation point can ever establish a GC floor — gates the
  // merge-time seeding of the validation-scan index (a floor that never
  // moves would let the index grow without a consumer).
  bool gc_floors_enabled() const {
    return gc_at_barriers || gc_fork_join || on_demand_gc_enabled();
  }
};

}  // namespace now::tmk
