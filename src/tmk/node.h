// One simulated workstation: its page table, consistency metadata, manager
// duties, compute-thread operations and protocol service thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/worker_pool.h"
#include "simnet/clock.h"
#include "simnet/network.h"
#include "tmk/config.h"
#include "tmk/diff.h"
#include "tmk/intervals.h"
#include "tmk/msgs.h"
#include "tmk/page.h"
#include "tmk/rpc.h"
#include "tmk/stats.h"

namespace now::tmk {

class Arena;
class DsmRuntime;
struct Tmk;

// Signature of a forked parallel-region function.  `arg` points at a blob of
// bytes copied through the fork message (the paper's "structure of pointers
// to shared variables and initial values of firstprivate variables").
using ForkFn = void (*)(Tmk&, const void* arg, std::size_t arg_size);

// Threads and the protocol lock.  A node has two threads: the compute thread
// running the application, and the service thread answering peers (in
// TreadMarks, a SIGIO handler on the one process).  All node state sits
// under one mutex, proto_mu_, as TreadMarks masks SIGIO while the library
// edits it: the service thread holds it for each handle_message, the compute
// thread for each runtime entry (a Tmk_* call, a fault).  The compute thread
// gives it up only where it blocks — RpcClient::wait and WaitSlot::take —
// so its own service thread can serve the peers it is waiting on.
class Node {
 public:
  Node(DsmRuntime& rt, std::uint32_t id);
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::uint32_t id() const { return id_; }

  // ---- lifecycle (called by the runtime) ----
  void start_service();
  void join_service();          // after the network is closed
  void bind_compute_thread();   // binds TLS so gptr resolves to this region

  // ---- compute-thread operations (the Tmk_* API) ----
  void barrier();
  void lock_acquire(std::uint32_t lock_id);
  void lock_release(std::uint32_t lock_id);
  void sema_wait(std::uint32_t sema_id);
  void sema_signal(std::uint32_t sema_id);
  void cond_wait(std::uint32_t lock_id, std::uint32_t cond_id);
  void cond_signal(std::uint32_t lock_id, std::uint32_t cond_id);
  void cond_broadcast(std::uint32_t lock_id, std::uint32_t cond_id);
  void cond_notify(std::uint32_t lock_id, std::uint32_t cond_id, bool broadcast);
  void flush();
  std::uint64_t shared_malloc(std::size_t bytes, std::size_t align);
  void shared_free(std::uint64_t offset);

  // Fork-join, master side.
  void fork_slaves(ForkFn fn, const void* arg, std::size_t arg_size);
  void join_slaves();
  void shutdown_slaves();
  // Fork-join, slave side: returns false when a shutdown was received.
  bool slave_serve_one(Tmk& tmk);

  // ---- fault path (called from the SIGSEGV handler on the compute thread) ----
  void handle_fault(void* addr);

  sim::VirtualClock& clock() { return clock_; }
  DsmStats& stats() { return stats_; }

  // Consistency-metadata footprint, for the barrier-GC plateau tests and
  // benches.  The manager-duty log is deliberately excluded — its reclaim
  // activity shows up in the gc_records_reclaimed counter instead.
  //
  // This accessor and the ones below take the protocol lock themselves;
  // runtime code that already holds it reads the fields directly.
  struct MetaFootprint {
    std::size_t log_records = 0;        // knowledge-log interval records held
    std::size_t log_bytes = 0;          // serialized bytes of those records
    std::size_t diff_store_entries = 0; // (page, seq) diff entries held
    std::size_t diff_store_bytes = 0;   // bytes across those entries
    std::size_t diff_cache_bytes = 0;   // requester-side cache bytes (pins
                                        // included) across all pages
    std::size_t diff_cache_pinned_bytes = 0;  // subset held by pinned entries
                                              // (GC prefetches + promotions)
    std::size_t relay_bytes = 0;        // subset of diff_cache_bytes retained
                                        // for the migratory lock relay
    // The metric the on-demand GC ceiling bounds: every byte of consistency
    // metadata that grows with synchronization history.
    std::size_t total_bytes() const {
      return log_bytes + diff_store_bytes + diff_cache_bytes;
    }
  };
  MetaFootprint meta_footprint();
  // Page-table chunks this node has allocated (kPageChunkPages pages each).
  // Host memory, not consistency metadata: outside MetaFootprint.
  std::size_t page_chunks();
  // This node's knowledge-log vector time.
  VectorTime vector_time();
  // The highest GC floor applied so far, by a barrier or fork point
  // (gc_at_barrier), a lock grant or an on-demand exchange (gc_raise_floor).
  // Piggybacked on messages whose records merge into a peer's manager log,
  // so the sparse manager log can raise its own floor before merging.
  VectorTime gc_floor_snapshot();
  // Prints lock-client and manager state to stderr (deadlock forensics).
  void debug_dump();

  // ---- push engine surface (node_push.cpp), public for tests ----
  // Push key of the barrier keying (update mode); every other push key is a
  // lock id, which is why no lock may take this id.
  static constexpr std::uint32_t kBarrierPushKey = 0xffffffffu;
  // Whether this node, as a pusher, admits `page` under `key`: promoted in
  // its copyset (kBarrierPushKey) or a member of the lock's protected set.
  bool push_admitted(std::uint32_t key, PageIndex page);
  // Compute thread: one kPushDeny per pusher, naming the pages whose pushes
  // under `key` were judged dead.
  void push_deny(std::uint32_t key,
                 const std::map<std::uint32_t, std::vector<PageIndex>>& deny);

 private:
  // Holds proto_mu_ for one runtime entry or one service handler.  Taking it
  // again on the thread that already holds it fails loudly instead of
  // deadlocking: the case that matters is runtime code holding the lock
  // and touching a protected page, whose fault would re-enter the runtime.
  class ProtoGuard {
   public:
    explicit ProtoGuard(Node& node);
    ~ProtoGuard();
    ProtoGuard(const ProtoGuard&) = delete;
    ProtoGuard& operator=(const ProtoGuard&) = delete;

   private:
    Node& node_;
  };
  std::mutex proto_mu_;

  // ---------- consistency engine (compute thread) ----------
  // Ends the open interval at a release: appends the interval record with the
  // dirty pages as write notices and write-protects them (diffs materialize
  // lazily).  No-op when nothing was written.
  void close_interval();
  // Learns foreign interval records: appends unapplied notices and
  // invalidates local copies (acquire side of lazy invalidate RC).
  void merge_and_invalidate(const std::vector<IntervalRecordPtr>& recs);
  // Fetches and applies all unapplied diffs for a page (fault path).
  // Outside a critical section it asks for merged diff runs, and its
  // prefetch window validates each neighbor the request covers whole (see
  // node_fault.cpp).
  void fetch_and_apply(PageIndex page, PageEntry& entry);
  // Fetched diff chunks: views into reply payloads keyed (page, author, seq)
  // (fetch_diffs).
  using DiffChunkView = std::pair<const std::uint8_t*, std::size_t>;
  using DiffKey = std::tuple<PageIndex, std::uint32_t, std::uint32_t>;
  using FetchedDiffs = std::map<DiffKey, std::vector<DiffChunkView>>;
  // What apply passes cost: bytes patched and chunks applied, charged
  // together by charge_apply (diffs_applied, diff_apply_per_kb_us).
  struct ApplyCost {
    std::size_t patched = 0;
    std::uint64_t applied = 0;
  };
  // The one apply sequence (compute thread), shared by the fault, the
  // prefetch window's validation and the push landing.  Cover: every one of
  // the first `n` notices of an invalid page's `unapplied` must be held in
  // `fetched` (may be null) or the page's diff cache, else nothing changes
  // and it returns false.  Then sort them by applies_before, apply, release
  // each cached entry — with `keep`, retain every applied chunk as relay
  // stock instead (pins excepted) — drop them from `unapplied`, and map:
  // read-only once nothing is left unapplied, else invalid for another
  // round.  Adds the work to `cost`.
  bool apply_covered(PageIndex page, PageEntry& e, std::size_t n,
                     const FetchedDiffs* fetched, bool keep, ApplyCost& cost);
  void charge_apply(const ApplyCost& cost);
  // A read of an invalid page (its fault, or its validation by a
  // neighbor's prefetch): moves its unheard writers into read_marks_.
  void hear_read(PageIndex page, PageEntry& e);
  // Computes diff(twin, current) into the diff store and drops the twin.
  // The page must be readable.
  void materialize_twin(PageIndex page, PageEntry& entry);
  void invalidate_page(PageIndex page, PageEntry& entry);

  // ---------- barrier-time GC (compute thread, on barrier departure) ----------
  // Applies the departure's floor — the vector time every node holds once
  // departed (gc_apply_floor) — and reclaims own diff-store entries from the
  // previous epoch's floor (one barrier delayed, so in-flight validation
  // fetches are always served).
  void gc_at_barrier(const VectorTime& floor);
  // The body shared by gc_at_barrier and gc_raise_floor: truncates the
  // knowledge log and sent-caches to the floor, raises the applied floor,
  // ensures every write notice at or below it has its diff locally (pinned
  // in the page diff cache; a page over its cache budget applies its pinned
  // backlog), then raises the validated floor.
  void gc_apply_floor(const VectorTime& floor);
  // The validation pass of gc_apply_floor: fetch + pin old diffs.
  void gc_validate_pages(const VectorTime& floor);
  // Raises the manager-duty log's floor to a sender's piggybacked floor
  // before merging its delta (service thread).
  void mgr_gc_to(const VectorTime& floor);
  // Applies a floor that did not come from a barrier or fork point (compute
  // thread): one a lock grant carries, or an on-demand exchange's departure
  // (gc_poll).  Raises the knowledge-log floor, sent-caches and validates
  // pages — but never the own-diff reclamation bounds, which only move at
  // barrier/fork points (whose global alignment proves no validation fetch
  // is still in flight) or to an exchange's ack.  Fast no-op when the floor
  // does not advance past the applied one.
  void gc_raise_floor(const VectorTime& floor);

  // ---------- on-demand GC exchange (ceiling-triggered, barrier-free) ----------
  // A node whose metadata footprint crosses meta_ceiling_bytes cannot wait
  // for the next barrier — a barrier-free lock loop may never reach one.  It
  // asks the tree root (kGcRequest) to run a dedicated all-node exchange on
  // the combining-tree fabric: the root solicits every node, each snapshots
  // its (log vector time, validated floor) and folds its children's
  // kGcArrive replies by vt_min, the root folds the global minima and fans
  // kGcDepart back down.  The departure carries two vectors:
  //  - floor: min over nodes of the log vt — every record at or below it is
  //    globally known.  (A barrier's floor, the departure vector time, is
  //    higher; both certify records every node holds, which is all the
  //    shared gc_raise_floor path needs, so each node truncates through it);
  //  - ack:   min over nodes of the *validated* floor — every node has
  //    already resolved (pinned or applied) all notices at or below it, so
  //    the writer may destroy the diff sources themselves.  This replaces
  //    the barrier path's one-epoch delay: instead of waiting a barrier to
  //    prove no validation fetch is in flight, the ack proves the fetches
  //    already finished.
  // Handlers run on the service thread and never block; the results are
  // parked and applied by the compute thread at its next sync operation
  // (gc_poll), whose validation pass may fetch and so block.

  // O(1) ceiling metric: log bytes + diff store bytes + diff cache bytes.
  std::size_t meta_bytes();
  // Compute-thread entry hook at every sync operation: applies a parked
  // kGcDepart (truncate + validate + reclaim own store to the ack) and
  // initiates a new exchange if the footprint still exceeds the ceiling.
  void gc_poll();
  // Destroys own diff-store entries with seq <= ack_seq — an exchange's ack,
  // or the previous barrier floor (compute thread; raises gc_reclaimed_seq_
  // only — gc_drop_seq_ stays barrier-owned).
  void gc_reclaim_store_to(std::uint32_t ack_seq);
  // Relay stock: relay_keep marks an entry of `page`'s diff cache as stock
  // and indexes it; relay_prune drops the stock the floor covers —
  // validation resolved those notices and every future grant delta is cut
  // above the floor, so no fault or routed request can want them again — in
  // time proportional to what it drops.
  void relay_keep(PageIndex page, PageEntry& e, std::uint32_t writer,
                  std::uint32_t seq);
  void relay_prune(const VectorTime& floor);
  // Service-thread handlers for the exchange messages.
  void on_gc_request(sim::Message&& m);
  void on_gc_arrive(sim::Message&& m);
  void on_gc_depart(sim::Message&& m);
  // Snapshot own (log vt, validated floor), solicit children, and advance.
  void gc_exchange_begin(std::uint32_t gen, std::uint64_t base_ts);
  // Once all children folded: send kGcArrive up (interior) or establish the
  // global floor/ack and start the departure wave (root).
  void gc_exchange_advance(std::uint64_t base_ts);
  // Departure at one node: raise the manager log's floor immediately,
  // forward to children, park (floor, ack) for the compute thread.
  void gc_depart_apply(std::uint32_t gen, const VectorTime& floor,
                       const VectorTime& ack, std::uint64_t base_ts);
  // delta_since against the sparse manager log, cutting from the maximum of
  // `since` and the log's own floor: an exchange floor can pass a parked
  // waiter's stale vector time (a cond waiter registers before the release
  // that closes the interval), and the skipped records are by definition
  // globally known — the waiter already holds them.
  std::vector<IntervalRecordPtr> mgr_delta_since(const VectorTime& since);

  // ---------- push engine (node_push.cpp) ----------
  // Diffs that ride ahead of the fault that would otherwise pull them, fed
  // by two keyings that each keep only what they observe and where they
  // send; everything after the bytes arrive is shared.
  struct PushedChunk {
    std::uint32_t writer = 0;
    std::uint32_t seq = 0;
    std::vector<DiffBytes> chunks;
  };
  // What a landing pass accumulates: its apply cost and the denies it owes.
  struct PushBatch {
    ApplyCost cost;
    std::map<std::uint32_t, std::vector<PageIndex>> deny;  // pusher -> pages
  };
  // The one landing routine (compute thread): park the chunks in the page's
  // diff cache, keyed (writer, seq); deny `pushers` if the budget rejected
  // every chunk; nothing more on a page already valid; apply in lamport
  // order only when every unapplied notice is covered (otherwise the
  // partial push is judged); then arm or validate.  The lock keying retains
  // applied droppable chunks as relay stock.
  void push_land(std::uint32_t key, PageIndex page,
                 const std::vector<std::uint32_t>& pushers,
                 std::vector<PushedChunk>& chunks, PushBatch& b);
  // The shared tail of every applied push (page contents current, mapped
  // read-only by apply_covered): every Nth push to the page is unmapped
  // again, armed and judged under `key`; the rest stay validated.
  void push_settle(std::uint32_t key, PageIndex page, PageEntry& e,
                   const std::vector<std::uint32_t>& pushers);
  // Charges a landing pass's apply cost and sends the denies it owes.
  void push_finish(std::uint32_t key, PushBatch& b);
  // Judges the pushes landed under `key` since its last judge point (the
  // barrier key at barrier entry, a lock at its release): a page still
  // armed, or partially covered and still invalid with unapplied notices,
  // was a dead push and is denied to its pushers.
  void push_judge(std::uint32_t key);
  // push_deny's body, for callers already holding the lock.
  void send_denies(std::uint32_t key,
                   const std::map<std::uint32_t, std::vector<PageIndex>>& deny);
  // A probe fault consumed an armed page: count the arming keying's hit.
  void push_hit(PushKind kind);

  // ---- barrier keying: the adaptive update protocol, inside barrier() ----
  // Writer side, before the barrier arrival is sent: push the epoch's diffs
  // for update-promoted pages to their stable readers, one batched
  // kUpdatePush per reader, tagged with this barrier's index.  Sent before
  // kBarrierArrive, so mailbox FIFO guarantees every reader's service
  // thread parks the chunks before its barrier departure can be delivered.
  void update_push_promoted(std::uint64_t barrier_index);
  // Reader side, after the departure's records are merged: land the pushes
  // tagged with this barrier's index.  A faster writer may already have
  // departed and pushed for the *next* barrier; those pushes must wait for
  // the records they describe.
  void update_land_pushed(std::uint64_t barrier_index);
  // Writer side, after departure: fold the finished epoch's observed readers
  // into each page's copyset and promote pages stable for
  // update_promote_epochs consecutive epochs.  `epoch` is the 0-based index
  // of the epoch that just ended (requests are tagged with it, making the
  // fold deterministic under service-thread timing).
  void update_copyset_fold(std::uint64_t epoch);

  // ---- lock keying: the migratory lock push, on the kLockGrant chain ----
  // Fault-time attribution: records the faulted page against every lock the
  // compute thread currently holds (builds the per-CS touch sets the release
  // folds and the next grant's batch reads).
  void lock_push_note_touch(PageIndex page);
  // Critical-section bracket: maintains held_locks_ (which routes faults and
  // keeps relay stock) and the section's touch list, whatever the config:
  // begin starts the list, end folds it into the lock's touch history.  With
  // lock push on, end also folds it into the lock's protected set — touched
  // pages (re)gain membership, member pages untouched for lock_push_probe
  // consecutive own CSes decay out — and judges the pushes this acquire
  // landed.
  void lock_push_begin_cs(std::uint32_t lock_id);
  void lock_push_end_cs(std::uint32_t lock_id);
  // Grant side of the critical-section batch: the pages other nodes'
  // records in the grant's delta name that this node touched in an earlier
  // critical section of the lock join cs_batch_, for the section's first
  // diff request to fold in whichever of them are still invalid — the only
  // prefetch inside a critical section.
  void lock_batch_plan(std::uint32_t lock_id,
                       const std::vector<IntervalRecordPtr>& delta);
  // Granter side: appends the push section to a kLockGrant payload — per
  // member page of the lock named by the delta, every delta entry this node
  // holds as diffs (own intervals from the diff store, relayed ones from
  // the page's retained cache); a page whose held set outgrows the rest of
  // lock_push_bytes takes the pull path.  Runs on the compute thread
  // (release with a pending requester) or the service thread (cached grant
  // on kLockForward).
  void append_lock_push(ByteWriter& w, std::uint32_t lock_id,
                        const std::vector<IntervalRecordPtr>& delta);
  // Requester side, inside lock_acquire/cond_wait on the compute thread:
  // lands the grant's push section before the critical section runs.
  void lock_land_push(std::uint32_t lock_id, std::uint32_t granter,
                      ByteReader& r);
  // Shared tail of lock_acquire and cond_wait: merge the grant's records,
  // land its push section and raise the piggybacked floor.
  std::uint32_t consume_lock_grant(sim::Message& grant);

  // ---------- crash injection + checkpoint/rollback (node_ckpt.cpp) ----------
  // Compute-thread hook at every sync operation (and at the GC-exchange
  // apply/initiate sites inside gc_poll): first unwinds promptly if a peer's
  // death was announced (NodeDownError), then — if this node is the scripted
  // victim and its sync-point counter just hit net_crash_at — kills the node:
  // links go dark (Network::fail_node), the service thread starts dropping
  // traffic, and NodeCrashedError unwinds the compute thread.  The crash
  // fires once per *run*, including across recoveries (DsmRuntime::claim_crash).
  void maybe_crash();
  // Service thread, on the runtime's kNodeDown verdict: poisons every
  // rendezvous so the compute thread unwinds wherever it is blocked.
  void node_down(std::uint32_t victim);
  // Compute thread, at the end of barrier(): every ckpt_every-th barrier
  // stages this node's slice of the heap (incremental against the durable
  // image), the sema counts it manages and — on the alloc server — the
  // allocator, then commits to the barrier root.  The commit round is itself
  // a barrier: nobody proceeds until the root promoted the epoch, so no
  // page mutates while peers are still staging.
  void ckpt_at_barrier(std::uint64_t epoch_done);
  void on_ckpt_commit(sim::Message&& m);  // service, root: park + promote at N
  // Recovery (runtime, while the cluster is quiesced): installs one durable
  // page image as this node's initial state — content resident, kReadOnly,
  // ever_valid — exactly what a fresh runtime whose heap started with these
  // bytes would look like after a first read fault.
  void rehydrate_page(PageIndex page, const unsigned char* data);

  // ---------- messaging ----------
  // Batched diff fetch, shared by the fault path (and its prefetch window)
  // and the GC validation pass (the kDiffRequest wire layout lives in
  // exactly one requester).  Wants are grouped into one pipelined multi-page
  // request per writer; the returned chunk views, keyed (page, author, seq),
  // point into the reply payloads appended to `replies`, which the caller
  // keeps alive for as long as the views are used.  Counts the round trips
  // in diff_fetches.
  //
  // A want with `authors` (parallel to `seqs`) is *routed*: it asks
  // `writer` for other writers' intervals too, which the writer answers
  // from its relay stock for the page.  A request carrying any routed want
  // uses the routed layout (every entry names its author); entries the
  // writer no longer holds come back marked missing and are appended to
  // *misses (required then), for the caller to fetch from their authors.
  //
  // A seq marked kDiffSeqFolds (fault path, outside critical sections)
  // folds into the *run* of the seq before it: the writer's intervals
  // adjacent in the page's applies_before order.  The writer folds a run
  // into one diff (diff_merge) filed under its last seq; the others come
  // back with no chunks, so applying the run in order applies the
  // composite once, in its place.  The reply echoes plain seqs.
  struct DiffWant {
    PageIndex page = 0;
    std::uint32_t writer = 0;
    std::vector<std::uint32_t> seqs;
    std::vector<std::uint32_t> authors;  // empty: every seq is writer's own
  };
  // kDiffRequest flag bits, the run marker (the high bit of a wanted seq),
  // and the routed reply's marker (in the chunk count's place) for an
  // interval the writer no longer holds.
  static constexpr std::uint8_t kDiffReqForGc = 1;
  static constexpr std::uint8_t kDiffReqRouted = 2;
  static constexpr std::uint32_t kDiffSeqFolds = 0x80000000u;
  static constexpr std::uint32_t kDiffStockMiss = 0xffffffffu;
  FetchedDiffs fetch_diffs(
      const std::vector<DiffWant>& wants, std::vector<sim::Message>& replies,
      bool for_gc = false, std::vector<DiffKey>* misses = nullptr);
  // The fault path's wants outside a critical section, for an invalid
  // page's notices not held in its diff cache: one want per writer, its
  // seqs in apply order with each run's later seqs marked kDiffSeqFolds
  // (node_fault.cpp).
  void append_run_wants(PageIndex page, const PageEntry& e,
                        std::vector<DiffWant>& wants);

  enum class Cache { kNodeLog, kMgrLog };
  // Delta of interval records the peer's node/manager log is missing,
  // advancing the corresponding sent-cache.  `extra` (if given) is the
  // receiver's declared vector time; records below it are skipped.
  std::vector<IntervalRecordPtr> take_delta_for(std::uint32_t peer, Cache which,
                                                const VectorTime* extra);
  void send_compute(sim::Message&& m);  // stamps the compute clock
  void send_service(sim::Message&& m, std::uint64_t base_ts);  // service reply
  sim::Message rpc_call(std::uint32_t dst, std::uint16_t type,
                        std::vector<std::uint8_t> payload);
  // Advances the clock past a blocking receive.
  void arrive(const sim::Message& m);

  // ---------- service thread ----------
  void service_main();
  void handle_message(sim::Message&& m);
  void on_diff_request(sim::Message&& m);
  void on_update_push(sim::Message&& m);  // park pushed diffs for landing
  void on_push_deny(sim::Message&& m);    // demote pages under the push key
  void on_lock_acquire(sim::Message&& m);   // manager duty
  void on_lock_forward(sim::Message&& m);   // holder duty
  void on_barrier_arrive(sim::Message&& m); // combining-point duty
  void on_tree_arrive(sim::Message&& m);    // combining-point duty: a child
                                            // subtree's folded arrival
  void on_tree_depart(sim::Message&& m);    // combining-point duty: the
                                            // departure wave fanning down
  // Update mode's tail of every barrier message: the reader marks of
  // `marks` addressed to `writer` (all of them for kAllWriters), and the
  // matching merge.  Empty (no bytes) when update mode is off.
  using ReadMarks = std::map<std::pair<std::uint32_t, PageIndex>, std::uint64_t>;
  static constexpr std::uint32_t kAllWriters = 0xffffffffu;
  void put_marks(ByteWriter& w, const ReadMarks& marks, std::uint32_t writer);
  void take_marks(ByteReader& r, ReadMarks& marks);
  // Shared tail of the arrival handlers: once the fan-in is complete, fold
  // the subtree and forward up (interior) or establish the global floor and
  // start the departure wave (root).
  void tree_barrier_advance();
  // Sends every parked arrival its departure (kBarrierDepart for rpc
  // arrivals, kTreeDepart for child combining points), clears the slate and
  // then collects the manager log to the floor.
  void tree_barrier_fan_down(const VectorTime& floor, std::uint64_t depart_ts);
  void on_sema_signal(sim::Message&& m);    // manager duty
  void on_sema_wait(sim::Message&& m);      // manager duty
  void on_cond_wait(sim::Message&& m);      // manager duty
  void on_cond_signal(sim::Message&& m, bool broadcast);  // manager duty
  void on_flush_notice(sim::Message&& m);
  void on_alloc_request(sim::Message&& m);  // node 0 duty
  void on_free_request(sim::Message&& m);   // node 0 duty
  // Starts a lock handoff toward `requester` (manager duty); used by both
  // lock acquires and condvar wakeups.
  void mgr_route_lock(std::uint32_t lock_id, std::uint32_t requester,
                      const VectorTime& vt, std::uint64_t base_ts);
  // Grants a lock from this node to `requester` (holder duty).
  void grant_lock(std::uint32_t lock_id, std::uint32_t requester,
                  const VectorTime& vt, std::uint64_t base_ts, bool from_service);

  DsmRuntime& rt_;
  const std::uint32_t id_;
  const std::uint32_t num_nodes_;

  sim::VirtualClock clock_;
  DsmStats stats_;

  // ---- page table (chunks allocated on first touch) ----
  PageTable pages_;
  std::vector<PageIndex> dirty_pages_;  // open interval's writes

  // ---- diff store: (page, own interval seq) -> diff chunks ----
  // The key packing is load-bearing across every producer and consumer of
  // the store (materialize, serve, GC reclaim, update push): one definition.
  static std::uint64_t diff_store_key(PageIndex page, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(page) << 32) | seq;
  }
  std::unordered_map<std::uint64_t, std::vector<DiffBytes>> diff_store_;

  // ---- push engine: admission, pending pushes, judge lists ----
  // Admission state both keyings keep per pushed unit — a page's copyset, a
  // (lock, page) protected-set entry.  A streak of confirming observations
  // admits the page; a deny evicts it, and each denial doubles the streak
  // the next admission needs (capped at 16x), so sharing that only *looks*
  // stable — pipeline-skewed consumers, migrating molecules — stops burning
  // pushes on admit/deny churn while a first-time page is admitted at the
  // base threshold.
  struct PushAdmission {
    std::uint32_t streak = 0;
    std::uint32_t denials = 0;
    bool admitted = false;
    void confirm(std::uint32_t base) {
      if (++streak >= base << std::min<std::uint32_t>(denials, 4)) admitted = true;
    }
    // Evicts the page; returns whether it was admitted (a demotion — the
    // only kind of deny that counts toward the backoff).
    bool deny() {
      streak = 0;
      if (!admitted) return false;
      admitted = false;
      ++denials;
      return true;
    }
  };
  // Barrier keying, writer side: which nodes read the page this epoch, and
  // the reader set the admission streak counts epochs of.  Readers are
  // recorded by the service thread (on_diff_request); the fold and the push
  // pass run on the compute thread at barriers.  Requests are tagged with
  // the requester's epoch and land in the matching parity bucket: a peer
  // already past the barrier can request before this node folds the epoch
  // it ended, and must not contaminate it.
  struct PageCopyset {
    std::uint64_t epoch_readers[2] = {0, 0};  // bitmask by epoch parity
    std::uint64_t stable_set = 0;
    PushAdmission adm;  // streak: consecutive epochs stable_set held
  };
  std::unordered_map<PageIndex, PageCopyset> copyset_;
  // Reader side: page -> writers (bitmask) whose diffs served a read here
  // that no kDiffRequest named — pins and backlogs of the GC validation pass
  // (PageEntry::unheard_writers).  The next barrier arrival carries them,
  // and its departure delivers them to those writers before they fold the
  // epoch of the read: the same fold a fault-path request would have
  // reached.
  std::unordered_map<PageIndex, std::uint64_t> read_marks_;
  // Own intervals closed since the last barrier, by dirty page: the
  // candidate set of the barrier push pass.  Cleared at every barrier, and
  // at fork/join boundaries (barrier-free programs never push, so the list
  // must not grow with them).
  std::unordered_map<PageIndex, std::vector<std::uint32_t>> epoch_dirty_;
  // Barrier pushes parked but not yet landed: appended by on_update_push
  // (service thread), drained by the landing pass of the matching barrier,
  // which is also what inserts the chunks into the page diff caches — only
  // the compute thread mutates them, preserving the fault path's partition
  // invariant across its fetch.  The barrier tag is what keeps the hand-off
  // deterministic: the service thread can run a full barrier ahead of its
  // own compute thread, so a push for barrier k+1 may be parked before the
  // compute thread has even woken from barrier k.
  struct PendingPush {
    std::uint64_t barrier_index = 0;
    PageIndex page = 0;
    std::uint32_t writer = 0;
    std::vector<PushedChunk> chunks;
  };
  std::vector<PendingPush> pending_pushes_;
  // Pushes landed armed or partially covered, by push key, awaiting the
  // key's judge point.
  struct PushJudge {
    PageIndex page = 0;
    std::uint32_t pusher = 0;
    bool armed = true;  // false: partially covered, parked not applied
  };
  std::unordered_map<std::uint32_t, std::vector<PushJudge>> push_judge_;

  // ---- barrier-GC scan index ----
  // Pages that may hold unapplied notices: appended by merge_and_invalidate,
  // swapped out (and re-seeded with the still-dirty survivors) by the GC
  // validation pass, which is therefore O(pages with notices) per barrier
  // instead of O(heap pages).  May hold duplicates and already-clean pages;
  // the scan tolerates both.  Unused (and empty) when gc_at_barriers is off.
  std::vector<PageIndex> gc_scan_pages_;

  // ---- consistency metadata ----
  KnowledgeLog log_;
  std::uint32_t own_seq_ = 0;      // last closed interval
  std::uint64_t own_lamport_ = 0;  // lamport of last closed interval
  std::vector<VectorTime> sent_node_vt_;  // per peer: what their node log has
  std::vector<VectorTime> sent_mgr_vt_;   // per peer: what their mgr log has
  VectorTime gc_floor_applied_;           // highest GC floor applied, any source
  // Highest floor this node has fully *validated* pages against (every
  // notice at or below it pinned or applied).  Raised by the compute thread
  // after each gc_validate_pages pass; snapshotted by the service thread
  // during an on-demand exchange to fold the global ack.  A snapshot taken
  // while the pass waits on its fetch reads the old value — conservative,
  // never unsafe.
  VectorTime gc_floor_validated_;

  // Own-diff reclamation floor: the previous barrier's floor component for
  // this node.  Diff-store entries at or below it are dropped one barrier
  // after the floor was announced — by then every node has validated its
  // pages against it, so no fetch for them can still be in flight.
  std::uint32_t gc_drop_seq_ = 0;
  // The bound actually safe for destroying diff *sources* (store entries,
  // pending twins): gc_drop_seq_ as of the previous barrier.  gc_drop_seq_
  // itself is the floor just announced, whose validation fetches from peers
  // may still be in flight; only after the next barrier departs is every
  // such fetch guaranteed served.  A twin dropped against the fresh floor
  // loses the only source a concurrent fetch still wants.
  std::uint32_t gc_reclaimed_seq_ = 0;

  // ---- on-demand GC exchange state ----
  // Fold state of the exchange currently passing through this combining
  // point.  Generations cannot overlap on a node: a child's fold completes
  // (active goes false) before its kGcArrive is sent up, and the root starts
  // generation g+1 only after folding every generation-g arrival — so a
  // solicit always finds active == false.
  struct GcExchange {
    bool active = false;
    std::uint32_t gen = 0;
    std::uint32_t awaiting = 0;  // children not yet folded
    VectorTime fold_vt;          // min over subtree of log vt
    VectorTime fold_ack;         // min over subtree of validated floor
  };
  GcExchange gc_ex_;
  // Root-only dedup: while an exchange is in flight, further kGcRequest
  // initiations join it instead of starting another.
  bool gc_root_active_ = false;
  std::uint32_t gc_root_gen_ = 0;
  // Departure results parked for the compute thread's next sync operation.
  // Two departures may land between polls; they merge by vt_max (both
  // vectors are monotone across generations).
  VectorTime gc_parked_floor_;
  VectorTime gc_parked_ack_;
  bool gc_parked_flag_ = false;
  // Highest generation whose departure this node has seen, and the highest
  // generation this node has asked the root for: a node over the ceiling
  // sends one initiation per generation, not one per sync operation, so the
  // root is not flooded while an exchange runs.
  std::uint32_t gc_gen_seen_ = 0;
  std::uint32_t gc_gen_requested_ = 0;
  // O(1) footprint mirrors for the ceiling check: the diff store's payload
  // bytes, and the sum of every page diff cache's bytes (bound via
  // PageDiffCache::bind_total as the page table allocates each chunk).
  std::size_t diff_store_bytes_ = 0;
  std::size_t diff_cache_total_bytes_ = 0;
  // Relay stock index: per writer, a min-heap of (seq, page) over the
  // entries relay_keep marked, so relay_prune pops exactly what a floor
  // covers instead of walking every page's cache.
  // Entries evicted or applied-and-erased since leave stale keys behind;
  // relay_keep compacts them away once they outnumber the live ones.
  std::vector<std::vector<std::pair<std::uint32_t, PageIndex>>> relay_index_;
  std::size_t relay_index_keys_ = 0;     // keys across all writers' heaps
  std::size_t relay_index_compact_ = 0;  // compaction threshold

  // ---- lock keying: per-lock protected page sets ----
  // Writer-side admission per (lock, page): folded at release, read by the
  // grant-time push assembly, demoted by denies.
  struct LockPushStat {
    std::uint32_t untouched = 0;  // consecutive own CSes that did not touch
    PushAdmission adm;            // streak: consecutive own CSes that did
  };
  std::unordered_map<std::uint32_t, std::unordered_map<PageIndex, LockPushStat>>
      lock_protect_;
  // Critical sections: the locks the compute thread currently holds — a
  // fault taken while any is held is routed and keeps its chunks as relay
  // stock — and per held lock the pages it faulted or wrote since acquiring
  // it (folded at release into lock_history_, and into lock_protect_ with
  // lock push on).
  std::vector<std::uint32_t> held_locks_;
  std::unordered_map<std::uint32_t, std::vector<PageIndex>> cs_touched_;
  // Per lock, the sorted pages touched in any earlier critical section of
  // it: what lock_batch_plan may fold into a section's first request.
  std::unordered_map<std::uint32_t, std::vector<PageIndex>> lock_history_;
  // Sorted pages the current critical section's first diff request also
  // fetches (lock_batch_plan); cleared once that request is sent, or at
  // release.
  std::vector<PageIndex> cs_batch_;

  // ---- lock client state ----
  struct PendingGrant {
    std::uint32_t requester = 0;
    VectorTime vt;
  };
  struct LockClientState {
    bool held = false;
    bool cached = false;    // this node was the last holder
    bool awaiting = false;  // compute thread is blocked acquiring
    std::optional<PendingGrant> pending;
  };
  std::unordered_map<std::uint32_t, LockClientState> lock_client_;
  // The tail of a local release (lock_release, cond_wait): grants the lock
  // to a requester the forward parked while it was held, if any.
  void grant_pending(std::uint32_t lock_id, LockClientState& st);
  WaitSlot lock_grant_slot_{proto_mu_};

  // ---- manager state (service thread) ----
  struct LockMgrState {
    bool ever_requested = false;
    std::uint32_t tail = 0;  // last requester, valid if ever_requested
  };
  struct SemaWaiter {
    std::uint32_t node = 0;
    VectorTime vt;
    std::uint64_t rpc_seq = 0;
  };
  struct SemaMgrState {
    std::int64_t count = 0;
    std::deque<SemaWaiter> waiters;
  };
  struct CondWaiter {
    std::uint32_t node = 0;
    VectorTime vt;
  };
  struct BarrierMgrState {
    struct Arrival {
      std::uint32_t node;
      // A single node's vector time (rpc arrival) or the min fold over a
      // child subtree (kTreeArrive): either way, every record the arrival's
      // subtree could be missing is above it, so the departure's delta is
      // cut from it.
      VectorTime vt;
      std::uint64_t rpc_seq;   // meaningful only when !via_tree
      std::uint64_t arrive_ts;
      // Whether the departure goes back as kTreeDepart (child combining
      // point) or as the kBarrierDepart rpc reply (leaf or own compute).
      bool via_tree = false;
    };
    std::vector<Arrival> arrivals;
    // Update mode's reader marks in flight, (writer, page) -> readers:
    // merged from the arrivals, sent up with a combined arrival and back
    // down with the departures (a node gets those addressed to it, a child
    // combining point all of them).
    ReadMarks marks;
  };
  struct MgrState {
    explicit MgrState(std::uint32_t n) : log(n) {}
    KnowledgeLog log;  // knowledge accumulated from releases routed via us
    std::unordered_map<std::uint32_t, LockMgrState> locks;
    std::unordered_map<std::uint32_t, SemaMgrState> semas;
    std::unordered_map<std::uint64_t, std::deque<CondWaiter>> conds;  // (lock,cond)
    BarrierMgrState barrier;
  };
  MgrState mgr_;
  // What this combining point's parent already holds of mgr_.log:
  // kTreeArrive deltas are cut from it, like the per-peer sent-caches but
  // for the tree edge.  Reset to the full log vt whenever a departure proves
  // the parent caught up globally.
  VectorTime tree_sent_up_vt_;

  // ---- crash injection + checkpoint state ----
  // Sync points this compute thread has entered: the deterministic index
  // TMK_NET_CRASH_AT selects the crash site against.
  std::uint32_t crash_counter_ = 0;
  // Set by maybe_crash when this node dies; the service thread then drains
  // its (closed) mailbox without answering — a dead workstation must not
  // keep serving diffs.
  bool crashed_ = false;
  // Set by node_down (service thread), checked by maybe_crash (compute
  // thread) so survivors unwind at their next sync point even if they never
  // block on the dead peer.
  bool down_ = false;
  std::uint32_t down_victim_ = 0;
  // Root-only checkpoint commit fan-in: parked commit rpcs; the epoch
  // promotes when all N arrive, then everyone gets its ack.
  struct CkptCommit {
    std::uint32_t node = 0;
    std::uint64_t rpc_seq = 0;
    std::uint64_t arrive_ts = 0;
  };
  std::vector<CkptCommit> ckpt_commits_;
  std::uint64_t ckpt_commit_epoch_ = 0;

  // ---- fork-join plumbing ----
  WaitSlot fork_slot_{proto_mu_};   // slave: next kFork / kShutdown
  WaitSlot join_slot_{proto_mu_};   // master: kJoin arrivals

  RpcClient rpc_{proto_mu_};
  PooledThread service_thread_;
  Rng stress_rng_;

  friend class DsmRuntime;
};

}  // namespace now::tmk
