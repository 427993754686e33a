// One simulated workstation: its page table, consistency metadata, manager
// duties, compute-thread operations and protocol service thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
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
  // benches.  Taken under the owning mutexes; the manager-duty log is
  // deliberately excluded (service-thread-owned, lock-free) — its reclaim
  // activity shows up in the gc_records_reclaimed counter instead.
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
  std::size_t page_chunks() const { return pages_.chunks(); }
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
  // Charge accumulated compute time to the virtual clock.
  void sync_cpu();

 private:
  // ---------- consistency engine (compute thread) ----------
  // Ends the open interval at a release: appends the interval record with the
  // dirty pages as write notices and write-protects them (diffs materialize
  // lazily).  No-op when nothing was written.
  void close_interval();
  // Learns foreign interval records: appends unapplied notices and
  // invalidates local copies (acquire side of lazy invalidate RC).
  void merge_and_invalidate(const std::vector<IntervalRecordPtr>& recs);
  // Fetches and applies all unapplied diffs for a page (fault path).
  void fetch_and_apply(PageIndex page, PageEntry& entry);
  // Computes diff(twin, current) into the diff store and drops the twin.
  // Caller holds entry.mu; page must be readable.
  void materialize_twin(PageIndex page, PageEntry& entry);
  void invalidate_page(PageIndex page, PageEntry& entry);  // holds entry.mu

  // ---------- barrier-time GC (compute thread, on barrier departure) ----------
  // Applies the manager's piggybacked minimal vector time: truncates the
  // knowledge log and sent-caches to the floor, ensures every write notice at
  // or below it has its diff locally (pinned in the page diff cache, or
  // applied eagerly when the cache is disabled), and reclaims own diff-store
  // entries from the previous epoch's floor (one barrier delayed, so
  // in-flight validation fetches are always served).
  void gc_at_barrier(const VectorTime& floor);
  // The validation pass of gc_at_barrier: fetch + pin/apply old diffs.
  void gc_validate_pages(const VectorTime& floor);
  // Floor most recently applied by gc_at_barrier (piggybacked on messages
  // whose records merge into a peer's manager log, so the sparse manager log
  // can raise its own floor before merging).
  VectorTime gc_floor_snapshot();
  // Raises the manager-duty log's floor to a sender's piggybacked floor
  // before merging its delta (service thread only).
  void mgr_gc_to(const VectorTime& floor);
  // Applies a floor learned off the lock-grant chain (compute thread): raise
  // the knowledge-log floor, sent-caches and validate pages — but never the
  // own-diff reclamation bounds, which only move at barrier/fork points
  // whose global alignment proves no validation fetch is still in flight.
  // Fast no-op when the floor does not advance past the applied one (the
  // common case: floors are established at sync points every node attends).
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
  //    globally known, exactly the barrier-GC invariant, so each node
  //    truncates via the existing gc_raise_floor path;
  //  - ack:   min over nodes of the *validated* floor — every node has
  //    already resolved (pinned or applied) all notices at or below it, so
  //    the writer may destroy the diff sources themselves.  This replaces
  //    the barrier path's one-epoch delay: instead of waiting a barrier to
  //    prove no validation fetch is in flight, the ack proves the fetches
  //    already finished.
  // Handlers run on the service thread and never block; the results are
  // parked and applied by the compute thread at its next sync operation
  // (gc_poll), keeping the page diff caches compute-thread-only.

  // O(1) ceiling metric: log bytes + diff store bytes + diff cache bytes.
  std::size_t meta_bytes();
  // Compute-thread entry hook at every sync operation: applies a parked
  // kGcDepart (truncate + validate + reclaim own store to the ack) and
  // initiates a new exchange if the footprint still exceeds the ceiling.
  void gc_poll();
  // Destroys own diff-store entries with seq <= ack_seq (compute thread;
  // raises gc_reclaimed_seq_ only — gc_drop_seq_ stays barrier-owned).
  void gc_reclaim_store_to(std::uint32_t ack_seq);
  // Relay stock: relay_keep marks an entry of `page`'s diff cache (caller
  // holds e.mu) as stock and indexes it; relay_prune drops the stock the
  // floor covers — validation resolved those notices and every future grant
  // delta is cut above the floor, so no fault or routed request can want
  // them again — in time proportional to what it drops.
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
    std::size_t patched = 0;
    std::uint64_t applied = 0;
    std::map<std::uint32_t, std::vector<PageIndex>> deny;  // pusher -> pages
  };
  // The one landing routine (compute thread, under the page's mu): park the
  // chunks in the page's diff cache, keyed (writer, seq); deny `pushers` if
  // the budget rejected every chunk; nothing more on a page already valid;
  // apply in lamport order only when every unapplied notice is covered
  // (otherwise the partial push is judged); then arm or validate.  The lock
  // keying retains applied droppable chunks as relay stock.
  void push_land(std::uint32_t key, PageIndex page,
                 const std::vector<std::uint32_t>& pushers,
                 std::vector<PushedChunk>& chunks, PushBatch& b);
  // The shared tail of every applied push (page contents current, mapped
  // read-write): every Nth push to the page is left armed and judged under
  // `key`, the rest validate.
  void push_settle(std::uint32_t key, PageIndex page, PageEntry& e,
                   const std::vector<std::uint32_t>& pushers);
  // Charges a landing pass's apply cost and sends the denies it owes.
  void push_finish(std::uint32_t key, PushBatch& b);
  // Judges the pushes landed under `key` since its last judge point (the
  // barrier key at barrier entry, a lock at its release): a page still
  // armed, or partially covered and still invalid with unapplied notices,
  // was a dead push and is denied to its pushers.
  void push_judge(std::uint32_t key);
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
  // compute thread currently holds (compute thread only; builds the per-CS
  // touch sets the release folds).
  void lock_push_note_touch(PageIndex page);
  // Critical-section bracket: maintains held_locks_ (which routes faults and
  // keeps relay stock whatever the config).  With lock push on, begin also
  // starts the touch attribution for the lock, and end folds the section's
  // touch set into the lock's protected set — touched pages (re)gain
  // membership, member pages untouched for lock_push_probe consecutive own
  // CSes decay out — and judges the pushes this acquire landed.
  void lock_push_begin_cs(std::uint32_t lock_id);
  void lock_push_end_cs(std::uint32_t lock_id);
  // Granter side: appends the push section to a kLockGrant payload — diffs
  // of the delta's records for the lock's member pages (own intervals from
  // the diff store, relayed ones from the page's retained cache), budgeted
  // by lock_push_bytes, with the whole-page-image fallback (guarded by
  // requester-knowledge domination).  Runs on the compute thread (release
  // with a pending requester) or the service thread (cached grant on
  // kLockForward).
  void append_lock_push(ByteWriter& w, std::uint32_t lock_id,
                        const VectorTime& req_vt,
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
  void on_ckpt_query(sim::Message&& m);   // service: stage own sema counts
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
  using DiffChunkView = std::pair<const std::uint8_t*, std::size_t>;
  using DiffKey = std::tuple<PageIndex, std::uint32_t, std::uint32_t>;
  struct DiffWant {
    PageIndex page = 0;
    std::uint32_t writer = 0;
    std::vector<std::uint32_t> seqs;
    std::vector<std::uint32_t> authors;  // empty: every seq is writer's own
  };
  // kDiffRequest flag bits, and the routed reply's marker (in the chunk
  // count's place) for an interval the writer no longer holds.
  static constexpr std::uint8_t kDiffReqForGc = 1;
  static constexpr std::uint8_t kDiffReqRouted = 2;
  static constexpr std::uint32_t kDiffStockMiss = 0xffffffffu;
  std::map<DiffKey, std::vector<DiffChunkView>> fetch_diffs(
      const std::vector<DiffWant>& wants, std::vector<sim::Message>& replies,
      bool for_gc = false, std::vector<DiffKey>* misses = nullptr);

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
  // Shared tail of the arrival handlers: once the fan-in is complete, fold
  // the subtree and forward up (interior) or establish the global floor and
  // start the departure wave (root).
  void tree_barrier_advance();
  // Sends every parked arrival its departure (kBarrierDepart for rpc
  // arrivals, kTreeDepart for child combining points) and clears the slate.
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
  sim::CpuMeter cpu_meter_;
  DsmStats stats_;

  // ---- page table (chunks allocated on first touch) ----
  PageTable pages_;
  std::vector<PageIndex> dirty_pages_;  // open interval's writes (compute only)

  // ---- diff store: (page, own interval seq) -> diff chunks ----
  // The key packing is load-bearing across every producer and consumer of
  // the store (materialize, serve, GC reclaim, update push): one definition.
  static std::uint64_t diff_store_key(PageIndex page, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(page) << 32) | seq;
  }
  std::mutex store_mu_;
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
  // Barrier keying, writer side (copyset_mu_): which nodes read the page
  // this epoch, and the reader set the admission streak counts epochs of.
  // Readers are recorded by the service thread (on_diff_request); the fold
  // and the push pass run on the compute thread at barriers, and denies
  // land on the service thread.  Requests are tagged with the requester's
  // epoch and land in the matching parity bucket: a request from the *next*
  // epoch racing the fold can never contaminate the epoch being folded.
  struct PageCopyset {
    std::uint64_t epoch_readers[2] = {0, 0};  // bitmask by epoch parity
    std::uint64_t stable_set = 0;
    PushAdmission adm;  // streak: consecutive epochs stable_set held
  };
  std::mutex copyset_mu_;
  std::unordered_map<PageIndex, PageCopyset> copyset_;
  // Own intervals closed since the last barrier, by dirty page (compute
  // thread only): the candidate set of the barrier push pass.  Cleared at
  // every barrier, and at fork/join boundaries (barrier-free programs never
  // push, so the list must not grow with them).
  std::unordered_map<PageIndex, std::vector<std::uint32_t>> epoch_dirty_;
  // Barrier pushes parked but not yet landed (push_mu_): appended by
  // on_update_push (service thread), drained by the landing pass of the
  // matching barrier, which is also what inserts the chunks into the page
  // diff caches — the cache stays compute-thread-only, preserving the fault
  // path's partition invariant.  The barrier tag is what keeps the hand-off
  // deterministic: the service thread can run a full barrier ahead of its
  // own compute thread, so a push for barrier k+1 may be parked before the
  // compute thread has even woken from barrier k.
  struct PendingPush {
    std::uint64_t barrier_index = 0;
    PageIndex page = 0;
    std::uint32_t writer = 0;
    std::vector<PushedChunk> chunks;
  };
  std::mutex push_mu_;
  std::vector<PendingPush> pending_pushes_;
  // Pushes landed armed or partially covered, by push key, awaiting the
  // key's judge point (compute thread only).
  struct PushJudge {
    PageIndex page = 0;
    std::uint32_t pusher = 0;
    bool armed = true;  // false: partially covered, parked not applied
  };
  std::unordered_map<std::uint32_t, std::vector<PushJudge>> push_judge_;

  // ---- barrier-GC scan index (gc_scan_mu_) ----
  // Pages that may hold unapplied notices: appended by merge_and_invalidate,
  // swapped out (and re-seeded with the still-dirty survivors) by the GC
  // validation pass, which is therefore O(pages with notices) per barrier
  // instead of O(heap pages).  May hold duplicates and already-clean pages;
  // the scan tolerates both.  Unused (and empty) when gc_at_barriers is off.
  std::mutex gc_scan_mu_;
  std::vector<PageIndex> gc_scan_pages_;

  // ---- consistency metadata (meta_mu_) ----
  std::mutex meta_mu_;
  KnowledgeLog log_;
  std::uint32_t own_seq_ = 0;      // last closed interval
  std::uint64_t own_lamport_ = 0;  // lamport of last closed interval
  std::vector<VectorTime> sent_node_vt_;  // per peer: what their node log has
  std::vector<VectorTime> sent_mgr_vt_;   // per peer: what their mgr log has
  // Cut-to-enqueue ordering for node-log deltas.  take_delta_for advances
  // the sent-cache at *cut* time, but the message reaches the network only
  // after serialization — and the compute thread (lock_release's pending
  // grant, flush, fork, join) and the service thread (on_lock_forward's
  // grant-from-cache) can both cut a delta for the same peer.  If the
  // later cut's message is enqueued first, per-link FIFO faithfully
  // delivers a gap and the receiver's dense-merge check fires.  Held from
  // before the cut until the send returns, per destination; mgr-log deltas
  // need no such lock (every mgr-log cut runs on the compute thread).
  std::unique_ptr<std::mutex[]> delta_send_mu_;
  VectorTime gc_floor_applied_;           // last barrier-GC floor applied
  // Highest floor this node has fully *validated* pages against (every
  // notice at or below it pinned or applied).  Raised by the compute thread
  // after each gc_validate_pages pass; snapshotted by the service thread
  // during an on-demand exchange to fold the global ack.  A snapshot taken
  // mid-validation reads the old value — conservative, never unsafe.
  VectorTime gc_floor_validated_;

  // Own-diff reclamation floor: the previous barrier's floor component for
  // this node.  Diff-store entries at or below it are dropped one barrier
  // after the floor was announced — by then every node has validated its
  // pages against it, so no fetch for them can still be in flight.
  // Compute-thread only.
  std::uint32_t gc_drop_seq_ = 0;
  // The bound actually safe for destroying diff *sources* (store entries,
  // pending twins): gc_drop_seq_ as of the previous barrier.  gc_drop_seq_
  // itself is the floor just announced, whose validation fetches from peers
  // may still be in flight; only after the next barrier departs is every
  // such fetch guaranteed served.  A twin dropped against the fresh floor
  // loses the only source a concurrent fetch still wants.  Compute-thread
  // only.
  std::uint32_t gc_reclaimed_seq_ = 0;

  // ---- on-demand GC exchange state ----
  // Fold state of the exchange currently passing through this combining
  // point (service thread only).  Generations cannot overlap on a node: a
  // child's fold completes (active goes false) before its kGcArrive is sent
  // up, and the root starts generation g+1 only after folding every
  // generation-g arrival — so a solicit always finds active == false.
  struct GcExchange {
    bool active = false;
    std::uint32_t gen = 0;
    std::uint32_t awaiting = 0;  // children not yet folded
    VectorTime fold_vt;          // min over subtree of log vt
    VectorTime fold_ack;         // min over subtree of validated floor
  };
  GcExchange gc_ex_;
  // Root-only dedup: while an exchange is in flight, further kGcRequest
  // initiations join it instead of starting another (service thread only).
  bool gc_root_active_ = false;
  std::uint32_t gc_root_gen_ = 0;
  // Departure results parked for the compute thread (gc_depart_mu_).  Two
  // departures may land between polls; they merge by vt_max (both vectors
  // are monotone across generations).
  std::mutex gc_depart_mu_;
  VectorTime gc_parked_floor_;
  VectorTime gc_parked_ack_;
  std::atomic<bool> gc_parked_flag_{false};
  // Highest generation whose departure this node has seen, and the highest
  // generation this node has asked the root for (compute thread only): a
  // node over the ceiling sends one initiation per generation, not one per
  // sync operation, so the root is not flooded while an exchange runs.
  std::atomic<std::uint32_t> gc_gen_seen_{0};
  std::uint32_t gc_gen_requested_ = 0;
  // O(1) footprint mirrors for the ceiling check: the diff store's payload
  // bytes, and the sum of every page diff cache's bytes (bound via
  // PageDiffCache::bind_total as the page table allocates each chunk).
  std::atomic<std::size_t> diff_store_bytes_{0};
  std::atomic<std::size_t> diff_cache_total_bytes_{0};
  // Relay stock index (compute thread only): per writer, a min-heap of
  // (seq, page) over the entries relay_keep marked, so relay_prune pops
  // exactly what a floor covers instead of walking every page's cache.
  // Entries evicted or applied-and-erased since leave stale keys behind;
  // relay_keep compacts them away once they outnumber the live ones.
  std::vector<std::vector<std::pair<std::uint32_t, PageIndex>>> relay_index_;
  std::size_t relay_index_keys_ = 0;     // keys across all writers' heaps
  std::size_t relay_index_compact_ = 0;  // compaction threshold

  // ---- lock keying: per-lock protected page sets ----
  // Writer-side admission per (lock, page), guarded by lock_protect_mu_:
  // the fold and the grant-time push assembly run on whichever thread
  // handles the release/forward (compute or service), and denies land on
  // the service thread.
  struct LockPushStat {
    std::uint32_t untouched = 0;  // consecutive own CSes that did not touch
    PushAdmission adm;            // streak: consecutive own CSes that did
  };
  std::mutex lock_protect_mu_;
  std::unordered_map<std::uint32_t, std::unordered_map<PageIndex, LockPushStat>>
      lock_protect_;
  // Critical sections (compute thread only): the locks the compute thread
  // currently holds — a fault taken while any is held is routed and keeps
  // its chunks as relay stock — and, with lock push on, per held lock the
  // pages it faulted or wrote since acquiring it (folded into lock_protect_
  // at release).
  std::vector<std::uint32_t> held_locks_;
  std::unordered_map<std::uint32_t, std::vector<PageIndex>> cs_touched_;

  // ---- lock client state (lock_client_mu_) ----
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
  std::mutex lock_client_mu_;
  std::unordered_map<std::uint32_t, LockClientState> lock_client_;
  WaitSlot lock_grant_slot_;

  // ---- manager state (service thread only) ----
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
  // What this combining point's parent already holds of mgr_.log (service
  // thread only): kTreeArrive deltas are cut from it, like the per-peer
  // sent-caches but for the tree edge.  Reset to the full log vt whenever a
  // departure proves the parent caught up globally.
  VectorTime tree_sent_up_vt_;

  // ---- crash injection + checkpoint state ----
  // Sync points this compute thread has entered (compute thread only): the
  // deterministic index TMK_NET_CRASH_AT selects the crash site against.
  std::uint32_t crash_counter_ = 0;
  // Set by maybe_crash when this node dies; the service thread then drains
  // its (closed) mailbox without answering — a dead workstation must not
  // keep serving diffs.
  std::atomic<bool> crashed_{false};
  // Set by node_down (service thread), checked by maybe_crash (compute
  // thread) so survivors unwind at their next sync point even if they never
  // block on the dead peer.
  std::atomic<bool> down_{false};
  std::atomic<std::uint32_t> down_victim_{0};
  // Root-only checkpoint commit fan-in (service thread only): parked commit
  // rpcs; the epoch promotes when all N arrive, then everyone gets its ack.
  struct CkptCommit {
    std::uint32_t node = 0;
    std::uint64_t rpc_seq = 0;
    std::uint64_t arrive_ts = 0;
  };
  std::vector<CkptCommit> ckpt_commits_;
  std::uint64_t ckpt_commit_epoch_ = 0;

  // ---- fork-join plumbing ----
  WaitSlot fork_slot_;   // slave: next kFork / kShutdown
  WaitSlot join_slot_;   // master: kJoin arrivals

  RpcClient rpc_;
  std::thread service_thread_;
  Rng stress_rng_;

  friend class DsmRuntime;
};

}  // namespace now::tmk
