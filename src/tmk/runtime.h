// The DSM runtime: owns the arena, the simulated network and the nodes, and
// exposes the TreadMarks-style API through per-node `Tmk` handles.
//
// Two execution styles are supported, matching the paper:
//   - run_spmd: every node runs the same function (hand-coded TreadMarks
//     applications are SPMD programs synchronizing with barriers/locks);
//   - run_master: node 0 runs the program and the others sit in a fork
//     service loop (the Tmk_fork/Tmk_join style "specifically tailored to
//     the fork-join parallelism expected by OpenMP").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <map>
#include <vector>

#include <atomic>

#include "simnet/network.h"
#include "tmk/arena.h"
#include "tmk/checkpoint.h"
#include "tmk/config.h"
#include "tmk/gptr.h"
#include "tmk/node.h"
#include "tmk/stats.h"
#include "tmk/topology.h"

namespace now::tmk {

class DsmRuntime;

// Per-node handle passed to application code.  All shared-memory access goes
// through gptr<T>; all synchronization goes through these methods.
struct Tmk {
  Node& node;
  DsmRuntime& rt;

  std::uint32_t id() const { return node.id(); }
  std::uint32_t nprocs() const;

  // ---- shared heap ----
  gptr<void> alloc(std::size_t bytes, std::size_t align = 64) {
    return gptr<void>(node.shared_malloc(bytes, align));
  }
  template <typename T>
  gptr<T> alloc_array(std::size_t n) {
    return gptr<T>(node.shared_malloc(n * sizeof(T), alignof(T) > 64 ? alignof(T) : 64));
  }
  void free(gptr<void> p) { node.shared_free(p.offset()); }

  // A fixed page of shared root slots (the moral equivalent of a Fortran
  // common block "loaded in a standard location"): the master stores gptrs
  // to its allocations here before the first barrier/fork.
  template <typename T>
  gptr<T> root(std::size_t slot) const {
    return gptr<T>(slot * sizeof(std::uint64_t)).template cast<T>();
  }
  void set_root(std::size_t slot, gptr<void> p) {
    root<std::uint64_t>(slot)[0] = p.offset();
  }
  template <typename T>
  gptr<T> get_root(std::size_t slot) const {
    return gptr<T>(root<std::uint64_t>(slot)[0]);
  }

  // ---- synchronization ----
  void barrier() { node.barrier(); }
  void lock_acquire(std::uint32_t id_) { node.lock_acquire(id_); }
  void lock_release(std::uint32_t id_) { node.lock_release(id_); }
  void sema_wait(std::uint32_t id_) { node.sema_wait(id_); }
  void sema_signal(std::uint32_t id_) { node.sema_signal(id_); }
  void cond_wait(std::uint32_t lock, std::uint32_t cond) { node.cond_wait(lock, cond); }
  void cond_signal(std::uint32_t lock, std::uint32_t cond) { node.cond_signal(lock, cond); }
  void cond_broadcast(std::uint32_t lock, std::uint32_t cond) { node.cond_broadcast(lock, cond); }
  void flush() { node.flush(); }

  // ---- fork/join (master side; see DsmRuntime::run_master) ----
  void fork(ForkFn fn, const void* arg, std::size_t arg_size) {
    node.fork_slaves(fn, arg, arg_size);
  }
  void join() { node.join_slaves(); }

  // ---- compute ----
  // Charges `units` of application work, each worth `host_ns_per_unit` host
  // nanoseconds, to this node's virtual clock (TimeModel::compute_ns).  An
  // application charges a stretch's units before the sync operation that
  // closes the stretch, so the sync leaves at the right virtual time.
  void compute(std::uint64_t units, double host_ns_per_unit);

  // ---- crash recovery ----
  // Barrier epochs already durable when this execution of `fn` started:
  // 0 on the first attempt, the rolled-back-to epoch after a recovery.
  // Restart-aware programs gate their initialization on it and resume their
  // loop from checkpointed progress state in shared memory.
  std::uint64_t resume_epoch() const;
};

// What a run did, crash-wise.  Source compatibility: callers that ignore the
// return value behave exactly as before (a crash-free run is `completed` with
// everything else zero).
struct RunReport {
  bool completed = true;    // fn ran to completion on every node
  bool node_down = false;   // a node-crash verdict was raised at least once
  std::uint32_t victim = 0; // the node that died (valid when node_down)
  std::uint32_t recoveries = 0;   // rollback/restart cycles taken
  std::uint64_t resume_epoch = 0; // durable epoch of the last restart
};

class DsmRuntime {
 public:
  explicit DsmRuntime(DsmConfig cfg);
  ~DsmRuntime();
  DsmRuntime(const DsmRuntime&) = delete;
  DsmRuntime& operator=(const DsmRuntime&) = delete;

  // Runs `fn` on every node concurrently (SPMD); returns when all complete.
  // If a node-crash verdict is raised mid-run and checkpointing is on, the
  // whole cluster is rolled back to the last durable barrier epoch and `fn`
  // re-runs (restart-aware programs consult Tmk::resume_epoch); with
  // checkpointing off the failure is reported cleanly instead.
  RunReport run_spmd(const std::function<void(Tmk&)>& fn);

  // Runs `program` on node 0 while the other nodes serve Tmk_fork requests;
  // returns when the program finishes and the slaves have been shut down.
  RunReport run_master(const std::function<void(Tmk&)>& program);

  const DsmConfig& config() const { return cfg_; }
  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }
  sim::Network& net() { return net_; }
  Node& node(std::uint32_t id) { return *nodes_[id]; }

  // Manager placement, all of it: barrier tree, lock/sema shards, master
  // and allocation duties.  No call site may assume node 0.
  const SyncTopology& topology() const { return topo_; }

  // SIGSEGV dispatch (called by the installed handler).
  void handle_fault(void* addr);

  // ---- measurement ----
  sim::TrafficSnapshot traffic() const { return net_.traffic(); }
  DsmStatsSnapshot total_stats() const;
  // Completion time of the run: the maximum virtual clock over all nodes.
  std::uint64_t virtual_time_ns() const;
  double virtual_time_us() const {
    return static_cast<double>(virtual_time_ns()) / 1000.0;
  }

  // Dumps every node's synchronization state to stderr (deadlock forensics).
  void debug_dump();

  // ---- shared heap allocator (the node-0 allocation server's state) ----
  std::uint64_t allocator_alloc(std::size_t bytes, std::size_t align);
  void allocator_free(std::uint64_t offset);

  // First offset handed out by the allocator (after the root-slot page).
  static constexpr std::uint64_t kHeapStart = kPageSize;

  // ---- crash recovery plumbing (used by Node) ----
  CheckpointStore& checkpoint() { return ckpt_; }
  // Barrier epochs durable before the current execution attempt began.
  std::uint64_t resume_epoch() const { return resume_epoch_; }
  // The scripted crash fires once per run, even across recoveries: only the
  // first claimant dies (the counter-selected sync point replays identically
  // after a rollback — without this latch the victim would die again).
  bool claim_crash() { return !crash_claimed_.exchange(true); }
  // Alloc server's checkpoint pass: snapshot the allocator into staging.
  void stage_alloc_image(std::uint64_t epoch);

 private:
  // Channel verdict (retransmit exhaustion on some node's link): posts a
  // kNodeDown control message into every live mailbox so each service thread
  // poisons its compute thread's rendezvous.  Runs on whichever service
  // thread's channel maintenance pass detected the death.
  void announce_node_down(std::uint32_t victim);
  // Quiesce the cluster, carry its stats/clock forward, then rebuild every
  // node from the last durable checkpoint (or from scratch when none is).
  void recover_from_checkpoint();
  void restore_allocator();  // from ckpt_.alloc(); cluster quiesced

  // A crash site that replays identically after every rollback (e.g. one
  // planted *before* any checkpoint can complete, with ckpt_every too large)
  // would recover forever; claim_crash prevents the scripted one from
  // refiring, so this cap only catches runaway protocol bugs.
  static constexpr std::uint32_t kMaxRecoveries = 8;

  DsmConfig cfg_;
  SyncTopology topo_;
  Arena arena_;
  sim::Network net_;
  std::vector<std::unique_ptr<Node>> nodes_;

  std::mutex alloc_mu_;
  std::uint64_t alloc_bump_ = kHeapStart;
  std::map<std::uint64_t, std::size_t> alloc_live_;          // offset -> size
  std::map<std::size_t, std::vector<std::uint64_t>> alloc_free_;  // size -> offsets

  // ---- crash recovery state ----
  CheckpointStore ckpt_;
  std::atomic<bool> node_down_{false};
  std::atomic<std::uint32_t> node_down_victim_{0};
  std::atomic<bool> crash_claimed_{false};
  std::uint64_t resume_epoch_ = 0;
  std::uint32_t recoveries_ = 0;
  // Stats and virtual time of execution attempts that were rolled back: the
  // work (and the wire traffic) a crashed segment burned is real and stays
  // in the totals.
  DsmStatsSnapshot carried_stats_;
  std::uint64_t carried_vt_ = 0;
};

inline std::uint32_t Tmk::nprocs() const { return rt.config().num_nodes; }
inline std::uint64_t Tmk::resume_epoch() const { return rt.resume_epoch(); }
inline void Tmk::compute(std::uint64_t units, double host_ns_per_unit) {
  node.clock().advance_ns(rt.config().time.compute_ns(units, host_ns_per_unit));
}

}  // namespace now::tmk
