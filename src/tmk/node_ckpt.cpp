// Node-crash chaos and barrier-aligned checkpoint/rollback recovery.
//
// Crash injection picks a victim (TMK_NET_CRASH_NODE) and a deterministic
// sync-point index (TMK_NET_CRASH_AT): every barrier/lock/sema entry and
// every GC-exchange apply/initiate site on the victim's compute thread
// counts, and the selected one kills the node — links dark, service thread
// deaf, compute thread unwound.  Survivors notice the way real TreadMarks
// peers would: their retransmissions toward the dead workstation exhaust,
// and the channel's verdict (instead of the hard abort a fault-only run
// keeps) fans a node-down poison through every live node.
//
// Recovery is a run-level coordinated restart.  Every ckpt_every-th barrier
// the cluster checkpoints — each node stages its round-robin slice of the
// heap (incremental against the durable image), its sema counts and (on the
// alloc server) the allocator, then commits to the barrier root, which
// promotes the epoch once all N commits arrive.  Because the pass runs
// *inside* the barrier, after the departure merged everyone's records, the
// materialized pages are the globally current contents and no lock is held
// nor waiter parked anywhere: pages + sema counts + allocator are the whole
// recoverable state.  Rolling back then means rebooting the cluster with
// that image as the initial heap — for the consistency protocol this is
// indistinguishable from a fresh run whose zero-filled heap happened to
// contain the checkpoint bytes.
#include <cstring>

#include "common/bytes.h"
#include "common/check.h"
#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

void Node::maybe_crash() {
  // A peer's death verdict unwinds this compute thread at its next sync
  // point even if it never blocks on the dead node again.
  if (down_) throw NodeDownError(down_victim_);
  const DsmConfig& cfg = rt_.config();
  if (!cfg.crash_enabled() || id_ != cfg.net_crash_node) return;
  if (crash_counter_++ != cfg.net_crash_at) return;
  // Once per run: after a rollback the victim replays through the same
  // sync-point index, and dying there again would recover forever.
  if (!rt_.claim_crash()) return;
  NOW_LOG(kInfo, "node %u: injected crash at sync point %u", id_,
          cfg.net_crash_at);
  crashed_ = true;           // service thread goes deaf
  rt_.net().fail_node(id_);  // links go dark
  throw NodeCrashedError();
}

void Node::node_down(std::uint32_t victim) {
  down_victim_ = victim;
  down_ = true;
  // Wake the compute thread wherever it blocks: pending rpcs, lock grants,
  // the slave fork loop, the master's join.
  rpc_.poison(victim);
  lock_grant_slot_.poison(victim);
  fork_slot_.poison(victim);
  join_slot_.poison(victim);
}

void Node::ckpt_at_barrier(std::uint64_t epoch_done) {
  const DsmConfig& cfg = rt_.config();
  if (!cfg.ckpt_enabled()) return;
  // Absolute barrier epochs survive restarts (stats_.barriers restarts at
  // zero with the rebuilt node), so the checkpoint cadence does too.
  const std::uint64_t abs_epoch = rt_.resume_epoch() + epoch_done + 1;
  if (abs_epoch % cfg.ckpt_every != 0) return;

  CheckpointStore& store = rt_.checkpoint();
  store.begin_epoch(abs_epoch);

  // Stage this node's slice: pages round-robin by index, so the staging work
  // (and the memcmp against the durable image) parallelizes across nodes.
  // Each page is materialized to its globally current contents first — the
  // barrier merged every write notice, so applying what is still unapplied
  // here yields exactly the bytes every node would fault in.  Pages whose
  // page-table chunk is absent were never touched here: still the initial
  // zero page, absent = zero in the store.
  std::uint64_t staged = 0;
  std::uint64_t unchanged = 0;
  pages_.for_each([&](PageIndex page, PageEntry& e) {
    if (page % num_nodes_ != id_) return;
    // Leaves the page kReadOnly.  No new notices can appear while its fetch
    // waits: every node is between this barrier's departure and the commit
    // ack, so no interval closes anywhere.
    if (!e.unapplied.empty()) fetch_and_apply(page, e);

    bool temp_mapped = false;
    if (e.state == PageState::kInvalid) {
      if (!e.ever_valid) return;  // still the initial zero page
      // Valid-but-unmapped contents (invalidated copy already re-applied, or
      // an armed push, which is always ever_valid): map readable just long
      // enough to copy.
      rt_.arena().protect_read(id_, page);
      temp_mapped = true;
    }
    if (store.put_page(abs_epoch, page, rt_.arena().page_ptr(id_, page)))
      ++staged;
    else
      ++unchanged;
    if (temp_mapped) rt_.arena().protect_none(id_, page);
  });
  stats_.ckpt_bytes_written.fetch_add(staged * kPageSize,
                                      std::memory_order_relaxed);
  stats_.ckpt_pages_incremental.fetch_add(unchanged, std::memory_order_relaxed);

  // Sema counts (manager state).  Waiters are provably absent — a node
  // blocked in sema_wait could not have arrived at the barrier that just
  // completed.
  for (auto& [sid, S] : mgr_.semas) {
    NOW_CHECK(S.waiters.empty())
        << "checkpoint at a completed barrier found sema " << sid
        << " waiters parked";
    if (S.count != 0) store.stage_sema(abs_epoch, sid, S.count);
  }
  if (id_ == rt_.topology().alloc_server()) rt_.stage_alloc_image(abs_epoch);

  // Commit to the barrier root; the rpc blocks until the root promoted the
  // epoch, making the commit round a second barrier — no node can mutate a
  // page while a peer is still staging.
  ByteWriter w;
  w.u64(abs_epoch);
  rpc_call(rt_.topology().barrier_root(), kCkptCommit, w.take());  // kCkptAck
}

void Node::on_ckpt_commit(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint64_t epoch = r.u64();
  if (ckpt_commits_.empty()) ckpt_commit_epoch_ = epoch;
  NOW_CHECK_EQ(epoch, ckpt_commit_epoch_)
      << "checkpoint commit from node " << m.src << " for a different epoch";
  ckpt_commits_.push_back({m.src, m.seq, m.arrive_ts_ns});
  if (ckpt_commits_.size() < num_nodes_) return;

  rt_.checkpoint().promote(epoch);
  // Root-counted: the total over nodes is the number of durable epochs.
  stats_.ckpt_epochs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t base_ts = m.arrive_ts_ns;
  for (const CkptCommit& c : ckpt_commits_) {
    sim::Message ack;
    ack.type = kCkptAck;
    ack.dst = c.node;
    ack.seq = c.rpc_seq;
    send_service(std::move(ack), base_ts);
  }
  ckpt_commits_.clear();
}

void Node::rehydrate_page(PageIndex page, const unsigned char* data) {
  // Recovery path, cluster quiesced: install one durable page as this node's
  // initial state.  Resident + kReadOnly + ever_valid is exactly where a
  // first read fault would leave a page whose content the zero-heap already
  // held — the consistency protocol cannot tell the difference.
  ProtoGuard guard(*this);
  PageEntry& e = pages_[page];
  rt_.arena().protect_rw(id_, page);
  std::memcpy(rt_.arena().page_ptr(id_, page), data, kPageSize);
  rt_.arena().protect_read(id_, page);
  e.state = PageState::kReadOnly;
  e.ever_valid = true;
}

}  // namespace now::tmk
