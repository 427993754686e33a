// The protocol service thread: TreadMarks serviced remote requests from a
// SIGIO handler; our simulated workstation dedicates a thread to the same
// duty.  Every handler is strictly non-blocking (local state + sends only),
// which is what makes the request/reply protocol deadlock-free.
#include <thread>

#include "common/bytes.h"
#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

void Node::service_main() {
  while (auto m = rt_.net().recv(id_)) {
    // A dead workstation answers nothing: once the scripted crash fired,
    // drain whatever the closed mailbox still holds and drop it.
    if (crashed_.load(std::memory_order_acquire)) continue;
    handle_message(std::move(*m));
  }
}

void Node::handle_message(sim::Message&& m) {
  switch (m.type) {
    // Replies routed back to the blocked compute thread.
    case kDiffReply:
    case kBarrierDepart:
    case kSemaAck:
    case kSemaGrant:
    case kFlushAck:
    case kAllocReply:
    case kFreeAck:
    case kCondWaitAck:
    case kCkptReply:
    case kCkptAck:
      rpc_.fulfill(m.seq, std::move(m));
      return;

    // The runtime's node-down verdict (self-addressed control message): no
    // service-overhead charge — it models the local watchdog firing, not a
    // wire arrival.
    case kNodeDown: {
      ByteReader r(m.payload);
      node_down(r.u32());
      return;
    }

    // Unsolicited wakeups for the compute thread.
    case kLockGrant:
      lock_grant_slot_.post(std::move(m));
      return;
    // Fork and join consistency records must be merged NOW, in mailbox
    // order: the sender's per-peer cache assumes everything it previously
    // shipped us has been processed before its next message.  Deferring the
    // merge to whenever the compute thread picks the slot up would let a
    // later lock grant skip records we never saw.
    case kFork: {
      ByteReader r(m.payload);
      r.u64();       // fn
      (void)r.bytes();  // args
      // The fork-point GC floor: parsed past here, applied by the compute
      // thread in slave_serve_one (its validation pass fetches and blocks,
      // which a service handler never may).
      KnowledgeLog::deserialize_vt(r);
      merge_and_invalidate(KnowledgeLog::deserialize_records(r));
      fork_slot_.post(std::move(m));
      return;
    }
    case kShutdown:
      fork_slot_.post(std::move(m));
      return;
    case kJoin: {
      ByteReader r(m.payload);
      merge_and_invalidate(KnowledgeLog::deserialize_records(r));
      join_slot_.post(std::move(m));
      return;
    }
    default:
      break;
  }

  // Requests: model the interrupt stealing CPU from this workstation, and
  // optionally jitter the host-level service order under stress testing.
  if (rt_.config().stress_service_jitter) {
    const auto us = stress_rng_.next_below(200);
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  clock_.advance_us(rt_.config().net.service_overhead_us);

  switch (m.type) {
    case kDiffRequest: on_diff_request(std::move(m)); return;
    case kUpdatePush: on_update_push(std::move(m)); return;
    case kPushDeny: on_push_deny(std::move(m)); return;
    case kLockAcquire: on_lock_acquire(std::move(m)); return;
    case kLockForward: on_lock_forward(std::move(m)); return;
    case kBarrierArrive: on_barrier_arrive(std::move(m)); return;
    case kTreeArrive: on_tree_arrive(std::move(m)); return;
    case kTreeDepart: on_tree_depart(std::move(m)); return;
    case kSemaSignal: on_sema_signal(std::move(m)); return;
    case kSemaWait: on_sema_wait(std::move(m)); return;
    case kCondWait: on_cond_wait(std::move(m)); return;
    case kCondSignal: on_cond_signal(std::move(m), /*broadcast=*/false); return;
    case kCondBroadcast: on_cond_signal(std::move(m), /*broadcast=*/true); return;
    case kFlushNotice: on_flush_notice(std::move(m)); return;
    case kAllocRequest: on_alloc_request(std::move(m)); return;
    case kFreeRequest: on_free_request(std::move(m)); return;
    case kGcRequest: on_gc_request(std::move(m)); return;
    case kGcArrive: on_gc_arrive(std::move(m)); return;
    case kGcDepart: on_gc_depart(std::move(m)); return;
    case kCkptQuery: on_ckpt_query(std::move(m)); return;
    case kCkptCommit: on_ckpt_commit(std::move(m)); return;
    default:
      NOW_CHECK(false) << "node " << id_ << ": unknown message type " << m.type;
  }
}

void Node::on_diff_request(sim::Message&& m) {
  // Multi-page request: one message may carry the faulting page, its
  // prefetch window and (at barriers) every page the requester's GC
  // validation pass wants from this writer.
  ByteReader r(m.payload);
  const std::uint32_t epoch_tag = r.u32();
  const bool for_gc = r.u8() != 0;
  const std::uint32_t npages = r.u32();
  std::vector<std::pair<PageIndex, std::vector<std::uint32_t>>> pages;
  pages.reserve(npages);
  for (std::uint32_t p = 0; p < npages; ++p) {
    const PageIndex page = r.u32();
    const std::uint32_t n = r.u32();
    std::vector<std::uint32_t> seqs(n);
    for (auto& s : seqs) s = r.u32();
    pages.emplace_back(page, std::move(seqs));
  }

  // Copyset tracking: every fault-path request names the requester a reader
  // of each page it wants (the prefetch window included — an unconsumed
  // speculative page that gets promoted is demoted again by the reader's
  // armed probe).  GC-validation fetches are explicitly *not* readers: they
  // fetch exactly the diffs the reader never touched.
  if (!for_gc && rt_.config().update_enabled()) {
    const std::uint64_t bit = std::uint64_t{1} << m.src;
    std::lock_guard<std::mutex> lock(copyset_mu_);
    for (const auto& [page, seqs] : pages) {
      copyset_[page].epoch_readers[epoch_tag & 1] |= bit;
    }
  }

  // Materialize lazily if an interval's twin is still pending.  The page is
  // at most PROT_READ for a closed interval, so its bytes are stable.  (Done
  // before taking store_mu_: materialize_twin takes e.mu then store_mu_.)
  // An absent page holds no twin.
  for (const auto& [page, seqs] : pages) {
    PageEntry* e = pages_.find(page);
    if (e == nullptr) continue;
    for (std::uint32_t seq : seqs) {
      std::lock_guard<std::mutex> lock(e->mu);
      if (e->twin_valid && e->twin.seq == seq) materialize_twin(page, *e);
    }
  }

  ByteWriter w;
  std::lock_guard<std::mutex> lock(store_mu_);
  std::vector<const std::vector<DiffBytes>*> per_seq;
  std::size_t reply_size = 4;  // page count
  for (const auto& [page, seqs] : pages) {
    reply_size += 8;  // page + interval count
    for (std::uint32_t seq : seqs) {
      auto it = diff_store_.find(diff_store_key(page, seq));
      NOW_CHECK(it != diff_store_.end())
          << "node " << id_ << " asked for missing diff: page " << page
          << " interval " << seq;
      reply_size += 8;  // seq + chunk count
      for (const DiffBytes& d : it->second) reply_size += 4 + d.size();
      per_seq.push_back(&it->second);
    }
  }
  // One exact reservation for the whole reply, then straight-line appends.
  w.reserve(reply_size);
  w.u32(npages);
  std::size_t flat = 0;
  for (const auto& [page, seqs] : pages) {
    w.u32(page);
    w.u32(static_cast<std::uint32_t>(seqs.size()));
    for (std::uint32_t seq : seqs) {
      w.u32(seq);
      const std::vector<DiffBytes>& chunks = *per_seq[flat++];
      w.u32(static_cast<std::uint32_t>(chunks.size()));
      for (const DiffBytes& d : chunks) w.bytes(d.data(), d.size());
    }
  }

  sim::Message reply;
  reply.type = kDiffReply;
  reply.dst = m.src;
  reply.seq = m.seq;
  reply.payload = w.take();
  send_service(std::move(reply), m.arrive_ts_ns);
}

void Node::on_flush_notice(sim::Message&& m) {
  ByteReader r(m.payload);
  auto records = KnowledgeLog::deserialize_records(r);
  merge_and_invalidate(records);
  sim::Message reply;
  reply.type = kFlushAck;
  reply.dst = m.src;
  reply.seq = m.seq;
  send_service(std::move(reply), m.arrive_ts_ns);
}

void Node::on_alloc_request(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint64_t bytes = r.u64();
  const std::uint64_t align = r.u64();
  const std::uint64_t offset = rt_.allocator_alloc(bytes, align);
  ByteWriter w;
  w.u64(offset);
  sim::Message reply;
  reply.type = kAllocReply;
  reply.dst = m.src;
  reply.seq = m.seq;
  reply.payload = w.take();
  send_service(std::move(reply), m.arrive_ts_ns);
}

void Node::on_free_request(sim::Message&& m) {
  ByteReader r(m.payload);
  rt_.allocator_free(r.u64());
  sim::Message reply;
  reply.type = kFreeAck;
  reply.dst = m.src;
  reply.seq = m.seq;
  send_service(std::move(reply), m.arrive_ts_ns);
}

}  // namespace now::tmk
