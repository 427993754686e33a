// The protocol service thread: TreadMarks serviced remote requests from a
// SIGIO handler; our simulated workstation dedicates a thread to the same
// duty.  Every handler runs under the node's protocol lock and is strictly
// non-blocking (local state + sends only), which is what makes the
// request/reply protocol deadlock-free.
#include <thread>

#include "common/bytes.h"
#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

void Node::service_main() {
  while (auto m = rt_.net().recv(id_)) {
    ProtoGuard guard(*this);
    // A dead workstation answers nothing: once the scripted crash fired,
    // drain whatever the closed mailbox still holds and drop it.
    if (crashed_) continue;
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
  // optionally jitter the host-level service order under stress testing —
  // with the lock released, so the sleep never stalls the compute thread.
  if (rt_.config().stress_service_jitter) {
    const auto us = stress_rng_.next_below(200);
    proto_mu_.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(us));
    proto_mu_.lock();
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
    case kCkptCommit: on_ckpt_commit(std::move(m)); return;
    default:
      NOW_CHECK(false) << "node " << id_ << ": unknown message type " << m.type;
  }
}

void Node::on_diff_request(sim::Message&& m) {
  // Multi-page request: one message may carry the faulting page, its
  // prefetch window and (at barriers) every page the requester's GC
  // validation pass wants from this writer.  A routed request (a fault
  // inside the requester's critical section) also names other writers'
  // intervals, served from this node's relay stock for the page.
  ByteReader r(m.payload);
  const std::uint32_t epoch_tag = r.u32();
  const std::uint8_t flags = r.u8();
  const bool for_gc = (flags & kDiffReqForGc) != 0;
  const bool routed = (flags & kDiffReqRouted) != 0;
  const std::uint32_t npages = r.u32();
  struct Entry {
    std::uint32_t author = 0;
    std::uint32_t seq = 0;
    // Where the chunks come from: the diff store (own intervals) or the
    // page's relay stock (nullptr: a miss).
    const std::vector<DiffBytes>* chunks = nullptr;
  };
  std::vector<std::pair<PageIndex, std::vector<Entry>>> pages;
  pages.reserve(npages);
  for (std::uint32_t p = 0; p < npages; ++p) {
    const PageIndex page = r.u32();
    std::vector<Entry> entries(r.u32());
    for (Entry& en : entries) {
      en.author = routed ? r.u32() : id_;
      en.seq = r.u32();
    }
    pages.emplace_back(page, std::move(entries));
  }

  // Copyset tracking: every fault-path request names the requester a reader
  // of each page it wants (the prefetch window included — an unconsumed
  // speculative page that gets promoted is demoted again by the reader's
  // armed probe).  A GC-validation fetch is not a read — it fetches the
  // epoch's diffs whether or not anyone will touch them; the reads its pins
  // serve later reach this writer as reader marks, carried by the barrier
  // that ends the reading epoch (see Node::barrier).
  if (!for_gc && rt_.config().update_enabled()) {
    const std::uint64_t bit = std::uint64_t{1} << m.src;
    for (const auto& [page, entries] : pages) {
      copyset_[page].epoch_readers[epoch_tag & 1] |= bit;
    }
  }

  // Materialize lazily if an interval's twin is still pending.  The page is
  // at most PROT_READ for a closed interval, so its bytes are stable.  Other
  // writers' intervals are served straight out of the stock.  An absent
  // page holds no twin and no stock.
  for (auto& [page, entries] : pages) {
    PageEntry* e = pages_.find(page);
    if (e == nullptr) continue;
    for (Entry& en : entries) {
      if (en.author == id_) {
        if (e->twin_valid && e->twin.seq == en.seq) materialize_twin(page, *e);
      } else {
        en.chunks = e->diff_cache.find(en.author, en.seq);
      }
    }
  }

  ByteWriter w;
  std::size_t reply_size = 4;  // page count
  for (auto& [page, entries] : pages) {
    reply_size += 8;  // page + interval count
    for (Entry& en : entries) {
      reply_size += 8;  // seq + chunk count (or the miss marker)
      if (en.author == id_) {
        auto it = diff_store_.find(diff_store_key(page, en.seq));
        NOW_CHECK(it != diff_store_.end())
            << "node " << id_ << " asked for missing diff: page " << page
            << " interval " << en.seq;
        en.chunks = &it->second;
      }
      if (en.chunks != nullptr)
        for (const DiffBytes& d : *en.chunks) reply_size += 4 + d.size();
    }
  }
  // One exact reservation for the whole reply, then straight-line appends.
  w.reserve(reply_size);
  w.u32(npages);
  for (const auto& [page, entries] : pages) {
    w.u32(page);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const Entry& en : entries) {
      w.u32(en.seq);
      if (en.chunks == nullptr) {
        w.u32(kDiffStockMiss);
        continue;
      }
      w.u32(static_cast<std::uint32_t>(en.chunks->size()));
      for (const DiffBytes& d : *en.chunks) w.bytes(d.data(), d.size());
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
