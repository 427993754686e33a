// Node lifecycle, consistency engine (intervals, merge/invalidate,
// twin materialization) and messaging helpers.
#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

Node::Node(DsmRuntime& rt, std::uint32_t id)
    : rt_(rt),
      id_(id),
      num_nodes_(rt.config().num_nodes),
      pages_(rt.config().num_pages(), &diff_cache_total_bytes_),
      log_(num_nodes_),
      sent_node_vt_(num_nodes_, VectorTime(num_nodes_, 0)),
      sent_mgr_vt_(num_nodes_, VectorTime(num_nodes_, 0)),
      gc_floor_applied_(num_nodes_, 0),
      gc_floor_validated_(num_nodes_, 0),
      relay_index_(num_nodes_),
      mgr_(num_nodes_),
      tree_sent_up_vt_(num_nodes_, 0),
      stress_rng_(rt.config().stress_seed + id) {}

Node::~Node() = default;

namespace {
// The node whose protocol lock this thread holds, if any.
thread_local const Node* t_proto_holder = nullptr;
}  // namespace

Node::ProtoGuard::ProtoGuard(Node& node) : node_(node) {
  NOW_CHECK(t_proto_holder != &node)
      << "node " << node.id_
      << ": protocol lock taken twice by one thread (runtime code holding it "
         "touched a protected page?)";
  node.proto_mu_.lock();
  t_proto_holder = &node;
}

Node::ProtoGuard::~ProtoGuard() {
  t_proto_holder = nullptr;
  node_.proto_mu_.unlock();
}

void Node::start_service() {
  service_thread_ = PooledThread([this] { service_main(); });
}

void Node::join_service() {
  if (service_thread_.joinable()) service_thread_.join();
}

void Node::bind_compute_thread() {
  detail::region_base() = rt_.arena().region_base(id_);
}

// ---------------------------------------------------------------------------
// Consistency engine
// ---------------------------------------------------------------------------

void Node::close_interval() {
  if (dirty_pages_.empty()) return;

  std::sort(dirty_pages_.begin(), dirty_pages_.end());
  dirty_pages_.erase(std::unique(dirty_pages_.begin(), dirty_pages_.end()),
                     dirty_pages_.end());

  IntervalRecord rec;
  rec.node = id_;
  rec.pages = dirty_pages_;
  std::uint32_t rec_seq;
  const std::size_t rec_npages = rec.pages.size();
  const PageIndex rec_first = rec.pages.empty() ? 0 : rec.pages[0];
  own_lamport_ = std::max(own_lamport_, log_.max_lamport()) + 1;
  rec.seq = rec_seq = ++own_seq_;
  rec.lamport = own_lamport_;
  log_.append_own(std::move(rec));

  // The barrier push pass wants this epoch's intervals by dirty page.
  if (rt_.config().update_enabled())
    for (PageIndex page : dirty_pages_) epoch_dirty_[page].push_back(rec_seq);

  // Write-protect the interval's dirty pages so later writes fault and
  // materialize this interval's diff before starting a new twin.
  for (PageIndex page : dirty_pages_) {
    PageEntry& e = pages_[page];
    if (e.state == PageState::kWritable) {
      rt_.arena().protect_read(id_, page);
      e.state = PageState::kReadOnly;
    }
    // kInvalid: the page was invalidated mid-interval; its partial diff is
    // already in the store under this interval's seq.
  }
  dirty_pages_.clear();
  NOW_LOG(kDebug, "node %u closed interval %u (%zu pages, first=%u)", id_,
          rec_seq, rec_npages, rec_first);
}

void Node::merge_and_invalidate(const std::vector<IntervalRecordPtr>& recs) {
  const std::vector<IntervalRecordPtr> fresh = log_.merge(recs);
  for (const IntervalRecordPtr& recp : fresh) {
    const IntervalRecord& rec = *recp;
    NOW_CHECK_NE(rec.node, id_) << "merged a record we authored";
    for (PageIndex page : rec.pages) {
      PageEntry& e = pages_[page];
      e.unapplied.push_back({rec.node, rec.seq, rec.lamport});
      if (e.state != PageState::kInvalid) invalidate_page(page, e);
      // An armed page is already kInvalid; a fresh notice still stales its
      // applied-and-current contents.
      e.push_armed = PushKind::kNone;
    }
  }
  // Seed the GC validation scan with the pages that just gained notices
  // (consumed whenever a floor is applied: barriers and fork points).
  if (rt_.config().gc_floors_enabled())
    for (const IntervalRecordPtr& recp : fresh)
      gc_scan_pages_.insert(gc_scan_pages_.end(), recp->pages.begin(),
                            recp->pages.end());
}

void Node::invalidate_page(PageIndex page, PageEntry& e) {
  NOW_CHECK(e.state != PageState::kInvalid);
  materialize_twin(page, e);  // no-op without a twin
  rt_.arena().protect_none(id_, page);
  e.state = PageState::kInvalid;
  e.push_armed = PushKind::kNone;  // armed contents are no longer current
  stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
}

void Node::materialize_twin(PageIndex page, PageEntry& e) {
  if (!e.twin_valid) return;
  NOW_CHECK(e.state != PageState::kInvalid) << "twin on an invalid page";
  const std::uint8_t* current = rt_.arena().page_ptr(id_, page);
  // Scan into a per-thread scratch buffer (both the compute and the service
  // thread materialize twins), then store an exactly-sized copy: the scratch
  // absorbs the grow-reallocations, the store never over-holds.
  thread_local DiffBytes scratch;
  scratch.clear();
  diff_append(scratch, e.twin.data.get(), current, kPageSize);
  DiffBytes diff(scratch.begin(), scratch.end());
  const auto& cfg = rt_.config();
  clock_.advance_us(cfg.diff_create_base_us +
                    cfg.diff_create_per_kb_us *
                        (static_cast<double>(diff.size()) / 1024.0));
  stats_.diffs_created.fetch_add(1, std::memory_order_relaxed);
  stats_.diff_bytes_created.fetch_add(diff.size(), std::memory_order_relaxed);
  diff_store_bytes_ +=
      diff_store_[diff_store_key(page, e.twin.seq)].emplace_back(std::move(diff)).size();
  e.twin_valid = false;
  e.twin.data.reset();
}

VectorTime Node::vector_time() {
  ProtoGuard guard(*this);
  return log_.vt();
}

VectorTime Node::gc_floor_snapshot() {
  ProtoGuard guard(*this);
  return gc_floor_applied_;
}

std::size_t Node::page_chunks() {
  ProtoGuard guard(*this);
  return pages_.chunks();
}

Node::MetaFootprint Node::meta_footprint() {
  ProtoGuard guard(*this);
  MetaFootprint f;
  f.log_records = log_.total_records();
  f.log_bytes = log_.total_bytes();
  f.diff_store_entries = diff_store_.size();
  for (const auto& [key, chunks] : diff_store_)
    for (const DiffBytes& d : chunks) f.diff_store_bytes += d.size();
  // Absent chunks hold no cached diffs.
  pages_.for_each([&](PageIndex, PageEntry& e) {
    f.diff_cache_bytes += e.diff_cache.bytes();
    f.diff_cache_pinned_bytes += e.diff_cache.pinned_bytes();
    f.relay_bytes += e.diff_cache.relay_bytes();
  });
  return f;
}

std::size_t Node::meta_bytes() {
  return diff_store_bytes_ + diff_cache_total_bytes_ + log_.total_bytes();
}

// ---------------------------------------------------------------------------
// Messaging helpers
// ---------------------------------------------------------------------------

Node::FetchedDiffs Node::fetch_diffs(
    const std::vector<DiffWant>& wants, std::vector<sim::Message>& replies,
    bool for_gc, std::vector<DiffKey>* misses) {
  // One kDiffRequest per *writer*, carrying every page wanted from it:
  // a fault and its prefetch window share one round trip, and the GC
  // validation pass batches a whole barrier's worth of pages per writer.
  std::map<std::uint32_t, std::vector<const DiffWant*>> by_writer;
  for (const DiffWant& want : wants) {
    NOW_CHECK_NE(want.writer, id_) << "unapplied notice for our own interval";
    by_writer[want.writer].push_back(&want);
  }

  // Copyset tag: the requester's 0-based epoch (barriers completed).  The
  // writer folds an epoch's readers only after its own departure from the
  // barrier that ended it, by which point every fault-path request of that
  // epoch has been served (the requester could not have arrived otherwise).
  // GC-validation fetches are flagged instead of recorded: fetching an
  // epoch's diffs at its barrier is no evidence of a read.
  const std::uint32_t epoch_tag = static_cast<std::uint32_t>(
      stats_.barriers.load(std::memory_order_relaxed));

  // All requests go out before any wait (TreadMarks pipelines these to hide
  // latency).
  struct Call {
    std::uint64_t tok = 0;
    std::uint32_t writer = 0;
    std::vector<const DiffWant*> wants;  // request order; the reply echoes it
  };
  std::vector<Call> calls;
  calls.reserve(by_writer.size());
  std::uint64_t routed_calls = 0;
  for (auto& [writer, writer_wants] : by_writer) {
    // Routed layout only when some entry is another writer's: a direct
    // request keeps the seq-only entries, byte for byte.
    const bool routed = std::any_of(
        writer_wants.begin(), writer_wants.end(),
        [](const DiffWant* want) { return !want->authors.empty(); });
    ByteWriter w;
    w.u32(epoch_tag);
    w.u8((for_gc ? kDiffReqForGc : 0) | (routed ? kDiffReqRouted : 0));
    w.u32(static_cast<std::uint32_t>(writer_wants.size()));
    for (const DiffWant* want : writer_wants) {
      w.u32(want->page);
      w.u32(static_cast<std::uint32_t>(want->seqs.size()));
      for (std::size_t i = 0; i < want->seqs.size(); ++i) {
        if (routed) w.u32(want->authors.empty() ? writer : want->authors[i]);
        w.u32(want->seqs[i]);
      }
    }
    const std::uint64_t tok = rpc_.begin();
    sim::Message m;
    m.type = kDiffRequest;
    m.dst = writer;
    m.seq = tok;
    m.payload = w.take();
    send_compute(std::move(m));
    calls.push_back({tok, writer, std::move(writer_wants)});
    routed_calls += routed ? 1 : 0;
  }
  stats_.diff_fetches.fetch_add(calls.size(), std::memory_order_relaxed);
  if (routed_calls > 0) {
    NOW_CHECK(misses != nullptr) << "routed diff fetch without a miss list";
    stats_.diff_fetches_routed.fetch_add(routed_calls, std::memory_order_relaxed);
  }

  // The chunk views point into the reply payloads (zero-copy: the only copy
  // left to the caller is whatever it does with the chunks).  The payload
  // heap buffers are stable even if `replies` reallocates.
  FetchedDiffs got;
  std::uint64_t served = 0, missed = 0;
  replies.reserve(replies.size() + calls.size());
  for (const Call& c : calls) {
    replies.push_back(rpc_.wait(c.tok));
    const sim::Message& reply = replies.back();
    arrive(reply);
    ByteReader r(reply.payload);
    const std::uint32_t npages = r.u32();
    NOW_CHECK_EQ(npages, c.wants.size());
    for (const DiffWant* want : c.wants) {
      const PageIndex rpage = r.u32();
      // The reply echoes the requested pages in order; a mislabeled page
      // would silently file chunks under the wrong cache, so fail fast.
      NOW_CHECK_EQ(rpage, want->page);
      const std::uint32_t n = r.u32();
      NOW_CHECK_EQ(n, want->seqs.size());
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t author =
            want->authors.empty() ? c.writer : want->authors[i];
        const std::uint32_t seq = r.u32();
        const std::uint32_t nchunks = r.u32();
        if (nchunks == kDiffStockMiss) {
          misses->emplace_back(rpage, author, seq);
          ++missed;
          continue;
        }
        if (author != c.writer) ++served;
        auto& chunks = got[{rpage, author, seq}];
        for (std::uint32_t k = 0; k < nchunks; ++k) chunks.push_back(r.bytes_view());
      }
    }
  }
  if (served > 0)
    stats_.diff_stock_served.fetch_add(served, std::memory_order_relaxed);
  if (missed > 0)
    stats_.diff_stock_misses.fetch_add(missed, std::memory_order_relaxed);
  return got;
}

std::vector<IntervalRecordPtr> Node::take_delta_for(std::uint32_t peer, Cache which,
                                                    const VectorTime* extra) {
  VectorTime& cache =
      (which == Cache::kNodeLog ? sent_node_vt_ : sent_mgr_vt_)[peer];
  VectorTime base = extra ? vt_max(cache, *extra) : cache;
  std::vector<IntervalRecordPtr> delta = log_.delta_since(base);
  if (log_enabled(LogLevel::kDebug)) {
    NOW_LOG(kDebug,
            "node %u: take_delta(peer=%u, %s): cache=[%u,%u] extra=[%u,%u] log=[%u,%u] -> %zu recs",
            id_, peer, which == Cache::kNodeLog ? "node" : "mgr",
            cache.empty() ? 0 : cache[0], cache.size() > 1 ? cache[1] : 0,
            extra && !extra->empty() ? (*extra)[0] : 0,
            extra && extra->size() > 1 ? (*extra)[1] : 0,
            log_.seq_of(0), num_nodes_ > 1 ? log_.seq_of(1) : 0, delta.size());
  }
  cache = log_.vt();
  return delta;
}

void Node::send_compute(sim::Message&& m) {
  clock_.advance_us(rt_.config().net.send_overhead_us);
  m.src = id_;
  m.send_ts_ns = clock_.now_ns();
  rt_.net().send(std::move(m));
}

void Node::send_service(sim::Message&& m, std::uint64_t base_ts) {
  // Service replies depart after the modeled interrupt-service time; the
  // interrupt also steals CPU from whatever the host node was computing.
  const std::uint64_t overhead =
      static_cast<std::uint64_t>(rt_.config().net.service_overhead_us * 1000.0);
  m.src = id_;
  m.send_ts_ns = base_ts + overhead;
  rt_.net().send(std::move(m));
}

void Node::arrive(const sim::Message& m) {
  clock_.advance_to_ns(m.arrive_ts_ns);
  clock_.advance_us(rt_.config().net.recv_overhead_us);
}

sim::Message Node::rpc_call(std::uint32_t dst, std::uint16_t type,
                            std::vector<std::uint8_t> payload) {
  const std::uint64_t tok = rpc_.begin();
  sim::Message m;
  m.type = type;
  m.dst = dst;
  m.seq = tok;
  m.payload = std::move(payload);
  send_compute(std::move(m));
  sim::Message reply = rpc_.wait(tok);
  arrive(reply);
  return reply;
}

}  // namespace now::tmk
