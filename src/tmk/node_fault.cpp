// Page fault handling: access detection, cold zero-fills, diff fetch/apply
// and write-twin creation.  Runs on the faulting node's compute thread, from
// inside the SIGSEGV handler (the fault is synchronous, so this is an
// ordinary function call context).
#include <algorithm>
#include <cstring>
#include <map>

#include "common/bytes.h"
#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/gptr.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

void Node::handle_fault(void* addr) {
  NOW_CHECK(detail::region_base() == rt_.arena().region_base(id_))
      << "shared memory of node " << id_
      << " touched from a thread not bound to it";
  // The compute stretch that ended in this fault includes the kernel's
  // signal-delivery latency (large under sandboxed kernels).  Subtract the
  // calibrated delivery cost so only application work is billed; the DSM's
  // own fault cost is the modeled fault_overhead below.
  {
    std::uint64_t delta = cpu_meter_.take_delta_ns();
    const std::uint64_t delivery = fault::fault_delivery_ns();
    delta -= std::min(delta, delivery);
    clock_.advance_ns(rt_.config().time.scale_ns(delta));
  }
  clock_.advance_us(rt_.config().fault_overhead_us);
  // Host time spent inside the handler (sandboxed signal delivery, mprotect,
  // twin copies) is NOT application compute: the protocol's costs are
  // modeled explicitly, so the meter is re-based on every exit path.
  struct RebaseOnExit {
    sim::CpuMeter& meter;
    ~RebaseOnExit() { meter.rebase(); }
  } rebase_guard{cpu_meter_};

  const PageIndex page = rt_.arena().page_of(addr);
  PageEntry& e = pages_[page];
  std::unique_lock<std::mutex> lock(e.mu);

  switch (e.state) {
    case PageState::kInvalid: {
      stats_.read_faults.fetch_add(1, std::memory_order_relaxed);
      lock_push_note_touch(page);
      if (e.unapplied.empty()) {
        if (e.push_armed != PushKind::kNone) {
          // Armed push (either keying): the contents are already current,
          // the fault only remaps the page — the probe that proves this
          // node still consumes the pushed data.  No messages.
          push_hit(e.push_armed);
          e.push_armed = PushKind::kNone;
        } else if (!e.ever_valid) {
          // First touch of a never-written page: the zero-filled local copy
          // is the correct initial contents — no communication, as in
          // TreadMarks.
          stats_.cold_zero_fills.fetch_add(1, std::memory_order_relaxed);
        }
        rt_.arena().protect_read(id_, page);
        e.state = PageState::kReadOnly;
        e.ever_valid = true;
        return;  // a write access re-faults immediately and upgrades below
      }
      lock.unlock();
      fetch_and_apply(page, e);
      return;
    }

    case PageState::kReadOnly: {
      // Reads cannot fault on PROT_READ, so this is a write upgrade.
      stats_.write_faults.fetch_add(1, std::memory_order_relaxed);
      lock_push_note_touch(page);
      if (e.twin_valid && e.twin.seq <= own_seq_) {
        if (e.twin.seq <= gc_reclaimed_seq_) {
          // The interval's diffs were already reclaimed everywhere, so no
          // diff from this twin can ever be wanted (it can only still be
          // pending when no peer fetched it, e.g. single-node runs): drop
          // it instead of materializing a dead diff.  The bound is the
          // *reclaimed* prefix, one barrier behind the announced floor —
          // a peer's validation fetch against the fresh floor may still be
          // in flight, and this twin may be the only source of its diff.
          e.twin_valid = false;
          e.twin.data.reset();
        } else {
          // The pending twin belongs to an already-closed interval; its
          // diff must be fixed before the page changes again.
          materialize_twin(page, e);
        }
      }
      if (!e.twin_valid) {
        e.twin.data = std::make_unique<std::uint8_t[]>(kPageSize);
        std::memcpy(e.twin.data.get(), rt_.arena().page_ptr(id_, page), kPageSize);
        e.twin.seq = own_seq_ + 1;  // the open interval
        e.twin_valid = true;
        stats_.twins_created.fetch_add(1, std::memory_order_relaxed);
        clock_.advance_us(rt_.config().twin_copy_us);
        dirty_pages_.push_back(page);
      }
      rt_.arena().protect_rw(id_, page);
      e.state = PageState::kWritable;
      return;
    }

    case PageState::kWritable:
      NOW_CHECK(false) << "fault on a writable page (node " << id_ << ", page "
                       << page << ")";
  }
}

void Node::fetch_and_apply(PageIndex page, PageEntry& e) {
  const std::size_t cache_budget = rt_.config().diff_cache_bytes_per_page;
  const std::size_t window = rt_.config().prefetch_window();
  for (;;) {
    std::vector<UnappliedNotice> want;
    std::vector<UnappliedNotice> need;  // not already held in the diff cache
    std::uint64_t cache_hits = 0, cache_bytes = 0, pf_hits = 0;
    {
      std::lock_guard<std::mutex> lock(e.mu);
      if (e.unapplied.empty()) {
        if (e.state == PageState::kInvalid) {
          rt_.arena().protect_read(id_, page);
          e.state = PageState::kReadOnly;
          e.ever_valid = true;
        }
        return;
      }
      want = e.unapplied;
      // Chunks already held locally — parked by a neighbor fault's prefetch,
      // pinned by the barrier-GC validation pass (whose writers may have
      // reclaimed them since), or kept from an earlier fault — need no round
      // trip at all; only the compute thread mutates the cache, so the
      // partition stays valid after the lock drops.  Skipped entirely when
      // the cache is disabled so the hot path pays nothing for it.
      if (cache_budget > 0) {
        for (const auto& n : want) {
          if (const auto* ent = e.diff_cache.lookup(n.writer, n.seq)) {
            ++cache_hits;
            if (ent->prefetched) ++pf_hits;
            // Reply bytes this hit avoids: the per-interval seq + chunk-count
            // header plus each chunk's length prefix and payload.  (A fully
            // suppressed request message saves more still; not counted.)
            cache_bytes += 8;
            for (const DiffBytes& c : ent->chunks) cache_bytes += 4 + c.size();
          } else {
            need.push_back(n);
          }
        }
      }
    }
    // With the cache off, everything in `want` must be fetched.
    const std::vector<UnappliedNotice>& to_fetch = cache_budget > 0 ? need : want;
    if (cache_hits > 0) {
      stats_.diff_cache_hits.fetch_add(cache_hits, std::memory_order_relaxed);
      stats_.diff_cache_bytes_saved.fetch_add(cache_bytes,
                                              std::memory_order_relaxed);
      if (pf_hits > 0)
        stats_.prefetch_hits.fetch_add(pf_hits, std::memory_order_relaxed);
    }

    // One diff request per writer, assembled for the shared batched fetch;
    // the reply chunk views stay alive in `replies` until the end of the
    // iteration (zero-copy apply: the only copy left is the memcpy of the
    // patched ranges themselves).
    std::map<std::uint32_t, std::vector<std::uint32_t>> by_writer;
    for (const auto& n : to_fetch) by_writer[n.writer].push_back(n.seq);
    std::vector<DiffWant> wants;
    // Routed fetch (TreadMarks' dominated-writer rule): inside a critical
    // section the page is usually migrating along the lock chain, and the
    // writer of the latest wanted interval applied — and kept as relay
    // stock — every earlier one before writing.  Ask only it, naming every
    // wanted interval; whatever it no longer holds comes back missing and is
    // fetched from its writer below.  Without a diff cache there is no
    // stock anywhere, so routing stays off.
    const bool in_cs = !held_locks_.empty() && cache_budget > 0;
    const bool routed = in_cs && by_writer.size() > 1;
    if (routed) {
      const UnappliedNotice& latest =
          *std::max_element(to_fetch.begin(), to_fetch.end(), applies_before);
      DiffWant dw{page, latest.writer, {}, {}};
      dw.seqs.reserve(to_fetch.size());
      dw.authors.reserve(to_fetch.size());
      for (const auto& n : to_fetch) {
        dw.seqs.push_back(n.seq);
        dw.authors.push_back(n.writer);
      }
      wants.push_back(std::move(dw));
      by_writer = {{latest.writer, {}}};  // the one writer contacted
    } else {
      wants.reserve(by_writer.size());
      for (auto& [writer, seqs] : by_writer)
        wants.push_back({page, writer, std::move(seqs), {}});
    }

    // Multi-page prefetch: fold neighboring invalid pages' wanted seqs into
    // the writer requests this fault already pays for.  Only writers already
    // being contacted are considered (no extra messages, ever), and only
    // entries not yet cached.  The collected (writer, seq) list stays valid
    // after the page locks drop: the service thread can only *append*
    // notices, and this compute thread is the only one that applies them or
    // touches the cache.  Nothing here reorders consistency: the neighbor's
    // chunks are parked in its cache and applied, in lamport order, by its
    // own fault.
    struct PrefetchPage {
      PageIndex page = 0;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;  // (writer, seq)
    };
    std::vector<PrefetchPage> prefetch;
    if (window > 0 && !wants.empty()) {
      const std::size_t num_pages = rt_.config().num_pages();
      const PageIndex last = static_cast<PageIndex>(
          std::min<std::size_t>(page + window, num_pages - 1));
      for (PageIndex q = page + 1; q <= last; ++q) {
        // A neighbor whose chunk is absent was never touched here: no
        // notices, nothing to prefetch, and no reason to allocate it.
        PageEntry* qp = pages_.find(q);
        if (qp == nullptr) continue;
        PageEntry& qe = *qp;
        std::lock_guard<std::mutex> qlock(qe.mu);
        if (qe.state != PageState::kInvalid || qe.unapplied.empty()) continue;
        PrefetchPage pp;
        pp.page = q;
        std::map<std::uint32_t, std::vector<std::uint32_t>> q_by_writer;
        for (const auto& n : qe.unapplied) {
          if (by_writer.find(n.writer) == by_writer.end()) continue;
          if (qe.diff_cache.find(n.writer, n.seq) != nullptr) continue;
          q_by_writer[n.writer].push_back(n.seq);
          pp.entries.emplace_back(n.writer, n.seq);
        }
        if (pp.entries.empty()) continue;
        for (auto& [writer, seqs] : q_by_writer)
          wants.push_back({q, writer, std::move(seqs), {}});
        prefetch.push_back(std::move(pp));
      }
      if (!prefetch.empty())
        stats_.prefetch_requests_batched.fetch_add(prefetch.size(),
                                                   std::memory_order_relaxed);
    }

    std::vector<sim::Message> replies;
    std::vector<DiffKey> misses;
    auto got = fetch_diffs(wants, replies, /*for_gc=*/false, &misses);
    if (!misses.empty()) {
      // Second round: the routed writer's stock no longer held these (FIFO
      // eviction, a floor's prune, or a concurrent writer it never applied).
      // Every author still holds its own diff, so correctness never rests
      // on the stock.  Only the faulting page is routed, so only its
      // intervals can miss.
      std::map<std::uint32_t, std::vector<std::uint32_t>> miss_by_writer;
      for (const auto& [mpage, writer, seq] : misses) {
        NOW_CHECK_EQ(mpage, page);
        miss_by_writer[writer].push_back(seq);
      }
      std::vector<DiffWant> retry;
      for (auto& [writer, seqs] : miss_by_writer)
        retry.push_back({page, writer, std::move(seqs), {}});
      got.merge(fetch_diffs(retry, replies));
    }

    // Park the prefetched chunks in their pages' caches for the neighbor's
    // own fault.  Budgeted FIFO insert: droppable (the writer still holds
    // the diff — by the GC causality argument nothing wanted mid-epoch is
    // reclaimed before the next barrier — so the real fault refetches
    // whatever eviction lost), and a later barrier-GC floor promotes
    // surviving entries to pins before their writers reclaim.
    for (const PrefetchPage& pp : prefetch) {
      PageEntry& qe = pages_[pp.page];
      std::lock_guard<std::mutex> qlock(qe.mu);
      bool filled = false;
      for (const auto& [writer, seq] : pp.entries) {
        auto it = got.find({pp.page, writer, seq});
        NOW_CHECK(it != got.end())
            << "writer " << writer << " had no diff for prefetched page "
            << pp.page << " interval " << seq;
        std::vector<DiffBytes> owned;
        owned.reserve(it->second.size());
        for (const DiffChunkView& v : it->second)
          owned.emplace_back(v.first, v.first + v.second);
        filled |= qe.diff_cache.insert(writer, seq, std::move(owned),
                                       cache_budget, /*prefetched=*/true);
      }
      if (filled)
        stats_.prefetch_pages_filled.fetch_add(1, std::memory_order_relaxed);
    }

    std::stable_sort(want.begin(), want.end(), applies_before);

    // Relay stock: inside a critical section every applied chunk stays
    // cached, so the next holder's routed fault can ask this node for the
    // page's whole history, and this node's own grant can push it onward
    // (sparse chunks instead of whole-page images).  Fetched chunks are
    // inserted after the apply loop: an insert can FIFO-evict an entry a
    // later iteration still wants.
    std::vector<std::pair<const UnappliedNotice*, std::vector<DiffBytes>>> keep;

    std::lock_guard<std::mutex> lock(e.mu);
    rt_.arena().protect_rw(id_, page);
    std::uint8_t* mem = rt_.arena().page_ptr(id_, page);
    std::size_t patched = 0;
    std::uint64_t applied = 0;
    for (const auto& n : want) {
      auto it = got.find({page, n.writer, n.seq});
      if (it != got.end()) {
        // An interval fetched here was absent from the cache at partition
        // time and still is: only this compute thread inserts (an update
        // push racing this fetch waits in the pending queue until the
        // barrier's landing pass), so there is no stale entry to release.
        std::vector<DiffBytes> owned;
        if (in_cs) owned.reserve(it->second.size());
        for (const DiffChunkView& d : it->second) {
          patched += diff_apply(mem, kPageSize, d.first, d.second);
          ++applied;
          if (in_cs) owned.emplace_back(d.first, d.first + d.second);
        }
        if (in_cs) keep.emplace_back(&n, std::move(owned));
        continue;
      }
      const auto* cached = e.diff_cache.lookup(n.writer, n.seq);
      NOW_CHECK(cached != nullptr)
          << "writer " << n.writer << " had no diff for page " << page
          << " interval " << n.seq;
      for (const DiffBytes& d : cached->chunks) {
        patched += diff_apply(mem, kPageSize, d);
        ++applied;
      }
      // Outside a critical section the page is not migrating along a lock
      // chain, so the entry is released (this is what unpins barrier-GC
      // prefetches once they have served their fault; a routed request
      // that still wants the interval takes the miss path).  Inside one it
      // becomes relay stock — except a pin: its writer reclaimed the diff
      // against a floor every peer has applied, so no routed request or
      // grant delta can ever name it again, and a stale pin would leak
      // pinned bytes forever.
      if (in_cs && !cached->pinned) {
        relay_keep(page, e, n.writer, n.seq);
      } else {
        e.diff_cache.erase(n.writer, n.seq);
      }
    }
    for (auto& [n, owned] : keep) {
      if (e.diff_cache.insert(n->writer, n->seq, std::move(owned), cache_budget))
        relay_keep(page, e, n->writer, n->seq);
    }
    stats_.diffs_applied.fetch_add(applied, std::memory_order_relaxed);
    clock_.advance_us(rt_.config().diff_apply_per_kb_us *
                      (static_cast<double>(patched) / 1024.0));

    // Drop what we applied; the service thread may have appended more
    // notices (a flush) while we were fetching — loop if so.
    e.unapplied.erase(e.unapplied.begin(),
                      e.unapplied.begin() + static_cast<std::ptrdiff_t>(want.size()));
    if (e.unapplied.empty()) {
      rt_.arena().protect_read(id_, page);
      e.state = PageState::kReadOnly;
      e.ever_valid = true;
      return;
    }
    rt_.arena().protect_none(id_, page);
    e.state = PageState::kInvalid;
  }
}

}  // namespace now::tmk
