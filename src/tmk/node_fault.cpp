// Page fault handling: access detection, cold zero-fills, diff fetch/apply
// and write-twin creation.  Runs on the faulting node's compute thread, from
// inside the SIGSEGV handler (the fault is synchronous, so this is an
// ordinary function call context), under the node's protocol lock.
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
  clock_.advance_us(rt_.config().fault_overhead_us);
  // Fails loudly if this thread already holds the lock: runtime code that
  // touched a protected page.
  ProtoGuard guard(*this);

  const PageIndex page = rt_.arena().page_of(addr);
  PageEntry& e = pages_[page];

  switch (e.state) {
    case PageState::kInvalid: {
      stats_.read_faults.fetch_add(1, std::memory_order_relaxed);
      lock_push_note_touch(page);
      hear_read(page, e);
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
  const std::size_t window = rt_.config().prefetch_pages;
  // Each round applies the notices it saw; the service thread may append
  // more (a flush) while the fetch waits — another round then.
  while (!e.unapplied.empty()) {
    const std::size_t nwant = e.unapplied.size();
    std::vector<UnappliedNotice> need;  // not already held in the diff cache
    std::uint64_t cache_hits = 0, cache_bytes = 0, pf_hits = 0;
    // Chunks already held locally — parked by a critical-section batch,
    // pinned by the barrier-GC validation pass (whose writers may have
    // reclaimed them since), or kept from an earlier fault — need no round
    // trip at all; only the compute thread mutates the cache, so the
    // partition stays valid while the fetch below waits with the lock
    // released.
    for (const auto& n : e.unapplied) {
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
    if (cache_hits > 0) {
      stats_.diff_cache_hits.fetch_add(cache_hits, std::memory_order_relaxed);
      stats_.diff_cache_bytes_saved.fetch_add(cache_bytes,
                                              std::memory_order_relaxed);
      if (pf_hits > 0)
        stats_.prefetch_hits.fetch_add(pf_hits, std::memory_order_relaxed);
    }

    // One diff request per writer, assembled for the shared batched fetch;
    // the reply chunk views stay alive in `replies` until the end of the
    // round (zero-copy apply: the only copy left is the memcpy of the
    // patched ranges themselves).
    std::map<std::uint32_t, std::vector<std::uint32_t>> by_writer;
    for (const auto& n : need) by_writer[n.writer].push_back(n.seq);
    std::vector<DiffWant> wants;
    // Routed fetch (TreadMarks' dominated-writer rule): inside a critical
    // section the page is usually migrating along the lock chain, and the
    // writer of the latest wanted interval applied — and kept as relay
    // stock — every earlier one before writing.  Ask only it, naming every
    // wanted interval; whatever it no longer holds comes back missing and is
    // fetched from its writer below.
    const bool in_cs = !held_locks_.empty();
    const bool routed = in_cs && by_writer.size() > 1;
    if (routed) {
      const UnappliedNotice& latest =
          *std::max_element(need.begin(), need.end(), applies_before);
      DiffWant dw{page, latest.writer, {}, {}};
      dw.seqs.reserve(need.size());
      dw.authors.reserve(need.size());
      for (const auto& n : need) {
        dw.seqs.push_back(n.seq);
        dw.authors.push_back(n.writer);
      }
      wants.push_back(std::move(dw));
      by_writer = {{latest.writer, {}}};  // the one writer contacted
    } else if (in_cs) {
      wants.reserve(by_writer.size());
      for (auto& [writer, seqs] : by_writer)
        wants.push_back({page, writer, std::move(seqs), {}});
    } else {
      // Outside one, each writer folds every run of its intervals into one
      // diff; a critical section's fetches feed the relay stock, which is
      // kept per interval.
      append_run_wants(page, e, wants);
    }

    // Multi-page prefetch: fold other invalid pages' wanted seqs into the
    // request this fault already pays for (no extra messages, ever), each
    // regime from one candidate source.  The collected (writer, seq) lists
    // stay valid across the fetch: the service thread can only *append*
    // notices, and this compute thread is the only one that applies them or
    // touches the cache.
    //
    // Outside a critical section, the window [page+1, page+prefetch_pages]
    // validates what it fetches (TreadMarks' Tmk_validate): it folds a
    // neighbor only if the request covers it whole — every wanted interval
    // authored by a contacted writer or already cached — asks for its runs
    // folded as the faulting page's are, and applies it on arrival, in
    // lamport order, exactly as its own fault would, so its first read does
    // not trap and nothing fetched has to survive in the cache.  A neighbor
    // that would still need another writer is skipped, for its own fault to
    // fetch whole.
    //
    // Inside one, only the critical-section batch: the lock's pages the
    // grant invalidated (cs_batch_), folded into the section's first
    // request.  That request goes to one writer — the chain's latest — so
    // each batch page names *every* wanted interval in the routed layout, as
    // a routed fault of its own would, and its chunks are parked in the
    // page's cache for its own fault: a page validated here would skip the
    // lock's touch history (lock_push_note_touch) the batch is built from.
    // An entry that writer no longer holds comes back missing and is dropped
    // (the page's own fault fetches it), so a wrong guess costs reply bytes
    // and never a message.  The window stays out of critical sections: its
    // parked neighbors would evict the relay stock the lock's next holder
    // is routed to.
    struct PrefetchPage {
      PageIndex page = 0;
      // Outside a critical section: the notices the request covers (the
      // page's whole list when it was assembled), applied on arrival.
      // 0 inside one: park.
      std::size_t validate_nwant = 0;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;  // (writer, seq)
    };
    std::vector<PrefetchPage> prefetch;
    if (!wants.empty()) {
      std::vector<PageIndex> cands;
      if (in_cs) {
        for (PageIndex q : cs_batch_)
          if (q != page) cands.push_back(q);
      } else {
        const PageIndex last = static_cast<PageIndex>(
            std::min<std::size_t>(page + window, rt_.config().num_pages() - 1));
        for (PageIndex q = page + 1; q <= last; ++q) cands.push_back(q);
      }
      // Inside a critical section one writer is contacted (see above).
      const std::uint32_t contacted = by_writer.begin()->first;
      for (PageIndex q : cands) {
        // A page whose chunk is absent was never touched here: no notices,
        // nothing to prefetch, and no reason to allocate it.
        PageEntry* qp = pages_.find(q);
        if (qp == nullptr) continue;
        PageEntry& qe = *qp;
        if (qe.state != PageState::kInvalid || qe.unapplied.empty()) continue;
        PrefetchPage pp;
        pp.page = q;
        bool whole = true;  // every wanted interval fetched here or cached
        for (const auto& n : qe.unapplied) {
          if (qe.diff_cache.find(n.writer, n.seq) != nullptr) continue;
          if (!in_cs && by_writer.find(n.writer) == by_writer.end()) {
            whole = false;
            break;
          }
          pp.entries.emplace_back(n.writer, n.seq);
        }
        if (pp.entries.empty() || !whole) continue;
        if (!in_cs) {
          pp.validate_nwant = qe.unapplied.size();
          append_run_wants(q, qe, wants);
        } else {
          // Routed layout only when some entry is another writer's.
          DiffWant dw{q, contacted, {}, {}};
          bool foreign = false;
          for (const auto& [writer, seq] : pp.entries) {
            dw.seqs.push_back(seq);
            dw.authors.push_back(writer);
            foreign |= writer != contacted;
          }
          if (!foreign) dw.authors.clear();
          wants.push_back(std::move(dw));
        }
        prefetch.push_back(std::move(pp));
      }
      if (!prefetch.empty())
        stats_.prefetch_requests_batched.fetch_add(prefetch.size(),
                                                   std::memory_order_relaxed);
    }
    if (!wants.empty()) cs_batch_.clear();  // the section's first request

    std::vector<sim::Message> replies;
    std::vector<DiffKey> misses;
    FetchedDiffs got = fetch_diffs(wants, replies, /*for_gc=*/false, &misses);
    if (!misses.empty()) {
      // Second round: the routed writer's stock no longer held these (FIFO
      // eviction, a floor's prune, or a concurrent writer it never applied).
      // Every author still holds its own diff, so correctness never rests
      // on the stock.  The faulting page's misses are refetched now; a
      // batch page's are dropped, for its own fault to fetch.
      std::map<std::uint32_t, std::vector<std::uint32_t>> miss_by_writer;
      for (const auto& [mpage, writer, seq] : misses) {
        if (mpage != page) {
          NOW_CHECK(std::any_of(prefetch.begin(), prefetch.end(),
                                [mpage = mpage](const PrefetchPage& pp) {
                                  return pp.page == mpage;
                                }))
              << "stock miss for page " << mpage << " outside the batch";
          continue;
        }
        miss_by_writer[writer].push_back(seq);
      }
      std::vector<DiffWant> retry;
      for (auto& [writer, seqs] : miss_by_writer)
        retry.push_back({page, writer, std::move(seqs), {}});
      if (!retry.empty()) got.merge(fetch_diffs(retry, replies));
    }

    // Relay stock: inside a critical section every applied chunk stays
    // cached, so the next holder's routed fault can ask this node for the
    // page's whole history, and this node's own grant can push it onward
    // (sparse chunks instead of whole-page images).  Outside one the page is
    // not migrating along a lock chain, so cached entries are released once
    // applied (this is what unpins barrier-GC prefetches once they have
    // served their fault; a routed request that still wants the interval
    // takes the miss path).
    ApplyCost cost;
    NOW_CHECK(apply_covered(page, e, nwant, &got, /*keep=*/in_cs, cost))
        << "page " << page << " has an interval neither fetched nor cached";

    // The prefetched pages.  Outside a critical section the fetch covered
    // each one whole: apply it.  One that gained a notice while the fetch
    // waited applies what the fetch covered and stays invalid, for its own
    // fault to fetch the rest — so nothing fetched outside a critical
    // section is ever parked, and a folded run (keyed by its last interval,
    // holding all of them) never reaches a cache.  Inside one, park each
    // batch page's chunks in its cache for its own fault: a budgeted FIFO
    // insert, droppable (the writer still holds the diff — by the GC
    // causality argument nothing wanted mid-epoch is reclaimed before the
    // next barrier — so the real fault refetches whatever eviction lost),
    // and a later barrier-GC floor promotes surviving entries to pins
    // before their writers reclaim.
    for (const PrefetchPage& pp : prefetch) {
      PageEntry& qe = pages_[pp.page];
      if (pp.validate_nwant != 0) {
        NOW_CHECK(apply_covered(pp.page, qe, pp.validate_nwant, &got,
                                /*keep=*/false, cost))
            << "prefetched page " << pp.page << " not covered by its fetch";
        if (qe.unapplied.empty()) {
          hear_read(pp.page, qe);  // as the page's own read fault would
          stats_.prefetch_pages_validated.fetch_add(1, std::memory_order_relaxed);
        } else {
          stats_.prefetch_pages_partial.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      bool filled = false;
      for (const auto& [writer, seq] : pp.entries) {
        auto it = got.find({pp.page, writer, seq});
        if (it == got.end()) continue;  // a dropped stock miss
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
    charge_apply(cost);
  }
}

void Node::append_run_wants(PageIndex page, const PageEntry& e,
                            std::vector<DiffWant>& wants) {
  // Walk the notices in the order apply_covered will apply them.  A run
  // ends at any notice of another writer and at any cached one: folding
  // across an interval that happens-before the run's last one would let
  // the composite restore bytes that interval overwrote.
  std::vector<UnappliedNotice> order(e.unapplied);
  std::stable_sort(order.begin(), order.end(), applies_before);
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_writer;
  const UnappliedNotice* prev = nullptr;  // the notice before, if fetched
  for (const UnappliedNotice& n : order) {
    if (e.diff_cache.find(n.writer, n.seq) != nullptr) {
      prev = nullptr;
      continue;
    }
    const bool folds = prev != nullptr && prev->writer == n.writer;
    by_writer[n.writer].push_back(n.seq | (folds ? kDiffSeqFolds : 0));
    prev = &n;
  }
  for (auto& [writer, seqs] : by_writer)
    wants.push_back({page, writer, std::move(seqs), {}});
}

void Node::hear_read(PageIndex page, PageEntry& e) {
  // Writers whose diffs reached this page without a request naming a read
  // (validation pins, a backlog the validation pass applied) hear of this
  // one as reader marks carried by the next barrier.
  if (e.unheard_writers == 0) return;
  read_marks_[page] |= e.unheard_writers;
  e.unheard_writers = 0;
}

bool Node::apply_covered(PageIndex page, PageEntry& e, std::size_t n,
                         const FetchedDiffs* fetched, bool keep,
                         ApplyCost& cost) {
  const auto first = e.unapplied.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(n);
  auto fetched_views =
      [&](const UnappliedNotice& u) -> const std::vector<DiffChunkView>* {
    if (fetched == nullptr) return nullptr;
    auto it = fetched->find({page, u.writer, u.seq});
    return it == fetched->end() ? nullptr : &it->second;
  };
  // Cover: applying a suffix out of lamport order could resurrect
  // overwritten bytes, so all or nothing.
  for (auto it = first; it != last; ++it)
    if (fetched_views(*it) == nullptr &&
        e.diff_cache.lookup(it->writer, it->seq) == nullptr)
      return false;
  std::stable_sort(first, last, applies_before);

  // Fetched chunks kept as stock are inserted after the apply loop: an
  // insert can FIFO-evict an entry a later iteration still wants.
  std::vector<std::pair<const UnappliedNotice*, std::vector<DiffBytes>>> stock;
  rt_.arena().protect_rw(id_, page);
  std::uint8_t* mem = rt_.arena().page_ptr(id_, page);
  for (auto it = first; it != last; ++it) {
    const UnappliedNotice& u = *it;
    // A fetched interval was absent from the cache when its request was
    // assembled and still is: only this compute thread inserts (an update
    // push racing the fetch waits in the pending queue until the barrier's
    // landing pass), so there is no stale entry to release.
    if (const auto* views = fetched_views(u)) {
      std::vector<DiffBytes> owned;
      if (keep) owned.reserve(views->size());
      for (const DiffChunkView& d : *views) {
        cost.patched += diff_apply(mem, kPageSize, d.first, d.second);
        ++cost.applied;
        if (keep) owned.emplace_back(d.first, d.first + d.second);
      }
      if (keep) stock.emplace_back(&u, std::move(owned));
      continue;
    }
    const PageDiffCache::Entry* cached = e.diff_cache.lookup(u.writer, u.seq);
    for (const DiffBytes& d : cached->chunks) {
      cost.patched += diff_apply(mem, kPageSize, d);
      ++cost.applied;
    }
    // A pin is released even as stock: its writer reclaimed the diff
    // against a floor every peer has applied, so no routed request or grant
    // delta can ever name it again, and a stale pin would leak pinned bytes
    // forever.
    if (keep && !cached->pinned) {
      relay_keep(page, e, u.writer, u.seq);
    } else {
      e.diff_cache.erase(u.writer, u.seq);
    }
  }
  for (auto& [u, owned] : stock) {
    if (e.diff_cache.insert(u->writer, u->seq, std::move(owned),
                            rt_.config().diff_cache_bytes_per_page))
      relay_keep(page, e, u->writer, u->seq);
  }
  e.unapplied.erase(first, last);
  if (e.unapplied.empty()) {
    rt_.arena().protect_read(id_, page);
    e.state = PageState::kReadOnly;
    e.ever_valid = true;
  } else {
    rt_.arena().protect_none(id_, page);
    e.state = PageState::kInvalid;
  }
  return true;
}

void Node::charge_apply(const ApplyCost& cost) {
  if (cost.applied == 0) return;
  stats_.diffs_applied.fetch_add(cost.applied, std::memory_order_relaxed);
  clock_.advance_us(rt_.config().diff_apply_per_kb_us *
                    (static_cast<double>(cost.patched) / 1024.0));
}

}  // namespace now::tmk
