// The push engine: diffs that ride ahead of the fault that would otherwise
// pull them.  Two keyings feed it, each keeping only what it observes and
// where it sends:
//  - the barrier keying (update mode, push key kBarrierPushKey): writers
//    track per-page copysets, promote epoch-stable reader sets, and push an
//    epoch's diffs in one kUpdatePush per reader at barrier arrival; the
//    readers land them at the departure;
//  - the lock keying (lock push, push key = the lock id): each node tracks
//    per-lock protected page sets and piggybacks every diff it holds for
//    them — its own and the chain history it relays — on the kLockGrant it
//    forwards; the requester lands them inside its acquire.
// Everything after the bytes arrive is one code path: park (writer,
// seq)-keyed in the page's diff cache -> cover -> apply in lamport order ->
// arm on the probe cadence or validate -> judge at the key's judge point ->
// deny the pusher (kPushDeny) -> demote with exponential re-admission
// backoff (PushAdmission).
#include <algorithm>
#include <iterator>
#include <map>

#include "common/bytes.h"
#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

namespace {
PushKind push_kind(std::uint32_t key) {
  return key == Node::kBarrierPushKey ? PushKind::kBarrier : PushKind::kLock;
}
}  // namespace

// ---------------------------------------------------------------------------
// The engine: landing, arming, judging, denial
// ---------------------------------------------------------------------------

void Node::push_land(std::uint32_t key, PageIndex page,
                     const std::vector<std::uint32_t>& pushers,
                     std::vector<PushedChunk>& chunks, PushBatch& b) {
  // Relay stock follows from the keying: a lock-protected page keeps its
  // pushed chunks, applied or not, exactly like a fault inside a critical
  // section keeps its fetched ones — the one stock routed requests are
  // answered from and this node's own later grant relays onward.
  const bool retain = push_kind(key) == PushKind::kLock;
  PageEntry& e = pages_[page];

  // Park: budgeted, droppable, keyed (writer, seq) exactly like a fetched
  // reply.  Only this compute thread mutates the cache, which is what keeps
  // a push racing a pull idempotent: whichever applies first erases the
  // entry, the other's copy is redundant bytes, never a second application.
  bool any_kept = false;
  for (PushedChunk& c : chunks) {
    any_kept |= e.diff_cache.insert(c.writer, c.seq, std::move(c.chunks),
                                    rt_.config().diff_cache_bytes_per_page);
    // Stock is indexed so the prune pass can drop it once a floor covers it
    // (a no-op on budget-rejected keys).
    if (retain) relay_keep(page, e, c.writer, c.seq);
  }
  if (!any_kept) {
    // The budget rejected every chunk (oversized diffs, or GC pins already
    // fill the page's cache): these pushes can never land, and the
    // re-fetching fault would keep the sharing set stable forever.  Deny
    // now; re-admission backs off.
    for (std::uint32_t p : pushers) b.deny[p].push_back(page);
    return;
  }
  // A racing pull-path fetch already applied everything: redundant bytes.
  if (e.state != PageState::kInvalid || e.unapplied.empty()) return;
  // Apply only when the cache covers *every* wanted interval — applying a
  // suffix out of lamport order could resurrect overwritten bytes.  A
  // partially covered page stays lazy (the fault serves the cached part
  // locally and fetches only the rest) and is judged: one still invalid
  // with unapplied notices at the judge point is a push nobody consumed.
  // Under the lock keying the applied entries stay as stock.  Under the
  // barrier keying they are released: update-mode pages are barrier-shared,
  // not migrating along a lock chain (a routed request that still wants the
  // interval takes the miss path).
  if (!apply_covered(page, e, e.unapplied.size(), /*fetched=*/nullptr, retain,
                     b.cost)) {
    for (std::uint32_t p : pushers)
      push_judge_[key].push_back({page, p, /*armed=*/false});
    return;
  }
  push_settle(key, page, e, pushers);
}

void Node::push_settle(std::uint32_t key, PageIndex page, PageEntry& e,
                       const std::vector<std::uint32_t>& pushers) {
  const auto& cfg = rt_.config();
  const PushKind kind = push_kind(key);
  // Probe cadence: every Nth push applied to the page is left *armed* —
  // contents current but unmapped, so the next access faults once, locally,
  // and proves this node still consumes the pushes.  The pushes in between
  // (including the first: admission already rests on observed faults)
  // validate outright and the fault disappears.  A node that stops
  // consuming burns at most N-1 validated pushes before a probe goes
  // untouched and the deny lands.
  const std::uint32_t every = std::max<std::uint32_t>(
      1, kind == PushKind::kBarrier ? cfg.update_reprobe_epochs
                                    : cfg.lock_push_reprobe);
  if (++e.pushes_since_probe % every == 0) {
    rt_.arena().protect_none(id_, page);
    e.state = PageState::kInvalid;
    e.push_armed = kind;
    for (std::uint32_t p : pushers)
      push_judge_[key].push_back({page, p, /*armed=*/true});
  } else {
    push_hit(kind);
  }
}

void Node::push_finish(std::uint32_t key, PushBatch& b) {
  charge_apply(b.cost);
  send_denies(key, b.deny);
}

void Node::push_hit(PushKind kind) {
  (kind == PushKind::kBarrier ? stats_.update_push_hits : stats_.lock_push_hits)
      .fetch_add(1, std::memory_order_relaxed);
}

void Node::push_judge(std::uint32_t key) {
  auto it = push_judge_.find(key);
  if (it == push_judge_.end() || it->second.empty()) return;
  std::vector<PushJudge> judged = std::move(it->second);
  it->second.clear();

  // Verdicts first, bookkeeping after: a page several writers pushed has one
  // entry per pusher, and every one of them must see the same verdict.
  std::map<std::uint32_t, std::vector<PageIndex>> deny;  // pusher -> pages
  std::vector<PageIndex> dead;
  for (const PushJudge& j : judged) {
    PageEntry& e = pages_[j.page];
    // An armed page is dead if no access consumed the probe (a consumed
    // probe disarmed it at its fault; a fresh write notice disarms it too —
    // no verdict then).  A partially covered page is dead if it stayed
    // invalid with unapplied notices, so no fault consumed the parked
    // chunks.  Heuristic, not proof — a page consumed and then re-staled by
    // an unrelated sync is denied unfairly — but the verdict only moves
    // bookkeeping: a live page re-admits after the backoff streak, and
    // contents never depend on it.
    const bool is_dead =
        j.armed ? e.push_armed != PushKind::kNone
                : e.state == PageState::kInvalid && !e.unapplied.empty();
    if (!is_dead) continue;
    deny[j.pusher].push_back(j.page);
    dead.push_back(j.page);
  }
  // Disarm (the armed contents stay current; a later fault revalidates
  // locally through the empty-unapplied path) and restart the cadence.
  for (PageIndex page : dead) {
    PageEntry& e = pages_[page];
    e.push_armed = PushKind::kNone;
    e.pushes_since_probe = 0;
  }
  send_denies(key, deny);
}

void Node::push_deny(std::uint32_t key,
                     const std::map<std::uint32_t, std::vector<PageIndex>>& deny) {
  ProtoGuard guard(*this);
  send_denies(key, deny);
}

void Node::send_denies(std::uint32_t key,
                       const std::map<std::uint32_t, std::vector<PageIndex>>& deny) {
  for (const auto& [pusher, pages] : deny) {
    ByteWriter w;
    w.u32(key);
    w.u32(static_cast<std::uint32_t>(pages.size()));
    for (PageIndex page : pages) w.u32(page);
    sim::Message m;
    m.type = kPushDeny;
    m.dst = pusher;
    m.payload = w.take();
    send_compute(std::move(m));
  }
}

void Node::on_push_deny(sim::Message&& m) {
  // A lander judged our pushes of these pages dead: demote them under the
  // push key — the copyset promotion for the barrier key, the protected-set
  // membership for a lock.
  ByteReader r(m.payload);
  const std::uint32_t key = r.u32();
  const std::uint32_t npages = r.u32();
  if (push_kind(key) == PushKind::kBarrier) {
    for (std::uint32_t p = 0; p < npages; ++p) {
      PageCopyset& cs = copyset_[r.u32()];
      cs.stable_set = 0;
      if (cs.adm.deny())
        stats_.update_demotions.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  auto& prot = lock_protect_[key];
  for (std::uint32_t p = 0; p < npages; ++p) {
    LockPushStat& ps = prot[r.u32()];
    ps.untouched = 0;
    if (ps.adm.deny())
      stats_.lock_push_demotions.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Node::push_admitted(std::uint32_t key, PageIndex page) {
  ProtoGuard guard(*this);
  if (push_kind(key) == PushKind::kBarrier) {
    auto it = copyset_.find(page);
    return it != copyset_.end() && it->second.adm.admitted;
  }
  auto lit = lock_protect_.find(key);
  if (lit == lock_protect_.end()) return false;
  auto it = lit->second.find(page);
  return it != lit->second.end() && it->second.adm.admitted;
}

// ---------------------------------------------------------------------------
// Barrier keying: the adaptive update protocol (hybrid invalidate/update)
// ---------------------------------------------------------------------------

void Node::update_push_promoted(std::uint64_t barrier_index) {
  if (epoch_dirty_.empty()) return;

  // The epoch's dirty pages that are promoted, with their stable readers.
  struct Item {
    PageIndex page = 0;
    const std::vector<std::uint32_t>* seqs = nullptr;
    std::uint64_t readers = 0;
  };
  std::vector<Item> items;
  for (auto& [page, seqs] : epoch_dirty_) {
    auto it = copyset_.find(page);
    if (it == copyset_.end() || !it->second.adm.admitted) continue;
    const std::uint64_t readers =
        it->second.stable_set & ~(std::uint64_t{1} << id_);
    if (readers == 0) continue;
    items.push_back({page, &seqs, readers});
  }
  if (items.empty()) {
    epoch_dirty_.clear();
    return;
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.page < b.page; });

  // Materialize any twin still pending for a pushed interval (the page is at
  // most PROT_READ once its interval closed, so contents are stable; same
  // rule as on_diff_request).
  for (const Item& item : items) {
    PageEntry& e = pages_[item.page];
    for (std::uint32_t seq : *item.seqs)
      if (e.twin_valid && e.twin.seq == seq) materialize_twin(item.page, e);
  }

  // One batched kUpdatePush per reader.
  std::uint64_t pushes = 0;
  std::uint64_t pages_pushed = 0;
  for (std::uint32_t reader = 0; reader < num_nodes_; ++reader) {
    if (reader == id_) continue;
    const std::uint64_t bit = std::uint64_t{1} << reader;
    std::uint32_t npages = 0;
    for (const Item& item : items) npages += (item.readers & bit) ? 1 : 0;
    if (npages == 0) continue;
    ByteWriter w;
    // Barrier tag: barrier() calls are globally aligned, so the reader's
    // landing pass for the *same* barrier index — and only it — consumes
    // this push (its service thread may park it a full barrier early).
    w.u32(static_cast<std::uint32_t>(barrier_index));
    w.u32(npages);
    for (const Item& item : items) {
      if (!(item.readers & bit)) continue;
      w.u32(item.page);
      w.u32(static_cast<std::uint32_t>(item.seqs->size()));
      for (std::uint32_t seq : *item.seqs) {
        // GC-floor interaction: the epoch's own intervals are always above
        // the reclaim prefix (the last floor is the previous departure,
        // which they postdate), so a pushed seq can never dangle into
        // reclaimed diffs.
        NOW_CHECK_GT(seq, gc_drop_seq_)
            << "pushed interval below the reclaimed diff-store prefix";
        auto it = diff_store_.find(diff_store_key(item.page, seq));
        NOW_CHECK(it != diff_store_.end())
            << "push wants missing diff: page " << item.page << " interval "
            << seq;
        w.u32(seq);
        w.u32(static_cast<std::uint32_t>(it->second.size()));
        for (const DiffBytes& d : it->second) w.bytes(d.data(), d.size());
      }
    }
    sim::Message m;
    m.type = kUpdatePush;
    m.dst = reader;
    m.payload = w.take();
    send_compute(std::move(m));
    ++pushes;
    pages_pushed += npages;
  }
  stats_.update_pushes_sent.fetch_add(pushes, std::memory_order_relaxed);
  stats_.update_pages_pushed.fetch_add(pages_pushed, std::memory_order_relaxed);
  epoch_dirty_.clear();
}

void Node::on_update_push(sim::Message&& m) {
  // Barrier-time update push from a writer: queue the pushed intervals for
  // the compute thread's landing pass.  Nothing touches the page tables or
  // diff caches here — only the compute thread mutates those, which is what
  // keeps the fault path's cached/needed partition valid while its fetch
  // waits, and what keeps a push racing a pull idempotent.
  //
  // The push carries the writer's barrier index: this service thread can
  // run a full barrier ahead of its own compute thread (the writer departs,
  // sprints through its phase, and pushes for barrier k+1 while our compute
  // thread has not yet woken from barrier k), so parked pushes are queued
  // by barrier and the landing pass drains only its own barrier's.
  ByteReader r(m.payload);
  const std::uint64_t barrier_index = r.u32();
  const std::uint32_t npages = r.u32();
  std::vector<PendingPush> pending(npages);
  for (PendingPush& pp : pending) {
    pp.barrier_index = barrier_index;
    pp.page = r.u32();
    pp.writer = m.src;
    pp.chunks.resize(r.u32());
    for (PushedChunk& c : pp.chunks) {
      c.writer = m.src;
      c.seq = r.u32();
      c.chunks.resize(r.u32());
      for (DiffBytes& d : c.chunks) {
        const auto [ptr, n] = r.bytes_view();
        d.assign(ptr, ptr + n);
      }
    }
  }
  for (PendingPush& pp : pending) pending_pushes_.push_back(std::move(pp));
}

void Node::update_land_pushed(std::uint64_t barrier_index) {
  // Drain exactly this barrier's pushes from the pending queue.  A push
  // tagged k is guaranteed parked before this pass runs at barrier k
  // (mailbox FIFO: the writer pushed before it could arrive, so before the
  // departure was sent); a push tagged k+1 — a faster writer already a
  // barrier ahead — stays queued until the records it describes have been
  // merged.
  std::vector<PendingPush> batch;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < pending_pushes_.size(); ++i) {
    PendingPush& pp = pending_pushes_[i];
    if (pp.barrier_index != barrier_index) {
      if (pp.barrier_index < barrier_index) {
        // On the perfect wire this is impossible: the writer pushed before
        // arriving at barrier k, so mailbox FIFO parks the push before the
        // departure that triggers this pass.  Under injected faults the
        // cross-link transitivity breaks — the push can be dropped and its
        // retransmission land after the landing pass — and the stale push
        // must be discarded: the push is an optimization only (the pull
        // path re-fetches anything it carried), while applying a stale
        // epoch's diffs late could resurrect overwritten words.
        NOW_CHECK(rt_.config().chaos_enabled())
            << "update push missed its barrier";
        stats_.update_pushes_stale.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // A faster writer already a barrier ahead: keep until its barrier.
      // Compact in place, guarding the self-move (v[i] = move(v[i])
      // empties the chunk vectors).
      if (keep != i) pending_pushes_[keep] = std::move(pp);
      ++keep;
      continue;
    }
    batch.push_back(std::move(pp));
  }
  pending_pushes_.resize(keep);
  if (batch.empty()) return;
  std::stable_sort(batch.begin(), batch.end(),
                   [](const PendingPush& a, const PendingPush& b) {
                     return a.page < b.page;
                   });

  // One landing per page, with every writer that pushed it this barrier.
  PushBatch b;
  for (std::size_t i = 0; i < batch.size();) {
    const PageIndex page = batch[i].page;
    std::vector<std::uint32_t> pushers;
    std::vector<PushedChunk> chunks;
    for (; i < batch.size() && batch[i].page == page; ++i) {
      pushers.push_back(batch[i].writer);
      for (PushedChunk& c : batch[i].chunks) chunks.push_back(std::move(c));
    }
    push_land(kBarrierPushKey, page, pushers, chunks, b);
  }
  push_finish(kBarrierPushKey, b);
}

void Node::update_copyset_fold(std::uint64_t epoch) {
  const std::uint32_t promote = rt_.config().update_promote_epochs;
  for (auto it = copyset_.begin(); it != copyset_.end();) {
    PageCopyset& cs = it->second;
    const std::uint64_t cur = cs.epoch_readers[epoch & 1];
    cs.epoch_readers[epoch & 1] = 0;
    if (cs.adm.admitted) {
      // A request while promoted is a newcomer (or a demoted reader faulting
      // its way back): fold it into the push set — the armed probe demotes
      // it again if the interest was transient.
      cs.stable_set |= cur;
      ++it;
      continue;
    }
    if (cur == 0) {
      // No requests this epoch is no evidence either way: the writer may
      // not have written (nothing to fetch), or reads alternate with
      // compute phases.  Keep the streak — a *changed* reader set breaks
      // it below, and a stale promotion is the armed probe's job to kill.
      if (cs.stable_set == 0 && cs.epoch_readers[(epoch + 1) & 1] == 0) {
        // Never-stable and quiescent: drop the entry so the copyset map
        // tracks live sharing, not history.
        it = copyset_.erase(it);
      } else {
        ++it;
      }
      continue;
    }
    if (cur != cs.stable_set) {
      cs.stable_set = cur;
      cs.adm.streak = 0;
    }
    cs.adm.confirm(promote);
    ++it;
  }
}

// ---------------------------------------------------------------------------
// Lock keying: the migratory lock push on the kLockGrant chain
// ---------------------------------------------------------------------------

void Node::lock_push_note_touch(PageIndex page) {
  // Critical-section attribution: the faulted page belongs to every lock
  // this compute thread currently holds.  A fault outside any critical
  // section pays a single empty-vector check.
  for (std::uint32_t lock_id : held_locks_) cs_touched_[lock_id].push_back(page);
}

void Node::lock_push_begin_cs(std::uint32_t lock_id) {
  held_locks_.push_back(lock_id);
  cs_touched_[lock_id].clear();
}

void Node::lock_push_end_cs(std::uint32_t lock_id) {
  held_locks_.erase(std::remove(held_locks_.begin(), held_locks_.end(), lock_id),
                    held_locks_.end());
  cs_batch_.clear();  // an unsent batch does not outlive its section
  std::vector<PageIndex>& touched = cs_touched_[lock_id];
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::vector<PageIndex>& history = lock_history_[lock_id];
  if (!std::includes(history.begin(), history.end(), touched.begin(),
                     touched.end())) {
    std::vector<PageIndex> merged;
    merged.reserve(history.size() + touched.size());
    std::set_union(history.begin(), history.end(), touched.begin(),
                   touched.end(), std::back_inserter(merged));
    history = std::move(merged);
  }
  if (!rt_.config().lock_push_enabled()) return;

  const std::uint32_t probe =
      std::max<std::uint32_t>(1, rt_.config().lock_push_probe);
  auto& prot = lock_protect_[lock_id];
  // A page touched in every critical section joins the set immediately
  // (after denials, once its touch streak clears the backoff).
  for (PageIndex pg : touched) {
    LockPushStat& ps = prot[pg];
    ps.untouched = 0;
    ps.adm.confirm(1);
  }
  for (auto it = prot.begin(); it != prot.end();) {
    if (std::binary_search(touched.begin(), touched.end(), it->first)) {
      ++it;
      continue;
    }
    LockPushStat& ps = it->second;
    ps.adm.streak = 0;
    if (++ps.untouched >= probe) {
      // Untouched for lock_push_probe consecutive of our own critical
      // sections: the page is no longer part of what this lock protects.
      ps.adm.admitted = false;
      if (ps.adm.denials == 0) {
        // Quiescent and never denied: forget the page entirely, so the map
        // tracks live sharing rather than history.
        it = prot.erase(it);
        continue;
      }
    }
    ++it;
  }
  // Judged after the fold, before any grant can be assembled for this
  // release: the grant reads the protected set the fold just updated.
  push_judge(lock_id);
}

void Node::lock_batch_plan(std::uint32_t lock_id,
                           const std::vector<IntervalRecordPtr>& delta) {
  // Only pages this node touched under the lock before: a page the delta
  // names because its writer rewrote it outside the critical section (a
  // task's data, as opposed to the queue guarding it) is not migrating
  // along the chain, and fetching it here would only cost reply bytes.
  auto it = lock_history_.find(lock_id);
  if (it == lock_history_.end()) return;
  const std::vector<PageIndex>& history = it->second;
  for (const IntervalRecordPtr& rec : delta) {
    if (rec->node == id_) continue;
    for (PageIndex pg : rec->pages)
      if (std::binary_search(history.begin(), history.end(), pg))
        cs_batch_.push_back(pg);
  }
  std::sort(cs_batch_.begin(), cs_batch_.end());
  cs_batch_.erase(std::unique(cs_batch_.begin(), cs_batch_.end()), cs_batch_.end());
}

void Node::append_lock_push(ByteWriter& w, std::uint32_t lock_id,
                            const std::vector<IntervalRecordPtr>& delta) {
  const auto& cfg = rt_.config();
  if (!cfg.lock_push_enabled() || delta.empty()) {
    w.u32(0);
    return;
  }

  // Candidate pages: protected-set members named by the delta's records.
  // Records of *other* nodes matter too — on a rotating grant chain the
  // delta relays the whole chain history the requester missed, so a page
  // everyone updates under the lock carries several writers' notices.  Our
  // own intervals' diffs come from the diff store; relayed writers' diffs
  // come from this page's relay stock — the chunks the fault path keeps
  // inside critical sections and the push landing keeps for lock-protected
  // pages, which routed kDiffRequests are answered from too.
  struct Cand {
    PageIndex page = 0;
    // Every delta record naming the page, as (writer, seq) in delta order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  };
  std::vector<Cand> cands;
  auto prot = lock_protect_.find(lock_id);
  if (prot == lock_protect_.end()) {
    w.u32(0);
    return;
  }
  std::map<PageIndex, std::size_t> index;
  for (const IntervalRecordPtr& rec : delta) {
    for (PageIndex pg : rec->pages) {
      auto ps = prot->second.find(pg);
      if (ps == prot->second.end() || !ps->second.adm.admitted) continue;
      auto [slot, fresh] = index.emplace(pg, cands.size());
      if (fresh) cands.push_back({pg, {}});
      cands[slot->second].entries.emplace_back(rec->node, rec->seq);
    }
  }
  if (cands.empty()) {
    w.u32(0);
    return;
  }

  // Each page ships every delta entry this node holds, as diffs — the same
  // bytes a fetch would return, so the push needs no ordering guard of its
  // own.  Entries the relay stock lost (evicted, or never seen) are left
  // out: the requester's landing applies a fully covered page and parks a
  // partly covered one, whose fault then fetches only the rest.  A page
  // whose held set outgrows the remaining budget takes the pull path.
  ByteWriter pw;  // pages, counted as we go (npush is written first below)
  std::uint32_t npush = 0;
  std::size_t budget = cfg.lock_push_bytes;
  for (const Cand& c : cands) {
    PageEntry& e = pages_[c.page];
    // Materialize any twin still pending for a pushed own interval (the
    // page is at most PROT_READ once its interval closed, so its bytes are
    // stable; same rule as on_diff_request).
    for (const auto& [wtr, seq] : c.entries)
      if (wtr == id_ && e.twin_valid && e.twin.seq == seq)
        materialize_twin(c.page, e);

    // Own store entries cannot be reclaimed underneath this grant (delta
    // seqs are above the requester's vector time, which dominates every
    // announced floor, and own-diff reclamation lags the floor by one
    // reclamation point — the NOW_CHECK fails loudly if that invariant is
    // ever broken).
    ByteWriter entries;
    std::uint32_t n = 0;
    for (const auto& [wtr, seq] : c.entries) {
      const std::vector<DiffBytes>* chunks = nullptr;
      if (wtr == id_) {
        auto it = diff_store_.find(diff_store_key(c.page, seq));
        NOW_CHECK(it != diff_store_.end())
            << "lock push sourced a reclaimed diff: page " << c.page
            << " interval " << seq;
        chunks = &it->second;
      } else {
        chunks = e.diff_cache.find(wtr, seq);
        if (chunks == nullptr) continue;  // not held: the fault pulls it
      }
      entries.u32(wtr);
      entries.u32(seq);
      entries.u32(static_cast<std::uint32_t>(chunks->size()));
      for (const DiffBytes& d : *chunks) entries.bytes(d.data(), d.size());
      ++n;
    }
    if (n == 0 || entries.size() > budget) continue;  // plain pull path
    pw.u32(c.page);
    pw.u32(n);
    pw.raw(entries.data().data(), entries.size());
    budget -= entries.size();
    ++npush;
  }
  w.u32(npush);
  if (npush > 0) {
    w.raw(pw.data().data(), pw.size());
    stats_.lock_pushes_sent.fetch_add(1, std::memory_order_relaxed);
    stats_.lock_pages_pushed.fetch_add(npush, std::memory_order_relaxed);
  }
}

void Node::lock_land_push(std::uint32_t lock_id, std::uint32_t granter,
                          ByteReader& r) {
  const std::uint32_t npush = r.u32();
  if (npush == 0) return;
  const std::vector<std::uint32_t> pushers{granter};
  PushBatch b;
  for (std::uint32_t p = 0; p < npush; ++p) {
    const PageIndex page = r.u32();
    std::vector<PushedChunk> chunks(r.u32());
    for (PushedChunk& c : chunks) {
      c.writer = r.u32();
      c.seq = r.u32();
      c.chunks.resize(r.u32());
      for (DiffBytes& d : c.chunks) {
        const auto [ptr, n] = r.bytes_view();
        d.assign(ptr, ptr + n);
      }
    }
    push_land(lock_id, page, pushers, chunks, b);
  }
  push_finish(lock_id, b);
}

}  // namespace now::tmk
