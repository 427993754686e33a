// The push engine: diffs that ride ahead of the fault that would otherwise
// pull them.  Two keyings feed it, each keeping only what it observes and
// where it sends:
//  - the barrier keying (update mode, push key kBarrierPushKey): writers
//    track per-page copysets, promote epoch-stable reader sets, and push an
//    epoch's diffs in one kUpdatePush per reader at barrier arrival; the
//    readers land them at the departure;
//  - the lock keying (lock push, push key = the lock id): each node tracks
//    per-lock protected page sets and piggybacks their diffs — or a
//    whole-page image — on the kLockGrant it forwards; the requester lands
//    them inside its acquire.
// Everything after the bytes arrive is one code path: park (writer,
// seq)-keyed in the page's diff cache -> cover -> apply in lamport order ->
// arm on the probe cadence or validate -> judge at the key's judge point ->
// deny the pusher (kPushDeny) -> demote with exponential re-admission
// backoff (PushAdmission).
#include <algorithm>
#include <cstring>
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
  std::lock_guard<std::mutex> lock(e.mu);

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
  for (const UnappliedNotice& n : e.unapplied) {
    if (e.diff_cache.lookup(n.writer, n.seq) == nullptr) {
      for (std::uint32_t p : pushers)
        push_judge_[key].push_back({page, p, /*armed=*/false});
      return;
    }
  }
  std::stable_sort(e.unapplied.begin(), e.unapplied.end(), applies_before);
  rt_.arena().protect_rw(id_, page);
  std::uint8_t* mem = rt_.arena().page_ptr(id_, page);
  for (const UnappliedNotice& n : e.unapplied) {
    const PageDiffCache::Entry* cached = e.diff_cache.lookup(n.writer, n.seq);
    for (const DiffBytes& d : cached->chunks) {
      b.patched += diff_apply(mem, kPageSize, d);
      ++b.applied;
    }
    // Under the lock keying the applied entry stays as stock.  Under the
    // barrier keying it is released: update-mode pages are barrier-shared,
    // not migrating along a lock chain (a routed request that still wants
    // the interval takes the miss path).  Pinned entries (barrier-GC
    // stashes of reclaimed diffs) release either way, same as on the fault
    // path: their seqs are below the GC floor, so no routed request or
    // grant delta can ever name them again and a stale pin would leak
    // pinned bytes forever.
    if (!retain || cached->pinned) e.diff_cache.erase(n.writer, n.seq);
  }
  e.unapplied.clear();
  push_settle(key, page, e, pushers);
}

void Node::push_settle(std::uint32_t key, PageIndex page, PageEntry& e,
                       const std::vector<std::uint32_t>& pushers) {
  const auto& cfg = rt_.config();
  const PushKind kind = push_kind(key);
  e.ever_valid = true;
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
    e.push_armed = kind;
    for (std::uint32_t p : pushers)
      push_judge_[key].push_back({page, p, /*armed=*/true});
  } else {
    rt_.arena().protect_read(id_, page);
    e.state = PageState::kReadOnly;
    push_hit(kind);
  }
}

void Node::push_finish(std::uint32_t key, PushBatch& b) {
  if (b.applied > 0) {
    stats_.diffs_applied.fetch_add(b.applied, std::memory_order_relaxed);
    clock_.advance_us(rt_.config().diff_apply_per_kb_us *
                      (static_cast<double>(b.patched) / 1024.0));
  }
  push_deny(key, b.deny);
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
    std::lock_guard<std::mutex> lock(e.mu);
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
    std::lock_guard<std::mutex> lock(e.mu);
    e.push_armed = PushKind::kNone;
    e.pushes_since_probe = 0;
  }
  push_deny(key, deny);
}

void Node::push_deny(std::uint32_t key,
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
    std::lock_guard<std::mutex> lock(copyset_mu_);
    for (std::uint32_t p = 0; p < npages; ++p) {
      PageCopyset& cs = copyset_[r.u32()];
      cs.stable_set = 0;
      if (cs.adm.deny())
        stats_.update_demotions.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  std::lock_guard<std::mutex> lock(lock_protect_mu_);
  auto& prot = lock_protect_[key];
  for (std::uint32_t p = 0; p < npages; ++p) {
    LockPushStat& ps = prot[r.u32()];
    ps.untouched = 0;
    if (ps.adm.deny())
      stats_.lock_push_demotions.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Node::push_admitted(std::uint32_t key, PageIndex page) {
  if (push_kind(key) == PushKind::kBarrier) {
    std::lock_guard<std::mutex> lock(copyset_mu_);
    auto it = copyset_.find(page);
    return it != copyset_.end() && it->second.adm.admitted;
  }
  std::lock_guard<std::mutex> lock(lock_protect_mu_);
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
  {
    std::lock_guard<std::mutex> lock(copyset_mu_);
    for (auto& [page, seqs] : epoch_dirty_) {
      auto it = copyset_.find(page);
      if (it == copyset_.end() || !it->second.adm.admitted) continue;
      const std::uint64_t readers =
          it->second.stable_set & ~(std::uint64_t{1} << id_);
      if (readers == 0) continue;
      items.push_back({page, &seqs, readers});
    }
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
    std::lock_guard<std::mutex> lock(e.mu);
    for (std::uint32_t seq : *item.seqs)
      if (e.twin_valid && e.twin.seq == seq) materialize_twin(item.page, e);
  }

  // One batched kUpdatePush per reader, serialized under a single diff-store
  // hold and sent after it drops.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> msgs;
  std::uint64_t pages_pushed = 0;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
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
          // the reclaim prefix (the floor lags the epoch by construction),
          // so a pushed seq can never dangle into reclaimed diffs.
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
      msgs.emplace_back(reader, w.take());
      pages_pushed += npages;
    }
  }
  for (auto& [reader, payload] : msgs) {
    sim::Message m;
    m.type = kUpdatePush;
    m.dst = reader;
    m.payload = std::move(payload);
    send_compute(std::move(m));
  }
  stats_.update_pushes_sent.fetch_add(msgs.size(), std::memory_order_relaxed);
  stats_.update_pages_pushed.fetch_add(pages_pushed, std::memory_order_relaxed);
  epoch_dirty_.clear();
}

void Node::on_update_push(sim::Message&& m) {
  // Barrier-time update push from a writer: queue the pushed intervals for
  // the compute thread's landing pass.  Nothing touches the page tables or
  // diff caches here — only the compute thread mutates those, which is what
  // keeps the fault path's cached/needed partition valid while its lock is
  // dropped, and what keeps a push racing a pull idempotent.
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
  std::lock_guard<std::mutex> lock(push_mu_);
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
  {
    std::lock_guard<std::mutex> lock(push_mu_);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pending_pushes_.size(); ++i) {
      PendingPush& pp = pending_pushes_[i];
      if (pp.barrier_index != barrier_index) {
        if (pp.barrier_index < barrier_index) {
          // On the perfect wire this is impossible: the writer pushed
          // before arriving at barrier k, so mailbox FIFO parks the push
          // before the departure that triggers this pass.  Under injected
          // faults the cross-link transitivity breaks — the push can be
          // dropped and its retransmission land after the landing pass —
          // and the stale push must be discarded: the push is an
          // optimization only (the pull path re-fetches anything it
          // carried), while applying a stale epoch's diffs late could
          // resurrect overwritten words.
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
  }
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
  std::lock_guard<std::mutex> lock(copyset_mu_);
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
  if (held_locks_.empty() || !rt_.config().lock_push_enabled()) return;
  for (std::uint32_t lock_id : held_locks_) cs_touched_[lock_id].push_back(page);
}

void Node::lock_push_begin_cs(std::uint32_t lock_id) {
  held_locks_.push_back(lock_id);
  if (rt_.config().lock_push_enabled()) cs_touched_[lock_id].clear();
}

void Node::lock_push_end_cs(std::uint32_t lock_id) {
  held_locks_.erase(std::remove(held_locks_.begin(), held_locks_.end(), lock_id),
                    held_locks_.end());
  if (!rt_.config().lock_push_enabled()) return;
  std::vector<PageIndex> touched;
  auto tit = cs_touched_.find(lock_id);
  if (tit != cs_touched_.end()) touched = std::move(tit->second);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  const std::uint32_t probe =
      std::max<std::uint32_t>(1, rt_.config().lock_push_probe);
  {
    std::lock_guard<std::mutex> lock(lock_protect_mu_);
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
  }
  // Judged after the fold, before any grant can be assembled for this
  // release: the grant reads the protected set the fold just updated.
  push_judge(lock_id);
}

void Node::append_lock_push(ByteWriter& w, std::uint32_t lock_id,
                            const VectorTime& req_vt,
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
  // pages, which routed kDiffRequests are answered from too.  A page the relay
  // cannot fully cover falls back to the whole-page image, and failing
  // that to a partial own-diff push or the plain pull path.
  struct Cand {
    PageIndex page = 0;
    // Every delta record naming the page, as (writer, seq) in delta order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  };
  std::vector<Cand> cands;
  {
    std::lock_guard<std::mutex> lock(lock_protect_mu_);
    auto it = lock_protect_.find(lock_id);
    if (it == lock_protect_.end()) {
      w.u32(0);
      return;
    }
    std::map<PageIndex, std::size_t> index;
    for (const IntervalRecordPtr& rec : delta) {
      for (PageIndex pg : rec->pages) {
        auto ps = it->second.find(pg);
        if (ps == it->second.end() || !ps->second.adm.admitted) continue;
        auto [slot, fresh] = index.emplace(pg, cands.size());
        if (fresh) cands.push_back({pg, {}});
        cands[slot->second].entries.emplace_back(rec->node, rec->seq);
      }
    }
  }
  if (cands.empty()) {
    w.u32(0);
    return;
  }

  // Whole-page images are sound only when our knowledge dominates the
  // requester's: then everything it could already have applied to the page,
  // our valid copy contains too, and the memcpy can never clobber a
  // concurrent writer's applied words.  The snapshot vector time rides with
  // each image so the requester can verify coverage of every notice it
  // holds.  (Diff pushes need no such guard — they patch exactly the bytes
  // the named intervals wrote, like any fetched diff.)
  bool dominates = true;
  VectorTime grant_vt;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    grant_vt = log_.vt();
    for (std::uint32_t i = 0; i < num_nodes_; ++i) {
      if (req_vt[i] > grant_vt[i]) {
        dominates = false;
        break;
      }
    }
  }

  const std::size_t image_sz = kPageSize + 6 + 4 * num_nodes_;
  ByteWriter pw;  // entries, counted as we go (npush is written first below)
  std::uint32_t npush = 0;
  std::size_t budget = cfg.lock_push_bytes;
  for (const Cand& c : cands) {
    PageEntry& e = pages_[c.page];
    std::lock_guard<std::mutex> lock(e.mu);
    // Materialize any twin still pending for a pushed own interval (the
    // page is at most PROT_READ once its interval closed, so its bytes are
    // stable; same rule — and same e.mu-before-store_mu_ order — as
    // on_diff_request).
    for (const auto& [wtr, seq] : c.entries)
      if (wtr == id_ && e.twin_valid && e.twin.seq == seq)
        materialize_twin(c.page, e);

    // Size the push: own intervals from the diff store, relayed ones from
    // the page's retained cache.  Own store entries cannot be reclaimed
    // underneath this grant (delta seqs are above the requester's vector
    // time, which dominates every announced floor, and own-diff reclamation
    // lags the floor by one reclamation point — the NOW_CHECK fails loudly
    // if that invariant is ever broken); retained cache entries are stable
    // under e.mu, which we hold until they are serialized.
    std::size_t diff_sz = 0;
    std::size_t own_sz = 0;  // the subset a partial push actually serializes
    bool relay_covered = true;
    std::size_t own = 0;
    {
      std::lock_guard<std::mutex> sl(store_mu_);
      for (const auto& [wtr, seq] : c.entries) {
        if (wtr == id_) {
          auto it = diff_store_.find(diff_store_key(c.page, seq));
          NOW_CHECK(it != diff_store_.end())
              << "lock push sourced a reclaimed diff: page " << c.page
              << " interval " << seq;
          ++own;
          std::size_t sz = 12;  // writer + seq + chunk count
          for (const DiffBytes& d : it->second) sz += 4 + d.size();
          diff_sz += sz;
          own_sz += sz;
        } else if (const auto* chunks = e.diff_cache.find(wtr, seq)) {
          diff_sz += 12;
          for (const DiffBytes& d : *chunks) diff_sz += 4 + d.size();
        } else {
          relay_covered = false;  // evicted (or never seen): no full relay
        }
      }
    }

    // Image fallback: the relay cannot cover the page (missing foreign
    // chunks) or a dense rewrite made the chunked diffs outgrow the page.
    std::vector<std::uint8_t> image;
    if ((!relay_covered || diff_sz > kPageSize) && dominates &&
        image_sz <= budget && e.state == PageState::kReadOnly) {
      // kReadOnly only: a writable page is mid-interval on our own compute
      // thread and copying it would race the writes byte-for-byte.
      const std::uint8_t* mem = rt_.arena().page_ptr(id_, c.page);
      image.assign(mem, mem + kPageSize);
    }
    const bool as_image = !image.empty();
    const bool as_diffs = !as_image && relay_covered && diff_sz <= budget &&
                          diff_sz <= kPageSize;
    // Partial own-diff push: the requester still pulls the rest, but skips
    // the round trip to *us* (its fault finds our chunks cached).  Only the
    // own bytes are serialized, so only they are charged to the budget.
    const bool as_partial =
        !as_image && !as_diffs && own > 0 && own_sz <= budget;
    if (!as_image && !as_diffs && !as_partial) continue;  // plain pull path

    pw.u32(c.page);
    pw.u8(as_image ? 1 : 0);
    pw.u8(0);  // reserved: the probe cadence is counted where pushes land
    if (as_image) {
      KnowledgeLog::serialize_vt(pw, grant_vt);
      pw.bytes(image.data(), image.size());
      budget -= image_sz;
    } else {
      ByteWriter entries;
      std::uint32_t n = 0;
      std::lock_guard<std::mutex> sl(store_mu_);
      for (const auto& [wtr, seq] : c.entries) {
        const std::vector<DiffBytes>* chunks = nullptr;
        if (wtr == id_) {
          auto it = diff_store_.find(diff_store_key(c.page, seq));
          NOW_CHECK(it != diff_store_.end())
              << "lock push sourced a reclaimed diff: page " << c.page
              << " interval " << seq;
          chunks = &it->second;
        } else if (as_diffs) {
          chunks = e.diff_cache.find(wtr, seq);
          NOW_CHECK(chunks != nullptr);  // stable under e.mu since sizing
        } else {
          continue;  // partial push: own intervals only
        }
        entries.u32(wtr);
        entries.u32(seq);
        entries.u32(static_cast<std::uint32_t>(chunks->size()));
        for (const DiffBytes& d : *chunks) entries.bytes(d.data(), d.size());
        ++n;
      }
      pw.u32(n);
      pw.raw(entries.data().data(), entries.size());
      budget -= as_diffs ? diff_sz : own_sz;
    }
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
    const bool image = r.u8() == 1;
    r.u8();  // reserved
    if (!image) {
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
      continue;
    }

    // Whole-page image: a pre-step feeding the same arm/validate tail.
    const VectorTime img_vt = KnowledgeLog::deserialize_vt(r);
    const auto [img, n] = r.bytes_view();
    NOW_CHECK_EQ(n, kPageSize);
    PageEntry& e = pages_[page];
    std::lock_guard<std::mutex> lock(e.mu);
    if (e.state != PageState::kInvalid || e.unapplied.empty()) continue;
    // The granter's valid copy had every notice it knew applied, so the
    // image covers exactly the notices at or below its snapshot vector
    // time — including the relayed chain history of other writers.  A
    // notice above it (a writer concurrent with the granter) cannot be
    // ordered against the image: pull path instead.
    const bool covered = std::all_of(
        e.unapplied.begin(), e.unapplied.end(),
        [&](const UnappliedNotice& un) { return un.seq <= img_vt[un.writer]; });
    if (!covered) continue;
    rt_.arena().protect_rw(id_, page);
    std::memcpy(rt_.arena().page_ptr(id_, page), img, kPageSize);
    b.patched += kPageSize;
    ++b.applied;
    e.unapplied.clear();
    push_settle(lock_id, page, e, pushers);
  }
  push_finish(lock_id, b);
}

}  // namespace now::tmk
