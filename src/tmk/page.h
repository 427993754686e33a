// Per-node page table entries for the DSM protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "tmk/config.h"
#include "tmk/diff.h"
#include "tmk/intervals.h"

namespace now::tmk {

enum class PageState : std::uint8_t {
  kInvalid,   // PROT_NONE; access faults and runs the fetch protocol
  kReadOnly,  // PROT_READ; a write will fault and start a new twin
  kWritable,  // PROT_READ|PROT_WRITE with a twin capturing pre-write contents
};

// An interval of this node whose writes to the page are not yet fully
// materialized as a diff.  While `open`, the page may still be written (the
// twin tracks it); once the interval is closed at a release, the page is
// write-protected so the diff can be computed lazily but safely.
struct PendingTwin {
  std::uint32_t seq = 0;  // own interval the twin belongs to
  std::unique_ptr<std::uint8_t[]> data;
};

// A write notice this node has learned about but whose diff it has not yet
// applied to its copy of the page.
struct UnappliedNotice {
  std::uint32_t writer = 0;
  std::uint32_t seq = 0;
  std::uint64_t lamport = 0;
};

// The linear extension of happens-before in which diffs are applied: lamport
// order, writer id as the tie-break (ties are concurrent intervals whose
// diffs touch disjoint bytes in race-free programs).  Both the fault path
// and the barrier-GC over-budget apply sort by exactly this predicate — a
// divergence would change page bytes, so there is only one copy.
inline bool applies_before(const UnappliedNotice& a, const UnappliedNotice& b) {
  if (a.lamport != b.lamport) return a.lamport < b.lamport;
  return a.writer < b.writer;
}

// Requester-side cache of already-fetched diff chunks, keyed by (writer,
// seq).  A node that still holds a diff it fetched earlier can skip the
// re-request entirely (no message, no wire bytes) when a later fault wants
// the same interval again.  Two protocol paths feed it:
//  - barrier-time GC (insert_gc / pin_existing): the validation pass stores
//    the diffs for a page's remaining old write notices just before their
//    writers reclaim them.  Those entries are *pinned* — exempt from
//    eviction (it would lose the only surviving copy) — and are released
//    when applied, by the fault or by the GC pass itself once a page's
//    pinned bytes exceed the budget (which bounds never-read pages);
//  - multi-page prefetch on fault (budgeted FIFO insert), only where the
//    window cannot validate: a fault inside a critical section folds
//    neighboring pages' wanted seqs into its kDiffRequest and parks the
//    extra chunks here for the neighbor's own fault.  Outside one nothing
//    fetched is cached (every neighbor folded there is applied on arrival,
//    wholly or up to a notice gained during the fetch), which is what lets
//    a fault there fetch merged diff runs: a run's composite is filed
//    under its last interval and must never be cached as that interval's
//    diff.  Prefetched entries are droppable — their writers still hold
//    the diff, so the real fault can always refetch what eviction lost.
//    When a barrier-GC floor later covers a prefetched entry, the
//    validation pass promotes it to a pin in place rather than refetching;
//  - the push engine (budgeted FIFO insert): both push keyings — the
//    barrier-time kUpdatePush and the kLockGrant push section — park their
//    chunks here, and the landing applies any page whose wanted intervals
//    are fully covered, skipping the fault.  Keying by (writer, seq) is what
//    makes a push racing a pull-path fetch idempotent: whichever applies
//    first erases the entry, the other's copy is redundant bytes, never a
//    second application;
//  - relay stock (budgeted FIFO insert, marked `relayed`): a fault taken
//    inside a critical section keeps the chunks it applied instead of
//    releasing them, and so does the lock keying's landing.  The node's
//    service thread answers routed kDiffRequests for the page's other
//    writers from it, and the node's own grants relay it down the lock
//    chain.  Droppable — every writer still holds its diff, so a miss only
//    costs the asker a direct fetch — and dropped by Node::relay_prune once
//    a floor covers it.
// Only the compute thread mutates the cache; the service thread reads stock.
// Both under the node's protocol lock.
class PageDiffCache {
 public:
  // Mirrors every bytes_ change into a node-wide counter owned by the Node,
  // so the on-demand GC's ceiling check can read the cluster of per-page
  // caches in O(1) instead of walking the page table on every sync
  // operation.  Bound once, when the page table allocates the entry's chunk.
  void bind_total(std::size_t* total) { total_ = total; }

  struct Entry {
    std::vector<DiffBytes> chunks;
    bool pinned = false;      // exempt from FIFO eviction (barrier-GC)
    bool prefetched = false;  // arrived via multi-page prefetch (stats only)
    bool relayed = false;     // relay stock: kept past its apply
    std::uint32_t slot = 0;   // its FIFO position (unpinned entries only)
  };

  // Entry for (writer, seq), or nullptr if not cached.  The pointer stays
  // valid until the next insert().
  const Entry* lookup(std::uint32_t writer, std::uint32_t seq) const {
    auto it = map_.find(key(writer, seq));
    return it == map_.end() ? nullptr : &it->second;
  }
  // Chunks for (writer, seq), or nullptr if not cached.
  const std::vector<DiffBytes>* find(std::uint32_t writer, std::uint32_t seq) const {
    const Entry* e = lookup(writer, seq);
    return e == nullptr ? nullptr : &e->chunks;
  }

  // Stores the chunks for (writer, seq), evicting oldest unpinned entries to
  // stay within `budget_bytes`.  A chunk set larger than the whole budget is
  // not cached at all.  No-op if the key is already present.  Returns true
  // if the entry resides in the cache afterwards.
  bool insert(std::uint32_t writer, std::uint32_t seq,
              std::vector<DiffBytes> chunks, std::size_t budget_bytes,
              bool prefetched = false) {
    const std::uint64_t k = key(writer, seq);
    if (map_.count(k)) return true;
    std::size_t sz = 0;
    for (const DiffBytes& c : chunks) sz += c.size();
    if (sz > budget_bytes) return false;
    while (bytes_ + sz > budget_bytes && head_ < order_.size()) {
      const std::size_t slot = head_++;
      auto victim = map_.find(order_[slot]);
      // A key may be stale (erased, promoted to pinned, or re-inserted at a
      // later slot since): skip it.
      if (victim == map_.end() || !owns_slot(victim->second, slot)) continue;
      std::size_t vsz = 0;
      for (const DiffBytes& c : victim->second.chunks) vsz += c.size();
      sub_bytes(vsz);
      if (victim->second.relayed) relay_bytes_ -= vsz;
      map_.erase(victim);
    }
    // Pins alone may already exceed the budget (insert_gc bypasses it, the
    // GC pass rebalances at the next barrier): a droppable entry must not
    // land on top of that, or the cache would grow to pins + budget.
    if (bytes_ + sz > budget_bytes) return false;
    add_bytes(sz);
    const std::uint32_t slot = push_order(k);
    map_.emplace(k, Entry{std::move(chunks), /*pinned=*/false, prefetched,
                          /*relayed=*/false, slot});
    return true;
  }

  // Pins the chunks for (writer, seq) regardless of the byte budget and
  // immune to eviction: the barrier-GC pass stores diffs whose writer is
  // about to reclaim them, so evicting one before it is applied would lose
  // the only remaining copy.  An existing budgeted copy of the same key is
  // promoted to pinned in place (its FIFO key goes stale), so a pin can
  // never be evicted no matter how the entry first arrived.
  void insert_gc(std::uint32_t writer, std::uint32_t seq,
                 std::vector<DiffBytes> chunks) {
    if (pin_existing(writer, seq)) return;  // same key => same chunk content
    std::size_t sz = 0;
    for (const DiffBytes& c : chunks) sz += c.size();
    add_bytes(sz);
    pinned_bytes_ += sz;
    // Deliberately not queued in order_, so the eviction loop never sees it.
    map_.emplace(key(writer, seq), Entry{std::move(chunks), /*pinned=*/true});
  }

  // Promotes an already-held entry to pinned (no-op on pins).  The GC
  // validation pass uses this when the floor covers an entry a prefetch
  // already fetched: the chunks are identical, only the eviction class
  // changes — after the writer reclaims, eviction would lose the only copy.
  // Returns false if the key is absent.
  bool pin_existing(std::uint32_t writer, std::uint32_t seq) {
    auto it = map_.find(key(writer, seq));
    if (it == map_.end()) return false;
    if (!it->second.pinned) {
      it->second.pinned = true;  // its FIFO key goes stale
      for (const DiffBytes& c : it->second.chunks) pinned_bytes_ += c.size();
    }
    return true;
  }

  // Drops the entry for (writer, seq) if present (its FIFO key goes stale;
  // the eviction loop skips it and the next compaction drops it).  Used to
  // release an entry once its chunks have been applied and nothing will ask
  // for them again: outside a critical section, or a pin (see Node's relay
  // stock for the entries that outlive their apply).
  void erase(std::uint32_t writer, std::uint32_t seq) {
    auto it = map_.find(key(writer, seq));
    if (it == map_.end()) return;
    std::size_t sz = 0;
    for (const DiffBytes& c : it->second.chunks) sz += c.size();
    sub_bytes(sz);
    if (it->second.pinned) pinned_bytes_ -= sz;
    if (it->second.relayed) relay_bytes_ -= sz;
    map_.erase(it);
  }

  // Marks an already-held entry as relay stock (provenance + byte
  // accounting; no eviction-class change — stock is droppable by contract,
  // its writer still holds the diff).  Returns true if the entry was held
  // and not yet marked.
  bool mark_relay(std::uint32_t writer, std::uint32_t seq) {
    auto it = map_.find(key(writer, seq));
    if (it == map_.end() || it->second.relayed) return false;
    it->second.relayed = true;
    for (const DiffBytes& c : it->second.chunks) relay_bytes_ += c.size();
    return true;
  }

  // Whether (writer, seq) is held as droppable relay stock — the entries
  // Node::relay_prune may drop.  Pins are exempt: they are the *only* copy
  // until applied.
  bool holds_stock(std::uint32_t writer, std::uint32_t seq) const {
    const Entry* e = lookup(writer, seq);
    return e != nullptr && e->relayed && !e->pinned;
  }

  // Drops (writer, seq) if it is droppable relay stock; adds its bytes to
  // *bytes_pruned and returns true if it did.
  bool drop_stock(std::uint32_t writer, std::uint32_t seq,
                  std::size_t* bytes_pruned) {
    if (!holds_stock(writer, seq)) return false;
    const std::size_t before = bytes_;
    erase(writer, seq);  // its FIFO key goes stale; eviction tolerates it
    *bytes_pruned += before - bytes_;
    return true;
  }

  std::size_t bytes() const { return bytes_; }
  std::size_t pinned_bytes() const { return pinned_bytes_; }
  std::size_t relay_bytes() const { return relay_bytes_; }
  std::size_t entries() const { return map_.size(); }
  // Keys held by the FIFO, stale and already-evicted ones included.
  std::size_t fifo_keys() const { return order_.size(); }

 private:
  static std::uint64_t key(std::uint32_t writer, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(writer) << 32) | seq;
  }
  void add_bytes(std::size_t n) {
    bytes_ += n;
    if (total_ != nullptr) *total_ += n;
  }
  void sub_bytes(std::size_t n) {
    bytes_ -= n;
    if (total_ != nullptr) *total_ -= n;
  }
  // Whether FIFO slot `i` is the live position of entry `e`.
  static bool owns_slot(const Entry& e, std::size_t i) {
    return !e.pinned && e.slot == i;
  }
  // Appends a key to the FIFO and returns its slot.  Erase, prune and pin
  // leave their keys behind (only an over-budget insert pops), so a cache
  // that never overflows would grow its FIFO on every insert forever: once
  // the dead keys (evicted, stale) outnumber the live entries, drop them,
  // keeping the survivors in insertion order.  Amortized O(1): a compaction
  // leaves one key per unpinned entry, and the next one needs entries() +
  // kOrderSlack more inserts.
  std::uint32_t push_order(std::uint64_t k) {
    if (order_.size() >= 2 * map_.size() + kOrderSlack) {
      std::size_t live = 0;
      for (std::size_t i = head_; i < order_.size(); ++i) {
        auto it = map_.find(order_[i]);
        if (it == map_.end() || !owns_slot(it->second, i)) continue;
        it->second.slot = static_cast<std::uint32_t>(live);
        order_[live++] = order_[i];
      }
      order_.resize(live);
      head_ = 0;
    }
    order_.push_back(k);
    return static_cast<std::uint32_t>(order_.size() - 1);
  }
  static constexpr std::size_t kOrderSlack = 8;
  std::unordered_map<std::uint64_t, Entry> map_;
  // Insertion order for FIFO eviction; keys before head_ were popped.  A
  // vector, not a deque: an empty cache — nearly every page — allocates
  // nothing.
  std::vector<std::uint64_t> order_;
  std::size_t head_ = 0;
  std::size_t bytes_ = 0;
  std::size_t pinned_bytes_ = 0;  // subset of bytes_ held by pinned entries
  std::size_t relay_bytes_ = 0;   // subset of bytes_ held as relay stock
  std::size_t* total_ = nullptr;  // node-wide mirror of bytes_
};

// Which push keying left a page armed (PageEntry::push_armed): the barrier
// keying (update mode) or the lock keying (lock push).
enum class PushKind : std::uint8_t { kNone, kBarrier, kLock };

struct PageEntry {
  PageState state = PageState::kInvalid;
  bool ever_valid = false;  // false => local copy is the initial zero page
  bool twin_valid = false;  // whether `twin` below holds a twin

  // Twin for the currently writable / pending interval (at most one; older
  // intervals' diffs are already materialized in the diff store).
  PendingTwin twin;

  // Update mode's unheard writers (bitmask by node): writers whose diffs
  // the GC validation pass pinned or applied here without any request
  // naming a read.  The next read fault moves them into the node's reader
  // marks, which the next barrier carries to those writers' copysets.
  std::uint64_t unheard_writers = 0;

  // Write notices to apply at the next fault, sorted on use by lamport.
  std::vector<UnappliedNotice> unapplied;

  // Diff chunks this node has already fetched for the page.
  PageDiffCache diff_cache;

  // ---- push engine, landing side ----
  // Armed: a push applied every wanted diff and the contents are current,
  // but the page is deliberately left unmapped so the next access faults
  // once, locally — the liveness probe both push keyings share.  Records
  // which keying armed it (the probe fault counts that keying's hit).  A
  // page still armed when its push key is judged (the next barrier entry,
  // or this node's release of the pushing lock) was a dead push, and the
  // pushers are denied (kPushDeny).
  PushKind push_armed = PushKind::kNone;
  // Pushes applied to this page since the last denial; schedules the armed
  // probes (every Nth applied push, N per keying — the ones in between
  // validate outright).
  std::uint32_t pushes_since_probe = 0;
};

// Pages per page-table chunk.  A compile-time constant so a page's chunk and
// slot are a shift and a mask and the chunk directory is sized once, at
// construction.  64 pages (256 KB of heap, ~14 KB of entries) keeps the
// prefetch window's neighbor scan inside one or two chunks, while an
// application touching a few MB of a 96 MB heap allocates a few dozen chunks
// instead of 24,576 entries.
constexpr std::size_t kPageChunkPages = 64;

// A node's page table, populated lazily: a fixed directory of chunk
// pointers, each chunk allocated the first time any thread indexes one of
// its pages.  A page whose chunk is absent has never been touched on this
// node — it is the initial zero page with no notices, twin or cached diffs —
// so read-only walkers use find() / for_each() and skip it without
// allocating.  Like everything else in the node, the table is only touched
// under the node's protocol lock.
class PageTable {
 public:
  // `cache_total` is the node-wide mirror every entry's diff cache is bound
  // to (PageDiffCache::bind_total).
  PageTable(std::size_t num_pages, std::size_t* cache_total)
      : num_pages_(num_pages),
        dir_((num_pages + kPageChunkPages - 1) / kPageChunkPages),
        cache_total_(cache_total) {}
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // The entry for `page`, allocating its chunk on first touch.
  PageEntry& operator[](PageIndex page) {
    NOW_CHECK_LT(page, num_pages_) << "page outside the shared heap";
    std::unique_ptr<Chunk>& chunk = dir_[page / kPageChunkPages];
    if (chunk == nullptr) {
      chunk = std::make_unique<Chunk>();
      for (PageEntry& e : chunk->entries) e.diff_cache.bind_total(cache_total_);
      ++chunks_;
    }
    return chunk->entries[page % kPageChunkPages];
  }
  // The entry for `page`, or nullptr if its chunk was never allocated.
  PageEntry* find(PageIndex page) {
    Chunk* chunk = dir_[page / kPageChunkPages].get();
    return chunk == nullptr ? nullptr : &chunk->entries[page % kPageChunkPages];
  }
  // Calls fn(page, entry) for every page of every allocated chunk, in page
  // order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t c = 0; c < dir_.size(); ++c) {
      Chunk* chunk = dir_[c].get();
      if (chunk == nullptr) continue;
      const std::size_t first = c * kPageChunkPages;
      const std::size_t n = std::min(kPageChunkPages, num_pages_ - first);
      for (std::size_t i = 0; i < n; ++i)
        fn(static_cast<PageIndex>(first + i), chunk->entries[i]);
    }
  }
  // Chunks allocated so far (never freed before the table is).
  std::size_t chunks() const { return chunks_; }

 private:
  struct Chunk {
    PageEntry entries[kPageChunkPages];
  };

  const std::size_t num_pages_;
  std::vector<std::unique_ptr<Chunk>> dir_;
  std::size_t* const cache_total_;
  std::size_t chunks_ = 0;
};

}  // namespace now::tmk
