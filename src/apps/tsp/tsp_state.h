// Shared-memory TSP state: the paper's pool + priority queue + free stack +
// current best, laid out in DSM memory as plain u64 words.  All mutation
// happens inside the caller's critical section.  `Words` is the word store:
// a DSM pointer for the parallel versions, host memory for the sequential
// one, which runs the same search in the same order.
#pragma once

#include "apps/tsp/tsp.h"
#include "common/check.h"
#include "tmk/gptr.h"

namespace now::apps::tsp {

inline constexpr std::size_t kTourWords = 6;  // length, mask, depth, last, path x2

// Layout: [best, nworking, heap_size, free_top, cap,
//          heap (2*cap), free stack (cap), pool (cap*kTourWords)]
template <typename Words>
struct BasicTspState {
  Words m;
  std::uint64_t cap = 0;

  static std::size_t words_needed(std::uint64_t cap) {
    return 5 + 2 * cap + cap + cap * kTourWords;
  }

  std::uint64_t& best() const { return m[0]; }
  std::uint64_t& nworking() const { return m[1]; }
  std::uint64_t& heap_size() const { return m[2]; }
  std::uint64_t& free_top() const { return m[3]; }

  std::uint64_t heap_off(std::uint64_t i) const { return 5 + 2 * i; }
  std::uint64_t free_off(std::uint64_t i) const { return 5 + 2 * cap + i; }
  std::uint64_t pool_off(std::uint64_t slot) const {
    return 5 + 3 * cap + slot * kTourWords;
  }

  // Empties the pool and queues the root tour (city 0 alone).
  void init_master() const {
    m[0] = ~std::uint64_t{0};
    m[1] = 0;
    m[2] = 0;
    m[3] = 0;
    m[4] = cap;
    for (std::uint64_t s = 0; s < cap; ++s) m[free_off(s)] = cap - 1 - s;
    free_top() = cap;
    const std::uint64_t slot = free_pop();
    write_tour(slot, Tour{});
    heap_push(0, slot);
  }

  std::uint64_t free_pop() const {
    NOW_CHECK_GT(free_top(), 0u) << "tour pool exhausted";
    free_top() = free_top() - 1;
    return m[free_off(free_top())];
  }
  void free_push(std::uint64_t slot) const {
    m[free_off(free_top())] = slot;
    free_top() = free_top() + 1;
  }

  void heap_push(std::uint64_t pri, std::uint64_t slot) const {
    std::uint64_t i = heap_size();
    heap_size() = i + 1;
    NOW_CHECK_LE(heap_size(), cap) << "priority queue overflow";
    while (i > 0) {
      const std::uint64_t parent = (i - 1) / 2;
      if (m[heap_off(parent)] <= pri) break;
      m[heap_off(i)] = m[heap_off(parent)];
      m[heap_off(i) + 1] = m[heap_off(parent) + 1];
      i = parent;
    }
    m[heap_off(i)] = pri;
    m[heap_off(i) + 1] = slot;
  }

  // Pops the minimum-priority entry; heap must be non-empty.
  std::uint64_t heap_pop() const {
    NOW_CHECK_GT(heap_size(), 0u);
    const std::uint64_t slot = m[heap_off(0) + 1];
    heap_size() = heap_size() - 1;
    const std::uint64_t last_i = heap_size();
    if (last_i > 0) {
      const std::uint64_t pri = m[heap_off(last_i)];
      const std::uint64_t sl = m[heap_off(last_i) + 1];
      std::uint64_t i = 0;
      for (;;) {
        const std::uint64_t l = 2 * i + 1, r = 2 * i + 2;
        std::uint64_t child = i;
        std::uint64_t child_pri = pri;
        if (l < last_i && m[heap_off(l)] < child_pri) {
          child = l;
          child_pri = m[heap_off(l)];
        }
        if (r < last_i && m[heap_off(r)] < child_pri) child = r;
        if (child == i) break;
        m[heap_off(i)] = m[heap_off(child)];
        m[heap_off(i) + 1] = m[heap_off(child) + 1];
        i = child;
      }
      m[heap_off(i)] = pri;
      m[heap_off(i) + 1] = sl;
    }
    return slot;
  }

  void write_tour(std::uint64_t slot, const Tour& t) const {
    const std::uint64_t o = pool_off(slot);
    m[o] = t.length;
    m[o + 1] = t.visited_mask;
    m[o + 2] = t.depth;
    m[o + 3] = t.last;
    std::uint64_t packed[2] = {0, 0};
    std::memcpy(packed, t.path, sizeof t.path);
    m[o + 4] = packed[0];
    m[o + 5] = packed[1];
  }

  Tour read_tour(std::uint64_t slot) const {
    const std::uint64_t o = pool_off(slot);
    Tour t;
    t.length = m[o];
    t.visited_mask = m[o + 1];
    t.depth = static_cast<std::uint32_t>(m[o + 2]);
    t.last = static_cast<std::uint32_t>(m[o + 3]);
    std::uint64_t packed[2] = {m[o + 4], m[o + 5]};
    std::memcpy(t.path, packed, sizeof t.path);
    return t;
  }
};

using TspState = BasicTspState<tmk::gptr<std::uint64_t>>;

// One branch-and-bound step against shared state; `locked` must wrap its
// argument in the version's critical section, and `compute` charges the
// step's tour nodes (kHostNsPerNode) before the section that ends it.
// Returns false when the computation is globally complete.
template <typename State, typename LockedFn, typename ComputeFn>
bool tsp_step(const std::vector<std::uint64_t>& dist, const Params& p,
              const State& st, const LockedFn& locked, const ComputeFn& compute) {
  Tour t;
  bool have_task = false;
  bool done = false;
  // Dequeue (and free the slot) in one critical section.
  locked([&] {
    if (st.heap_size() > 0) {
      const std::uint64_t slot = st.heap_pop();
      t = st.read_tour(slot);
      st.free_push(slot);
      st.nworking() = st.nworking() + 1;
      have_task = true;
    } else if (st.nworking() == 0) {
      done = true;
    }
  });
  if (done) return false;
  if (!have_task) return true;  // queue momentarily empty; retry

  if (p.ncities - t.depth <= p.exhaustive_depth) {
    std::uint64_t bound = ~std::uint64_t{0};
    locked([&] { bound = st.best(); });
    std::uint64_t nodes = 0;
    const std::uint64_t found = exhaustive_best(dist, p.ncities, t, bound, nodes);
    compute(nodes);
    locked([&] {
      if (found < st.best()) st.best() = found;
      st.nworking() = st.nworking() - 1;
    });
    return true;
  }

  // Expand by one city; the new enqueues share one critical section with the
  // bookkeeping, as the paper notes.
  std::vector<Tour> children;
  for (std::uint32_t c = 1; c < p.ncities; ++c) {
    if (t.visited_mask & (std::uint64_t{1} << c)) continue;
    Tour next = t;
    next.length += dist[t.last * p.ncities + c];
    next.visited_mask |= std::uint64_t{1} << c;
    next.path[next.depth] = static_cast<std::uint8_t>(c);
    next.depth += 1;
    next.last = c;
    children.push_back(next);
  }
  compute(1);
  locked([&] {
    for (const Tour& child : children) {
      if (child.length >= st.best()) continue;  // prune under the lock
      const std::uint64_t slot = st.free_pop();
      st.write_tour(slot, child);
      st.heap_push(child.length, slot);
    }
    st.nworking() = st.nworking() - 1;
  });
  return true;
}

}  // namespace now::apps::tsp
