// Hand-coded TreadMarks QSORT: SPMD workers around a shared task queue
// protected by a lock, with a condition variable for idle workers — the
// paper's Figure 4 structure, hand-written against the Tmk API.
#include "apps/qsort/qsort.h"

#include "common/check.h"

namespace now::apps::qs {

namespace {

constexpr std::uint32_t kQueueLock = 0;
constexpr std::uint32_t kQueueCond = 0;

// Shared queue layout (all u64 slots): [head, tail, nwait, cap, entries...]
// where each entry is a (lo, hi) pair of u64.
struct Queue {
  tmk::gptr<std::uint64_t> hdr;

  std::uint64_t& head() const { return hdr[0]; }
  std::uint64_t& tail() const { return hdr[1]; }
  std::uint64_t& nwait() const { return hdr[2]; }
  std::uint64_t cap() const { return hdr[3]; }

  void push(std::uint64_t lo, std::uint64_t hi) const {
    const std::uint64_t slot = tail() % cap();
    hdr[4 + 2 * slot] = lo;
    hdr[4 + 2 * slot + 1] = hi;
    tail() = tail() + 1;
    NOW_CHECK_LE(tail() - head(), cap()) << "task queue overflow";
  }
  void pop(std::uint64_t& lo, std::uint64_t& hi) const {
    const std::uint64_t slot = head() % cap();
    lo = hdr[4 + 2 * slot];
    hi = hdr[4 + 2 * slot + 1];
    head() = head() + 1;
  }
  bool empty() const { return head() == tail(); }
};

// Figure 4's DeQueue: wait on the condition variable when the queue is
// empty; the last idle worker broadcasts global termination.
bool dequeue(tmk::Tmk& tmk, const Queue& q, std::uint64_t& lo, std::uint64_t& hi) {
  bool got = false;
  tmk.lock_acquire(kQueueLock);
  while (q.empty() && q.nwait() < tmk.nprocs()) {
    q.nwait() = q.nwait() + 1;
    if (q.nwait() == tmk.nprocs()) {
      tmk.cond_broadcast(kQueueLock, kQueueCond);
      break;
    }
    tmk.cond_wait(kQueueLock, kQueueCond);
    if (q.nwait() == tmk.nprocs()) break;
    q.nwait() = q.nwait() - 1;
  }
  if (q.nwait() < tmk.nprocs()) {
    q.pop(lo, hi);
    got = true;
  }
  tmk.lock_release(kQueueLock);
  return got;
}

// Figure 4's EnQueue: push and wake one idle worker.
void enqueue(tmk::Tmk& tmk, const Queue& q, std::uint64_t lo, std::uint64_t hi) {
  tmk.lock_acquire(kQueueLock);
  q.push(lo, hi);
  if (q.nwait() > 0) tmk.cond_signal(kQueueLock, kQueueCond);
  tmk.lock_release(kQueueLock);
}

void worker(tmk::Tmk& tmk, tmk::gptr<std::uint32_t> a, const Queue& q,
            std::size_t threshold) {
  std::uint64_t lo, hi;
  while (dequeue(tmk, q, lo, hi)) {
    // Subdivide: enqueue one half, keep the other, bubble-sort leaves.
    while (hi - lo > threshold) {
      const std::size_t m =
          static_cast<std::size_t>(lo) + partition(a.get() + lo, static_cast<std::size_t>(hi - lo));
      tmk.compute(hi - lo, kHostNsPerElement);
      if (m - lo < hi - (m + 1)) {
        enqueue(tmk, q, m + 1, hi);
        hi = m;
      } else {
        enqueue(tmk, q, lo, m);
        lo = m + 1;
      }
    }
    if (hi - lo > 1)
      tmk.compute(bubble_sort(a.get() + lo, static_cast<std::size_t>(hi - lo)),
                  kHostNsPerElement);
  }
}

}  // namespace

AppResult run_tmk(const Params& p, tmk::DsmConfig cfg) {
  tmk::DsmRuntime rt(cfg);
  AppResult result;

  rt.run_spmd([&](tmk::Tmk& tmk) {
    if (tmk.id() == 0) {
      auto a = tmk.alloc_array<std::uint32_t>(p.n);
      const std::uint64_t cap =
          std::max<std::uint64_t>(1024, 8 * p.n / std::max<std::size_t>(p.bubble_threshold, 1));
      auto q = tmk.alloc_array<std::uint64_t>(4 + 2 * cap);
      auto input = make_input(p);
      for (std::size_t i = 0; i < p.n; ++i) a[i] = input[i];
      q[0] = 0;  // head
      q[1] = 0;  // tail
      q[2] = 0;  // nwait
      q[3] = cap;
      Queue queue{q};
      queue.push(0, p.n);
      tmk.set_root(0, a.cast<void>());
      tmk.set_root(1, q.cast<void>());
    }
    tmk.barrier();

    auto a = tmk.get_root<std::uint32_t>(0);
    Queue queue{tmk.get_root<std::uint64_t>(1)};
    worker(tmk, a, queue, p.bubble_threshold);
    tmk.barrier();

    if (tmk.id() == 0) {
      result.checksum = static_cast<double>(checksum(a.get(), p.n) % 9007199254740881ULL);
    }
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.total_stats();
  return result;
}

}  // namespace now::apps::qs
