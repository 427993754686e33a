// "Compiled OpenMP" QSORT: what ompcc emits for the directive-annotated
// source — a parallel region whose EnQueue/DeQueue use the critical and
// condition-variable directives exactly as in the paper's Figure 4.
#include "apps/qsort/qsort.h"

#include "common/check.h"
#include "omp/omp.h"

namespace now::apps::qs {

namespace {

// The queue lives in shared memory because the source declared it `shared`;
// everything else in the region is private by default (the paper's first
// proposed modification).
struct SharedQueue {
  tmk::gptr<std::uint64_t> hdr;  // [head, tail, nwait, cap, entries...]

  std::uint64_t& head() const { return hdr[0]; }
  std::uint64_t& tail() const { return hdr[1]; }
  std::uint64_t& nwait() const { return hdr[2]; }
  std::uint64_t cap() const { return hdr[3]; }
  bool empty() const { return head() == tail(); }

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
};

constexpr std::uint32_t kCond = 0;

// Figure 4 DeQueue, directive style: `#pragma critical` + cond_wait.
bool omp_dequeue(omp::Par& p, const SharedQueue& q, std::uint64_t& lo,
                 std::uint64_t& hi) {
  bool got = false;
  p.tmk().lock_acquire(omp::kCriticalBase);
  while (q.empty() && q.nwait() < p.num_threads()) {
    q.nwait() = q.nwait() + 1;
    if (q.nwait() == p.num_threads()) {
      p.cond_broadcast(kCond);
      break;
    }
    p.cond_wait(kCond);
    if (q.nwait() == p.num_threads()) break;
    q.nwait() = q.nwait() - 1;
  }
  if (q.nwait() < p.num_threads()) {
    q.pop(lo, hi);
    got = true;
  }
  p.tmk().lock_release(omp::kCriticalBase);
  return got;
}

// Figure 4 EnQueue.
void omp_enqueue(omp::Par& p, const SharedQueue& q, std::uint64_t lo,
                 std::uint64_t hi) {
  p.critical([&] {
    q.push(lo, hi);
    if (q.nwait() > 0) p.cond_signal(kCond);
  });
}

}  // namespace

AppResult run_omp(const Params& p, tmk::DsmConfig cfg) {
  omp::OmpRuntime rt(cfg);
  AppResult result;

  rt.run([&](omp::Team& team) {
    // Sequential part: the master builds the shared data environment.
    auto a = team.shared_array<std::uint32_t>(p.n);
    const std::uint64_t cap =
        std::max<std::uint64_t>(1024, 8 * p.n / std::max<std::size_t>(p.bubble_threshold, 1));
    auto qmem = team.shared_array<std::uint64_t>(4 + 2 * cap);
    auto input = make_input(p);
    for (std::size_t i = 0; i < p.n; ++i) a[i] = input[i];
    qmem[0] = 0;
    qmem[1] = 0;
    qmem[2] = 0;
    qmem[3] = cap;
    SharedQueue queue{qmem};
    queue.push(0, p.n);

    const std::size_t threshold = p.bubble_threshold;
    team.parallel([=](omp::Par& par) {
      SharedQueue q{qmem};
      std::uint64_t lo, hi;
      while (omp_dequeue(par, q, lo, hi)) {
        while (hi - lo > threshold) {
          const std::size_t m = static_cast<std::size_t>(lo) +
                                partition(a.get() + lo, static_cast<std::size_t>(hi - lo));
          par.compute(hi - lo, kHostNsPerElement);
          if (m - lo < hi - (m + 1)) {
            omp_enqueue(par, q, m + 1, hi);
            hi = m;
          } else {
            omp_enqueue(par, q, lo, m);
            lo = m + 1;
          }
        }
        if (hi - lo > 1)
          par.compute(bubble_sort(a.get() + lo, static_cast<std::size_t>(hi - lo)),
                      kHostNsPerElement);
      }
    });

    result.checksum = static_cast<double>(checksum(a.get(), p.n) % 9007199254740881ULL);
  });

  result.virtual_time_us = rt.virtual_time_us();
  result.traffic = rt.traffic();
  result.dsm = rt.dsm().total_stats();
  return result;
}

}  // namespace now::apps::qs
