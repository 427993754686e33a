// The OpenMP-subset runtime on software DSM — the paper's core contribution.
//
// The paper's compiler "encapsulates each parallel region into a separate
// subroutine" and passes "pointers to shared variables and initial values of
// firstprivate variables ... copied into a structure and passed at fork".
// This runtime is that execution model as a library:
//
//   - omp::Team::parallel(body)    — the `parallel` directive.  `body` is a
//     lambda whose captures are the region's firstprivate values and gptrs
//     to its shared variables; the capture block is byte-copied through the
//     Tmk_fork message to every thread.  Captures must therefore be
//     trivially copyable (enforced at compile time) — exactly the paper's
//     "structure" discipline.
//   - omp::Team::parallel_for(...) — the `parallel do` directive, with
//     static or dynamic scheduling and an implicit barrier (the join).
//   - omp::Par                     — the in-region handle: thread id,
//     barrier, named critical, semaphores, condition variables, reductions
//     (scalar and array, the paper's extension).
//   - omp::ThreadPrivate<T>        — the `threadprivate` directive: per-
//     thread storage that persists across regions.  It lives in private
//     memory, which is the whole point of the paper's private-by-default
//     proposal: privates cost nothing on a DSM.
//
// Variables are PRIVATE BY DEFAULT: anything not allocated in the shared
// arena (via Team::shared_array / Tmk::alloc) and not captured into the
// region is thread-local for free.  Sharing is explicit, as the paper's
// first proposed modification to the standard requires.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "omp/ids.h"
#include "tmk/tmk.h"

namespace now::omp {

enum class Schedule { kStatic, kDynamic };

struct ForOpts {
  Schedule schedule = Schedule::kStatic;
  std::int64_t chunk = 0;  // 0: runtime default (static block / dynamic 1)
};

// In-region execution handle: what the compiled body of a parallel region
// sees.  Thin wrapper over the node's Tmk handle.
class Par {
 public:
  explicit Par(tmk::Tmk& t) : tmk_(t) {}

  std::uint32_t thread_num() const { return tmk_.id(); }
  std::uint32_t num_threads() const { return tmk_.nprocs(); }
  tmk::Tmk& tmk() { return tmk_; }

  void barrier() { tmk_.barrier(); }

  // `critical` / `critical(name)` directives.
  template <typename F>
  void critical(const F& body) {
    critical_id(kCriticalBase, body);
  }
  template <typename F>
  void critical(std::string_view name, const F& body) {
    critical_id(critical_lock_id(name), body);
  }
  template <typename F>
  void critical_id(std::uint32_t lock_id, const F& body) {
    tmk_.lock_acquire(lock_id);
    body();
    tmk_.lock_release(lock_id);
  }

  // The proposed replacement primitives for `flush` (paper Sec. 3.2.3).
  void sema_wait(std::uint32_t id) { tmk_.sema_wait(kUserSemaBase + id); }
  void sema_signal(std::uint32_t id) { tmk_.sema_signal(kUserSemaBase + id); }
  // Condition variables are used inside a critical section of the same name.
  void cond_wait(std::uint32_t cond_id, std::uint32_t lock_id = kCriticalBase) {
    tmk_.cond_wait(lock_id, kUserCondBase + cond_id);
  }
  void cond_signal(std::uint32_t cond_id, std::uint32_t lock_id = kCriticalBase) {
    tmk_.cond_signal(lock_id, kUserCondBase + cond_id);
  }
  void cond_broadcast(std::uint32_t cond_id, std::uint32_t lock_id = kCriticalBase) {
    tmk_.cond_broadcast(lock_id, kUserCondBase + cond_id);
  }
  // Retained only so Figures 1-2 can be reproduced for the ablation.
  void flush() { tmk_.flush(); }

  // Charges counted application work to this thread's node (Tmk::compute).
  void compute(std::uint64_t units, double host_ns_per_unit) {
    tmk_.compute(units, host_ns_per_unit);
  }

  // `master` construct: body runs on thread 0 only (no implied barrier).
  template <typename F>
  void master(const F& body) {
    if (thread_num() == 0) body();
  }

  // Contiguous static split of [lo, hi) for this thread.
  std::pair<std::int64_t, std::int64_t> static_range(std::int64_t lo,
                                                     std::int64_t hi) const {
    const std::int64_t n = hi - lo;
    const std::int64_t p = static_cast<std::int64_t>(num_threads());
    const std::int64_t t = static_cast<std::int64_t>(thread_num());
    const std::int64_t base = n / p, rem = n % p;
    const std::int64_t begin = lo + t * base + std::min<std::int64_t>(t, rem);
    return {begin, begin + base + (t < rem ? 1 : 0)};
  }

  // `reduction` clause support, including the paper's array extension: each
  // thread combines its private partial into the shared target under the
  // reduction lock.
  template <typename T, typename Combine>
  void reduce_into(tmk::gptr<T> target, const T* local, std::size_t count,
                   Combine combine) {
    tmk_.lock_acquire(kReductionLock);
    for (std::size_t i = 0; i < count; ++i)
      target[i] = combine(target[i], local[i]);
    tmk_.lock_release(kReductionLock);
  }
  template <typename T>
  void reduce_sum(tmk::gptr<T> target, const T* local, std::size_t count = 1) {
    reduce_into(target, local, count, [](T a, T b) { return a + b; });
  }

 private:
  tmk::Tmk& tmk_;
};

// `threadprivate`: persists across parallel regions, one copy per thread.
// Plain private memory — no DSM involvement, no communication.
template <typename T>
class ThreadPrivate {
 public:
  explicit ThreadPrivate(std::uint32_t num_threads, T init = T{})
      : copies_(num_threads, Padded{init}) {}
  T& local(const Par& p) { return copies_[p.thread_num()].value; }
  T& at(std::uint32_t thread) { return copies_[thread].value; }

 private:
  struct alignas(64) Padded {  // keep per-thread copies off shared cache lines
    T value;
  };
  std::vector<Padded> copies_;
};

// Master-side handle: issues parallel regions from the sequential part of
// the program.  Constructed by OmpRuntime around node 0's Tmk.
class Team {
 public:
  explicit Team(tmk::Tmk& master) : master_(master) {}

  tmk::Tmk& master() { return master_; }
  std::uint32_t num_threads() const { return master_.nprocs(); }

  // Shared data environment: explicit, per the paper's private-by-default
  // proposal.
  template <typename T>
  tmk::gptr<T> shared_array(std::size_t n) {
    return master_.alloc_array<T>(n);
  }
  template <typename T>
  tmk::gptr<T> shared_scalar(T init = T{}) {
    auto p = master_.alloc_array<T>(1);
    *p = init;
    return p;
  }

  // ---- the `parallel` directive ----
  template <typename F>
  void parallel(const F& body) {
    static_assert(std::is_trivially_copyable_v<F>,
                  "parallel-region captures are copied through the fork "
                  "message (firstprivate); capture gptrs and values only");
    master_.fork(&Team::trampoline<F>, &body, sizeof body);
    Par p(master_);
    body(p);  // the master is a worker too
    master_.join();
  }

  // ---- the `parallel do` directive ----
  template <typename F>
  void parallel_for(std::int64_t lo, std::int64_t hi, const F& body,
                    ForOpts opts = {}) {
    if (opts.schedule == Schedule::kStatic) {
      const std::int64_t chunk = opts.chunk;
      parallel([=](Par& p) {
        if (chunk <= 0) {
          auto [b, e] = p.static_range(lo, hi);
          for (std::int64_t i = b; i < e; ++i) body(p, i);
        } else {
          // Round-robin chunks (static,chunk).
          const std::int64_t stride =
              chunk * static_cast<std::int64_t>(p.num_threads());
          for (std::int64_t base = lo + chunk * static_cast<std::int64_t>(p.thread_num());
               base < hi; base += stride)
            for (std::int64_t i = base; i < std::min(base + chunk, hi); ++i)
              body(p, i);
        }
      });
      return;
    }
    // Dynamic: a shared chunk dispenser advanced under a dedicated lock.
    const std::int64_t chunk = opts.chunk <= 0 ? 1 : opts.chunk;
    if (dyn_counter_.is_null()) dyn_counter_ = master_.alloc_array<std::int64_t>(1);
    *dyn_counter_ = lo;
    auto counter = dyn_counter_;
    parallel([=](Par& p) {
      for (;;) {
        std::int64_t base;
        p.tmk().lock_acquire(kDynamicForLock);
        base = *counter;
        *counter = base + chunk;
        p.tmk().lock_release(kDynamicForLock);
        if (base >= hi) break;
        for (std::int64_t i = base; i < std::min(base + chunk, hi); ++i) body(p, i);
      }
    });
  }

  // `parallel do` with a scalar sum reduction (the common OpenMP idiom).
  // Each thread accumulates a private partial over its static block and
  // combines it once under the reduction lock.
  template <typename T, typename F>
  T parallel_for_reduce_sum(std::int64_t lo, std::int64_t hi, const F& body) {
    auto cell = shared_scalar<T>(T{});
    parallel([=](Par& p) {
      T local{};
      auto [b, e] = p.static_range(lo, hi);
      for (std::int64_t i = b; i < e; ++i) local += body(p, i);
      p.reduce_sum(cell, &local, 1);
    });
    T result = *cell;
    master_.free(cell.template cast<void>());
    return result;
  }

 private:
  template <typename F>
  static void trampoline(tmk::Tmk& t, const void* blob, std::size_t size) {
    NOW_CHECK_EQ(size, sizeof(F)) << "fork blob size mismatch";
    alignas(alignof(F) > 16 ? alignof(F) : 16) unsigned char storage[sizeof(F)];
    std::memcpy(storage, blob, sizeof(F));
    const F* f = std::launder(reinterpret_cast<const F*>(storage));
    Par p(t);
    (*f)(p);
  }

  tmk::Tmk& master_;
  tmk::gptr<std::int64_t> dyn_counter_ = tmk::gptr<std::int64_t>::null();
};

// Owns the DSM and runs an OpenMP-style program: the master executes
// `program` (its sequential parts run on node 0) and the remaining nodes
// serve parallel regions.
class OmpRuntime {
 public:
  explicit OmpRuntime(tmk::DsmConfig cfg) : dsm_(cfg) {}

  void run(const std::function<void(Team&)>& program) {
    dsm_.run_master([&](tmk::Tmk& t) {
      Team team(t);
      program(team);
    });
  }

  tmk::DsmRuntime& dsm() { return dsm_; }
  sim::TrafficSnapshot traffic() const { return dsm_.traffic(); }
  double virtual_time_us() const { return dsm_.virtual_time_us(); }

 private:
  tmk::DsmRuntime dsm_;
};

}  // namespace now::omp
