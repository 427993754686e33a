// Runtime threads from one process-wide set of parked workers.
//
// Every DSM runtime starts a service thread per node and a compute thread
// per node for each run, and every MPI run a thread per rank.  Cloning and
// joining those OS threads dominated runtime set-up (8 threads: 300-400 us
// on a 4-vCPU VM), so a finished task's thread parks here and the next
// PooledThread reuses it.  A PooledThread behaves like a std::thread that
// must be joined:
//  - each task starts with an empty signal mask.  A task can end by
//    unwinding out of a signal handler (a DSM compute thread whose node
//    crashed mid-fault leaves SIGSEGV blocked), and a reused worker must not
//    inherit that mask;
//  - an exception escaping a task terminates the process (the task runs
//    inside a noexcept frame), as it does from a std::thread;
//  - join() returns after the task's callable has been destroyed and its
//    worker is parked again (so back-to-back runtimes reuse every worker).
// At most kMaxIdleWorkers workers stay parked; a worker finishing beyond
// that cap exits, so a one-off 256-node run does not leave 512 threads
// behind.  Workers are detached: between tasks they touch only the pool,
// which is never destroyed, so parked ones simply end with the process.
#pragma once

#include <signal.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"

namespace now {

class PooledThread {
 public:
  // Parked workers kept for reuse; enough for the largest runtimes the
  // tests and benchmarks build repeatedly (8 nodes: 16 threads) with room
  // for two of them alive at once.
  static constexpr std::size_t kMaxIdleWorkers = 32;

  PooledThread() = default;
  explicit PooledThread(std::function<void()> fn)
      : job_(std::make_shared<Job>()) {
    job_->fn = std::move(fn);
    pool().start(job_);
  }
  PooledThread(PooledThread&&) noexcept = default;
  PooledThread& operator=(PooledThread&& other) noexcept {
    NOW_CHECK(!joinable()) << "assigning over a running PooledThread";
    job_ = std::move(other.job_);
    return *this;
  }
  PooledThread(const PooledThread&) = delete;
  PooledThread& operator=(const PooledThread&) = delete;
  ~PooledThread() { NOW_CHECK(!joinable()) << "PooledThread destroyed unjoined"; }

  bool joinable() const { return job_ != nullptr; }

  void join() {
    NOW_CHECK(joinable()) << "join of a PooledThread with no task";
    std::unique_lock<std::mutex> lock(job_->mu);
    job_->cv.wait(lock, [this] { return job_->done; });
    lock.unlock();
    job_.reset();
  }

  // OS threads the pool has created in this process (tests bound reuse).
  static std::uint64_t threads_started() {
    Pool& p = pool();
    std::lock_guard<std::mutex> lock(p.mu);
    return p.started;
  }

 private:
  struct Job {
    std::function<void()> fn;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };

  // A parked worker waits on its own slot, which lives on its stack.
  struct Slot {
    std::condition_variable cv;
    std::shared_ptr<Job> job;
  };

  struct Pool {
    std::mutex mu;
    std::vector<Slot*> idle;
    std::uint64_t started = 0;

    void start(std::shared_ptr<Job> job) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!idle.empty()) {
          Slot* s = idle.back();
          idle.pop_back();
          s->job = std::move(job);
          // Notified under mu: the worker cannot leave its wait (and its
          // slot's stack frame) before this returns.
          s->cv.notify_one();
          return;
        }
        ++started;
      }
      std::thread([this, job = std::move(job)]() mutable {
        worker_main(std::move(job));
      }).detach();
    }

    // Runs tasks until the idle cap turns the worker away.  A finished task
    // is reported done only once its worker is parked again, so a runtime
    // built right after another one's join finds every worker idle.
    void worker_main(std::shared_ptr<Job> job) {
      for (;;) {
        run(*job);
        std::unique_lock<std::mutex> lock(mu);
        Slot slot;
        const bool park = idle.size() < kMaxIdleWorkers;
        if (park) idle.push_back(&slot);
        {
          std::lock_guard<std::mutex> done_lock(job->mu);
          job->done = true;
          job->cv.notify_all();
        }
        job.reset();
        if (!park) return;
        slot.cv.wait(lock, [&slot] { return slot.job != nullptr; });
        job = std::move(slot.job);
      }
    }

    static void run(Job& job) noexcept {
      sigset_t none;
      sigemptyset(&none);
      pthread_sigmask(SIG_SETMASK, &none, nullptr);
      job.fn();
      job.fn = nullptr;  // captures die before join() returns
    }
  };

  // Never destroyed: parked workers wait on it until the process exits.
  static Pool& pool() {
    static Pool* p = new Pool;
    return *p;
  }

  std::shared_ptr<Job> job_;
};

}  // namespace now
