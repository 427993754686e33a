// The process-wide worker pool behind every runtime thread: a reused worker
// starts each task with an empty signal mask, join() returns with the task's
// captures destroyed, idle workers are capped, and an escaping exception
// still terminates the process.
#include "common/worker_pool.h"

#include <gtest/gtest.h>
#include <signal.h>

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace now {
namespace {

TEST(WorkerPool, JoinReturnsAfterTheTaskAndItsCapturesAreGone) {
  auto token = std::make_shared<int>(7);
  int seen = 0;
  PooledThread t([&seen, token] { seen = *token; });
  t.join();
  EXPECT_FALSE(t.joinable());
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(WorkerPool, ReusedWorkerStartsWithAnEmptySignalMask) {
  // The first task leaves SIGSEGV blocked, as a thread unwinding out of a
  // SIGSEGV handler does.  Its worker parks before join() returns and is
  // the most recently parked, so the next task runs on it.
  PooledThread blocker([] {
    sigset_t segv;
    sigemptyset(&segv);
    sigaddset(&segv, SIGSEGV);
    pthread_sigmask(SIG_BLOCK, &segv, nullptr);
  });
  blocker.join();
  const std::uint64_t started = PooledThread::threads_started();
  bool blocked = true;
  PooledThread probe([&blocked] {
    sigset_t mask;
    pthread_sigmask(SIG_BLOCK, nullptr, &mask);
    blocked = sigismember(&mask, SIGSEGV) == 1;
  });
  probe.join();
  EXPECT_EQ(PooledThread::threads_started(), started);  // the same worker
  EXPECT_FALSE(blocked);
}

// Starts `n` tasks that stay alive until all of them run, then joins them.
void run_concurrently(std::size_t n) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t running = 0;
  std::vector<PooledThread> threads;
  for (std::size_t i = 0; i < n; ++i)
    threads.emplace_back([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (++running == n) cv.notify_all();
      cv.wait(lock, [&] { return running == n; });
    });
  for (PooledThread& t : threads) t.join();
}

TEST(WorkerPool, IdleWorkersAreCapped) {
  constexpr std::size_t kExtra = 8;
  constexpr std::size_t kWide = PooledThread::kMaxIdleWorkers + kExtra;
  // The first wide run leaves exactly kMaxIdleWorkers parked; the workers
  // beyond the cap exit, so the second wide run starts kExtra new ones.
  run_concurrently(kWide);
  const std::uint64_t started = PooledThread::threads_started();
  run_concurrently(kWide);
  EXPECT_EQ(PooledThread::threads_started() - started, kExtra);
}

TEST(WorkerPoolDeathTest, EscapingExceptionTerminates) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        PooledThread t([] { throw std::runtime_error("escaped"); });
        t.join();
      },
      "");
}

}  // namespace
}  // namespace now
