// Synchronization primitive tests: lock mutual exclusion and caching,
// semaphore pipelines (paper Fig. 3), condition-variable task queues
// (paper Fig. 4), and flush (paper Figs. 1-2, kept for the ablation).
#include <gtest/gtest.h>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

DsmConfig cfg(std::uint32_t nodes, bool stress = false) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.stress_service_jitter = stress;
  return c;
}

TEST(Locks, MutualExclusionCounter) {
  for (std::uint32_t n : {2u, 4u, 8u}) {
    DsmRuntime rt(cfg(n));
    constexpr int kIters = 40;
    rt.run_spmd([&](Tmk& tmk) {
      gptr<std::uint64_t> counter(kPageSize);
      for (int i = 0; i < kIters; ++i) {
        tmk.lock_acquire(1);
        *counter = *counter + 1;
        tmk.lock_release(1);
      }
      tmk.barrier();
      EXPECT_EQ(*counter, static_cast<std::uint64_t>(n) * kIters) << "nodes=" << n;
    });
  }
}

// Regression stress for the grant cut-to-enqueue ordering race: with
// several disjoint locks churning on the same edges, one node's compute
// thread (a pending grant at release) and service thread (a forward
// hitting the ownership cache) both assemble node-log deltas for the same
// requester.  If a later-cut delta reached the wire first, the requester's
// dense interval merge would abort on a sequence gap (the protocol lock,
// held from cut to enqueue, rules it out) — the failure is a NOW_CHECK
// abort, so this passes by simply surviving.
// Scheduling-dependent: many short critical sections maximize the window.
TEST(Locks, DisjointLockChurnKeepsIntervalRecordsDense) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kLocks = 4;
  constexpr int kIters = 60;
  DsmRuntime rt(cfg(kNodes));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> slots(kPageSize);
    const std::uint32_t id = tmk.id();
    for (int i = 0; i < kIters; ++i) {
      // Every node walks the locks in a different rotation so grants for
      // distinct locks keep crossing on the same (granter, requester) edge.
      const std::uint32_t l = (id + static_cast<std::uint32_t>(i)) % kLocks;
      tmk.lock_acquire(l);
      slots[l] = slots[l] + 1;
      tmk.lock_release(l);
    }
    tmk.barrier();
    for (std::uint32_t l = 0; l < kLocks; ++l) {
      std::uint64_t expect = 0;
      for (std::uint32_t n = 0; n < kNodes; ++n)
        for (int i = 0; i < kIters; ++i)
          if ((n + static_cast<std::uint32_t>(i)) % kLocks == l) ++expect;
      EXPECT_EQ(slots[l], expect) << "lock " << l;
    }
  });
}

TEST(Locks, UncontendedReacquireIsCached) {
  DsmRuntime rt(cfg(2));
  rt.run_spmd([](Tmk& tmk) {
    if (tmk.id() == 0)
      for (int i = 0; i < 10; ++i) {
        tmk.lock_acquire(3);
        tmk.lock_release(3);
      }
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  EXPECT_EQ(s.lock_acquires, 10u);
  EXPECT_EQ(s.lock_acquires_cached, 9u);  // only the first goes remote
}

TEST(Locks, CriticalSectionPublishesData) {
  DsmRuntime rt(cfg(4));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> record(kPageSize);  // [owner, value]
    tmk.lock_acquire(0);
    if (record[0] != 0) {
      // Whoever wrote before us must have published both words.
      EXPECT_EQ(record[1], record[0] * 17);
    }
    record[0] = tmk.id() + 1;
    record[1] = (tmk.id() + 1) * 17;
    tmk.lock_release(0);
    tmk.barrier();
  });
}

TEST(Locks, ManyLocksIndependent) {
  DsmRuntime rt(cfg(4));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> counters(kPageSize);
    for (int i = 0; i < 10; ++i) {
      const std::uint32_t lock = tmk.id() % 2;  // two disjoint lock domains
      tmk.lock_acquire(10 + lock);
      counters[lock] = counters[lock] + 1;
      tmk.lock_release(10 + lock);
    }
    tmk.barrier();
    EXPECT_EQ(counters[0] + counters[1], 40u);
  });
}

TEST(Semaphores, PipelineProducerConsumer) {
  // Paper Figure 3: flags become semaphores, no busy-waiting.
  // The exact two-messages-per-op count below is a perfect-wire property:
  // under the CI features leg's injected faults, retransmissions and acks
  // legitimately add messages, so this measurement pins the wire.
  DsmConfig c = cfg(2);
  c.net_fault = {};
  c.net_reliable = false;
  DsmRuntime rt(c);
  constexpr int kRounds = 20;
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> data(kPageSize);
    if (tmk.id() == 0) {  // producer
      for (int i = 0; i < kRounds; ++i) {
        *data = static_cast<std::uint64_t>(i) * 7 + 1;
        tmk.sema_signal(0);  // "available"
        tmk.sema_wait(1);    // "done"
      }
    } else {  // consumer
      for (int i = 0; i < kRounds; ++i) {
        tmk.sema_wait(0);
        EXPECT_EQ(*data, static_cast<std::uint64_t>(i) * 7 + 1);
        tmk.sema_signal(1);
      }
    }
  });
  // Two messages per sema op, as the paper states.  With 2 nodes, sema 0's
  // manager is node 0 and sema 1's is node 1, so exactly half of the four
  // ops per round hit a local manager (local calls, off the wire).
  const auto t = rt.traffic();
  const auto s = rt.total_stats();
  EXPECT_EQ(s.sema_ops, 4u * kRounds);
  EXPECT_EQ(t.messages_by_type[kSemaSignal] + t.messages_by_type[kSemaAck] +
                t.messages_by_type[kSemaWait] + t.messages_by_type[kSemaGrant],
            2u * 2u * kRounds);
}

TEST(Semaphores, CountingSemantics) {
  // Signals before waits accumulate; all waits eventually pass.
  DsmRuntime rt(cfg(4));
  rt.run_spmd([](Tmk& tmk) {
    if (tmk.id() == 0)
      for (int i = 0; i < 3; ++i) tmk.sema_signal(5);
    tmk.barrier();
    if (tmk.id() != 0) tmk.sema_wait(5);  // exactly 3 waiters, 3 credits
  });
}

TEST(Semaphores, WaitBlocksUntilSignal) {
  DsmRuntime rt(cfg(2));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> flag(kPageSize);
    if (tmk.id() == 1) {
      *flag = 99;
      tmk.sema_signal(2);
    } else {
      tmk.sema_wait(2);
      EXPECT_EQ(*flag, 99u);  // signal carries consistency
    }
  });
}

TEST(CondVars, TaskQueueFigure4) {
  // Paper Figure 4: critical section + cond_wait/cond_signal/cond_broadcast.
  // A shared queue of tasks; workers dequeue until global termination.
  constexpr std::uint32_t kLock = 0, kCond = 0;
  constexpr std::uint64_t kTasks = 30;
  for (std::uint32_t n : {2u, 4u}) {
    DsmRuntime rt(cfg(n));
    rt.run_spmd([&](Tmk& tmk) {
      // layout at page 1: [head, tail, nwait, done_count, tasks...]
      gptr<std::uint64_t> q(kPageSize);
      if (tmk.id() == 0) {
        for (std::uint64_t i = 0; i < kTasks; ++i) q[4 + i] = i + 1;
        q[1] = kTasks;
      }
      tmk.barrier();

      std::uint64_t local_sum = 0;
      for (;;) {
        std::uint64_t task = 0;
        tmk.lock_acquire(kLock);
        while (q[0] == q[1] && q[2] < tmk.nprocs()) {
          q[2] = q[2] + 1;  // nwait++
          if (q[2] == tmk.nprocs()) {
            tmk.cond_broadcast(kLock, kCond);  // global termination
            break;
          }
          tmk.cond_wait(kLock, kCond);
          if (q[2] == tmk.nprocs()) break;
          q[2] = q[2] - 1;  // resumed because work appeared
        }
        if (q[2] == tmk.nprocs()) {
          tmk.lock_release(kLock);
          break;
        }
        task = q[4 + q[0]];
        q[0] = q[0] + 1;
        tmk.lock_release(kLock);
        local_sum += task;
      }

      // Accumulate results under a second lock.
      tmk.lock_acquire(7);
      q[3] = q[3] + local_sum;
      tmk.lock_release(7);
      tmk.barrier();
      EXPECT_EQ(q[3], kTasks * (kTasks + 1) / 2) << "nodes=" << n;
    });
  }
}

TEST(CondVars, SignalWithNoWaiterIsNoop) {
  DsmRuntime rt(cfg(2));
  rt.run_spmd([](Tmk& tmk) {
    if (tmk.id() == 0) {
      tmk.lock_acquire(4);
      tmk.cond_signal(4, 0);  // nobody waiting: must not blow up or count
      tmk.lock_release(4);
    }
    tmk.barrier();
  });
}

TEST(CondVars, SignalWakesExactlyOne) {
  DsmRuntime rt(cfg(3));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> state(kPageSize);  // [woken, generation]
    if (tmk.id() != 0) {
      tmk.lock_acquire(2);
      state[0] = state[0] + 1;  // registered
      if (state[1] == 0) tmk.cond_wait(2, 9);
      state[2] = state[2] + 1;  // woken
      tmk.lock_release(2);
    } else {
      // Wait until both are registered, then signal one at a time.
      for (;;) {
        tmk.lock_acquire(2);
        const bool ready = state[0] == 2;
        tmk.lock_release(2);
        if (ready) break;
      }
      tmk.lock_acquire(2);
      state[1] = 1;
      tmk.cond_signal(2, 9);
      tmk.lock_release(2);
      tmk.lock_acquire(2);
      tmk.cond_signal(2, 9);
      tmk.lock_release(2);
    }
    tmk.barrier();
    EXPECT_EQ(state[2], 2u);
  });
}

// Regression for the lost-condvar-wakeup deadlock the chaos soak exposed:
// cond_wait's registration at the manager used to be one-way, leaning on
// synchronous delivery to beat any signal the lock's next holder could
// issue.  Under a lossy wire a dropped registration retransmits only after
// the released lock was granted onward and the signal already hit an empty
// waiter queue — a legal noop, so the waiter blocked forever.  With the
// channel armed the registration is an rpc (kCondWaitAck: the waiter holds
// the lock until the manager confirms its queue entry).  The race needs
// three *distinct* parties: with the manager on the waiter's own node the
// registration is an unfaultable self-send, and with the manager on the
// next holder's node the registration and the lock grant share one link,
// whose restored FIFO already orders them.  So: nodes 0 and 1 ping-pong
// strict turns through one condvar whose lock hashes to the bystanding
// node 2 (unsharded managers: lock_id % num_nodes), over an aggressively
// faulty pinned wire.  A single lost wakeup deadlocks the ping-pong
// (caught by the ctest timeout); the turn counter pins that every wakeup
// was the right one.
TEST(CondVars, HandoffSurvivesLossyWire) {
  constexpr std::uint32_t kLock = 2, kCond = 1;  // manager: 2 % 3 == node 2
  constexpr std::uint64_t kRounds = 25;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    DsmConfig c = cfg(3);
    c.net_fault = {};  // independent of the CI features leg's env knobs
    c.net_fault.drop_ppm = 50000;
    c.net_fault.dup_ppm = 20000;
    c.net_fault.reorder_ppm = 50000;
    c.net_fault.seed = seed;
    DsmRuntime rt(c);
    rt.run_spmd([&](Tmk& tmk) {
      gptr<std::uint64_t> state(kPageSize);  // [whose turn, counter]
      const std::uint64_t me = tmk.id();
      if (me < 2) {
        tmk.lock_acquire(kLock);
        for (std::uint64_t i = 0; i < kRounds; ++i) {
          while (state[0] != me) tmk.cond_wait(kLock, kCond);
          state[1] = state[1] + 1;
          state[0] = 1 - me;
          tmk.cond_signal(kLock, kCond);
        }
        tmk.lock_release(kLock);
      }
      tmk.barrier();
      EXPECT_EQ(state[1], 2 * kRounds) << "seed=" << seed;
    });
  }
}

TEST(Flush, MakesWritesGloballyVisible) {
  // Paper Figure 1 semantics: flag synchronization with flush.  The readers
  // poll; the writer flushes once.
  DsmRuntime rt(cfg(4));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> flag(kPageSize);
    gptr<std::uint64_t> payload(2 * kPageSize);
    if (tmk.id() == 0) {
      *payload = 4242;
      *flag = 1;
      tmk.flush();
    } else {
      while (*flag == 0) {
      }
      EXPECT_EQ(*payload, 4242u);
    }
    tmk.barrier();
  });
}

TEST(Flush, Costs2NMinus1Messages) {
  // The paper's Section 3.2.4 claim: a flush is 2(n-1) messages.
  for (std::uint32_t n : {2u, 4u, 8u}) {
    DsmRuntime rt(cfg(n));
    rt.run_spmd([](Tmk& tmk) {
      gptr<std::uint64_t> x(kPageSize);
      if (tmk.id() == 0) {
        *x = 1;
        tmk.flush();
      }
    });
    const auto t = rt.traffic();
    EXPECT_EQ(t.messages_by_type[kFlushNotice], n - 1) << "n=" << n;
    EXPECT_EQ(t.messages_by_type[kFlushAck], n - 1) << "n=" << n;
  }
}

TEST(Stress, MixedPrimitivesUnderServiceJitter) {
  // Random service delays shake out ordering assumptions.
  DsmRuntime rt(cfg(4, /*stress=*/true));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint64_t> counter(kPageSize);
    gptr<std::uint64_t> cells(2 * kPageSize);
    for (int i = 0; i < 10; ++i) {
      tmk.lock_acquire(0);
      *counter = *counter + 1;
      tmk.lock_release(0);
      cells[tmk.id() * 8] = static_cast<std::uint64_t>(i);
      tmk.barrier();
      EXPECT_EQ(cells[((tmk.id() + 1) % tmk.nprocs()) * 8], static_cast<std::uint64_t>(i));
    }
    tmk.barrier();
    EXPECT_EQ(*counter, 40u);
  });
}

// The wait rule: a compute thread holds its node's protocol lock for a whole
// runtime entry and gives it up only where it blocks (RpcClient::wait,
// WaitSlot::take), so its own service thread can answer peers meanwhile —
// including the replies it is waiting for.  These shapes hang if a blocked
// compute thread kept the lock; service jitter shuffles the orders.

// Nodes 0 and 1 each write their own page, hand the write over with a
// semaphore, and read the other's page at the same moment: each compute
// thread blocks in its fault's fetch while its service thread must serve
// the peer's kDiffRequest.
TEST(ProtoLock, CrossingFaultsServeEachOther) {
  constexpr std::uint64_t kRounds = 300;
  DsmRuntime rt(cfg(2, /*stress=*/true));
  rt.run_spmd([&](Tmk& tmk) {
    const std::uint32_t me = tmk.id();
    const std::uint32_t peer = 1 - me;
    gptr<std::uint64_t> mine((1 + me) * kPageSize);
    gptr<std::uint64_t> theirs((1 + peer) * kPageSize);
    std::uint64_t wrong = 0;
    for (std::uint64_t r = 1; r <= kRounds; ++r) {
      *mine = 10 * r + me;
      tmk.sema_signal(peer);  // semas 0/1: "my page is written"
      tmk.sema_wait(me);
      wrong += *theirs != 10 * r + peer;
      tmk.sema_signal(2 + peer);  // semas 2/3: "I read yours"
      tmk.sema_wait(2 + me);
    }
    EXPECT_EQ(wrong, 0u) << "node " << me;
  });
}

// A lock holder faults inside its critical section while a third node's
// kLockAcquire is forwarded to it: node 1 lets node 2 ask for the lock
// just before the read fault whose fetch it then blocks in, so the
// forward lands on node 1's service thread during the fetch.
TEST(ProtoLock, HolderFaultingInItsSectionTakesAForward) {
  constexpr std::uint64_t kRounds = 200;
  constexpr std::uint32_t kLock = 0, kGo1 = 1, kGo2 = 2;
  DsmRuntime rt(cfg(3, /*stress=*/true));
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> counter(kPageSize);
    std::uint64_t wrong = 0;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      if (tmk.id() == 1) tmk.sema_wait(kGo1);
      if (tmk.id() == 2) tmk.sema_wait(kGo2);
      tmk.lock_acquire(kLock);
      if (tmk.id() == 1) tmk.sema_signal(kGo2);
      *counter = *counter + 1;
      tmk.lock_release(kLock);
      if (tmk.id() == 0) tmk.sema_signal(kGo1);
      tmk.barrier();
      wrong += *counter != 3 * (r + 1);
    }
    EXPECT_EQ(wrong, 0u) << "node " << tmk.id();
  });
}

void noop_region(Tmk&, const void*, std::size_t) {}

// A fault raised by runtime code that holds the protocol lock must fail
// loudly, not deadlock: the fork copies its argument blob under the lock,
// and a blob pointing at a shared page the master never mapped faults
// right there.
TEST(ProtoLockDeathTest, FaultUnderTheLockFailsLoudly) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        DsmRuntime rt(cfg(2));
        rt.run_master([](Tmk& tmk) {
          gptr<std::uint64_t> shared(kPageSize);
          tmk.fork(&noop_region, shared.get(), sizeof(std::uint64_t));
          tmk.join();
        });
      },
      "protocol lock taken twice");
}

}  // namespace
}  // namespace now::tmk
