// Direct unit tests for the compute/service rendezvous primitives in
// tmk/rpc.h.  These classes carry every blocking protocol interaction (page
// fetches, lock grants, fork/join) and, since crash injection, the poison
// path that unwinds a compute thread when a peer dies — worth pinning at
// this level because the integration tests only ever see the happy orderings
// their schedules happen to produce.  Every call runs under the mutex the
// helper was built over (a node's protocol lock in the runtime); wait() and
// take() give it up while they block.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "tmk/rpc.h"

namespace now::tmk {
namespace {

sim::Message msg(std::uint16_t type, std::uint64_t tag) {
  sim::Message m;
  m.type = type;
  m.send_ts_ns = tag;  // payload-free marker for assertions
  return m;
}

// The "service thread" side of a test: one call under the shared mutex.
template <typename Fn>
void locked(std::mutex& mu, Fn fn) {
  std::lock_guard<std::mutex> lock(mu);
  fn();
}

TEST(RpcClient, SeveralOutstandingFulfilledOutOfOrder) {
  std::mutex mu;
  RpcClient rpc(mu);
  std::unique_lock<std::mutex> held(mu);
  const std::uint64_t a = rpc.begin();
  const std::uint64_t b = rpc.begin();
  const std::uint64_t c = rpc.begin();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  // A page fetch requests diffs from every writer in parallel; replies land
  // in whatever order the wire produces.
  rpc.fulfill(c, msg(7, 300));
  rpc.fulfill(a, msg(7, 100));
  rpc.fulfill(b, msg(7, 200));
  EXPECT_EQ(rpc.wait(b).send_ts_ns, 200u);
  EXPECT_EQ(rpc.wait(a).send_ts_ns, 100u);
  EXPECT_EQ(rpc.wait(c).send_ts_ns, 300u);
}

TEST(RpcClient, WaitBlocksUntilFulfilled) {
  std::mutex mu;
  RpcClient rpc(mu);
  std::unique_lock<std::mutex> held(mu);
  const std::uint64_t seq = rpc.begin();
  std::thread service([&] { locked(mu, [&] { rpc.fulfill(seq, msg(3, 42)); }); });
  EXPECT_EQ(rpc.wait(seq).send_ts_ns, 42u);
  service.join();
}

TEST(RpcClient, PoisonWakesBlockedWaiterWithVictim) {
  std::mutex mu;
  RpcClient rpc(mu);
  std::unique_lock<std::mutex> held(mu);
  const std::uint64_t seq = rpc.begin();
  std::thread service([&] { locked(mu, [&] { rpc.poison(5); }); });
  try {
    rpc.wait(seq);
    FAIL() << "poisoned wait returned";
  } catch (const NodeDownError& e) {
    EXPECT_EQ(e.victim, 5u);
  }
  service.join();
}

TEST(RpcClient, PoisonBeforeWaitAndBeforeBegin) {
  std::mutex mu;
  RpcClient rpc(mu);
  std::unique_lock<std::mutex> held(mu);
  const std::uint64_t seq = rpc.begin();
  rpc.poison(2);
  // The pending request fails...
  EXPECT_THROW(rpc.wait(seq), NodeDownError);
  // ...and no new rendezvous can start: the reply could never arrive.
  EXPECT_THROW(rpc.begin(), NodeDownError);
}

TEST(RpcClient, FulfilledReplySurvivesPoison) {
  // A reply that already landed is valid data; delivering it (instead of
  // discarding and throwing) keeps the survivor's state closer to the
  // crash-free schedule during the unwind.
  std::mutex mu;
  RpcClient rpc(mu);
  std::unique_lock<std::mutex> held(mu);
  const std::uint64_t seq = rpc.begin();
  rpc.fulfill(seq, msg(9, 77));
  rpc.poison(1);
  EXPECT_EQ(rpc.wait(seq).send_ts_ns, 77u);
}

TEST(WaitSlot, DeliversInFifoOrder) {
  std::mutex mu;
  WaitSlot slot(mu);
  std::unique_lock<std::mutex> held(mu);
  slot.post(msg(1, 10));
  slot.post(msg(1, 20));
  slot.post(msg(1, 30));
  EXPECT_EQ(slot.take().send_ts_ns, 10u);
  EXPECT_EQ(slot.take().send_ts_ns, 20u);
  EXPECT_EQ(slot.take().send_ts_ns, 30u);
}

TEST(WaitSlot, TakeBlocksUntilPosted) {
  std::mutex mu;
  WaitSlot slot(mu);
  std::unique_lock<std::mutex> held(mu);
  std::thread service([&] { locked(mu, [&] { slot.post(msg(2, 55)); }); });
  EXPECT_EQ(slot.take().send_ts_ns, 55u);
  service.join();
}

TEST(WaitSlot, PoisonWakesBlockedTaker) {
  std::mutex mu;
  WaitSlot slot(mu);
  std::unique_lock<std::mutex> held(mu);
  std::thread service([&] { locked(mu, [&] { slot.poison(3); }); });
  try {
    slot.take();
    FAIL() << "poisoned take returned";
  } catch (const NodeDownError& e) {
    EXPECT_EQ(e.victim, 3u);
  }
  service.join();
}

TEST(WaitSlot, QueuedMessagesDrainBeforePoisonThrows) {
  std::mutex mu;
  WaitSlot slot(mu);
  std::unique_lock<std::mutex> held(mu);
  slot.post(msg(4, 1));
  slot.post(msg(4, 2));
  slot.poison(0);
  EXPECT_EQ(slot.take().send_ts_ns, 1u);
  EXPECT_EQ(slot.take().send_ts_ns, 2u);
  EXPECT_THROW(slot.take(), NodeDownError);
}

TEST(RpcClient, ManyThreadsEachGetTheirOwnReply) {
  std::mutex mu;
  RpcClient rpc(mu);
  constexpr int kN = 16;
  std::vector<std::uint64_t> seqs(kN);
  locked(mu, [&] {
    for (int i = 0; i < kN; ++i) seqs[i] = rpc.begin();
  });
  std::vector<std::thread> waiters;
  std::vector<std::uint64_t> got(kN, 0);
  for (int i = 0; i < kN; ++i)
    waiters.emplace_back(
        [&, i] { locked(mu, [&] { got[i] = rpc.wait(seqs[i]).send_ts_ns; }); });
  // Reverse order: every waiter must match on seq, not arrival order.
  for (int i = kN - 1; i >= 0; --i)
    locked(mu, [&] { rpc.fulfill(seqs[i], msg(6, 1000 + i)); });
  for (auto& t : waiters) t.join();
  for (int i = 0; i < kN; ++i) EXPECT_EQ(got[i], 1000u + i);
}

}  // namespace
}  // namespace now::tmk
