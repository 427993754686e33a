// Both push keyings on one page: a page that is update-promoted at its
// writer (barrier keying) and a member of a lock's protected set (lock
// keying) at the same time.  The two keyings share one landing path, one
// armed state and one deny message, so these tests pin what must stay
// apart: a kPushDeny demotes the page under its own push key only — the
// lock key leaves the copyset promotion (and other locks' sets) in place,
// and the barrier key leaves the lock's set in place — while the bytes
// stay identical to the pull-only run.
#include <gtest/gtest.h>

#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

constexpr std::size_t kWpp = kPageSize / sizeof(std::uint64_t);
constexpr PageIndex kP = 1;  // gptr offset kPageSize: denied on lock 0
constexpr PageIndex kQ = 2;  // the next page: denied on the barrier key
constexpr std::size_t kEpochs = 8;

DsmConfig cfg(bool pushes) {
  DsmConfig c;
  c.num_nodes = 2;
  c.heap_bytes = 4 << 20;
  c.update_mode = pushes;
  c.lock_push_bytes = pushes ? 16 * 1024 : 0;
  c.time.cpu_scale = 0.0;
  // The demotion counts below are exact: pin a perfect wire so a lossy-wire
  // default cannot turn a push stale and shift which faults happen.
  c.net_fault = {};
  c.net_reliable = false;
  return c;
}

struct Admission {
  bool barrier = false;  // promoted in node 0's copyset
  bool lock0 = false;    // member of lock 0's protected set at node 0
  bool lock1 = false;    // member of lock 1's protected set at node 0
};

Admission admission(Node& node, PageIndex page) {
  return {node.push_admitted(Node::kBarrierPushKey, page),
          node.push_admitted(0, page), node.push_admitted(1, page)};
}

// Node 0 rewrites P and Q inside lock 0 and rewrites P again inside lock 1
// (both locks' protected sets gain the pages); node 1 reads both pages after
// every barrier (node 0's copyset promotes them).  With pushes on, node 1
// then denies P under lock 0 and Q under the barrier key, and node 0 checks
// which admissions survived.
void workload(Tmk& tmk, bool pushes, std::vector<Admission>* seen,
              std::vector<std::uint64_t>* out) {
  gptr<std::uint64_t> base(kP * kPageSize);
  volatile std::uint64_t sink = 0;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    if (tmk.id() == 0) {
      tmk.lock_acquire(0);
      for (std::size_t k = 0; k < 8; ++k) {
        base[k] = e * 1000 + k + 1;
        base[kWpp + k] = e * 1000 + k + 101;
      }
      tmk.lock_release(0);
      tmk.lock_acquire(1);
      base[8] = e + 1;
      tmk.lock_release(1);
    }
    tmk.barrier();
    if (tmk.id() == 1) sink += base[e % 8] + base[kWpp + e % 8];
    tmk.barrier();
  }
  (void)sink;
  if (pushes) {
    if (tmk.id() == 0) {
      seen->push_back(admission(tmk.node, kP));
      seen->push_back(admission(tmk.node, kQ));
    }
    tmk.barrier();  // no deny may overtake the check above
    // Same link as the barrier arrival that follows: node 0's service
    // thread demotes before the departure releases its compute thread.
    if (tmk.id() == 1) {
      tmk.node.push_deny(0, {{0, {kP}}});
      tmk.node.push_deny(Node::kBarrierPushKey, {{0, {kQ}}});
    }
    tmk.barrier();
    if (tmk.id() == 0) {
      seen->push_back(admission(tmk.node, kP));
      seen->push_back(admission(tmk.node, kQ));
    }
  }
  if (tmk.id() == 1)
    for (std::size_t k = 0; k < 9; ++k) {
      out->push_back(base[k]);
      out->push_back(base[kWpp + k]);
    }
}

TEST(PushEngine, OneDenyDemotesOnlyItsOwnKey) {
  std::vector<std::uint64_t> pull, push;
  std::vector<Admission> seen;
  DsmStatsSnapshot s;
  {
    DsmRuntime rt(cfg(false));
    rt.run_spmd([&](Tmk& tmk) { workload(tmk, false, nullptr, &pull); });
  }
  {
    DsmRuntime rt(cfg(true));
    rt.run_spmd([&](Tmk& tmk) { workload(tmk, true, &seen, &push); });
    s = rt.total_stats();
  }

  // Both keyings ran on the shared pages, and the bytes match pull-only.
  EXPECT_GT(s.update_pages_pushed, 0u);
  EXPECT_GT(s.update_push_hits, 0u);
  ASSERT_EQ(pull.size(), 18u);
  EXPECT_EQ(pull, push);

  ASSERT_EQ(seen.size(), 4u);
  const Admission& p_before = seen[0];
  const Admission& q_before = seen[1];
  const Admission& p_after = seen[2];
  const Admission& q_after = seen[3];
  // Before the denies each page is admitted under every key that saw it.
  EXPECT_TRUE(p_before.barrier);
  EXPECT_TRUE(p_before.lock0);
  EXPECT_TRUE(p_before.lock1);
  EXPECT_TRUE(q_before.barrier);
  EXPECT_TRUE(q_before.lock0);
  EXPECT_FALSE(q_before.lock1);  // lock 1's sections never touch Q

  // A lock-key deny demotes that lock's set entry only: the copyset
  // promotion and the other lock's membership stay.
  EXPECT_FALSE(p_after.lock0);
  EXPECT_TRUE(p_after.barrier);
  EXPECT_TRUE(p_after.lock1);
  // The reverse: a barrier-key deny demotes the copyset promotion only.
  EXPECT_FALSE(q_after.barrier);
  EXPECT_TRUE(q_after.lock0);

  // Exactly the two injected denies demoted anything.
  EXPECT_EQ(s.lock_push_demotions, 1u);
  EXPECT_EQ(s.update_demotions, 1u);
}

}  // namespace
}  // namespace now::tmk
