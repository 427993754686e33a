// Unit tests for the reliability channel and the fault injector, driven
// through Network so the send/recv plumbing under test is the real one.
// Single-threaded where possible: one thread alternates try_recv on both
// endpoints, which is exactly what drives each side's maintenance
// (retransmits, standalone acks) in the absence of a service thread.
#include "simnet/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "simnet/network.h"

namespace now::sim {
namespace {

Message make(NodeId src, NodeId dst, std::uint16_t type, std::size_t payload,
             std::uint64_t send_ts = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = type;
  m.send_ts_ns = send_ts;
  m.payload.resize(payload);
  return m;
}

void breathe() { std::this_thread::sleep_for(std::chrono::microseconds(200)); }

// Whether the injector drops transmission n (from 1) on link src->dst: the
// same draw Channel::wire_send makes, so a test can pick a seed whose loss
// pattern forces one recovery path.
bool drops(const FaultConfig& f, NodeId src, NodeId dst, std::uint64_t n) {
  const std::uint64_t link = (static_cast<std::uint64_t>(src) << 32) | dst;
  const std::uint64_t base = fault_mix(f.seed ^ fault_mix(link) ^ n);
  return fault_mix(base ^ 0x9e3779b97f4a7c15ULL) % 1000000 < f.drop_ppm;
}

// Sequencing on a clean wire: surfaced messages carry consecutive per-link
// sequence numbers, and a reverse message's piggybacked cumulative ack
// drains the sender's retransmit queue with no standalone ack ever sent.
TEST(Channel, SequencesAndPiggybacksAcksOnReverseTraffic) {
  ChannelConfig chan;
  chan.reliable = true;
  // Pushed far out so neither fires during the test: the drain below must
  // come from the piggyback alone.
  chan.rto_host_us = 10'000'000;
  chan.ack_flush_host_us = 10'000'000;
  Network net(2, NetworkModel{}, chan);

  for (int i = 0; i < 3; ++i) net.send(make(0, 1, 1, 8));
  EXPECT_EQ(net.channel_unacked(0), 3u);
  for (std::uint64_t want = 1; want <= 3; ++want) {
    auto m = net.recv(1);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->ch_seq, want);
  }
  // The reverse message carries ack=3 for free.
  net.send(make(1, 0, 2, 8));
  ASSERT_TRUE(net.recv(0).has_value());
  EXPECT_EQ(net.channel_unacked(0), 0u);
  EXPECT_EQ(net.traffic().chan.acks_sent, 0u);
}

// An idle reverse link: the receiver owes an ack with nothing to piggyback
// it on, so after the flush timeout its maintenance emits a standalone ack
// message, which the sender's channel consumes — it must never surface.
TEST(Channel, StandaloneAckFlushedOnIdleReverseLink) {
  ChannelConfig chan;
  chan.reliable = true;
  chan.ack_type = 5;
  chan.num_msg_types = 6;
  chan.rto_host_us = 10'000'000;  // no retransmits: the ack must do it
  chan.ack_flush_host_us = 500;
  Network net(2, NetworkModel{}, chan);

  net.send(make(0, 1, 1, 8));
  ASSERT_TRUE(net.recv(1).has_value());
  EXPECT_EQ(net.channel_unacked(0), 1u);
  while (net.channel_unacked(0) != 0) {
    net.try_recv(1);  // receiver-side maintenance flushes the ack
    EXPECT_FALSE(net.try_recv(0).has_value());  // consumed, never surfaced
    breathe();
  }
  const auto t = net.traffic();
  EXPECT_GE(t.chan.acks_sent, 1u);
  EXPECT_EQ(t.chan.retransmits, 0u);
  // Attributed on the wire.  Ack requests travel as the ack type too: one
  // goes out if a loaded host lets the ack flush slip past the probe timeout.
  EXPECT_EQ(t.messages_by_type[5], t.chan.acks_sent + t.chan.ack_requests);
}

// A lossy link: ~20% of transmissions vanish, and the retransmission
// protocol still surfaces every message exactly once, in order.
TEST(Channel, DropsRecoveredExactlyOnceInOrder) {
  ChannelConfig chan;
  chan.fault.drop_ppm = 200000;
  chan.fault.seed = 7;
  Network net(2, NetworkModel{}, chan);

  constexpr std::uint64_t kCount = 100;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto m = make(0, 1, 1, 8);
    m.seq = i;
    net.send(std::move(m));
  }
  std::uint64_t got = 0;
  while (got < kCount) {
    if (auto m = net.try_recv(1)) {
      ASSERT_EQ(m->seq, got);
      ++got;
    }
    net.try_recv(0);  // sender-side maintenance: retransmit overdue entries
    breathe();
  }
  EXPECT_FALSE(net.try_recv(1).has_value());  // exactly once: nothing extra
  const auto t = net.traffic();
  EXPECT_GT(t.chan.drops_injected, 0u);
  EXPECT_GT(t.chan.retransmits, 0u);
  // Wire accounting counts every attempt: original sends + retransmits +
  // acks + ack requests, minus nothing for the drops (they were real
  // transmissions).
  EXPECT_EQ(t.messages, kCount + t.chan.retransmits + t.chan.acks_sent +
                            t.chan.ack_requests);
  EXPECT_LE(t.chan.fast_retransmits, t.chan.retransmits);
}

// Every transmission duplicated: the receiver dedups, surfacing each
// message once, and counts the discarded copies.
TEST(Channel, DuplicatesDiscardedBySequenceDedup) {
  ChannelConfig chan;
  chan.fault.dup_ppm = 1000000;  // 100%: every packet arrives twice
  chan.fault.seed = 7;
  Network net(2, NetworkModel{}, chan);

  constexpr std::uint64_t kCount = 10;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto m = make(0, 1, 1, 8);
    m.seq = i;
    net.send(std::move(m));
  }
  std::uint64_t got = 0;
  while (got < kCount) {
    if (auto m = net.try_recv(1)) {
      ASSERT_EQ(m->seq, got);
      ++got;
    }
    net.try_recv(0);
    breathe();
  }
  EXPECT_FALSE(net.try_recv(1).has_value());
  const auto t = net.traffic();
  EXPECT_GE(t.chan.dups_injected, kCount);
  EXPECT_GE(t.chan.dup_drops, kCount);
}

// Every transmission reordered: each packet parks until the link's next
// transmission overtakes it, so the raw wire delivers pairwise swapped.
// The receiver's gap hold restores FIFO, and the final parked packet is
// flushed by the ack request its silence draws (the liveness edge: the
// request is the "next transmission" that releases the limbo), long before
// an RTO could fire.
TEST(Channel, ReordersHeldAndReleasedInOrder) {
  ChannelConfig chan;
  chan.fault.reorder_ppm = 1000000;
  chan.fault.seed = 7;
  chan.rto_host_us = 10'000'000;
  Network net(2, NetworkModel{}, chan);

  const auto start = std::chrono::steady_clock::now();
  constexpr std::uint64_t kCount = 9;  // odd: the last packet parks alone
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto m = make(0, 1, 1, 8);
    m.seq = i;
    net.send(std::move(m));
  }
  std::uint64_t got = 0;
  while (got < kCount) {
    if (auto m = net.try_recv(1)) {
      ASSERT_EQ(m->seq, got);
      ++got;
    }
    net.try_recv(0);
    breathe();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::microseconds(chan.rto_host_us));
  const auto t = net.traffic();
  EXPECT_GT(t.chan.reorders_injected, 0u);
  EXPECT_GT(t.chan.reorder_holds, 0u);
  EXPECT_GE(t.chan.ack_requests, 1u);  // the lone parked tail drew one
}

// Fast path, lost data: a lone message dropped on an idle link.  With the
// RTO pushed out of reach, the only way back is one ack request whose
// answer names the message missing, and one retransmission.
TEST(Channel, LostMessageRepairedByOneAckRequest) {
  ChannelConfig chan;
  chan.reliable = true;
  chan.rto_host_us = 10'000'000;
  chan.fault.drop_ppm = 300000;
  chan.fault.seed = 1;
  // Find a seed whose first draw on 0->1 drops and whose next three (the
  // request, its answer on 1->0, the retransmission) all survive.
  while (!drops(chan.fault, 0, 1, 1) || drops(chan.fault, 0, 1, 2) ||
         drops(chan.fault, 1, 0, 1) || drops(chan.fault, 0, 1, 3))
    ++chan.fault.seed;
  Network net(2, NetworkModel{}, chan);

  const auto start = std::chrono::steady_clock::now();
  net.send(make(0, 1, 1, 8));
  EXPECT_EQ(net.traffic().chan.drops_injected, 1u);
  std::optional<Message> got;
  while (!(got = net.try_recv(1))) {
    net.try_recv(0);
    breathe();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
  EXPECT_EQ(got->ch_seq, 1u);
  const auto t = net.traffic();
  EXPECT_EQ(t.chan.ack_requests, 1u);
  EXPECT_EQ(t.chan.retransmits, 1u);
  EXPECT_EQ(t.chan.fast_retransmits, 1u);
}

// Fast path, held ack: the message arrives but the receiver's standalone
// ack is held back far past the probe timeout.  The ack request's answer
// carries the cumulative ack, so the sender's queue drains with nothing
// resent.
TEST(Channel, HeldBackAckSettledByAckRequestEcho) {
  ChannelConfig chan;
  chan.reliable = true;
  chan.ack_type = 5;
  chan.num_msg_types = 6;
  chan.rto_host_us = 10'000'000;
  chan.ack_flush_host_us = 10'000'000;
  Network net(2, NetworkModel{}, chan);

  net.send(make(0, 1, 1, 8));
  ASSERT_TRUE(net.recv(1).has_value());
  const auto start = std::chrono::steady_clock::now();
  while (net.channel_unacked(0) != 0) {
    EXPECT_FALSE(net.try_recv(0).has_value());  // the answer never surfaces
    net.try_recv(1);
    breathe();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
  const auto t = net.traffic();
  EXPECT_GE(t.chan.ack_requests, 1u);
  // With the flush out of reach, every standalone ack is an answer (one
  // answer may settle two requests if the host stalls past the timeout).
  EXPECT_GE(t.chan.acks_sent, 1u);
  EXPECT_LE(t.chan.acks_sent, t.chan.ack_requests);
  EXPECT_EQ(t.chan.retransmits, 0u);
}

// Liveness: repairs an answer proved necessary are not RTO expiries, so a
// live peer behind a very lossy wire is never declared down, even with a
// verdict threshold of three consecutive expiries.
TEST(Channel, LossyLinkNeverDeclaredDown) {
  ChannelConfig chan;
  chan.fault.drop_ppm = 200000;
  chan.fault.seed = 3;
  chan.max_retries = 3;
  Network net(2, NetworkModel{}, chan);
  bool down = false;
  net.set_node_down([&](NodeId) { down = true; });

  constexpr std::uint64_t kCount = 200;
  std::uint64_t got = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto m = make(0, 1, 1, 8);
    m.seq = i;
    net.send(std::move(m));
    if (auto r = net.try_recv(1)) {
      ASSERT_EQ(r->seq, got);
      ++got;
    }
    net.try_recv(0);
  }
  while (got < kCount && !down) {
    if (auto r = net.try_recv(1)) {
      ASSERT_EQ(r->seq, got);
      ++got;
    }
    net.try_recv(0);
    breathe();
  }
  EXPECT_FALSE(down);
  EXPECT_EQ(got, kCount);
  const auto t = net.traffic();
  EXPECT_GT(t.chan.fast_retransmits, 0u);
  EXPECT_EQ(t.chan.down_links, 0u);
}

// The verdict counts RTO expiries only.  One message: dropped, repaired by
// a fast retransmission that is dropped too, then two ack requests lost,
// so the RTO fires.  Had the repair counted as a retry, that first expiry
// would already exhaust a one-retry budget and declare a live peer down.
TEST(Channel, RepairsDoNotCountTowardDownVerdict) {
  ChannelConfig chan;
  chan.reliable = true;
  chan.max_retries = 1;
  chan.fault.drop_ppm = 300000;
  chan.fault.seed = 1;
  // 0->1 draws: data, request, repair, request, request, RTO retransmit;
  // 1->0: the one answer.
  const bool want[] = {true, false, true, true, true, false};
  const auto matches = [&] {
    for (std::uint64_t n = 1; n <= 6; ++n)
      if (drops(chan.fault, 0, 1, n) != want[n - 1]) return false;
    return !drops(chan.fault, 1, 0, 1);
  };
  while (!matches()) ++chan.fault.seed;
  Network net(2, NetworkModel{}, chan);
  bool down = false;
  net.set_node_down([&](NodeId) { down = true; });

  net.send(make(0, 1, 1, 8));
  std::optional<Message> got;
  while (!down && !(got = net.try_recv(1))) {
    net.try_recv(0);
    breathe();
  }
  EXPECT_FALSE(down);
  ASSERT_TRUE(got.has_value());
  const auto t = net.traffic();
  EXPECT_EQ(t.chan.fast_retransmits, 1u);
  EXPECT_EQ(t.chan.ack_requests, 3u);
  EXPECT_EQ(t.chan.retransmits, 2u);  // the repair + one RTO expiry
}

// Jitter delays arrivals within [0, jitter_ns), deterministically from the
// seed: two networks with identical knobs time-stamp identically.
TEST(Channel, JitterIsBoundedAndDeterministic) {
  ChannelConfig chan;
  chan.fault.jitter_ns = 5000;
  chan.fault.seed = 11;
  NetworkModel model;

  auto arrival = [&] {
    Network net(2, model, chan);
    net.send(make(0, 1, 1, 64, /*send_ts=*/1000));
    auto m = net.recv(1);
    EXPECT_TRUE(m.has_value());
    return m->arrive_ts_ns;
  };
  const std::uint64_t base = 1000 + model.transit_ns(64);
  const std::uint64_t a = arrival();
  EXPECT_GE(a, base);
  EXPECT_LT(a, base + chan.fault.jitter_ns);
  EXPECT_EQ(a, arrival());  // same seed, same draw, same wire
}

// Different seeds draw different fault schedules — the knob the chaos CI
// leg and the fuzzer turn to explore distinct loss patterns.
TEST(Channel, FaultStreamVariesWithSeed) {
  std::vector<bool> pattern[2];
  for (int s = 0; s < 2; ++s) {
    ChannelConfig chan;
    chan.fault.drop_ppm = 300000;
    chan.fault.seed = 100 + static_cast<std::uint64_t>(s);
    Network net(2, NetworkModel{}, chan);
    std::uint64_t dropped = 0;
    for (int i = 0; i < 64; ++i) {
      net.send(make(0, 1, 1, 8));
      const std::uint64_t now_dropped = net.traffic().chan.drops_injected;
      pattern[s].push_back(now_dropped != dropped);
      dropped = now_dropped;
    }
  }
  EXPECT_NE(pattern[0], pattern[1]);
}

// All knobs off: the channel is never constructed.  Messages travel the
// legacy path unsequenced and the channel counters stay zero — the
// pre-chaos wire, byte for byte.
TEST(Channel, DisabledChannelIsZeroCost) {
  ChannelConfig chan;  // reliable=false, no faults
  ASSERT_FALSE(chan.enabled());
  Network net(2, NetworkModel{}, chan);
  net.send(make(0, 1, 1, 100));
  auto m = net.recv(1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->ch_seq, 0u);
  EXPECT_EQ(m->ch_ack, 0u);
  EXPECT_EQ(net.channel_unacked(0), 0u);
  const auto t = net.traffic();
  EXPECT_EQ(t.messages, 1u);
  EXPECT_EQ(t.chan.retransmits, 0u);
  EXPECT_EQ(t.chan.acks_sent, 0u);
  EXPECT_EQ(t.chan.drops_injected, 0u);
}

}  // namespace
}  // namespace now::sim
