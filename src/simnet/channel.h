// Lossy-wire fault injection and the TreadMarks retransmission protocol that
// survives it.
//
// The paper's TreadMarks runs over UDP: an unreliable datagram wire made
// reliable by an operation-level retransmission protocol.  The default
// simnet wire is perfect, so that layer was assumed; this module reproduces
// both halves:
//
//  - FaultConfig injects per-link drop / duplicate / reorder / delay-jitter
//    faults, deterministically: every transmission on a (src, dst) link
//    draws from a counter-indexed hash of the seed, so a failing schedule
//    replays exactly from (seed, knobs) with no RNG state to capture.
//
//  - Channel restores exactly-once per-(src,dst) FIFO delivery on top of
//    the faulty wire, before any protocol handler runs: every non-local
//    message carries a per-link sequence number; the receiver dedups
//    (`ch_seq <= delivered`), holds out-of-order arrivals until the gap
//    fills, and acks cumulatively.  Acks piggyback on reverse traffic — any
//    message or retransmission the other direction carries the cumulative
//    ack for free — and a standalone ack message is sent only when the
//    reverse link has been idle past a flush timeout.
//
// Loss recovery is probe-then-repair, after TCP's tail-loss probe (RFC
// 8985).  The sender keeps unacked transmissions in a retransmit queue.
// When one of them stays unacked past the probe timeout, the sender sends
// a header-only ack request naming the highest sequence number it covers.
// The peer answers once it has drained its wire: its cumulative ack plus an
// echo marking the covered numbers it is still missing, piggybacked on
// whatever goes out to the sender next.  The wire is per-link FIFO, so a
// covered transmission the answer shows missing did not arrive: the sender
// retransmits exactly those entries at once, and never resends a payload on
// a guess.  A lost request or answer falls back to the host-clock RTO with
// exponential backoff, the only recovery path before (virtual clocks freeze
// while every thread blocks, so retransmission liveness cannot come from
// virtual time).  The modeled cost of a loss is charged separately and the
// same on both paths: each retransmission's virtual send time is re-stamped
// one virtual RTO after the previous attempt.
//
// Channel sequencing costs nothing when disabled: Network bypasses this
// module entirely and the wire is the same perfect wire as before.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "simnet/mailbox.h"
#include "simnet/message.h"
#include "simnet/model.h"
#include "simnet/traffic.h"

namespace now::sim {

// Stateless splitmix64 finalizer: the fault stream for transmission n on
// link (src, dst) is fault_mix(seed ^ fault_mix(link) ^ n) — identical
// draws for identical (seed, link, n), no shared state.
inline std::uint64_t fault_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Seeded per-link fault probabilities, all default off.  Probabilities are
// parts-per-million of *transmissions* (retransmissions draw again — a
// retransmitted packet can itself be lost).
struct FaultConfig {
  std::uint32_t drop_ppm = 0;     // transmission vanishes
  std::uint32_t dup_ppm = 0;      // delivered twice
  std::uint32_t reorder_ppm = 0;  // held back, delivered after the next one
  std::uint64_t jitter_ns = 0;    // extra arrival delay in [0, jitter_ns)
  std::uint64_t seed = 1;

  bool any() const {
    return drop_ppm != 0 || dup_ppm != 0 || reorder_ppm != 0 || jitter_ns != 0;
  }

  // The TMK_NET_* chaos knobs (config *defaults*, like every TMK_ knob:
  // code that assigns the field explicitly is immune).
  static FaultConfig from_env() {
    FaultConfig f;
    f.drop_ppm = static_cast<std::uint32_t>(env::env_size("TMK_NET_DROP_PPM", 0));
    f.dup_ppm = static_cast<std::uint32_t>(env::env_size("TMK_NET_DUP_PPM", 0));
    f.reorder_ppm =
        static_cast<std::uint32_t>(env::env_size("TMK_NET_REORDER_PPM", 0));
    f.jitter_ns = env::env_size("TMK_NET_JITTER_NS", 0);
    f.seed = env::env_size("TMK_NET_FAULT_SEED", 1);
    return f;
  }
};

struct ChannelConfig {
  // Sequencing + retransmission on even with a clean wire (measures the
  // protocol's zero-loss overhead).  Any injected fault forces it on — a
  // lossy wire without the protocol would simply corrupt the run.
  bool reliable = false;
  FaultConfig fault;

  // Discriminator standalone acks and ack requests are sent with (consumed
  // inside the channel, never surfaced to a handler) and the size of the
  // sender-side message-type table Network::send validates against (0 = no
  // validation, for protocol-agnostic uses of the raw simnet).
  std::uint16_t ack_type = 0;
  std::uint16_t num_msg_types = 0;

  // Host-clock pacing of the maintenance loop.  The RTO is the fallback
  // behind the ack request (see the header comment), which goes out once a
  // transmission is unacked past min(4 x ack_flush, 8 x quantum) — 2ms by
  // default: a delivered packet is normally acked within one flush plus one
  // quantum, and a request is answered within a quantum of its arrival.
  // The RTO covers a lost request or a lost answer.  It backs off
  // exponentially per expiry; max_retries bounds it loudly — with every
  // fault probability < 1, that many consecutive expiries with no answer
  // from the peer means the protocol (not the wire) is broken.  Repairs an
  // answer proved necessary count no expiry: the answer proves the peer
  // alive, so they reset the entry's count and backoff.
  // The RTO must comfortably exceed ack_flush + quantum + scheduling noise,
  // or a busy host manufactures spurious retransmits of already-delivered
  // messages (measured: 1ms RTO spuriously retransmitted ~20% of a clean
  // wire's messages under parallel test load; 8ms is quiet).
  std::uint32_t quantum_host_us = 250;    // recv poll + maintenance period
  std::uint32_t rto_host_us = 8000;       // initial retransmit timeout
  std::uint32_t ack_flush_host_us = 500;  // reverse-link idle before a bare ack
  std::uint32_t max_retries = 24;

  // Keepalive probes for node-crash detection (0 = off).  A link with prior
  // traffic in either direction that stays idle this long gets a sequenced
  // empty probe of type `probe_type`: it demands a cumulative ack like any
  // transmission, so a dead peer drives the probe's retransmit counter to
  // exhaustion even when no survivor happens to owe it real traffic (the
  // silent-crash-at-barrier-arrival hole — everyone already acked everything
  // the victim ever sent).  Probes advance the link sequence but are
  // filtered at in-order release: no handler ever sees one.
  std::uint32_t probe_idle_host_us = 0;
  std::uint16_t probe_type = 0;

  // Modeled (virtual-clock) cost of a loss: each retransmission is
  // re-stamped this much later than the previous attempt, so a dropped
  // packet charges its round-trip-scale recovery latency to the virtual
  // timeline even though the host-side retry pacing is invisible to it.
  std::uint64_t rto_virtual_ns = 1000000;

  bool enabled() const { return reliable || fault.any(); }
};

// Per-(src,dst) reliability channels for every node of one Network.
// Thread model: one endpoint per node, its mutex serializing that node's
// send path (compute + service threads) with its recv/maintenance path.
// Cross-endpoint interaction goes only through the thread-safe mailboxes,
// so no lock is ever held while taking another endpoint's.
class Channel {
 public:
  Channel(const ChannelConfig& cfg, NetworkModel model,
          std::vector<std::unique_ptr<Mailbox>>* boxes, TrafficCounter* traffic)
      : cfg_(cfg),
        model_(model),
        boxes_(boxes),
        traffic_(traffic),
        pto_(std::min<std::uint64_t>(4ull * cfg.ack_flush_host_us,
                                     8ull * cfg.quantum_host_us)) {
    eps_.reserve(boxes->size());
    for (std::size_t i = 0; i < boxes->size(); ++i)
      eps_.push_back(std::make_unique<Endpoint>(boxes->size()));
  }

  bool enabled() const { return cfg_.enabled(); }

  // Installs the node-down verdict sink.  With a handler installed,
  // retransmit exhaustion toward a peer marks that link dead and reports the
  // peer instead of aborting the process (the pre-crash-injection fail-fast
  // behavior, which remains the default).  Install before any traffic flows;
  // the handler is invoked with no channel lock held and must be idempotent
  // (every surviving endpoint with traffic toward the victim detects
  // independently).
  void set_node_down(std::function<void(NodeId)> handler) {
    node_down_ = std::move(handler);
  }

  // Non-local send: stamp the link sequence number, piggyback the reverse
  // link's cumulative ack (and any owed echo), queue a retransmit copy,
  // transmit through the fault injector.
  void send(Message&& m) {
    Endpoint& ep = *eps_[m.src];
    std::lock_guard<std::mutex> lock(ep.mu);
    TxLink& tx = ep.tx[m.dst];
    if (tx.peer_dead) {
      // The peer was declared down: its mailbox is gone and every
      // retransmission would just re-exhaust.  Model the NIC dropping the
      // frame at a dead port, observably.
      stats_.down_link_drops.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto now = Clock::now();
    if (cfg_.probe_idle_host_us != 0)
      tx.probe_due = now + std::chrono::microseconds(cfg_.probe_idle_host_us);
    m.ch_seq = ++tx.next_seq;
    piggyback(ep.rx[m.dst], m);
    track(tx, m, now);
    wire_send(tx, std::move(m));
  }

  // Blocking channel-aware receive: pops raw wire arrivals, reassembles
  // exactly-once per-link FIFO into the ready queue, and runs retransmit /
  // ack maintenance after each drain and whenever the wire goes quiet for a
  // quantum.
  std::optional<Message> recv(NodeId node) {
    Endpoint& ep = *eps_[node];
    Mailbox& box = *(*boxes_)[node];
    const auto quantum = std::chrono::microseconds(cfg_.quantum_host_us);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(ep.mu);
        if (!ep.ready.empty()) return pop_ready(ep);
      }
      Message raw;
      switch (box.pop_for(raw, quantum)) {
        case Mailbox::PopStatus::kMessage:
          // Drain first: maintenance judges each link (and answers ack
          // requests) on every arrival already queued, not on the one that
          // happened to pop first.
          ingest(node, std::move(raw));
          while (auto more = box.try_pop()) ingest(node, std::move(*more));
          break;
        case Mailbox::PopStatus::kClosed: {
          std::lock_guard<std::mutex> lock(ep.mu);
          if (!ep.ready.empty()) return pop_ready(ep);
          return std::nullopt;
        }
        case Mailbox::PopStatus::kTimeout:
          break;
      }
      maintain(node);
    }
  }

  std::optional<Message> try_recv(NodeId node) {
    Endpoint& ep = *eps_[node];
    while (auto raw = (*boxes_)[node]->try_pop()) ingest(node, std::move(*raw));
    maintain(node);
    std::lock_guard<std::mutex> lock(ep.mu);
    if (!ep.ready.empty()) return pop_ready(ep);
    return std::nullopt;
  }

  ChannelSnapshot snapshot() const {
    ChannelSnapshot s;
#define NOW_CHAN_STAT(name) s.name = stats_.name.load(std::memory_order_relaxed);
#include "simnet/channel_stats.def"
#undef NOW_CHAN_STAT
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
      s.recovery_us.counts[b] =
          stats_.recovery_us[b].load(std::memory_order_relaxed);
    return s;
  }

  void reset_stats() {
#define NOW_CHAN_STAT(name) stats_.name.store(0, std::memory_order_relaxed);
#include "simnet/channel_stats.def"
#undef NOW_CHAN_STAT
    for (auto& c : stats_.recovery_us) c.store(0, std::memory_order_relaxed);
  }

  // Test hook: transmissions of `node` not yet cumulatively acked.
  std::size_t unacked_total(NodeId node) const {
    Endpoint& ep = *eps_[node];
    std::lock_guard<std::mutex> lock(ep.mu);
    std::size_t n = 0;
    for (const TxLink& tx : ep.tx) n += tx.unacked.size();
    return n;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct TxEntry {
    Message msg;  // as stamped at first transmission
    std::uint32_t retries = 0;     // consecutive RTO expiries
    std::uint64_t virtual_ts = 0;  // virtual send time of the last attempt
    Clock::time_point next_due;    // RTO deadline
    Clock::time_point first_sent;
    Clock::time_point sent_at;     // last attempt (== first_sent: never resent)
    bool probed = false;  // an ack request went out after the last attempt
  };
  struct TxLink {  // this node -> dst
    std::uint64_t next_seq = 0;
    std::uint64_t fault_draws = 0;  // transmissions attempted (fault stream pos)
    std::deque<TxEntry> unacked;
    std::optional<Message> limbo;  // reorder: held until the next transmission
    bool peer_dead = false;        // retransmit exhaustion verdict delivered
    Clock::time_point probe_due{};  // next keepalive, lazily armed
    Clock::time_point areq_due{};   // earliest next ack request
    std::uint32_t areq_unanswered = 0;  // requests since the last echo
  };
  struct RxLink {  // src -> this node
    std::uint64_t delivered = 0;  // highest in-order ch_seq surfaced
    std::map<std::uint64_t, Message> held;
    bool ack_owed = false;
    Clock::time_point ack_due;
    std::uint64_t areq_heard = 0;  // request ingested in the current drain
    std::uint64_t areq_owed = 0;   // request to answer on the next message
  };
  struct Endpoint {
    explicit Endpoint(std::size_t n) : tx(n), rx(n) {}
    mutable std::mutex mu;
    std::vector<TxLink> tx;
    std::vector<RxLink> rx;
    std::deque<Message> ready;  // exactly-once per-link FIFO, handler-visible
    Clock::time_point next_maintain{};
  };
  struct Stats {
#define NOW_CHAN_STAT(name) std::atomic<std::uint64_t> name{0};
#include "simnet/channel_stats.def"
#undef NOW_CHAN_STAT
    std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets>
        recovery_us{};
  };

  Message pop_ready(Endpoint& ep) {  // ep.mu held
    Message m = std::move(ep.ready.front());
    ep.ready.pop_front();
    return m;
  }

  std::chrono::microseconds rto_after(std::uint32_t retries) const {
    return std::chrono::microseconds(
        static_cast<std::uint64_t>(cfg_.rto_host_us)
        << std::min<std::uint32_t>(retries, 10));
  }

  // Queues the retransmit copy of a first transmission.
  void track(TxLink& tx, const Message& m, Clock::time_point now) {
    TxEntry e;
    e.msg = m;  // payload copy kept until acked
    e.virtual_ts = m.send_ts_ns;
    e.first_sent = e.sent_at = now;
    e.next_due = now + rto_after(0);
    tx.unacked.push_back(std::move(e));
  }

  // Stamps the reverse link's state onto an outgoing message: the
  // cumulative ack (settling any owed standalone ack) and, when an ack
  // request awaits its answer, the echo.  The echo is clipped below the
  // first held arrival, so (ch_ack, ch_echo] names only covered numbers
  // this node has not received at all.
  void piggyback(RxLink& rx, Message& m) {  // ep.mu held
    m.ch_ack = rx.delivered;
    m.ch_echo = rx.areq_owed;
    if (m.ch_echo != 0 && !rx.held.empty())
      m.ch_echo = std::min(m.ch_echo, rx.held.begin()->first - 1);
    rx.ack_owed = false;
    rx.areq_owed = 0;
  }

  // Re-sends an unacked entry (RTO expiry or proven loss), one virtual RTO
  // after its previous attempt.
  void retransmit(Endpoint& ep, NodeId dst, TxEntry& e, Clock::time_point now) {
    e.sent_at = now;
    e.probed = false;
    e.next_due = now + rto_after(e.retries);
    e.virtual_ts += cfg_.rto_virtual_ns;
    Message copy = e.msg;
    copy.send_ts_ns = e.virtual_ts;
    piggyback(ep.rx[dst], copy);  // refreshed: this is reverse traffic
    stats_.retransmits.fetch_add(1, std::memory_order_relaxed);
    stats_.retransmit_wire_bytes.fetch_add(
        model_.wire_bytes(copy.payload.size()), std::memory_order_relaxed);
    wire_send(ep.tx[dst], std::move(copy));
  }

  // One transmission attempt on the wire, through the fault injector.
  // Caller holds the *sender's* endpoint mutex; only the (thread-safe)
  // destination mailbox is touched beyond it.  Traffic is recorded per
  // attempt: duplicates and retransmissions are real packets on the real
  // wire, which is exactly the overhead Table 2 should see.
  void wire_send(TxLink& tx, Message&& m) {
    traffic_->record(m.type, m.payload.size(),
                     model_.wire_bytes(m.payload.size()));
    const FaultConfig& f = cfg_.fault;
    if (!f.any()) {
      deliver(tx, std::move(m), 0, false);
      return;
    }
    const std::uint64_t link =
        (static_cast<std::uint64_t>(m.src) << 32) | m.dst;
    const std::uint64_t base =
        fault_mix(f.seed ^ fault_mix(link) ^ ++tx.fault_draws);
    const auto draw = [base](std::uint64_t stream) {
      return fault_mix(base ^ (stream * 0x9e3779b97f4a7c15ULL));
    };
    if (f.drop_ppm != 0 && draw(1) % 1000000 < f.drop_ppm) {
      stats_.drops_injected.fetch_add(1, std::memory_order_relaxed);
      return;  // vanished; a held reorder victim (if any) stays held
    }
    const bool dup = f.dup_ppm != 0 && draw(2) % 1000000 < f.dup_ppm;
    const bool reorder = f.reorder_ppm != 0 && draw(3) % 1000000 < f.reorder_ppm;
    const std::uint64_t jitter =
        f.jitter_ns != 0 ? draw(4) % f.jitter_ns : 0;
    if (dup) {
      Message copy = m;
      traffic_->record(copy.type, copy.payload.size(),
                       model_.wire_bytes(copy.payload.size()));
      stats_.dups_injected.fetch_add(1, std::memory_order_relaxed);
      deliver(tx, std::move(copy), jitter, false);
    }
    deliver(tx, std::move(m), jitter, reorder);
  }

  // Physical delivery with the link's reorder hold-back: a reordered packet
  // parks in limbo and rides out right *after* the link's next delivery
  // (liveness: an unacked parked packet draws an ack request, and that
  // request is itself the next transmission that flushes the limbo).  The
  // pair lands as one, so the receiver's drain sees the parked packet before
  // it answers the request that overtook it.
  void deliver(TxLink& tx, Message&& m, std::uint64_t extra_ns, bool reorder) {
    m.arrive_ts_ns =
        m.send_ts_ns + model_.transit_ns(m.payload.size()) + extra_ns;
    if (reorder && !tx.limbo.has_value()) {
      stats_.reorders_injected.fetch_add(1, std::memory_order_relaxed);
      tx.limbo = std::move(m);
      return;
    }
    Mailbox& box = *(*boxes_)[m.dst];
    if (!tx.limbo.has_value()) {
      box.push(std::move(m));
      return;
    }
    Message held = std::move(*tx.limbo);
    tx.limbo.reset();
    box.push_pair(std::move(m), std::move(held));
  }

  // Receiver-side reassembly: ack and echo application, ack-request
  // intake, dedup, gap hold, in-order release into the ready queue.
  void ingest(NodeId node, Message&& m) {
    Endpoint& ep = *eps_[node];
    std::lock_guard<std::mutex> lock(ep.mu);
    if (m.src == m.dst) {  // local fast path was never sequenced
      ep.ready.push_back(std::move(m));
      return;
    }
    TxLink& tx = ep.tx[m.src];
    RxLink& rx = ep.rx[m.src];
    // Cumulative ack for our own transmissions toward m.src (piggybacked on
    // every message, including duplicates and pure acks).
    while (!tx.unacked.empty() && tx.unacked.front().msg.ch_seq <= m.ch_ack) {
      const TxEntry& e = tx.unacked.front();
      if (e.sent_at != e.first_sent) record_recovery(e);
      tx.unacked.pop_front();
    }
    if (m.ch_echo != 0) repair(ep, m.src, m.ch_echo);
    if (m.ch_seq == 0) {
      // Unsequenced: a standalone ack or ack request (consumed here) or a
      // message sent before the channel was enabled — surfaced as-is.
      if (m.type != cfg_.ack_type) {
        ep.ready.push_back(std::move(m));
      } else if (m.ch_areq != 0) {
        // Answered after this drain (maintain), never mid-drain: a parked
        // packet landing right behind the request must count as received.
        rx.areq_heard = std::max(rx.areq_heard, m.ch_areq);
        ep.next_maintain = {};
      }
      return;
    }
    if (m.ch_seq <= rx.delivered) {
      // Duplicate of something already surfaced (injected dup, or a
      // retransmission whose original made it).  Re-arm the ack so the
      // sender stops retransmitting.
      stats_.dup_drops.fetch_add(1, std::memory_order_relaxed);
      owe_ack(rx);
      return;
    }
    if (m.ch_seq == rx.delivered + 1) {
      rx.delivered = m.ch_seq;
      release(ep, std::move(m));
      auto it = rx.held.begin();
      while (it != rx.held.end() && it->first == rx.delivered + 1) {
        rx.delivered = it->first;
        release(ep, std::move(it->second));
        it = rx.held.erase(it);
      }
      owe_ack(rx);
      return;
    }
    // Gap: a predecessor is missing (reordered or dropped).  Hold until it
    // arrives or is retransmitted.
    if (rx.held.emplace(m.ch_seq, std::move(m)).second)
      stats_.reorder_holds.fetch_add(1, std::memory_order_relaxed);
    else
      stats_.dup_drops.fetch_add(1, std::memory_order_relaxed);
    owe_ack(rx);
  }

  // An answer from `dst` (acks already applied): every entry up to the echo
  // that is still unacked and untouched since the request went out did not
  // arrive — retransmit it now.  The answer proves the peer alive, so the
  // repair resets the entry's RTO count and backoff.
  void repair(Endpoint& ep, NodeId dst, std::uint64_t echo) {  // ep.mu held
    TxLink& tx = ep.tx[dst];
    tx.areq_unanswered = 0;
    const auto now = Clock::now();
    for (TxEntry& e : tx.unacked) {
      if (e.msg.ch_seq > echo) break;
      if (!e.probed) continue;  // re-sent since the request: still in flight
      e.retries = 0;
      stats_.fast_retransmits.fetch_add(1, std::memory_order_relaxed);
      retransmit(ep, dst, e, now);
    }
  }

  void record_recovery(const TxEntry& e) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - e.first_sent)
                        .count();
    stats_.recovery_us[LatencyHistogram::bucket(static_cast<std::uint64_t>(us))]
        .fetch_add(1, std::memory_order_relaxed);
  }

  // In-order release into the handler-visible queue.  Keepalive probes took
  // part in the sequencing (they demand acks — that is their whole job) but
  // carry nothing for a handler.
  void release(Endpoint& ep, Message&& m) {  // ep.mu held
    if (cfg_.probe_type != 0 && m.type == cfg_.probe_type) return;
    ep.ready.push_back(std::move(m));
  }

  void owe_ack(RxLink& rx) {
    if (rx.ack_owed) return;
    rx.ack_owed = true;
    rx.ack_due = Clock::now() + std::chrono::microseconds(cfg_.ack_flush_host_us);
  }

  // Host-paced maintenance: answer the ack requests the last drain heard,
  // retransmit RTO-expired transmissions (exponential backoff), send ack
  // requests for links with a transmission unacked past the probe timeout,
  // emit keepalive probes on idle links, and flush acks whose reverse link
  // stayed idle.  Node-down verdicts are collected under the lock and
  // delivered after it drops: the handler pushes into other nodes'
  // mailboxes, and no lock may be held across that.
  void maintain(NodeId node) {
    std::vector<NodeId> dead;
    maintain_locked(node, dead);
    for (NodeId d : dead) node_down_(d);
  }

  void maintain_locked(NodeId node, std::vector<NodeId>& dead) {
    Endpoint& ep = *eps_[node];
    std::lock_guard<std::mutex> lock(ep.mu);
    const auto now = Clock::now();
    if (now < ep.next_maintain) return;
    ep.next_maintain = now + std::chrono::microseconds(cfg_.quantum_host_us);
    // A heard request's answer rides on the first message out to the
    // requester, at the latest the ack flushed below.  A covered gap is
    // answered now: the requester's repair waits on it.  Otherwise the
    // answer only settles acks, so it may wait a quantum for outgoing
    // traffic (typically the reply to a request the ack request flushed
    // out of reorder limbo) to carry it.
    for (RxLink& rx : ep.rx) {
      if (rx.areq_heard == 0) continue;
      rx.areq_owed = std::max(rx.areq_owed, rx.areq_heard);
      rx.areq_heard = 0;
      const auto due =
          rx.areq_owed > rx.delivered
              ? now
              : now + std::chrono::microseconds(std::min(
                          cfg_.ack_flush_host_us, cfg_.quantum_host_us));
      if (!rx.ack_owed || due < rx.ack_due) rx.ack_due = due;
      rx.ack_owed = true;
    }
    for (NodeId dst = 0; dst < ep.tx.size(); ++dst) {
      TxLink& tx = ep.tx[dst];
      if (tx.peer_dead) continue;
      bool overdue = false;  // some transmission unacked past the probe timeout
      for (TxEntry& e : tx.unacked) {
        if (now >= e.next_due) {
          if (e.retries >= cfg_.max_retries && node_down_) {
            // Verdict, not abort: with a crash handler installed, exhaustion
            // means the peer is gone.  Drop the link's backlog (nothing will
            // ever ack it) and report once the lock is released.
            tx.peer_dead = true;
            tx.unacked.clear();
            stats_.down_links.fetch_add(1, std::memory_order_relaxed);
            dead.push_back(dst);
            break;  // the clear invalidated the iterator
          }
          NOW_CHECK_LT(e.retries, cfg_.max_retries)
              << "channel " << node << "->" << dst << " seq " << e.msg.ch_seq
              << " (type " << e.msg.type << ") still unacked after "
              << e.retries << " retransmissions — ack path broken";
          ++e.retries;
          retransmit(ep, dst, e, now);
        }
        overdue = overdue || now - e.sent_at >= pto_;
      }
      if (tx.peer_dead) continue;
      // Ack request: one per probe timeout while a transmission is overdue,
      // backing off to one per RTO while the peer stays silent.
      if (overdue && now >= tx.areq_due) {
        Message r;
        r.type = cfg_.ack_type;
        r.src = node;
        r.dst = dst;
        r.ch_areq = tx.next_seq;
        piggyback(ep.rx[dst], r);
        for (TxEntry& e : tx.unacked) e.probed = true;
        const std::chrono::microseconds backoff(
            pto_.count() << std::min<std::uint32_t>(tx.areq_unanswered, 16));
        tx.areq_due = now + std::min(backoff, rto_after(0));
        ++tx.areq_unanswered;
        stats_.ack_requests.fetch_add(1, std::memory_order_relaxed);
        wire_send(tx, std::move(r));
      }
      // Keepalive probe on an idle active link (crash detection armed).
      // Built inline — send() takes ep.mu, which is already held — and only
      // while nothing is in flight: an unacked transmission already demands
      // an ack, so a probe would add nothing but wire noise.
      if (cfg_.probe_idle_host_us != 0 && dst != node && tx.unacked.empty() &&
          (tx.next_seq != 0 || ep.rx[dst].delivered != 0)) {
        if (tx.probe_due == Clock::time_point{}) {
          tx.probe_due =
              now + std::chrono::microseconds(cfg_.probe_idle_host_us);
        } else if (now >= tx.probe_due) {
          tx.probe_due =
              now + std::chrono::microseconds(cfg_.probe_idle_host_us);
          Message p;
          p.type = cfg_.probe_type;
          p.src = node;
          p.dst = dst;
          // Probes never surface to a handler, so like pure acks they carry
          // no plausible virtual time.
          p.ch_seq = ++tx.next_seq;
          piggyback(ep.rx[dst], p);  // the probe carries the ack
          track(tx, p, now);
          stats_.probes_sent.fetch_add(1, std::memory_order_relaxed);
          wire_send(tx, std::move(p));
        }
      }
    }
    for (NodeId src = 0; src < ep.rx.size(); ++src) {
      RxLink& rx = ep.rx[src];
      if (!rx.ack_owed || now < rx.ack_due) continue;
      Message a;
      a.type = cfg_.ack_type;
      a.src = node;
      a.dst = src;
      piggyback(rx, a);
      // Pure acks never surface to a handler, so their virtual timestamps
      // advance no clock; stamp zero rather than invent a plausible time.
      stats_.acks_sent.fetch_add(1, std::memory_order_relaxed);
      stats_.ack_wire_bytes.fetch_add(model_.wire_bytes(0),
                                      std::memory_order_relaxed);
      wire_send(ep.tx[src], std::move(a));
    }
  }

  ChannelConfig cfg_;
  NetworkModel model_;
  std::vector<std::unique_ptr<Mailbox>>* boxes_;
  TrafficCounter* traffic_;
  std::chrono::microseconds pto_;  // probe timeout (see ChannelConfig)
  std::vector<std::unique_ptr<Endpoint>> eps_;
  Stats stats_;
  std::function<void(NodeId)> node_down_;  // verdict sink; empty = fail fast
};

}  // namespace now::sim
