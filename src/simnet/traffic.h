// Traffic accounting: message and byte counters per node and per message type.
//
// These counters are the measurement substrate for the paper's Table 2
// ("Amount of data transmitted and number of messages in the OpenMP,
// TreadMarks and MPI versions of the applications").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace now::sim {

inline constexpr std::size_t kMaxMessageTypes = 64;

// Log-bucketed host-latency distribution in microseconds: exact below 4us,
// then four buckets per octave (a quantile reads its bucket's floor, within
// 19% of the sample), up to 2^24us.  Plain counts, so snapshots sum.
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 96;
  std::array<std::uint64_t, kBuckets> counts{};

  static std::size_t bucket(std::uint64_t us) {
    if (us < 4) return static_cast<std::size_t>(us);
    const unsigned octave = 63u - static_cast<unsigned>(__builtin_clzll(us));
    const std::size_t b = 4 * (octave - 1) + ((us >> (octave - 2)) & 3);
    return b < kBuckets ? b : kBuckets - 1;
  }
  static std::uint64_t floor_of(std::size_t b) {
    if (b < 4) return b;
    return (4 + b % 4) << (b / 4 - 1);
  }

  // The floor of the bucket holding the q-quantile sample; 0 when empty.
  std::uint64_t quantile(double q) const {
    std::uint64_t n = 0;
    for (std::uint64_t c : counts) n += c;
    if (n == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts[b];
      if (seen > rank) return floor_of(b);
    }
    return floor_of(kBuckets - 1);
  }

  LatencyHistogram& operator+=(const LatencyHistogram& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts[b] += o.counts[b];
    return *this;
  }
};

// Reliability-channel activity (sequencing, retransmission, fault injection).
// All zero when the channel is disabled — the default wire is perfect, so
// these counters are pure additions to the Table 2 measurement substrate.
struct ChannelSnapshot {
  // Faults the lossy wire injected (sender side, per transmission).
  std::uint64_t drops_injected = 0;
  std::uint64_t dups_injected = 0;
  std::uint64_t reorders_injected = 0;
  // The protocol's reactions.
  std::uint64_t retransmits = 0;           // transmissions re-sent (all paths)
  std::uint64_t retransmit_wire_bytes = 0;
  std::uint64_t ack_requests = 0;      // header-only probes for an immediate ack
  std::uint64_t fast_retransmits = 0;  // of retransmits: repairs an ack
                                       // request's answer proved missing
  // Host us from first transmission to ack, for entries that needed a
  // retransmission (the wall-clock price of a loss).
  LatencyHistogram recovery_us;
  std::uint64_t dup_drops = 0;             // receiver-side dedup discards
  std::uint64_t reorder_holds = 0;         // held for a missing predecessor
  std::uint64_t acks_sent = 0;             // standalone acks (idle reverse path)
  std::uint64_t ack_wire_bytes = 0;
  // Node-crash detection (probe_idle_host_us > 0, i.e. crash injection armed).
  std::uint64_t probes_sent = 0;       // keepalive probes on idle links
  std::uint64_t down_links = 0;        // links declared dead on retransmit
                                       // exhaustion (one per surviving
                                       // endpoint with traffic toward the
                                       // victim, not one per victim)
  std::uint64_t down_link_drops = 0;   // sends dropped toward a dead peer
  // Mailbox shutdown accounting (counted with or without the channel).
  std::uint64_t mailbox_dropped_after_close = 0;

  ChannelSnapshot& operator+=(const ChannelSnapshot& o) {
    drops_injected += o.drops_injected;
    dups_injected += o.dups_injected;
    reorders_injected += o.reorders_injected;
    retransmits += o.retransmits;
    retransmit_wire_bytes += o.retransmit_wire_bytes;
    ack_requests += o.ack_requests;
    fast_retransmits += o.fast_retransmits;
    recovery_us += o.recovery_us;
    dup_drops += o.dup_drops;
    reorder_holds += o.reorder_holds;
    acks_sent += o.acks_sent;
    ack_wire_bytes += o.ack_wire_bytes;
    probes_sent += o.probes_sent;
    down_links += o.down_links;
    down_link_drops += o.down_link_drops;
    mailbox_dropped_after_close += o.mailbox_dropped_after_close;
    return *this;
  }
};

struct TrafficSnapshot {
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;  // payload + per-message protocol headers
  std::array<std::uint64_t, kMaxMessageTypes> messages_by_type{};
  ChannelSnapshot chan;  // reliability-layer activity behind those totals

  double wire_mbytes() const {
    return static_cast<double>(wire_bytes) / (1024.0 * 1024.0);
  }

  TrafficSnapshot& operator+=(const TrafficSnapshot& o) {
    messages += o.messages;
    payload_bytes += o.payload_bytes;
    wire_bytes += o.wire_bytes;
    for (std::size_t i = 0; i < kMaxMessageTypes; ++i)
      messages_by_type[i] += o.messages_by_type[i];
    chan += o.chan;
    return *this;
  }
};

// Lock-free accumulation; sends happen on compute, service and manager paths
// concurrently.
class TrafficCounter {
 public:
  void record(std::uint16_t type, std::uint64_t payload, std::uint64_t wire) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_.fetch_add(payload, std::memory_order_relaxed);
    wire_bytes_.fetch_add(wire, std::memory_order_relaxed);
    if (type < kMaxMessageTypes)
      by_type_[type].fetch_add(1, std::memory_order_relaxed);
  }

  TrafficSnapshot snapshot() const {
    TrafficSnapshot s;
    s.messages = messages_.load(std::memory_order_relaxed);
    s.payload_bytes = payload_bytes_.load(std::memory_order_relaxed);
    s.wire_bytes = wire_bytes_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMaxMessageTypes; ++i)
      s.messages_by_type[i] = by_type_[i].load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    messages_.store(0, std::memory_order_relaxed);
    payload_bytes_.store(0, std::memory_order_relaxed);
    wire_bytes_.store(0, std::memory_order_relaxed);
    for (auto& c : by_type_) c.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> payload_bytes_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::array<std::atomic<std::uint64_t>, kMaxMessageTypes> by_type_{};
};

}  // namespace now::sim
