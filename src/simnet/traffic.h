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
  // The counters, listed once with their meanings in channel_stats.def.
#define NOW_CHAN_STAT(name) std::uint64_t name = 0;
#include "simnet/channel_stats.def"
#undef NOW_CHAN_STAT
  // Host us from first transmission to ack, for entries that needed a
  // retransmission (the wall-clock price of a loss).
  LatencyHistogram recovery_us;
  // Mailbox shutdown accounting (counted with or without the channel).
  std::uint64_t mailbox_dropped_after_close = 0;

  ChannelSnapshot& operator+=(const ChannelSnapshot& o) {
#define NOW_CHAN_STAT(name) name += o.name;
#include "simnet/channel_stats.def"
#undef NOW_CHAN_STAT
    recovery_us += o.recovery_us;
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
