// Cost model for the simulated network of workstations.
//
// The paper's platform is eight 200 MHz Pentium Pros on switched full-duplex
// 100 Mbps Ethernet running FreeBSD.  TreadMarks talks UDP/IP, MPICH talks
// TCP.  We reproduce that wire with an analytic model: each message costs a
// fixed per-message latency plus payload/bandwidth, and every message carries
// the protocol header a real packet would (so byte counts match what a
// tcpdump of the original system would show).
//
// Default parameters follow the paper's Section 6 prose and the TreadMarks
// literature for this exact platform class:
//   - UDP/IP small-message round trip  ~130 us  => one-way latency 65 us
//   - TCP (MPICH) empty-message RTT    ~185 us  => one-way latency 92.5 us
//   - achievable TCP bandwidth         ~10.5 MB/s of the 12.5 MB/s raw line
//   - lock acquire 150..500 us, 8-processor barrier ~600 us, diff 30..80 us
//     (these fall out of the protocol + this model; bench_micro checks them)
#pragma once

#include <cstddef>
#include <cstdint>

namespace now::sim {

struct NetworkModel {
  double latency_us = 65.0;       // one-way per-message latency (wire + stack)
  double bandwidth_mbps = 88.0;   // achievable payload bandwidth, Mbit/s
  std::uint32_t header_bytes = 42;  // Ethernet+IP+UDP framing per message
  double send_overhead_us = 12.0;   // CPU time burned on the sending node
  double recv_overhead_us = 12.0;   // CPU time burned on the receiving node
  double service_overhead_us = 25.0;  // interrupt cost of servicing a request
                                      // ("numerous threads are interrupted
                                      // unnecessarily" -- paper, Sec. 3.2.4)

  // Wire time from the moment a message is posted until it is available at
  // the destination.
  double transit_us(std::size_t payload_bytes) const {
    const double bits = static_cast<double>(payload_bytes + header_bytes) * 8.0;
    return latency_us + bits / bandwidth_mbps;  // Mbit/s == bit/us
  }
  std::uint64_t transit_ns(std::size_t payload_bytes) const {
    return static_cast<std::uint64_t>(transit_us(payload_bytes) * 1000.0);
  }

  std::uint64_t wire_bytes(std::size_t payload_bytes) const {
    return payload_bytes + header_bytes;
  }

  // TreadMarks' transport on the paper platform.
  static NetworkModel udp_ethernet100() { return NetworkModel{}; }

  // MPICH's transport on the paper platform: higher per-message cost (TCP),
  // slightly better streaming bandwidth, bigger header.
  static NetworkModel tcp_ethernet100() {
    NetworkModel m;
    m.latency_us = 92.5;
    m.bandwidth_mbps = 84.0;
    m.header_bytes = 54;
    m.send_overhead_us = 15.0;
    m.recv_overhead_us = 15.0;
    return m;
  }
};

// Prices application compute.  Each application counts the work units its
// kernel performs (cells swept, butterflies, molecule pairs, ...) and charges
// them with the host nanoseconds one unit took on the host that calibrated
// it; cpu_scale converts those host nanoseconds into 200 MHz Pentium Pro
// nanoseconds.  The count, not the host's timing, decides the charge, so
// virtual compute is the same on a loaded and an idle host.  The default
// puts the compute/communication ratio -- which is what decides every
// speedup shape in the paper -- in the paper's regime with the bench
// workload sizes.  cpu_scale = 0 charges no compute at all (the protocol-
// only configuration every gated count uses).
struct TimeModel {
  double cpu_scale = 150.0;
  std::uint64_t compute_ns(std::uint64_t units, double host_ns_per_unit) const {
    return static_cast<std::uint64_t>(static_cast<double>(units) *
                                      host_ns_per_unit * cpu_scale);
  }
};

}  // namespace now::sim
