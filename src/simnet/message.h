// Typed messages exchanged between simulated workstations.
#pragma once

#include <cstdint>
#include <vector>

namespace now::sim {

using NodeId = std::uint32_t;

struct Message {
  std::uint16_t type = 0;   // protocol-defined discriminator (opaque here)
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t seq = 0;    // RPC matching token (0 = not a reply)
  std::uint64_t send_ts_ns = 0;    // sender's virtual clock at send
  std::uint64_t arrive_ts_ns = 0;  // send_ts + modeled transit (set by Network)
  // Reliability-channel header (set by the Channel when it is enabled; part
  // of the modeled UDP header, so it adds no wire bytes of its own).
  std::uint64_t ch_seq = 0;  // per-(src,dst) sequence, from 1 (0 = unsequenced)
  std::uint64_t ch_ack = 0;  // cumulative ack of the reverse link (0 = none)
  // Ack request (an unsequenced ack-type message): the highest ch_seq it
  // covers, asking the peer for an immediate answer (0 = not a request).
  std::uint64_t ch_areq = 0;
  // Answer to the reverse link's latest ack request, piggybacked on any
  // message: every covered ch_seq in (ch_ack, ch_echo] is missing at the
  // peer (0 = no answer).
  std::uint64_t ch_echo = 0;
  std::vector<std::uint8_t> payload;
};

}  // namespace now::sim
