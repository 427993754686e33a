// Lossy-wire overhead curve: one deterministic barrier workload, run over
// wires of increasing hostility, measuring what the retransmission channel
// costs and proving it changes no bytes.
//
// Legs:
//   off      — channel disabled (the pre-chaos perfect wire).  Messages,
//              payload and wire bytes must match bench/baselines/
//              chaos_overhead.json *exactly*: with every knob off this PR
//              must not move a single byte on the wire.
//   reliable — sequencing + acks on a clean wire: the protocol's zero-loss
//              overhead (piggybacked acks are free; only idle-link
//              standalone acks cost anything).
//   drop1    — 1% of transmissions vanish: ack requests, the retransmit
//              copies their answers prove necessary, and acks.
//   all      — drop 1% + dup 0.5% + reorder 1% + 200us jitter at once.
//
// Every leg must produce the same checksum — exactly-once delivery restores
// byte identity no matter the wire.  check_trajectory.py gates the off-leg
// identity and the drop-leg overhead ratio against the baselines file.
// Each leg also reports how losses were repaired (ack requests, fast
// retransmits) and what a loss cost in host time: p50/p90 of first
// transmission to ack, over the entries that needed a retransmission.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "tmk/tmk.h"

namespace {

using namespace now;

constexpr std::uint32_t kNodes = 8;
constexpr std::size_t kPages = 24;
constexpr std::size_t kWordsPerPage = tmk::kPageSize / sizeof(std::uint64_t);
constexpr std::size_t kWords = kPages * kWordsPerPage;
constexpr std::size_t kEpochs = 6;
constexpr std::size_t kReads = 96;
constexpr std::uint64_t kSeed = 20260808;

std::uint64_t mix(std::uint64_t stream, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = kSeed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                    (a * 0xbf58476d1ce4e5b9ULL) ^ (b * 0x94d049bb133111ebULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint32_t owner_of(std::size_t e, std::size_t w) {
  return static_cast<std::uint32_t>(mix(1, e, w) % kNodes);
}
bool writes(std::size_t e, std::size_t w) { return mix(2, e, w) % 2 == 0; }
std::uint64_t value_of(std::size_t e, std::size_t w) { return mix(3, e, w) | 1; }

struct Leg {
  const char* name;
  bool reliable;
  sim::FaultConfig fault;
};

struct LegResult {
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t checksum = 0;
  sim::ChannelSnapshot chan;
};

// The exact workload /tmp-probed for the pre-PR baseline: racy-free writes
// partitioned by owner, random reads, a barrier per epoch.  Fully
// deterministic — any checksum difference between legs is a protocol bug.
LegResult run(const Leg& leg) {
  tmk::DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = 4 << 20;
  c.time.cpu_scale = 0.0;
  // Every other knob keeps its default (main cleared the TMK_* env): each
  // leg measures exactly the wire it names.
  c.net_fault = leg.fault;
  c.net_reliable = leg.reliable;

  LegResult r;
  tmk::DsmRuntime rt(c);
  rt.run_spmd([&](tmk::Tmk& t) {
    tmk::gptr<std::uint64_t> data(tmk::kPageSize);
    const std::uint32_t id = t.id();
    std::uint64_t sink = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      for (std::size_t w = 0; w < kWords; ++w)
        if (owner_of(e, w) == id && writes(e, w)) data[w] = value_of(e, w);
      for (std::size_t i = 0; i < kReads; ++i)
        sink += data[mix(4, e, id * 1000 + i) % kWords];
      t.barrier();
    }
    if (sink == static_cast<std::uint64_t>(-1)) std::abort();
    if (id == 0) {
      std::uint64_t sum = 0;
      for (std::size_t w = 0; w < kWords; ++w)
        sum = sum * 1099511628211ULL + data[w];
      r.checksum = sum;
    }
  });

  const auto tr = rt.traffic();
  r.messages = tr.messages;
  r.payload_bytes = tr.payload_bytes;
  r.wire_bytes = tr.wire_bytes;
  r.chan = tr.chan;
  return r;
}

std::vector<Leg> legs() {
  sim::FaultConfig none;  // explicit all-off (ignores env defaults)
  none.drop_ppm = none.dup_ppm = none.reorder_ppm = 0;
  none.jitter_ns = 0;
  sim::FaultConfig drop1 = none;
  drop1.drop_ppm = 10000;
  drop1.seed = kSeed;
  sim::FaultConfig all = drop1;
  all.dup_ppm = 5000;
  all.reorder_ppm = 10000;
  all.jitter_ns = 200000;
  return {{"off", false, none},
          {"reliable", true, none},
          {"drop1", false, drop1},
          {"all", false, all}};
}

int chaos_json() {
  std::printf("{\n  \"chaos_overhead\": {\n"
              "    \"nodes\": %u,\n    \"epochs\": %zu,\n    \"legs\": {\n",
              kNodes, kEpochs);
  bool first = true;
  for (const Leg& leg : legs()) {
    const LegResult r = run(leg);
    std::printf("%s      \"%s\": {\"messages\": %llu, \"payload_bytes\": %llu, "
                "\"wire_bytes\": %llu, \"checksum\": %llu,\n"
                "        \"retransmits\": %llu, \"dup_drops\": %llu, "
                "\"reorder_holds\": %llu, \"acks_sent\": %llu, "
                "\"ack_wire_bytes\": %llu,\n"
                "        \"ack_requests\": %llu, \"fast_retransmits\": %llu, "
                "\"recovery_us_p50\": %llu, \"recovery_us_p90\": %llu}",
                first ? "" : ",\n", leg.name,
                (unsigned long long)r.messages,
                (unsigned long long)r.payload_bytes,
                (unsigned long long)r.wire_bytes,
                (unsigned long long)r.checksum,
                (unsigned long long)r.chan.retransmits,
                (unsigned long long)r.chan.dup_drops,
                (unsigned long long)r.chan.reorder_holds,
                (unsigned long long)r.chan.acks_sent,
                (unsigned long long)r.chan.ack_wire_bytes,
                (unsigned long long)r.chan.ack_requests,
                (unsigned long long)r.chan.fast_retransmits,
                (unsigned long long)r.chan.recovery_us.quantile(0.5),
                (unsigned long long)r.chan.recovery_us.quantile(0.9));
    first = false;
  }
  std::printf("\n    }\n  }\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  now::bench::clear_tmk_env();
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--json")) return chaos_json();

  std::printf("== Lossy wire: retransmission overhead, %u nodes x %zu epochs ==\n",
              kNodes, kEpochs);
  std::printf("%-10s %9s %11s %11s %8s %6s %8s %7s %6s %6s %7s %7s  %s\n",
              "leg", "messages", "payload", "wire", "retrans", "fast",
              "dupdrop", "reohold", "acks", "ackreq", "rec_p50", "rec_p90",
              "checksum");
  std::uint64_t off_wire = 0;
  for (const Leg& leg : legs()) {
    const LegResult r = run(leg);
    if (!std::strcmp(leg.name, "off")) off_wire = r.wire_bytes;
    std::printf("%-10s %9llu %11llu %11llu %8llu %6llu %8llu %7llu %6llu %6llu "
                "%7llu %7llu  %llu",
                leg.name, (unsigned long long)r.messages,
                (unsigned long long)r.payload_bytes,
                (unsigned long long)r.wire_bytes,
                (unsigned long long)r.chan.retransmits,
                (unsigned long long)r.chan.fast_retransmits,
                (unsigned long long)r.chan.dup_drops,
                (unsigned long long)r.chan.reorder_holds,
                (unsigned long long)r.chan.acks_sent,
                (unsigned long long)r.chan.ack_requests,
                (unsigned long long)r.chan.recovery_us.quantile(0.5),
                (unsigned long long)r.chan.recovery_us.quantile(0.9),
                (unsigned long long)r.checksum);
    if (off_wire != 0)
      std::printf("  (%.3fx wire)", (double)r.wire_bytes / (double)off_wire);
    std::printf("\n");
  }
  return 0;
}
