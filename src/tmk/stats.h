// DSM protocol statistics, per node and aggregated.  The counters
// themselves are listed once, with their meanings, in stats.def.
#pragma once

#include <atomic>
#include <cstdint>

namespace now::tmk {

struct DsmStatsSnapshot {
#define NOW_DSM_STAT(name) std::uint64_t name = 0;
#include "tmk/stats.def"
#undef NOW_DSM_STAT

  DsmStatsSnapshot& operator+=(const DsmStatsSnapshot& o) {
#define NOW_DSM_STAT(name) name += o.name;
#include "tmk/stats.def"
#undef NOW_DSM_STAT
    return *this;
  }
};

// Relaxed atomics: the compute and service threads of a node both count.
struct DsmStats {
#define NOW_DSM_STAT(name) std::atomic<std::uint64_t> name{0};
#include "tmk/stats.def"
#undef NOW_DSM_STAT

  DsmStatsSnapshot snapshot() const {
    DsmStatsSnapshot s;
#define NOW_DSM_STAT(name) s.name = name.load(std::memory_order_relaxed);
#include "tmk/stats.def"
#undef NOW_DSM_STAT
    return s;
  }
};

}  // namespace now::tmk
