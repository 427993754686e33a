// Per-node virtual clocks.
//
// Each simulated workstation accumulates virtual time from two sources:
//   (a) application compute, which the program charges as counted work
//       units priced by TimeModel::compute_ns (the work it would have done
//       on the paper's hardware), and
//   (b) modeled communication/service delays from the network model.
// Synchronization transfers timestamps: a blocked receiver's clock jumps to
// the message arrival time.  The clock is atomic because a node's protocol
// service thread charges interrupt costs concurrently with the compute
// thread.
#pragma once

#include <atomic>
#include <cstdint>

#include "simnet/model.h"

namespace now::sim {

class VirtualClock {
 public:
  std::uint64_t now_ns() const { return ns_.load(std::memory_order_relaxed); }
  double now_us() const { return static_cast<double>(now_ns()) / 1000.0; }

  void advance_ns(std::uint64_t delta) {
    ns_.fetch_add(delta, std::memory_order_relaxed);
  }
  void advance_us(double us) {
    advance_ns(static_cast<std::uint64_t>(us * 1000.0));
  }

  // Clock never moves backwards: used when a message arrival or barrier
  // departure timestamp overtakes locally accumulated time.
  void advance_to_ns(std::uint64_t t) {
    std::uint64_t cur = ns_.load(std::memory_order_relaxed);
    while (cur < t &&
           !ns_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    }
  }

  void reset() { ns_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> ns_{0};
};

}  // namespace now::sim
