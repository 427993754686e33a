// Blocking rendezvous helpers between a node's compute thread and its
// protocol service thread.
//
// The compute thread issues requests and blocks; the service thread routes
// matching replies back.  This is the user-level analogue of TreadMarks'
// "request handler runs at SIGIO while the application blocks in the page
// fault handler".  Both helpers live under their node's protocol lock: every
// call is made with it held, and wait()/take() are where the compute thread
// gives it up while it blocks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "common/check.h"
#include "simnet/message.h"

namespace now::tmk {

// Thrown out of a poisoned rendezvous: some *other* node died, its reply
// will never come, and the compute thread must unwind so the runtime can
// roll the run back (or report a clean failure).  May propagate through a
// SIGSEGV frame — fetch_and_apply runs inside the fault handler — which is
// why the build carries -fnon-call-exceptions.
struct NodeDownError : std::runtime_error {
  explicit NodeDownError(std::uint32_t victim_id)
      : std::runtime_error("peer node down"), victim(victim_id) {}
  std::uint32_t victim;
};

// Thrown by the crash-injection site on the victim itself: this node is the
// one dying.  Distinct from NodeDownError so the runtime can tell the
// scripted death from a collateral unwind.
struct NodeCrashedError : std::runtime_error {
  NodeCrashedError() : std::runtime_error("injected node crash") {}
};

// What both helpers share: the lock they block on and the poison state.
// Poisoning: when the service thread learns a peer died, every pending and
// future wait must fail — the reply may simply never arrive.  poison()
// wakes all waiters; a waiter whose message already landed still gets it
// (the data is valid and keeping it reduces divergence), everyone else
// throws NodeDownError.
class Rendezvous {
 public:
  explicit Rendezvous(std::mutex& mu) : mu_(mu) {}

  void poison(std::uint32_t victim) {
    poisoned_ = true;
    victim_ = victim;
    cv_.notify_all();
  }

 protected:
  // Blocks until `ready()` or poisoned, with the caller's hold on mu_
  // released meanwhile and re-taken before returning.
  template <typename Ready>
  void block(Ready ready) {
    std::unique_lock<std::mutex> lock(mu_, std::adopt_lock);
    cv_.wait(lock, [&] { return poisoned_ || ready(); });
    lock.release();  // the caller's hold continues
  }

  std::mutex& mu_;
  std::condition_variable cv_;
  bool poisoned_ = false;
  std::uint32_t victim_ = 0;
};

// Seq-matched replies; supports several outstanding requests (a page fetch
// requests diffs from every writer in parallel).
class RpcClient : public Rendezvous {
 public:
  using Rendezvous::Rendezvous;

  std::uint64_t begin() {
    if (poisoned_) throw NodeDownError(victim_);
    const std::uint64_t seq = next_seq_++;
    pending_.emplace(seq, std::nullopt);
    return seq;
  }

  sim::Message wait(std::uint64_t seq) {
    auto it = pending_.find(seq);
    NOW_CHECK(it != pending_.end()) << "rpc wait without begin";
    block([&] { return it->second.has_value(); });
    if (!it->second.has_value()) {
      pending_.erase(it);
      throw NodeDownError(victim_);
    }
    sim::Message m = std::move(*it->second);
    pending_.erase(it);
    return m;
  }

  void fulfill(std::uint64_t seq, sim::Message&& m) {
    auto it = pending_.find(seq);
    NOW_CHECK(it != pending_.end()) << "unmatched rpc reply seq " << seq;
    it->second = std::move(m);
    cv_.notify_all();
  }

 private:
  std::uint64_t next_seq_ = 1;
  std::unordered_map<std::uint64_t, std::optional<sim::Message>> pending_;
};

// Single-slot wakeup for unsolicited messages the compute thread blocks on
// (lock grants, the next fork).  Queued messages drain before a poisoned
// take() throws.
class WaitSlot : public Rendezvous {
 public:
  using Rendezvous::Rendezvous;

  void post(sim::Message&& m) {
    queue_.push_back(std::move(m));
    cv_.notify_all();
  }

  sim::Message take() {
    block([&] { return !queue_.empty(); });
    if (queue_.empty()) throw NodeDownError(victim_);
    sim::Message m = std::move(queue_.front());
    queue_.pop_front();
    return m;
  }

 private:
  std::deque<sim::Message> queue_;
};

}  // namespace now::tmk
