// Blocking per-node message queue (the simulated NIC receive ring).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "simnet/message.h"

namespace now::sim {

class Mailbox {
 public:
  // Outcome of a bounded pop: a message, a timeout (the channel layer's cue
  // to run retransmit/ack maintenance), or closed-and-drained shutdown.
  enum class PopStatus { kMessage, kTimeout, kClosed };

  // A push racing `close()` is dropped, not enqueued: the box has already
  // been (or is being) drained, so a late message would sit in a queue
  // nobody pops — worse, a shutdown-order-dependent subset *would* be
  // popped.  Dropping is the simulated NIC losing a frame after the ring is
  // torn down; the count makes the race observable instead of silent.
  void push(Message&& m) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        ++dropped_after_close_;
        return;
      }
      queue_.push_back(std::move(m));
    }
    cv_.notify_one();
  }

  // Two back-to-back frames landing as one: a popper that sees `first`
  // finds `then` already queued behind it (the channel's reorder release,
  // whose parked packet must not trail its overtaker by a scheduling gap).
  void push_pair(Message&& first, Message&& then) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        dropped_after_close_ += 2;
        return;
      }
      queue_.push_back(std::move(first));
      queue_.push_back(std::move(then));
    }
    cv_.notify_one();
  }

  // Blocks until a message is available or the mailbox is closed.
  std::optional<Message> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    Message m = std::move(queue_.front());
    queue_.pop_front();
    return m;
  }

  // Bounded pop: like pop(), but gives up after `timeout` so the caller can
  // interleave time-based work (channel retransmissions, ack flushes) with
  // receiving.  Queued messages still drain after close (kMessage first,
  // kClosed only once empty), matching pop()'s shutdown semantics.
  PopStatus pop_for(Message& out, std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, timeout, [&] { return !queue_.empty() || closed_; });
    if (!queue_.empty()) {
      out = std::move(queue_.front());
      queue_.pop_front();
      return PopStatus::kMessage;
    }
    return closed_ ? PopStatus::kClosed : PopStatus::kTimeout;
  }

  std::optional<Message> try_pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return std::nullopt;
    Message m = std::move(queue_.front());
    queue_.pop_front();
    return m;
  }

  // Wakes all blocked poppers; subsequent pops drain the queue then return
  // nullopt.  Used for orderly node shutdown.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  std::uint64_t dropped_after_close() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_after_close_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool closed_ = false;
  std::uint64_t dropped_after_close_ = 0;
};

}  // namespace now::sim
