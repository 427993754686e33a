#include "mpi/mpi.h"

#include <algorithm>

#include "common/worker_pool.h"

namespace now::mpi {

void MpiRuntime::run(const std::function<void(Comm&)>& fn) {
  std::vector<std::unique_ptr<Comm>> comms;
  comms.reserve(cfg_.num_ranks);
  for (std::uint32_t r = 0; r < cfg_.num_ranks; ++r)
    comms.push_back(std::make_unique<Comm>(*this, static_cast<int>(r)));

  clocks_.clear();
  for (auto& c : comms) clocks_.push_back(&c->clock());

  std::vector<PooledThread> threads;
  threads.reserve(cfg_.num_ranks);
  for (std::uint32_t r = 0; r < cfg_.num_ranks; ++r) {
    threads.emplace_back([&, r] {
      fn(*comms[r]);
    });
  }
  for (auto& t : threads) t.join();

  // Keep the final clocks readable after the comms are gone.
  final_times_.clear();
  for (auto& c : comms) final_times_.push_back(c->clock().now_ns());
  clocks_.clear();
}

std::uint64_t MpiRuntime::virtual_time_ns() const {
  std::uint64_t t = 0;
  for (sim::VirtualClock* c : clocks_) t = std::max(t, c->now_ns());
  for (std::uint64_t f : final_times_) t = std::max(t, f);
  return t;
}

void Comm::send(const void* buf, std::size_t bytes, int dst, int tag) {
  clock_.advance_us(rt_.config().net.send_overhead_us);
  sim::Message m;
  m.type = 1;
  m.src = static_cast<sim::NodeId>(rank_);
  m.dst = static_cast<sim::NodeId>(dst);
  m.seq = static_cast<std::uint64_t>(tag);
  m.send_ts_ns = clock_.now_ns();
  m.payload.assign(static_cast<const std::uint8_t*>(buf),
                   static_cast<const std::uint8_t*>(buf) + bytes);
  rt_.net().send(std::move(m));
}

int Comm::match_from_pending(void* buf, std::size_t bytes, int src, int tag) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if ((src == kAnySource || it->src == static_cast<sim::NodeId>(src)) &&
        it->seq == static_cast<std::uint64_t>(tag)) {
      NOW_CHECK_EQ(it->payload.size(), bytes)
          << "mpi recv size mismatch from " << src << " tag " << tag;
      std::memcpy(buf, it->payload.data(), bytes);
      clock_.advance_to_ns(it->arrive_ts_ns);
      clock_.advance_us(rt_.config().net.recv_overhead_us);
      const int actual = static_cast<int>(it->src);
      pending_.erase(it);
      return actual;
    }
  }
  return -1;
}

int Comm::recv(void* buf, std::size_t bytes, int src, int tag) {
  if (int actual = match_from_pending(buf, bytes, src, tag); actual >= 0)
    return actual;
  for (;;) {
    auto m = rt_.net().recv(static_cast<sim::NodeId>(rank_));
    NOW_CHECK(m.has_value()) << "network closed during recv";
    if ((src == kAnySource || m->src == static_cast<sim::NodeId>(src)) &&
        m->seq == static_cast<std::uint64_t>(tag)) {
      NOW_CHECK_EQ(m->payload.size(), bytes)
          << "mpi recv size mismatch from " << src << " tag " << tag;
      std::memcpy(buf, m->payload.data(), bytes);
      clock_.advance_to_ns(m->arrive_ts_ns);
      clock_.advance_us(rt_.config().net.recv_overhead_us);
      return static_cast<int>(m->src);
    }
    pending_.push_back(std::move(*m));
  }
}

Request Comm::isend(const void* buf, std::size_t bytes, int dst, int tag) {
  send(buf, bytes, dst, tag);  // eager + buffered: complete immediately
  return Request{};
}

Request Comm::irecv(void* buf, std::size_t bytes, int src, int tag) {
  Request r;
  r.is_recv_ = true;
  r.buf_ = buf;
  r.bytes_ = bytes;
  r.peer_ = src;
  r.tag_ = tag;
  r.done_ = false;
  return r;
}

void Comm::wait(Request& r) {
  if (r.done_) return;
  NOW_CHECK(r.is_recv_);
  recv(r.buf_, r.bytes_, r.peer_, r.tag_);
  r.done_ = true;
}

void Comm::waitall(std::vector<Request>& rs) {
  for (Request& r : rs) wait(r);
}

void Comm::sendrecv(const void* sendbuf, std::size_t sendbytes, int dst,
                    int sendtag, void* recvbuf, std::size_t recvbytes, int src,
                    int recvtag) {
  send(sendbuf, sendbytes, dst, sendtag);
  recv(recvbuf, recvbytes, src, recvtag);
}

}  // namespace now::mpi
