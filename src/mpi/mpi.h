// mini-MPI: the message-passing baseline the paper compares against.
//
// The paper's MPI versions ran on MPICH over TCP on the same 100 Mbps
// Ethernet.  This library provides the subset those applications need —
// blocking and non-blocking point-to-point with tag matching, and the
// classic collectives — over the same simulated network as the DSM, priced
// with TCP-like parameters.  Traffic counters feed the Table 2 comparison.
//
// Deviations from full MPI, documented here once:
//   - eager delivery with unbounded buffering (MPICH's eager protocol; our
//     mailboxes never push back);
//   - isend completes immediately (buffered); irecv matches at wait();
//   - receives specify the exact source and byte count (no MPI_ANY_SOURCE,
//     no truncation), which is all the five applications use.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "simnet/clock.h"
#include "simnet/network.h"

namespace now::mpi {

struct MpiConfig {
  std::uint32_t num_ranks = 8;
  sim::NetworkModel net = sim::NetworkModel::tcp_ethernet100();
  sim::TimeModel time;
};

enum class Op { kSum, kMin, kMax };

// Wildcard source for recv_any-style master/worker patterns.
inline constexpr int kAnySource = -1;

class Comm;

// A pending non-blocking operation.  isend is buffered and already complete;
// irecv performs its matching receive when waited on.
class Request {
 public:
  Request() = default;

 private:
  friend class Comm;
  bool is_recv_ = false;
  void* buf_ = nullptr;
  std::size_t bytes_ = 0;
  int peer_ = -1;
  int tag_ = 0;
  bool done_ = true;
};

class MpiRuntime {
 public:
  // The MPI transport models TCP (MPICH), which is reliable on its own:
  // the simnet reliability channel stays off regardless of the TMK_NET_*
  // chaos knobs (those are DSM-scoped — MPI ranks have no service thread
  // to drive retransmission).  Only send-side type validation is armed;
  // every MPI message travels as type 1.
  explicit MpiRuntime(MpiConfig cfg)
      : cfg_(cfg), net_(cfg.num_ranks, cfg.net, mpi_channel()) {}

  // Runs `fn` on every rank concurrently; returns when all ranks finish.
  void run(const std::function<void(Comm&)>& fn);

  const MpiConfig& config() const { return cfg_; }
  sim::Network& net() { return net_; }
  sim::TrafficSnapshot traffic() const { return net_.traffic(); }
  std::uint64_t virtual_time_ns() const;
  double virtual_time_us() const {
    return static_cast<double>(virtual_time_ns()) / 1000.0;
  }

 private:
  friend class Comm;
  static sim::ChannelConfig mpi_channel() {
    sim::ChannelConfig c;
    c.num_msg_types = 2;  // type 1 is the only MPI discriminator
    return c;
  }
  MpiConfig cfg_;
  sim::Network net_;
  std::vector<sim::VirtualClock*> clocks_;  // populated while run() is active
  std::vector<std::uint64_t> final_times_;  // clocks at the end of run()
};

// Per-rank communicator handle (the world communicator).
class Comm {
 public:
  Comm(MpiRuntime& rt, int rank) : rt_(rt), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(rt_.config().num_ranks); }
  sim::VirtualClock& clock() { return clock_; }
  // Charges `units` of application work, each worth `host_ns_per_unit` host
  // nanoseconds, to this rank's virtual clock (TimeModel::compute_ns).
  void compute(std::uint64_t units, double host_ns_per_unit) {
    clock_.advance_ns(rt_.config().time.compute_ns(units, host_ns_per_unit));
  }

  // ---- point to point ----
  void send(const void* buf, std::size_t bytes, int dst, int tag);
  // `src` may be kAnySource; returns the actual source.
  int recv(void* buf, std::size_t bytes, int src, int tag);
  Request isend(const void* buf, std::size_t bytes, int dst, int tag);
  Request irecv(void* buf, std::size_t bytes, int src, int tag);
  void wait(Request& r);
  void waitall(std::vector<Request>& rs);
  void sendrecv(const void* sendbuf, std::size_t sendbytes, int dst, int sendtag,
                void* recvbuf, std::size_t recvbytes, int src, int recvtag);

  // Typed convenience overloads.
  template <typename T>
  void send_t(const T* buf, std::size_t count, int dst, int tag) {
    send(buf, count * sizeof(T), dst, tag);
  }
  template <typename T>
  void recv_t(T* buf, std::size_t count, int src, int tag) {
    recv(buf, count * sizeof(T), src, tag);
  }

  // ---- collectives ----
  void barrier();
  void bcast(void* buf, std::size_t bytes, int root);
  void gather(const void* sendbuf, std::size_t bytes_per_rank, void* recvbuf, int root);
  void scatter(const void* sendbuf, std::size_t bytes_per_rank, void* recvbuf, int root);
  void alltoall(const void* sendbuf, std::size_t bytes_per_rank, void* recvbuf);
  void alltoallv(const void* sendbuf, const std::vector<std::size_t>& sendbytes,
                 void* recvbuf, const std::vector<std::size_t>& recvbytes);

  template <typename T>
  void reduce(const T* in, T* out, std::size_t count, Op op, int root);
  template <typename T>
  void allreduce(const T* in, T* out, std::size_t count, Op op);
  template <typename T>
  T allreduce_one(T value, Op op) {
    T out{};
    allreduce(&value, &out, 1, op);
    return out;
  }

 private:
  // Pops the next message for this rank, advancing virtual time; consults the
  // out-of-order buffer first.  Returns the source rank, or -1 for no match.
  int match_from_pending(void* buf, std::size_t bytes, int src, int tag);

  template <typename T>
  static void apply_op(T* acc, const T* in, std::size_t count, Op op) {
    for (std::size_t i = 0; i < count; ++i) {
      switch (op) {
        case Op::kSum: acc[i] += in[i]; break;
        case Op::kMin: acc[i] = in[i] < acc[i] ? in[i] : acc[i]; break;
        case Op::kMax: acc[i] = acc[i] < in[i] ? in[i] : acc[i]; break;
      }
    }
  }

  MpiRuntime& rt_;
  int rank_;
  sim::VirtualClock clock_;
  std::deque<sim::Message> pending_;  // arrived but not yet matched
};

// ---------------------------------------------------------------------------
// Template implementations
// ---------------------------------------------------------------------------

namespace detail {
// Collective tags live above any user tag.
inline constexpr int kTagBarrier = 1 << 24;
inline constexpr int kTagBcast = 2 << 24;
inline constexpr int kTagReduce = 3 << 24;
inline constexpr int kTagGather = 4 << 24;
inline constexpr int kTagScatter = 5 << 24;
inline constexpr int kTagAlltoall = 6 << 24;
}  // namespace detail

template <typename T>
void Comm::reduce(const T* in, T* out, std::size_t count, Op op, int root) {
  // Binomial tree toward `root` (rank roles are computed relative to root).
  const int n = size();
  const int me = (rank_ - root + n) % n;
  std::vector<T> acc(in, in + count);
  std::vector<T> incoming(count);
  for (int step = 1; step < n; step <<= 1) {
    if (me & step) {
      const int dst = (rank_ - step + n) % n;
      send(acc.data(), count * sizeof(T), dst, detail::kTagReduce + step);
      return;  // contributed; done
    }
    if (me + step < n) {
      const int src = (rank_ + step) % n;
      recv(incoming.data(), count * sizeof(T), src, detail::kTagReduce + step);
      apply_op(acc.data(), incoming.data(), count, op);
    }
  }
  std::memcpy(out, acc.data(), count * sizeof(T));
}

template <typename T>
void Comm::allreduce(const T* in, T* out, std::size_t count, Op op) {
  // MPICH-era composition: reduce to rank 0, then broadcast.
  if (rank_ == 0) {
    reduce(in, out, count, op, 0);
  } else {
    reduce(in, static_cast<T*>(nullptr), count, op, 0);
  }
  bcast(out, count * sizeof(T), 0);
}

}  // namespace now::mpi
