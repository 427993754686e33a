#include "tmk/runtime.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/check.h"
#include "common/log.h"
#include "common/worker_pool.h"
#include "tmk/msgs.h"

namespace now::tmk {

DsmRuntime::DsmRuntime(DsmConfig cfg)
    : cfg_(cfg),
      topo_(cfg),
      arena_(cfg.num_nodes, cfg.heap_bytes),
      net_(cfg.num_nodes, cfg.net, cfg.channel()) {
  NOW_CHECK_GT(cfg_.diff_cache_bytes_per_page, 0u)
      << "diff_cache_bytes_per_page must be > 0: the diff cache is always on";
  nodes_.reserve(cfg_.num_nodes);
  for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i)
    nodes_.push_back(std::make_unique<Node>(*this, i));
  fault::register_runtime(this);
  // Only armed alongside crash injection: the callback turns retransmit
  // exhaustion from a hard abort into a node-down verdict, and a fault-only
  // (non-crash) run must keep aborting loudly when the wire misbehaves
  // beyond what retransmission can absorb.
  if (cfg_.crash_enabled())
    net_.set_node_down([this](sim::NodeId v) { announce_node_down(v); });
  for (auto& n : nodes_) n->start_service();
}

DsmRuntime::~DsmRuntime() {
  net_.close_all();
  for (auto& n : nodes_) n->join_service();
  fault::unregister_runtime(this);
}

void DsmRuntime::handle_fault(void* addr) {
  nodes_[arena_.node_of(addr)]->handle_fault(addr);
}

RunReport DsmRuntime::run_spmd(const std::function<void(Tmk&)>& fn) {
  RunReport report;
  for (;;) {
    std::vector<PooledThread> threads;
    threads.reserve(cfg_.num_nodes);
    for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i) {
      threads.emplace_back([this, i, &fn] {
        Node& n = *nodes_[i];
        n.bind_compute_thread();
        Tmk tmk{n, *this};
        try {
          fn(tmk);
        } catch (const NodeCrashedError&) {
          // The scripted victim: its threads just stop.
        } catch (const NodeDownError&) {
          // Collateral unwind on a survivor.  Recovery (or the clean
          // failure report) starts only after every thread quiesced.
        }
        detail::region_base() = nullptr;  // the worker goes back to the pool
      });
    }
    for (auto& t : threads) t.join();
    if (!node_down_.load(std::memory_order_acquire)) return report;

    report.node_down = true;
    report.victim = node_down_victim_.load(std::memory_order_relaxed);
    if (!cfg_.ckpt_enabled()) {
      // No checkpoints to roll back to: report the failure cleanly.  The
      // runtime stays destructible (services exit on their closed
      // mailboxes) but the run's results are void.
      report.completed = false;
      return report;
    }
    NOW_CHECK_LT(recoveries_, kMaxRecoveries)
        << "crash recovery did not converge";
    recover_from_checkpoint();
    report.recoveries = recoveries_;
    report.resume_epoch = resume_epoch_;
  }
}

RunReport DsmRuntime::run_master(const std::function<void(Tmk&)>& program) {
  return run_spmd([this, &program](Tmk& tmk) {
    if (tmk.id() == topo_.master_node()) {
      program(tmk);
      tmk.node.shutdown_slaves();
    } else {
      while (tmk.node.slave_serve_one(tmk)) {
      }
    }
  });
}

void DsmRuntime::announce_node_down(std::uint32_t victim) {
  // First verdict wins; duplicates (several links exhausting at once, or the
  // victim's own closed links) change nothing.
  bool expected = false;
  if (!node_down_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel))
    return;
  node_down_victim_.store(victim, std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i) {
    if (i == victim) continue;
    sim::Message m;
    m.type = kNodeDown;
    m.src = i;  // self-addressed control: bypasses channel sequencing
    m.dst = i;
    ByteWriter w;
    w.u32(victim);
    m.payload = w.take();
    net_.post_control(std::move(m));
  }
}

void DsmRuntime::recover_from_checkpoint() {
  // Quiesce: compute threads are already joined (run_spmd), so closing the
  // mailboxes lets every service thread drain and exit.
  net_.close_all();
  for (auto& n : nodes_) n->join_service();

  // The crashed segment's work is real: carry its stats and clock forward
  // before the nodes (and their counters) are destroyed.
  std::uint64_t segment_barriers = 0;
  for (auto& n : nodes_) {
    DsmStatsSnapshot s = n->stats().snapshot();
    segment_barriers = std::max(segment_barriers, s.barriers);
    carried_stats_ += s;
    carried_vt_ = std::max(carried_vt_, n->clock().now_ns());
  }
  const std::uint64_t durable = ckpt_.durable_epoch();
  const std::uint64_t progressed = resume_epoch_ + segment_barriers;
  carried_stats_.rollback_epochs_lost +=
      progressed > durable ? progressed - durable : 0;
  carried_stats_.recoveries += 1;
  ++recoveries_;

  // Reboot the cluster: fresh nodes, fresh wire, zero heap.
  nodes_.clear();
  net_.reset();
  ckpt_.drop_staging();
  node_down_.store(false, std::memory_order_release);
  resume_epoch_ = durable;
  for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i)
    arena_.reset_region(i);
  for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i)
    nodes_.push_back(std::make_unique<Node>(*this, i));

  // Rehydrate from the durable image: every node starts with the checkpoint
  // bytes resident read-only — for the consistency protocol this is
  // indistinguishable from a fresh run whose zero-heap happened to contain
  // them.  Sema counts return to their managers, the allocator to its server.
  for (const auto& [page, bytes] : ckpt_.pages())
    for (auto& n : nodes_) n->rehydrate_page(page, bytes.data());
  for (const auto& [sid, count] : ckpt_.semas())
    nodes_[topo_.sema_manager(sid)]->mgr_.semas[sid].count = count;
  restore_allocator();
  for (auto& n : nodes_) n->start_service();
}

void DsmRuntime::restore_allocator() {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const AllocImage& img = ckpt_.alloc();
  if (!img.valid) {  // restart from scratch: nothing was ever durable
    alloc_bump_ = kHeapStart;
    alloc_live_.clear();
    alloc_free_.clear();
    return;
  }
  alloc_bump_ = img.bump;
  alloc_live_ = img.live;
  alloc_free_ = img.free_list;
}

void DsmRuntime::stage_alloc_image(std::uint64_t epoch) {
  AllocImage img;
  {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    img.bump = alloc_bump_;
    img.live = alloc_live_;
    img.free_list = alloc_free_;
  }
  ckpt_.stage_alloc(epoch, std::move(img));
}

void DsmRuntime::debug_dump() {
  for (auto& n : nodes_) n->debug_dump();
}

DsmStatsSnapshot DsmRuntime::total_stats() const {
  DsmStatsSnapshot total = carried_stats_;
  for (const auto& n : nodes_) total += n->stats().snapshot();
  return total;
}

std::uint64_t DsmRuntime::virtual_time_ns() const {
  std::uint64_t t = carried_vt_;
  for (const auto& n : nodes_) t = std::max(t, n->clock().now_ns());
  return t;
}

std::uint64_t DsmRuntime::allocator_alloc(std::size_t bytes, std::size_t align) {
  NOW_CHECK_GT(bytes, 0u);
  align = std::max<std::size_t>(align, 64);
  // Round sizes so freed blocks are reusable across similar requests.
  const std::size_t size = (bytes + align - 1) / align * align;

  std::lock_guard<std::mutex> lock(alloc_mu_);
  auto it = alloc_free_.find(size);
  if (it != alloc_free_.end() && !it->second.empty()) {
    const std::uint64_t off = it->second.back();
    it->second.pop_back();
    alloc_live_[off] = size;
    return off;
  }
  std::uint64_t off = (alloc_bump_ + align - 1) / align * align;
  NOW_CHECK_LE(off + size, cfg_.heap_bytes)
      << "shared heap exhausted: need " << size << " bytes at offset " << off
      << " of " << cfg_.heap_bytes;
  alloc_bump_ = off + size;
  alloc_live_[off] = size;
  return off;
}

void DsmRuntime::allocator_free(std::uint64_t offset) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  auto it = alloc_live_.find(offset);
  NOW_CHECK(it != alloc_live_.end()) << "free of unallocated offset " << offset;
  alloc_free_[it->second].push_back(offset);
  alloc_live_.erase(it);
}

}  // namespace now::tmk
