// The shared-memory arena: one mmap carved into per-node regions, plus the
// global registry that lets the process-wide SIGSEGV handler map a faulting
// address back to (runtime, node, page).
//
// Each simulated workstation owns a disjoint region; mprotect on that region
// plays the role of the per-machine page table in real TreadMarks.  Page
// contents start zero-filled on every node, which is exactly the TreadMarks
// initial condition (shared heap starts zeroed everywhere, and consistency
// tracks modifications only).
#pragma once

#include <cstddef>
#include <cstdint>

#include "tmk/config.h"

namespace now::tmk {

class DsmRuntime;

class Arena {
 public:
  // Maps num_nodes * heap_bytes of PROT_NONE anonymous memory.
  Arena(std::uint32_t num_nodes, std::size_t heap_bytes);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  std::uint8_t* region_base(std::uint32_t node) const {
    return base_ + static_cast<std::size_t>(node) * heap_bytes_;
  }
  std::size_t heap_bytes() const { return heap_bytes_; }
  std::uint32_t num_nodes() const { return num_nodes_; }

  bool contains(const void* addr) const {
    const auto* p = static_cast<const std::uint8_t*>(addr);
    return p >= base_ && p < base_ + total_bytes_;
  }
  std::uint32_t node_of(const void* addr) const;
  PageIndex page_of(const void* addr) const;

  // mprotect helpers for one page of one node's region.
  void protect_none(std::uint32_t node, PageIndex page) const;
  void protect_read(std::uint32_t node, PageIndex page) const;
  void protect_rw(std::uint32_t node, PageIndex page) const;

  // Crash recovery: returns one node's whole region to its initial state —
  // PROT_NONE, contents zero on next touch — without committing memory
  // (MADV_DONTNEED drops the resident pages; anonymous mappings refill with
  // zeros lazily).  Only safe while no thread can fault into the region.
  void reset_region(std::uint32_t node) const;

  std::uint8_t* page_ptr(std::uint32_t node, PageIndex page) const {
    return region_base(node) + static_cast<std::size_t>(page) * kPageSize;
  }

 private:
  std::uint32_t num_nodes_;
  std::size_t heap_bytes_;
  std::size_t total_bytes_;
  std::uint8_t* base_;
};

// Registry consulted by the SIGSEGV handler.  Installation is process-wide
// and happens once; multiple runtimes (sequential tests) register and
// unregister their arenas.
namespace fault {

// Installs the SIGSEGV handler (idempotent) and registers the runtime.
void register_runtime(DsmRuntime* rt);
void unregister_runtime(DsmRuntime* rt);

}  // namespace fault

}  // namespace now::tmk
