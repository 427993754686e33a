#include "tmk/arena.h"

#include <signal.h>
#include <sys/mman.h>

#include <array>
#include <atomic>
#include <cstring>
#include <mutex>

#include "common/check.h"
#include "tmk/runtime.h"

namespace now::tmk {

Arena::Arena(std::uint32_t num_nodes, std::size_t heap_bytes)
    : num_nodes_(num_nodes),
      heap_bytes_(heap_bytes),
      total_bytes_(static_cast<std::size_t>(num_nodes) * heap_bytes) {
  NOW_CHECK_GT(num_nodes, 0u);
  NOW_CHECK_EQ(heap_bytes % kPageSize, 0u) << "heap size must be page aligned";
  void* p = ::mmap(nullptr, total_bytes_, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  NOW_CHECK(p != MAP_FAILED) << "mmap of shared arena failed";
  base_ = static_cast<std::uint8_t*>(p);
}

Arena::~Arena() { ::munmap(base_, total_bytes_); }

std::uint32_t Arena::node_of(const void* addr) const {
  const auto off = static_cast<std::size_t>(static_cast<const std::uint8_t*>(addr) - base_);
  return static_cast<std::uint32_t>(off / heap_bytes_);
}

PageIndex Arena::page_of(const void* addr) const {
  const auto off = static_cast<std::size_t>(static_cast<const std::uint8_t*>(addr) - base_);
  return static_cast<PageIndex>((off % heap_bytes_) / kPageSize);
}

namespace {
void do_protect(std::uint8_t* p, int prot) {
  NOW_CHECK_EQ(::mprotect(p, kPageSize, prot), 0) << "mprotect failed";
}
}  // namespace

void Arena::protect_none(std::uint32_t node, PageIndex page) const {
  do_protect(page_ptr(node, page), PROT_NONE);
}
void Arena::protect_read(std::uint32_t node, PageIndex page) const {
  do_protect(page_ptr(node, page), PROT_READ);
}
void Arena::protect_rw(std::uint32_t node, PageIndex page) const {
  do_protect(page_ptr(node, page), PROT_READ | PROT_WRITE);
}

void Arena::reset_region(std::uint32_t node) const {
  std::uint8_t* base = region_base(node);
  NOW_CHECK_EQ(::mprotect(base, heap_bytes_, PROT_NONE), 0)
      << "region reset mprotect failed";
  NOW_CHECK_EQ(::madvise(base, heap_bytes_, MADV_DONTNEED), 0)
      << "region reset madvise failed";
}

namespace fault {
namespace {

// A small fixed table of live runtimes.  The handler walks it lock-free;
// registration uses a mutex.  Slots are never reused while a fault could be
// in flight for them (runtimes quiesce their compute threads before
// unregistering).
constexpr std::size_t kMaxRuntimes = 16;
std::array<std::atomic<DsmRuntime*>, kMaxRuntimes> g_runtimes{};
std::mutex g_registry_mu;
struct sigaction g_prev_action;
bool g_installed = false;

void segv_handler(int signo, siginfo_t* info, void* ucontext) {
  void* addr = info->si_addr;
  for (auto& slot : g_runtimes) {
    DsmRuntime* rt = slot.load(std::memory_order_acquire);
    if (rt != nullptr && rt->arena().contains(addr)) {
      rt->handle_fault(addr);
      return;
    }
  }
  // Not ours: restore the previous disposition and re-raise so genuine bugs
  // crash loudly instead of looping.
  if (g_prev_action.sa_flags & SA_SIGINFO) {
    if (g_prev_action.sa_sigaction != nullptr) {
      g_prev_action.sa_sigaction(signo, info, ucontext);
      return;
    }
  } else if (g_prev_action.sa_handler != SIG_IGN && g_prev_action.sa_handler != SIG_DFL &&
             g_prev_action.sa_handler != nullptr) {
    g_prev_action.sa_handler(signo);
    return;
  }
  ::signal(SIGSEGV, SIG_DFL);
  ::raise(SIGSEGV);
}

void install_handler_locked() {
  if (g_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = segv_handler;
  sa.sa_flags = SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  NOW_CHECK_EQ(::sigaction(SIGSEGV, &sa, &g_prev_action), 0);
  g_installed = true;
}

}  // namespace

void register_runtime(DsmRuntime* rt) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  install_handler_locked();
  for (auto& slot : g_runtimes) {
    DsmRuntime* expected = nullptr;
    if (slot.compare_exchange_strong(expected, rt, std::memory_order_release))
      return;
  }
  NOW_CHECK(false) << "too many live DSM runtimes";
}

void unregister_runtime(DsmRuntime* rt) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& slot : g_runtimes)
    if (slot.load(std::memory_order_relaxed) == rt)
      slot.store(nullptr, std::memory_order_release);
}

}  // namespace fault

}  // namespace now::tmk
