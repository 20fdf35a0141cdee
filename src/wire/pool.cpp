#include "wire/pool.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "trace/trace.hpp"
#include "util/options.hpp"

namespace cx::wire {

// Implemented in agg.cpp; declared here (not via agg.hpp) to keep the
// pool TU free of the machine/message include the aggregator needs.
void configure_agg_from_options(const cxu::Options& opt);

namespace {

using cx::trace::detail::g_wire;

constexpr int kNumClasses = 13;  // 256 .. 1 MiB, powers of two
constexpr std::size_t kBatch = 16;

/// Per-thread cache cap for one class: bounded by count and by bytes
/// (~512 KiB per class, at least 4 blocks) so a thread that frees more
/// blocks of a large class than it allocates (a cxrun PE freeing the
/// replies its comm thread read) spills them to the shared list instead
/// of pinning them.
constexpr std::size_t tls_cap(std::size_t block_size) {
  const std::size_t by_bytes = (std::size_t{512} << 10) / block_size;
  return by_bytes < 4 ? 4 : (by_bytes > 64 ? 64 : by_bytes);
}

/// Global overflow cap per class (~64 MiB per class worst case).
constexpr std::size_t global_cap(std::size_t block_size) {
  const std::size_t by_bytes = (std::size_t{64} << 20) / block_size;
  return by_bytes > 4096 ? 4096 : by_bytes;
}

constexpr std::size_t class_size(int cls) {
  return kMinBlock << static_cast<std::size_t>(cls);
}

/// Size class serving `size` bytes, or -1 when the request is above
/// kMaxBlock (a large block).
int class_for_request(std::size_t size) {
  if (size > kMaxBlock) return -1;
  int cls = 0;
  while (class_size(cls) < size) ++cls;
  return cls;
}

/// Class a block of capacity `cap` belongs to, or -1 when `cap` is not
/// a pool class size (a large block).
int class_for_capacity(std::size_t cap) {
  if (cap < kMinBlock || cap > kMaxBlock) return -1;
  if ((cap & (cap - 1)) != 0) return -1;
  int cls = 0;
  while (class_size(cls) < cap) ++cls;
  return cls;
}

std::atomic<bool> g_pool_enabled{
    parse_toggle(std::getenv("CHARMX_WIRE_POOL"), /*unset=*/true)};

/// Mutex-protected overflow list shared by all threads, one per class.
/// Leaked on purpose: thread-local cache destructors may run after
/// static destructors, so the global store must never be destroyed.
struct GlobalStore {
  struct ClassList {
    std::mutex mutex;
    std::vector<std::byte*> blocks;
  };
  ClassList cls[kNumClasses];

  /// Blocks above kMaxBlock, shared by every thread; `bytes` (the sum
  /// of their capacities) never exceeds kLargeCacheBytes.
  struct LargeList {
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::byte*>> blocks;  ///< (cap, block)
    std::size_t bytes = 0;
  };
  LargeList large;
};

GlobalStore& global_store() {
  static GlobalStore* g = new GlobalStore;  // intentionally leaked
  return *g;
}

/// Thread-local cache: LIFO stacks per class. Spills to / refills from
/// the global store in batches. On thread exit everything goes back to
/// the system (not the global store — see the leak note above; freeing
/// is always safe).
struct TlsCache {
  std::vector<std::byte*> cls[kNumClasses];

  ~TlsCache() {
    for (auto& list : cls) {
      for (std::byte* p : list) ::operator delete(p);
      list.clear();
    }
  }
};

TlsCache& tls() {
  thread_local TlsCache c;
  return c;
}

std::byte* take_cached(int cls) {
  auto& local = tls().cls[cls];
  if (!local.empty()) {
    std::byte* p = local.back();
    local.pop_back();
    return p;
  }
  // Refill a batch from the global overflow list.
  auto& g = global_store().cls[cls];
  {
    std::lock_guard<std::mutex> lock(g.mutex);
    if (g.blocks.empty()) return nullptr;
    const std::size_t n = g.blocks.size() < kBatch ? g.blocks.size() : kBatch;
    local.insert(local.end(), g.blocks.end() - static_cast<std::ptrdiff_t>(n),
                 g.blocks.end());
    g.blocks.resize(g.blocks.size() - n);
  }
  std::byte* p = local.back();
  local.pop_back();
  return p;
}

/// Cache a block; returns false when both the local and global lists
/// are full (caller frees to the system).
bool put_cached(int cls, std::byte* p) {
  auto& local = tls().cls[cls];
  const std::size_t cap = tls_cap(class_size(cls));
  if (local.size() < cap) {
    local.push_back(p);
    return true;
  }
  // Local cache full: spill half a batch plus this block to the global
  // overflow list so other threads (the usual receiver of our messages)
  // can reuse them.
  auto& g = global_store().cls[cls];
  std::lock_guard<std::mutex> lock(g.mutex);
  if (g.blocks.size() >= global_cap(class_size(cls))) return false;
  const std::size_t spill = kBatch / 2 < local.size() ? kBatch / 2
                                                      : local.size();
  g.blocks.insert(g.blocks.end(), local.end() - static_cast<std::ptrdiff_t>(spill),
                  local.end());
  local.resize(local.size() - spill);
  g.blocks.push_back(p);
  return true;
}

/// Take the smallest cached large block whose capacity is in
/// [*cap, 2 * *cap), updating *cap to it; nullptr when there is none.
std::byte* take_large(std::size_t* cap) {
  auto& l = global_store().large;
  std::lock_guard<std::mutex> lock(l.mutex);
  auto best = l.blocks.end();
  for (auto it = l.blocks.begin(); it != l.blocks.end(); ++it) {
    if (it->first >= *cap && it->first < 2 * *cap &&
        (best == l.blocks.end() || it->first < best->first)) {
      best = it;
    }
  }
  if (best == l.blocks.end()) return nullptr;
  std::byte* p = best->second;
  *cap = best->first;
  l.bytes -= best->first;
  *best = l.blocks.back();
  l.blocks.pop_back();
  return p;
}

/// Cache a large block; false when it would exceed kLargeCacheBytes
/// (caller frees to the system).
bool put_large(std::byte* p, std::size_t cap) {
  auto& l = global_store().large;
  std::lock_guard<std::mutex> lock(l.mutex);
  if (l.bytes + cap > kLargeCacheBytes) return false;
  l.blocks.emplace_back(cap, p);
  l.bytes += cap;
  return true;
}

}  // namespace

std::byte* alloc_block(std::size_t size, std::size_t* cap) {
  const int cls = class_for_request(size);
  if (cls < 0) {
    *cap = (size + kLargeGrain - 1) / kLargeGrain * kLargeGrain;
    if (g_pool_enabled.load(std::memory_order_relaxed)) {
      if (std::byte* p = take_large(cap)) {
        g_wire.buf_hits.fetch_add(1, std::memory_order_relaxed);
        return p;
      }
    }
    g_wire.buf_allocs.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::byte*>(::operator new(*cap));
  }
  *cap = class_size(cls);
  if (g_pool_enabled.load(std::memory_order_relaxed)) {
    if (std::byte* p = take_cached(cls)) {
      g_wire.buf_hits.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
  }
  g_wire.buf_allocs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::byte*>(::operator new(*cap));
}

void free_block(std::byte* p, std::size_t cap) noexcept {
  if (p == nullptr) return;
  if (g_pool_enabled.load(std::memory_order_relaxed)) {
    const int cls = class_for_capacity(cap);
    if (cls >= 0 ? put_cached(cls, p) : put_large(p, cap)) {
      g_wire.buf_recycled.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  ::operator delete(p);
}

void* alloc_msg(std::size_t size) {
  if (size <= kMsgBlock && g_pool_enabled.load(std::memory_order_relaxed)) {
    const int cls = class_for_request(kMsgBlock);
    if (std::byte* p = take_cached(cls)) {
      g_wire.msg_hits.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
    g_wire.msg_allocs.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(kMsgBlock);
  }
  g_wire.msg_allocs.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(size <= kMsgBlock ? kMsgBlock : size);
}

void free_msg(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  if (size <= kMsgBlock && g_pool_enabled.load(std::memory_order_relaxed) &&
      put_cached(class_for_request(kMsgBlock), static_cast<std::byte*>(p))) {
    g_wire.msg_recycled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ::operator delete(p);
}

bool pool_enabled() noexcept {
  return g_pool_enabled.load(std::memory_order_relaxed);
}

void set_pool_enabled(bool on) noexcept {
  g_pool_enabled.store(on, std::memory_order_relaxed);
}

bool parse_toggle(const char* v, bool unset) noexcept {
  if (v == nullptr) return unset;
  const auto ieq = [](const char* a, const char* b) noexcept {
    for (;; ++a, ++b) {
      const char ca = (*a >= 'A' && *a <= 'Z')
                          ? static_cast<char>(*a - 'A' + 'a')
                          : *a;
      if (ca != *b) return false;
      if (ca == '\0') return true;
    }
  };
  return !(ieq(v, "0") || ieq(v, "off") || ieq(v, "false"));
}

void configure_from_options(const cxu::Options& opt) {
  if (opt.has("wire-pool")) {
    // Bare --wire-pool parses as "true" -> enabled.
    set_pool_enabled(
        parse_toggle(opt.get_string("wire-pool", "on").c_str(), true));
  }
  configure_agg_from_options(opt);  // --wire-agg* ride along
}

void drain_caches() noexcept {
  auto& c = tls();
  for (auto& list : c.cls) {
    for (std::byte* p : list) ::operator delete(p);
    list.clear();
  }
  auto& g = global_store();
  for (auto& cl : g.cls) {
    std::lock_guard<std::mutex> lock(cl.mutex);
    for (std::byte* p : cl.blocks) ::operator delete(p);
    cl.blocks.clear();
  }
  std::lock_guard<std::mutex> lock(g.large.mutex);
  for (const auto& [cap, p] : g.large.blocks) ::operator delete(p);
  g.large.blocks.clear();
  g.large.bytes = 0;
}

}  // namespace cx::wire
