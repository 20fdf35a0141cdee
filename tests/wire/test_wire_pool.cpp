// Pool stress: interleaved alloc/recycle of payload blocks and Message
// objects from many threads, message traffic through both machine
// backends with pooling on and off, and counter sanity.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "machine/machine.hpp"
#include "pup/pup.hpp"
#include "trace/trace.hpp"
#include "util/options.hpp"
#include "wire/buffer.hpp"
#include "wire/pool.hpp"

namespace {

using namespace cx::wire;

struct Held {
  std::byte* p = nullptr;
  std::size_t cap = 0;
  std::size_t size = 0;
  std::byte tag{};
};

/// One thread's worth of churn: allocate blocks of mixed size classes,
/// stamp them, hold a random subset, verify stamps on release.
void churn(unsigned seed, int rounds) {
  std::mt19937 rng(seed);
  std::vector<Held> held;
  for (int i = 0; i < rounds; ++i) {
    if (held.size() < 32 && (held.empty() || (rng() & 1) != 0)) {
      Held h;
      // Sizes spanning sub-minimum, the pow2 classes, and above-max
      // exact allocations.
      static constexpr std::size_t kSizes[] = {1,    100,   256,  257,
                                               1024, 60000, kMaxBlock + 1};
      h.size = kSizes[rng() % (sizeof(kSizes) / sizeof(kSizes[0]))];
      h.p = alloc_block(h.size, &h.cap);
      ASSERT_NE(h.p, nullptr);
      ASSERT_GE(h.cap, h.size);
      h.tag = static_cast<std::byte>(rng() & 0xff);
      std::memset(h.p, static_cast<int>(h.tag), h.size);
      held.push_back(h);
    } else {
      const std::size_t k = rng() % held.size();
      Held h = held[k];
      held[k] = held.back();
      held.pop_back();
      // The block must still hold our stamp — nobody else may have
      // received it while we held it.
      for (std::size_t j = 0; j < h.size; j += 997) {
        ASSERT_EQ(h.p[j], h.tag) << "block corrupted at offset " << j;
      }
      free_block(h.p, h.cap);
    }
  }
  for (const Held& h : held) free_block(h.p, h.cap);
  drain_caches();
}

TEST(WirePool, InterleavedAllocRecycleAcrossThreads) {
  const bool saved = pool_enabled();
  set_pool_enabled(true);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([t] { churn(1000 + t, 4000); });
  }
  for (auto& th : threads) th.join();
  set_pool_enabled(saved);
  drain_caches();
}

TEST(WirePool, DisabledPathStillCorrect) {
  const bool saved = pool_enabled();
  set_pool_enabled(false);
  std::thread th([] { churn(77, 2000); });
  th.join();
  set_pool_enabled(saved);
}

TEST(WirePool, ReuseServesFromCacheAndCounts) {
  const bool saved = pool_enabled();
  set_pool_enabled(true);
  drain_caches();
  cx::trace::reset_wire_stats();

  std::size_t cap1 = 0;
  std::byte* p1 = alloc_block(512, &cap1);
  free_block(p1, cap1);
  std::size_t cap2 = 0;
  std::byte* p2 = alloc_block(400, &cap2);  // same 512-byte class
  EXPECT_EQ(p2, p1) << "freed block should be recycled to the same thread";
  EXPECT_EQ(cap2, cap1);
  free_block(p2, cap2);

  const cx::trace::WireStats w = cx::trace::wire_stats();
  EXPECT_EQ(w.buf_allocs, 1u);
  EXPECT_EQ(w.buf_hits, 1u);
  EXPECT_EQ(w.buf_recycled, 2u);

  set_pool_enabled(saved);
  drain_caches();
}

TEST(WirePool, MessageObjectsRecycle) {
  const bool saved = pool_enabled();
  set_pool_enabled(true);
  drain_caches();
  cx::trace::reset_wire_stats();

  {
    auto m1 = std::make_unique<cxm::Message>();
    m1.reset();
    auto m2 = std::make_unique<cxm::Message>();
    m2.reset();
  }
  const cx::trace::WireStats w = cx::trace::wire_stats();
  EXPECT_EQ(w.msg_allocs, 1u);
  EXPECT_EQ(w.msg_hits, 1u);
  EXPECT_EQ(w.msg_recycled, 2u);

  set_pool_enabled(saved);
  drain_caches();
}

// ---- large blocks (above kMaxBlock) ---------------------------------------

constexpr std::size_t kLargeSize = (4u << 20) + 7;

TEST(WirePool, LargeBlockFreedOnOneThreadServesAnother) {
  // The socket path allocates a large payload on one thread and frees
  // it on another, so the large-block cache is shared by all threads.
  const bool saved = pool_enabled();
  set_pool_enabled(true);
  drain_caches();
  cx::trace::reset_wire_stats();

  std::byte* freed = nullptr;
  std::thread a([&] {
    std::size_t cap = 0;
    freed = alloc_block(kLargeSize, &cap);
    EXPECT_GE(cap, kLargeSize);
    EXPECT_EQ(cap % kLargeGrain, 0u);
    free_block(freed, cap);
  });
  a.join();
  std::byte* reused = nullptr;
  std::size_t cap = 0;
  std::thread b([&] { reused = alloc_block(kLargeSize, &cap); });
  b.join();
  EXPECT_EQ(reused, freed);
  free_block(reused, cap);

  const cx::trace::WireStats w = cx::trace::wire_stats();
  EXPECT_EQ(w.buf_allocs, 1u);
  EXPECT_EQ(w.buf_hits, 1u);
  EXPECT_EQ(w.buf_recycled, 2u);
  set_pool_enabled(saved);
  drain_caches();
}

TEST(WirePool, LargeCacheHoldsAtMostItsByteBound) {
  const bool saved = pool_enabled();
  set_pool_enabled(true);
  drain_caches();
  cx::trace::reset_wire_stats();

  std::vector<std::pair<std::byte*, std::size_t>> blocks(8);
  for (auto& [p, cap] : blocks) p = alloc_block(kLargeSize, &cap);
  const std::size_t fits = kLargeCacheBytes / blocks[0].second;
  ASSERT_LT(fits, blocks.size());
  for (auto& [p, cap] : blocks) free_block(p, cap);
  EXPECT_EQ(cx::trace::wire_stats().buf_recycled, fits);

  // Only the blocks the bound let in come back.
  for (auto& [p, cap] : blocks) p = alloc_block(kLargeSize, &cap);
  EXPECT_EQ(cx::trace::wire_stats().buf_hits, fits);
  for (auto& [p, cap] : blocks) free_block(p, cap);
  set_pool_enabled(saved);
  drain_caches();
}

TEST(WirePool, WirePoolOffBypassesLargeCache) {
  const bool saved = pool_enabled();
  drain_caches();
  char prog[] = "test_wire_pool";
  char flag[] = "--wire-pool=off";
  char* argv[] = {prog, flag};
  configure_from_options(cxu::Options(2, argv));
  ASSERT_FALSE(pool_enabled());
  cx::trace::reset_wire_stats();

  for (int i = 0; i < 2; ++i) {
    std::size_t cap = 0;
    std::byte* p = alloc_block(kLargeSize, &cap);
    free_block(p, cap);
  }
  const cx::trace::WireStats w = cx::trace::wire_stats();
  EXPECT_EQ(w.buf_allocs, 2u);
  EXPECT_EQ(w.buf_hits, 0u);
  EXPECT_EQ(w.buf_recycled, 0u);
  set_pool_enabled(saved);
}

TEST(WirePool, DrainCachesEmptiesLargeCache) {
  const bool saved = pool_enabled();
  set_pool_enabled(true);
  drain_caches();
  cx::trace::reset_wire_stats();

  std::size_t cap = 0;
  std::byte* p = alloc_block(kLargeSize, &cap);
  free_block(p, cap);
  ASSERT_EQ(cx::trace::wire_stats().buf_recycled, 1u);
  drain_caches();
  p = alloc_block(kLargeSize, &cap);  // nothing cached: a fresh block
  free_block(p, cap);
  const cx::trace::WireStats w = cx::trace::wire_stats();
  EXPECT_EQ(w.buf_allocs, 2u);
  EXPECT_EQ(w.buf_hits, 0u);
  set_pool_enabled(saved);
  drain_caches();
}

/// Cross-PE traffic on a real backend: every payload must arrive intact
/// while Message objects and payload blocks recycle underneath.
void run_backend_traffic(cxm::Backend backend, bool pooled) {
  const bool saved = pool_enabled();
  set_pool_enabled(pooled);

  cxm::MachineConfig cfg;
  cfg.num_pes = 4;
  cfg.backend = backend;
  auto m = cxm::make_machine(cfg);

  constexpr int kHops = 64;
  std::atomic<int> done{0};
  std::atomic<int> bad{0};
  std::uint32_t h = 0;
  h = m->register_handler([&](cxm::MessagePtr msg) {
    pup::Unpacker u(msg->data.data(), msg->data.size());
    int hop = 0;
    std::vector<std::uint32_t> body;
    u | hop;
    u | body;
    // Payload integrity: body[i] == seed + i, seed derived from hop 0.
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (body[i] != body[0] + i) bad.fetch_add(1);
    }
    if (hop >= kHops) {
      if (done.fetch_add(1) + 1 == m->num_pes()) m->stop();
      return;
    }
    ++hop;
    auto out = std::make_unique<cxm::Message>();
    out->handler = h;
    out->dst_pe = (m->current_pe() + 1) % m->num_pes();
    pup::Sizer s;
    s | hop;
    s | body;
    out->data.resize_discard(s.size());
    pup::Packer pk(out->data.data(), out->data.size());
    pk | hop;
    pk | body;
    m->send(std::move(out));
  });

  std::mt19937 rng(5);
  for (int pe = 0; pe < m->num_pes(); ++pe) {
    int hop = 0;
    // Mix of SBO-sized and pooled-block-sized payloads in flight.
    std::vector<std::uint32_t> body(pe % 2 == 0 ? 4 : 300);
    const std::uint32_t seed = rng();
    for (std::size_t i = 0; i < body.size(); ++i) {
      body[i] = seed + static_cast<std::uint32_t>(i);
    }
    auto msg = std::make_unique<cxm::Message>();
    msg->handler = h;
    msg->dst_pe = pe;
    pup::Sizer s;
    s | hop;
    s | body;
    msg->data.resize_discard(s.size());
    pup::Packer pk(msg->data.data(), msg->data.size());
    pk | hop;
    pk | body;
    m->send(std::move(msg));
  }
  m->run();
  EXPECT_EQ(done.load(), m->num_pes());
  EXPECT_EQ(bad.load(), 0);

  set_pool_enabled(saved);
  drain_caches();
}

TEST(WirePool, ThreadedBackendTrafficPooled) {
  cx::trace::reset_wire_stats();
  run_backend_traffic(cxm::Backend::Threaded, true);
  const cx::trace::WireStats w = cx::trace::wire_stats();
  // Warm pool: messages and large payload blocks must actually recycle.
  EXPECT_GT(w.msg_recycled, 0u);
  EXPECT_GT(w.msg_hits, 0u);
  EXPECT_GT(w.buf_hits, 0u);
}

TEST(WirePool, ThreadedBackendTrafficUnpooled) {
  run_backend_traffic(cxm::Backend::Threaded, false);
}

TEST(WirePool, SimBackendTrafficPooled) {
  run_backend_traffic(cxm::Backend::Sim, true);
}

TEST(WirePool, SimBackendTrafficUnpooled) {
  run_backend_traffic(cxm::Backend::Sim, false);
}

}  // namespace
