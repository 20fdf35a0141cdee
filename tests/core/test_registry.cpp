// The id tables behind message dispatch: entry methods, chare factories
// and reduction combiners. Lookups are lock-free, and an id nobody
// registered (a corrupt or hostile message) is a std::out_of_range,
// never a read past the table.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/id_table.hpp"
#include "core/runtime_impl.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cx;

constexpr std::uint32_t kHostileIds[] = {IdTable<int>::kCapacity - 1,
                                         IdTable<int>::kCapacity,
                                         0x7fffffffu, 0xffffffffu};

TEST(IdTable, AppendsDenseIdsAcrossChunksWithoutMovingEntries) {
  IdTable<std::uint64_t> t("test entry");
  EXPECT_EQ(t.size(), 0u);
  EXPECT_THROW((void)t.at(0), std::out_of_range);
  const std::uint32_t n = 3 * IdTable<std::uint64_t>::kChunk + 5;
  const std::uint64_t* first = nullptr;
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(t.append(1000 + i), i);
    if (i == 0) first = &t.at(0);
  }
  EXPECT_EQ(t.size(), n);
  EXPECT_EQ(&t.at(0), first) << "an entry moved";
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(t.at(i), 1000 + i);
  t.mutable_at(7) = 7;
  EXPECT_EQ(t.at(7), 7u);
  EXPECT_THROW((void)t.at(n), std::out_of_range);
  EXPECT_THROW((void)t.mutable_at(n), std::out_of_range);
  for (const std::uint32_t id : kHostileIds) {
    EXPECT_THROW((void)t.at(id), std::out_of_range) << id;
  }
  try {
    (void)t.at(n);
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "unknown test entry id 197 (197 registered)");
  }
}

TEST(IdTable, ReadersRaceOneWriterWithoutALock) {
  // Run under TSan (label "core"): readers index every published id
  // while the writer appends across chunk boundaries.
  IdTable<std::uint64_t> t("race entry");
  const std::uint32_t n = 8 * IdTable<std::uint64_t>::kChunk;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::uint32_t seen = t.size();
        for (std::uint32_t i = 0; i < seen; ++i) {
          if (t.at(i) != 3u * i) bad.fetch_add(1);
        }
        try {
          (void)t.at(n);  // past the last id the writer will append
          bad.fetch_add(1);
        } catch (const std::out_of_range&) {
        }
      }
    });
  }
  for (std::uint32_t i = 0; i < n; ++i) t.append(3u * i);
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(t.size(), n);
}

TEST(Registry, UnregisteredIdsThrowOutOfRange) {
  auto& reg = Registry::instance();
  auto& combiners = CombinerRegistry::instance();
  for (const std::uint32_t id : kHostileIds) {
    EXPECT_THROW((void)reg.ep(id), std::out_of_range) << id;
    EXPECT_THROW((void)reg.mutable_ep(id), std::out_of_range) << id;
    EXPECT_THROW((void)reg.factory(id), std::out_of_range) << id;
    EXPECT_THROW((void)combiners.get(id), std::out_of_range) << id;
    // The fold handlers' wrapper passes it through untouched.
    EXPECT_THROW((void)checked_combine(id, {}, {}, 0, Index(0)),
                 std::out_of_range)
        << id;
  }
  EXPECT_NO_THROW((void)combiners.get(reducer::sum<int>()));
}

struct Target : Chare {
  int hits = 0;
  void hit() { ++hits; }
  int count() { return hits; }

  /// Feed the receive path itself (decode, find this element, look up
  /// the ep) entry messages naming unregistered eps; returns how many
  /// it rejected with std::out_of_range. A plain entry method, so the
  /// throws happen on the PE's own stack, not a fiber's.
  int reject_hostile_eps() {
    auto& I = Runtime::current().impl();
    int rejected = 0;
    for (const std::uint32_t ep : kHostileIds) {
      EntryHeader h;
      h.coll = collection();
      h.idx = this_index();
      h.ep = ep;
      try {
        I.on_entry(wire::make_msg_pup(I.h_entry, 0, h, [](pup::Er&) {}));
      } catch (const std::out_of_range&) {
        ++rejected;
      }
      // on_entry counted the message as processed; it was never sent.
      I.me().processed--;
    }
    return rejected;
  }
};

TEST(Registry, EntryMessageNamingAnUnregisteredEpIsRejected) {
  cxtest::run_program(cxtest::threaded_cfg(2), [] {
    auto t = create_chare<Target>(0);
    t.send<&Target::hit>();
    ASSERT_EQ(t.call<&Target::count>().get(), 1);  // the element is here
    EXPECT_EQ(t.call<&Target::reject_hostile_eps>().get(),
              static_cast<int>(std::size(kHostileIds)));
    EXPECT_EQ(t.call<&Target::count>().get(), 1);
    cx::exit();
  });
}

}  // namespace
