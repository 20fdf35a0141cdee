// Sparse chare arrays: dynamic insertion (paper §II-G, ckInsert /
// ckDoneInserting), custom placement, reductions after finalization.

#include <gtest/gtest.h>

#include <set>

#include "test_helpers.hpp"

namespace {

using namespace cx;
using cxtest::run_program;
using cxtest::sim_cfg;
using cxtest::threaded_cfg;

struct SparseCell : Chare {
  int value = 0;
  SparseCell() = default;
  explicit SparseCell(int v) : value(v) {}
  int get() { return value; }
  int where() { return cx::my_pe(); }
  void add_up(Future<int> f) { contribute(value, reducer::sum<int>(), cb(f)); }
};

TEST(Sparse, InsertAndInvoke) {
  run_program(threaded_cfg(3), [] {
    auto arr = create_sparse<SparseCell>(1);
    for (int i : {2, 7, 11}) arr.insert(Index(i), i * 10);
    arr.done_inserting().get();
    EXPECT_EQ(arr[2].call<&SparseCell::get>().get(), 20);
    EXPECT_EQ(arr[7].call<&SparseCell::get>().get(), 70);
    EXPECT_EQ(arr[11].call<&SparseCell::get>().get(), 110);
    cx::exit();
  });
}

TEST(Sparse, SparseIndexSpaceCanBeHuge) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_sparse<SparseCell>(2);
    arr.insert(Index(1000000, 2000000), 1);
    arr.insert(Index(-5, 17), 2);
    arr.done_inserting().get();
    EXPECT_EQ((arr[{1000000, 2000000}].call<&SparseCell::get>().get()), 1);
    EXPECT_EQ((arr[{-5, 17}].call<&SparseCell::get>().get()), 2);
    cx::exit();
  });
}

TEST(Sparse, ExplicitPlacementViaInsertOn) {
  run_program(threaded_cfg(4), [] {
    auto arr = create_sparse<SparseCell>(1);
    for (int i = 0; i < 4; ++i) arr.insert_on(i, Index(i), i);
    arr.done_inserting().get();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(arr[i].call<&SparseCell::where>().get(), i);
    }
    cx::exit();
  });
}

TEST(Sparse, ReductionAfterDoneInserting) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_sparse<SparseCell>(1);
    for (int i = 0; i < 10; ++i) arr.insert(Index(i * 3), i);
    arr.done_inserting().get();
    auto f = make_future<int>();
    arr.broadcast<&SparseCell::add_up>(f);
    EXPECT_EQ(f.get(), 45);
    cx::exit();
  });
}

TEST(Sparse, BroadcastReachesAllInsertedElements) {
  run_program(sim_cfg(4), [] {
    auto arr = create_sparse<SparseCell>(1);
    std::set<int> keys = {1, 5, 9, 42, 77};
    for (int k : keys) arr.insert(Index(k), 1);
    arr.done_inserting().get();
    auto f = make_future<int>();
    arr.broadcast<&SparseCell::add_up>(f);
    EXPECT_EQ(f.get(), static_cast<int>(keys.size()));
    cx::exit();
  });
}

TEST(Sparse, MessagesToNotYetInsertedElementsAreBuffered) {
  run_program(threaded_cfg(2), [] {
    auto arr = create_sparse<SparseCell>(1);
    // Send before inserting: must be buffered at the home PE and
    // delivered once the element exists.
    auto f = arr[33].call<&SparseCell::get>();
    arr.insert(Index(33), 99);
    arr.done_inserting().get();
    EXPECT_EQ(f.get(), 99);
    cx::exit();
  });
}

TEST(Sparse, CustomMapPlacesInsertedElements) {
  register_map("sparse_reverse",
               [](const Index& idx, const CollectionInfo&, int num_pes) {
                 return num_pes - 1 - idx[0] % num_pes;
               });
  run_program(threaded_cfg(4), [] {
    auto arr = create_sparse<SparseCell>(1, "sparse_reverse");
    // Sent before the insert: buffered at the map's home PE.
    auto early = arr[13].call<&SparseCell::get>();
    for (int i = 0; i < 14; ++i) arr.insert(Index(i), i * 2);
    arr.done_inserting().get();
    EXPECT_EQ(early.get(), 26);
    for (int i = 0; i < 14; ++i) {
      EXPECT_EQ(arr[i].call<&SparseCell::where>().get(), 3 - i % 4);
      EXPECT_EQ(arr[i].call<&SparseCell::get>().get(), i * 2);
    }
    cx::exit();
  });
}

}  // namespace
