#include "core/collection.hpp"

#include <gtest/gtest.h>

#include <set>

#include "test_helpers.hpp"

namespace {

using namespace cx;

CollectionInfo array_info(const Index& dims, const std::string& map) {
  CollectionInfo info;
  info.kind = CollectionKind::Array;
  info.dims = dims;
  info.ndims = dims.ndims();
  info.size = dense_size(dims);
  info.map_name = map;
  return info;
}

TEST(Collection, Linearize) {
  const Index dims(4, 5);
  EXPECT_EQ(linearize(Index(0, 0), dims), 0u);
  EXPECT_EQ(linearize(Index(0, 4), dims), 4u);
  EXPECT_EQ(linearize(Index(1, 0), dims), 5u);
  EXPECT_EQ(linearize(Index(3, 4), dims), 19u);
}

TEST(Collection, DenseSize) {
  EXPECT_EQ(dense_size(Index(10)), 10u);
  EXPECT_EQ(dense_size(Index(3, 4)), 12u);
  EXPECT_EQ(dense_size(Index(2, 3, 4)), 24u);
}

TEST(Collection, BlockMapIsContiguousAndBalanced) {
  auto info = array_info(Index(16), "block");
  const MapFn map = resolve_map(info);
  int prev = 0;
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 16; ++i) {
    const int pe = map(Index(i), info, 4);
    EXPECT_GE(pe, prev);  // non-decreasing: contiguous blocks
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, 4);
    prev = pe;
    counts[static_cast<std::size_t>(pe)]++;
  }
  for (int c : counts) EXPECT_EQ(c, 4);
}

TEST(Collection, BlockMapCoversAllPEsWhenMoreElementsThanPEs) {
  auto info = array_info(Index(7), "block");
  const MapFn map = resolve_map(info);
  std::set<int> pes;
  for (int i = 0; i < 7; ++i) pes.insert(map(Index(i), info, 3));
  EXPECT_EQ(pes.size(), 3u);
}

TEST(Collection, RrMapRoundRobins) {
  auto info = array_info(Index(8), "rr");
  const MapFn map = resolve_map(info);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(map(Index(i), info, 3), i % 3);
  }
}

TEST(Collection, HashMapInRange) {
  auto info = array_info(Index(100), "hash");
  const MapFn map = resolve_map(info);
  for (int i = 0; i < 100; ++i) {
    const int pe = map(Index(i), info, 7);
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, 7);
  }
}

TEST(Collection, CustomMapRegistration) {
  register_map("evens_to_zero",
               [](const Index& idx, const CollectionInfo&, int num_pes) {
                 return idx[0] % 2 == 0 ? 0 : 1 % num_pes;
               });
  auto info = array_info(Index(4), "evens_to_zero");
  const MapFn map = resolve_map(info);
  EXPECT_EQ(map(Index(0), info, 2), 0);
  EXPECT_EQ(map(Index(1), info, 2), 1);
}

TEST(Collection, UnknownMapThrows) {
  EXPECT_THROW(resolve_map(array_info(Index(4), "nope")), std::out_of_range);
}

TEST(Collection, HomePeForKinds) {
  CollectionInfo s;
  s.kind = CollectionKind::Singleton;
  s.fixed_pe = 3;
  EXPECT_EQ(home_pe(s, Index(0), 8), 3);

  CollectionInfo g;
  g.kind = CollectionKind::Group;
  EXPECT_EQ(home_pe(g, Index(5), 8), 5);

  auto a = array_info(Index(8), "block");
  EXPECT_EQ(home_pe(a, Index(0), 4), 0);
  EXPECT_EQ(home_pe(a, Index(7), 4), 3);
}

struct Placed : Chare {
  int where() { return cx::my_pe(); }
};

// The runtime resolves a collection's map once, when the creation
// broadcast installs it; custom maps must still place every element and
// route every send to it.
TEST(Collection, CustomMapPlacesArrayElementsAndRoutesSends) {
  register_map("stride3",
               [](const Index& idx, const CollectionInfo&, int num_pes) {
                 return (idx[0] * 3 + 1) % num_pes;
               });
  cxtest::run_program(cxtest::threaded_cfg(4), [] {
    auto arr = create_array_opts<Placed>(Index(10), ArrayOptions{"stride3"});
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(arr[i].call<&Placed::where>().get(), (i * 3 + 1) % 4);
    }
    cx::exit();
  });
}

TEST(Collection, ReRegisteredMapKeepsExistingPlacement) {
  register_map("movable",
               [](const Index& idx, const CollectionInfo&, int num_pes) {
                 return idx[0] % num_pes;
               });
  cxtest::run_program(cxtest::threaded_cfg(3), [] {
    auto before = create_array_opts<Placed>(Index(6), ArrayOptions{"movable"});
    // Wait until every element exists under the first map.
    for (int i = 0; i < 6; ++i) (void)before[i].call<&Placed::where>().get();
    register_map("movable",
                 [](const Index& idx, const CollectionInfo&, int num_pes) {
                   return (idx[0] + 1) % num_pes;
                 });
    auto after = create_array_opts<Placed>(Index(6), ArrayOptions{"movable"});
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(before[i].call<&Placed::where>().get(), i % 3);
      EXPECT_EQ(after[i].call<&Placed::where>().get(), (i + 1) % 3);
    }
    cx::exit();
  });
}

}  // namespace
