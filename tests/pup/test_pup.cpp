#include "pup/pup.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace {

template <typename T>
T roundtrip(T value) {
  auto bytes = pup::to_bytes(value);
  return pup::from_bytes<T>(bytes);
}

TEST(Pup, Arithmetic) {
  EXPECT_EQ(roundtrip<int>(42), 42);
  EXPECT_EQ(roundtrip<std::int64_t>(-7000000000LL), -7000000000LL);
  EXPECT_DOUBLE_EQ(roundtrip<double>(3.25), 3.25);
  EXPECT_FLOAT_EQ(roundtrip<float>(-1.5f), -1.5f);
  EXPECT_EQ(roundtrip<char>('x'), 'x');
  EXPECT_EQ(roundtrip<bool>(true), true);
}

enum class Color : std::uint8_t { Red = 1, Green = 2 };

TEST(Pup, Enum) { EXPECT_EQ(roundtrip(Color::Green), Color::Green); }

TEST(Pup, String) {
  EXPECT_EQ(roundtrip<std::string>("hello world"), "hello world");
  EXPECT_EQ(roundtrip<std::string>(""), "");
  std::string with_nul("a\0b", 3);
  EXPECT_EQ(roundtrip(with_nul), with_nul);
}

TEST(Pup, VectorTrivial) {
  std::vector<double> v = {1.0, 2.5, -3.75};
  EXPECT_EQ(roundtrip(v), v);
  EXPECT_EQ(roundtrip(std::vector<int>{}), std::vector<int>{});
}

TEST(Pup, VectorOfStrings) {
  std::vector<std::string> v = {"a", "", "long string here"};
  EXPECT_EQ(roundtrip(v), v);
}

TEST(Pup, VectorBool) {
  std::vector<bool> v = {true, false, true, true};
  EXPECT_EQ(roundtrip(v), v);
}

TEST(Pup, PairTupleArray) {
  auto p = std::pair<int, std::string>{7, "seven"};
  EXPECT_EQ(roundtrip(p), p);
  auto t = std::tuple<int, double, std::string>{1, 2.5, "x"};
  EXPECT_EQ(roundtrip(t), t);
  std::array<int, 4> a = {1, 2, 3, 4};
  EXPECT_EQ(roundtrip(a), a);
}

TEST(Pup, Optional) {
  std::optional<int> some = 5, none;
  EXPECT_EQ(roundtrip(some), some);
  EXPECT_EQ(roundtrip(none), none);
}

TEST(Pup, Maps) {
  std::map<std::string, int> m = {{"a", 1}, {"b", 2}};
  EXPECT_EQ(roundtrip(m), m);
  std::unordered_map<int, std::string> um = {{1, "x"}, {2, "y"}};
  EXPECT_EQ(roundtrip(um), um);
  std::set<int> s = {3, 1, 2};
  EXPECT_EQ(roundtrip(s), s);
}

struct Inner {
  int a = 0;
  std::string s;
  void pup(pup::Er& p) {
    p | a;
    p | s;
  }
  bool operator==(const Inner&) const = default;
};

struct Outer {
  double x = 0;
  std::vector<Inner> inners;
  std::map<int, Inner> by_id;
  void pup(pup::Er& p) {
    p | x;
    p | inners;
    p | by_id;
  }
  bool operator==(const Outer&) const = default;
};

TEST(Pup, NestedUserTypes) {
  Outer o;
  o.x = 9.5;
  o.inners = {{1, "one"}, {2, "two"}};
  o.by_id = {{10, {10, "ten"}}};
  EXPECT_EQ(roundtrip(o), o);
}

TEST(Pup, SizerMatchesPackedSize) {
  Outer o;
  o.inners = {{5, "five"}};
  const auto bytes = pup::to_bytes(o);
  EXPECT_EQ(pup::size_of(o), bytes.size());
}

TEST(Pup, PackerOverflowThrows) {
  std::vector<int> v = {1, 2, 3};
  std::byte small[4];
  pup::Packer pk(small, sizeof(small));
  EXPECT_THROW(pk | v, std::length_error);
}

TEST(Pup, UnpackerUnderflowThrows) {
  std::byte tiny[2] = {};
  pup::Unpacker u(tiny, sizeof(tiny));
  std::string s;
  EXPECT_THROW(u | s, std::length_error);
}

// A count read off the wire that the remaining bytes cannot hold is
// rejected before anything is allocated for it (a blob claiming 2^40
// elements must not make resize() ask for terabytes).
std::vector<std::byte> blob_claiming(std::uint64_t count) {
  std::vector<std::byte> buf(sizeof(count) + 16, std::byte{0x41});
  std::memcpy(buf.data(), &count, sizeof(count));
  return buf;
}

constexpr std::uint64_t kHostileCount = std::uint64_t{1} << 40;

TEST(Pup, HostileStringLengthThrows) {
  const auto blob = blob_claiming(kHostileCount);
  EXPECT_THROW((void)pup::from_bytes<std::string>(blob), std::length_error);
  // One more byte than is left is already too many.
  EXPECT_THROW((void)pup::from_bytes<std::string>(blob_claiming(17)),
               std::length_error);
  EXPECT_EQ(pup::from_bytes<std::string>(blob_claiming(16)).size(), 16u);
}

TEST(Pup, HostileVectorLengthThrows) {
  const auto blob = blob_claiming(kHostileCount);
  EXPECT_THROW((void)pup::from_bytes<std::vector<double>>(blob),
               std::length_error);
  EXPECT_THROW((void)pup::from_bytes<std::vector<std::string>>(blob),
               std::length_error);
  EXPECT_THROW((void)pup::from_bytes<std::vector<bool>>(blob),
               std::length_error);
  // Raw element vectors are bounded by their element size: 16 bytes
  // hold two doubles, not three.
  EXPECT_THROW((void)pup::from_bytes<std::vector<double>>(blob_claiming(3)),
               std::length_error);
  EXPECT_EQ(pup::from_bytes<std::vector<double>>(blob_claiming(2)).size(),
            2u);
}

TEST(Pup, HostileUnorderedMapCountThrows) {
  using M = std::unordered_map<std::string, int>;
  EXPECT_THROW((void)pup::from_bytes<M>(blob_claiming(kHostileCount)),
               std::length_error);
}

TEST(Pup, PackArgs) {
  int a = 3;
  std::string b = "hi";
  std::vector<double> c = {1.5};
  auto buf = pup::pack_args(a, b, c);
  pup::Unpacker u(buf.data(), buf.size());
  int a2;
  std::string b2;
  std::vector<double> c2;
  u | a2;
  u | b2;
  u | c2;
  EXPECT_EQ(a2, a);
  EXPECT_EQ(b2, b);
  EXPECT_EQ(c2, c);
  EXPECT_EQ(u.offset(), buf.size());
}

}  // namespace
