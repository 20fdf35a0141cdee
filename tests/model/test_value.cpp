#include "model/value.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "model/cpy.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cpy;
using cxtest::run_program;
using cxtest::threaded_cfg;

TEST(Value, KindsAndAccessors) {
  EXPECT_EQ(Value().kind(), Kind::None);
  EXPECT_EQ(Value(true).kind(), Kind::Bool);
  EXPECT_EQ(Value(7).kind(), Kind::Int);
  EXPECT_EQ(Value(2.5).kind(), Kind::Real);
  EXPECT_EQ(Value("hi").kind(), Kind::Str);
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(7).as_real(), 7.0);  // int coerces to real
  EXPECT_EQ(Value("hi").as_str(), "hi");
}

TEST(Value, TypeErrorsThrow) {
  EXPECT_THROW((void)Value(7).as_str(), std::runtime_error);
  EXPECT_THROW((void)Value("x").as_int(), std::runtime_error);
  EXPECT_THROW((void)Value().length(), std::runtime_error);
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value().truthy());
  EXPECT_FALSE(Value(0).truthy());
  EXPECT_FALSE(Value("").truthy());
  EXPECT_FALSE(Value(List{}).truthy());
  EXPECT_TRUE(Value(1).truthy());
  EXPECT_TRUE(Value("x").truthy());
  EXPECT_TRUE(Value(List{Value(1)}).truthy());
  EXPECT_FALSE(Value(false).truthy());
}

TEST(Value, ListAndTuple) {
  Value l = Value::list({Value(1), Value("two"), Value(3.0)});
  EXPECT_EQ(l.kind(), Kind::List);
  EXPECT_EQ(l.length(), 3u);
  EXPECT_EQ(l.item(Value(1)).as_str(), "two");
  EXPECT_EQ(l.item(Value(-1)).as_real(), 3.0);  // negative indexing
  Value t = Value::tuple({Value(1), Value(2)});
  EXPECT_EQ(t.kind(), Kind::Tuple);
  EXPECT_THROW(l.item(Value(5)), std::out_of_range);
}

TEST(Value, Dict) {
  Value d = Value::dict({{"a", Value(1)}, {"b", Value("x")}});
  EXPECT_EQ(d.length(), 2u);
  EXPECT_EQ(d.item(Value("a")).as_int(), 1);
  EXPECT_THROW(d.item(Value("zzz")), std::out_of_range);
}

TEST(Value, ArraysShareBuffersOnCopy) {
  Value a = Value::array({1.0, 2.0, 3.0});
  Value b = a;  // Python-style reference copy
  a.as_f64_array()->data[0] = 42.0;
  EXPECT_DOUBLE_EQ(b.item(Value(0)).as_real(), 42.0);
}

TEST(Value, Equality) {
  EXPECT_TRUE(Value(2).equals(Value(2.0)));  // numeric cross-kind
  EXPECT_TRUE(Value("a").equals(Value("a")));
  EXPECT_FALSE(Value("a").equals(Value(1)));
  EXPECT_TRUE(Value::list({Value(1), Value(2)})
                  .equals(Value::list({Value(1), Value(2)})));
  EXPECT_FALSE(Value::list({Value(1)}).equals(Value::list({Value(2)})));
  EXPECT_TRUE(Value().equals(Value()));
  EXPECT_TRUE(Value::array({1, 2}).equals(Value::array({1, 2})));
  EXPECT_FALSE(Value::array({1, 2}).equals(Value::array({1, 3})));
}

TEST(Value, CompareNumericStringsAndSequences) {
  EXPECT_LT(Value(1).compare(Value(2)), 0);
  EXPECT_GT(Value(2.5).compare(Value(2)), 0);
  EXPECT_LT(Value("abc").compare(Value("abd")), 0);
  EXPECT_LT(Value::tuple({Value(1), Value(2)})
                .compare(Value::tuple({Value(1), Value(3)})),
            0);
  EXPECT_THROW((void)Value(1).compare(Value("x")), std::runtime_error);
}

TEST(Value, PupRoundtripAllKinds) {
  auto roundtrip = [](Value v) {
    auto bytes = pup::to_bytes(v);
    Value back;
    pup::Unpacker u(bytes.data(), bytes.size());
    back.pup(u);
    return back;
  };
  Value nested = Value::dict(
      {{"xs", Value::list({Value(1), Value("two"),
                           Value::tuple({Value(true), Value()})})},
       {"arr", Value::array({1.5, 2.5}, {2})},
       {"ia", Value::iarray({7, 8, 9})},
       {"n", Value(3.25)}});
  EXPECT_TRUE(roundtrip(nested).equals(nested));
  EXPECT_TRUE(roundtrip(Value()).equals(Value()));
  std::vector<std::byte> raw = {std::byte{1}, std::byte{2}};
  EXPECT_TRUE(roundtrip(Value(raw)).equals(Value(raw)));
}

TEST(Value, ArrayPupPreservesShape) {
  Value m = Value::array({1, 2, 3, 4, 5, 6}, {2, 3});
  auto bytes = pup::to_bytes(m);
  Value back;
  pup::Unpacker u(bytes.data(), bytes.size());
  back.pup(u);
  EXPECT_EQ(back.as_f64_array()->shape,
            (std::vector<std::uint64_t>{2, 3}));
}

TEST(Value, ApproxBytesTracksArraySizes) {
  Value big = Value::zeros(1000);
  EXPECT_GE(big.approx_bytes(), 8000u);
  EXPECT_LT(Value(1).approx_bytes(), 16u);
}

TEST(Value, Repr) {
  EXPECT_EQ(Value().repr(), "None");
  EXPECT_EQ(Value(true).repr(), "True");
  EXPECT_EQ(Value(3).repr(), "3");
  EXPECT_EQ(Value("hi").repr(), "'hi'");
  EXPECT_EQ(Value::list({Value(1), Value(2)}).repr(), "[1, 2]");
  EXPECT_EQ(Value::tuple({Value(1)}).repr(), "(1)");
}

// ---------------------------------------------------------------------------
// The 24-byte layout (sizeof is static_asserted in value.hpp): scalars
// inline, everything else one shared pointer.

/// One Value holding every kind: scalars, the empty string and one
/// longer than the small-string buffer, bytes, element and collection
/// proxies, a nested list, tuple and dict holding strings and proxies,
/// and both ndarray kinds.
Value golden_value() {
  ProxyRef elem;
  elem.coll = 3;
  elem.idx = cx::Index(2, 5);
  elem.is_element = true;
  elem.cls = "Worker";
  ProxyRef coll;
  coll.coll = 7;
  coll.is_element = false;
  coll.cls = "ALongCollectionClassName";
  const std::vector<std::byte> raw = {std::byte{0}, std::byte{1},
                                      std::byte{0x7f}, std::byte{0xff}};
  return Value::list({
      Value(), Value(true), Value(false), Value(-42), Value(2.5), Value(""),
      Value("a string longer than fifteen characters"), Value(raw),
      Value(elem), Value(coll),
      Value::list({Value("nested"), Value(elem), Value::list({})}),
      Value::tuple({Value("t"), Value(coll), Value(1)}),
      Value::dict({{"k", Value("v")},
                   {"proxy", Value(elem)},
                   {"a key longer than fifteen chars", Value::tuple({})}}),
      Value::array({1.5, -2.0, 3.25, 4.0, 5.0, 6.0}, {2, 3}),
      Value::iarray({7, -8, 9}),
  });
}

// Recorded pup::to_bytes(golden_value()). The encoding must not depend
// on Value's in-memory layout: frames, checkpoint digests and checksums
// all hash these bytes.
std::vector<std::byte> golden_bytes() {
  const char* hex =
      "06000f00000000000000000101010002d6ffffffffffffff0300000000000004"
      "400400000000000000000427000000000000006120737472696e67206c6f6e67"
      "6572207468616e206669667465656e2063686172616374657273050400000000"
      "00000000017fff0a030000000200000002000000050000000000000000000000"
      "0000000000000000010600000000000000576f726b65720a0700000000000000"
      "0000000000000000000000000000000000000000000000000018000000000000"
      "00414c6f6e67436f6c6c656374696f6e436c6173734e616d6506000300000000"
      "0000000406000000000000006e65737465640a03000000020000000200000005"
      "00000000000000000000000000000000000000010600000000000000576f726b"
      "6572060000000000000000000601030000000000000004010000000000000074"
      "0a07000000000000000000000000000000000000000000000000000000000000"
      "00001800000000000000414c6f6e67436f6c6c656374696f6e436c6173734e61"
      "6d650201000000000000000703000000000000001f0000000000000061206b65"
      "79206c6f6e676572207468616e206669667465656e2063686172730601000000"
      "000000000001000000000000006b040100000000000000760500000000000000"
      "70726f78790a0300000002000000020000000500000000000000000000000000"
      "000000000000010600000000000000576f726b65720802000000000000000200"
      "00000000000003000000000000000600000000000000000000000000f83f0000"
      "0000000000c00000000000000a40000000000000104000000000000014400000"
      "0000000018400901000000000000000300000000000000030000000000000007"
      "00000000000000f8ffffffffffffff0900000000000000";
  std::vector<std::byte> out;
  for (std::size_t i = 0; hex[i] != '\0'; i += 2) {
    out.push_back(static_cast<std::byte>(
        std::stoi(std::string(hex + i, 2), nullptr, 16)));
  }
  return out;
}

TEST(Value, PupBytesMatchGoldenEncoding) {
  Value v = golden_value();
  const auto bytes = pup::to_bytes(v);
  const auto golden = golden_bytes();
  ASSERT_EQ(bytes.size(), golden.size());
  EXPECT_TRUE(bytes == golden);
  // Decoding the golden bytes and encoding again is the identity.
  Value back = pup::from_bytes<Value>(golden);
  EXPECT_TRUE(back.equals(v));
  EXPECT_TRUE(pup::to_bytes(back) == golden);
}

TEST(Value, ImmutableKindsKeepValueSemantics) {
  const std::string long_text = "a string longer than fifteen characters";
  Value s(long_text);
  Value s_copy = s;
  EXPECT_EQ(&s.as_str(), &s_copy.as_str());  // copies share the payload
  s = Value("other");
  EXPECT_EQ(s_copy.as_str(), long_text);
  EXPECT_EQ(s.as_str(), "other");

  const std::vector<std::byte> raw = {std::byte{1}, std::byte{2}};
  Value b(raw);
  List holder = {b};
  b = Value(std::vector<std::byte>{});
  EXPECT_EQ(holder[0].as_bytes(), raw);
  EXPECT_TRUE(b.as_bytes().empty());

  ProxyRef r;
  r.coll = 4;
  r.idx = cx::Index(3);
  r.cls = "Worker";
  Value p(r);
  Dict d = {{"p", p}};
  p = Value(7);
  EXPECT_EQ(d.at("p").as_proxy(), r);
  EXPECT_EQ(p.as_int(), 7);
}

// A failed unpack leaves None behind, never a half-made Value.
Value unpack_or_none(const std::vector<std::byte>& blob) {
  Value v("previous");
  pup::Unpacker u(blob.data(), blob.size());
  EXPECT_THROW(v.pup(u), std::length_error);
  return v;
}

/// A Value blob: tag, then `head` bytes, then a hostile 2^40 count, then a
/// little slack the count cannot be satisfied from.
std::vector<std::byte> hostile_value_blob(
    std::uint8_t tag, const std::vector<std::byte>& head) {
  const std::uint64_t count = std::uint64_t{1} << 40;
  std::vector<std::byte> blob(1 + head.size() + sizeof(count) + 32);
  blob[0] = static_cast<std::byte>(tag);
  std::copy(head.begin(), head.end(), blob.begin() + 1);
  std::memcpy(blob.data() + 1 + head.size(), &count, sizeof(count));
  return blob;
}

TEST(Value, HostileListCountThrows) {
  const auto blob = hostile_value_blob(6, {std::byte{0}});  // is_tuple
  EXPECT_TRUE(unpack_or_none(blob).is_none());
}

TEST(Value, HostileDictCountThrows) {
  const auto blob = hostile_value_blob(7, {});
  EXPECT_TRUE(unpack_or_none(blob).is_none());
}

TEST(Value, HostileNdarrayLengthThrows) {
  // shape = {4}: a one-element uint64 vector, then the data count.
  std::vector<std::byte> shape(16, std::byte{0});
  shape[0] = std::byte{1};
  shape[8] = std::byte{4};
  EXPECT_TRUE(unpack_or_none(hostile_value_blob(8, shape)).is_none());
  EXPECT_TRUE(unpack_or_none(hostile_value_blob(9, shape)).is_none());
}

TEST(Value, HostileStringAndBytesLengthThrow) {
  EXPECT_TRUE(unpack_or_none(hostile_value_blob(4, {})).is_none());
  EXPECT_TRUE(unpack_or_none(hostile_value_blob(5, {})).is_none());
}

// ---------------------------------------------------------------------------
// Every kind through dynamic sends to chares on other PEs (serialized on
// the way out and on the way back, kept in an attribute in between).

struct ValueEchoClass {
  ValueEchoClass() {
    DClass cls("ValueEcho");
    cls.def("echo", {"v"}, [](DChare&, Args& a) { return a[0]; });
    cls.def("keep", {"v"}, [](DChare& self, Args& a) {
      self["kept"] = a[0];
      return Value::none();
    });
    cls.def("kept", {}, [](DChare& self, Args&) { return self["kept"]; });
    cls.def("pe", {}, [](DChare&, Args&) { return Value(cx::my_pe()); });
  }
};
const ValueEchoClass value_echo_class;

TEST(Value, EveryKindRoundTripsThroughDynamicSendsAcrossPes) {
  run_program(threaded_cfg(3), [] {
    auto grp = create_group("ValueEcho");
    const Value all = golden_value();
    List kinds = all.as_list();
    kinds.push_back(all);
    kinds.push_back(to_value(grp));
    kinds.push_back(to_value(grp[2]));
    for (int pe = 1; pe < cx::num_pes(); ++pe) {
      ASSERT_EQ(grp[pe].call("pe").get().as_int(), pe);
      for (const Value& v : kinds) {
        EXPECT_TRUE(grp[pe].call("echo", {v}).get().equals(v)) << v.repr();
        grp[pe].send("keep", {v});
        EXPECT_TRUE(grp[pe].call("kept").get().equals(v)) << v.repr();
      }
    }
    // A proxy that crossed PEs still addresses its chare.
    const Value p = grp[1].call("echo", {to_value(grp[2])}).get();
    EXPECT_EQ(element_from(p).call("pe").get().as_int(), 2);
    cx::exit();
  });
}

}  // namespace
