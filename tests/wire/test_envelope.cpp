// Envelope-builder equivalence: the single-pass make_msg family must
// emit exactly the bytes the legacy two-step path produced
// (pup::to_bytes(header) + insert(body)), with the pool on or off, and
// small payloads must land in the Message's inline storage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "pup/pup.hpp"
#include "wire/envelope.hpp"
#include "wire/pool.hpp"
#include "wire/wire_headers.hpp"

namespace {

using namespace cx;
using namespace cx::wire;

EntryHeader sample_header() {
  EntryHeader h;
  h.coll = 3;
  h.idx = Index(1, 2);
  h.ep = 7;
  h.reply.pe = 1;
  h.reply.fid = 11;
  return h;
}

/// The legacy wire layout: header packed first, raw body appended.
/// Copied into one buffer of the final size rather than by insert():
/// GCC 12 warns (-Warray-bounds) that the reallocating insert's
/// memmove of the empty tail reads at offset 60 of the 60-byte header,
/// a false positive that ASan runs of this test do not reproduce.
template <typename H>
std::vector<std::byte> legacy_bytes(const H& h,
                                    const std::vector<std::byte>& body) {
  const std::vector<std::byte> head = pup::to_bytes(const_cast<H&>(h));
  std::vector<std::byte> out(head.size() + body.size());
  std::copy(head.begin(), head.end(), out.begin());
  std::copy(body.begin(), body.end(),
            out.begin() + static_cast<std::ptrdiff_t>(head.size()));
  return out;
}

std::vector<std::byte> random_body(std::mt19937& rng, std::size_t len) {
  std::vector<std::byte> body(len);
  for (auto& b : body) b = static_cast<std::byte>(rng() & 0xff);
  return body;
}

TEST(WireEnvelope, HeaderOnlyMatchesLegacy) {
  const EntryHeader h = sample_header();
  auto msg = make_msg(42u, 3, h);
  EXPECT_EQ(msg->handler, 42u);
  EXPECT_EQ(msg->dst_pe, 3);
  EXPECT_EQ(msg->data.to_vector(), legacy_bytes(h, {}));
}

TEST(WireEnvelope, HeaderPlusBodyMatchesLegacyRandomized) {
  std::mt19937 rng(12345);
  const EntryHeader h = sample_header();
  // Sweep body sizes across the inline/pooled boundary and the pool's
  // size classes, plus a spread of random lengths.
  std::vector<std::size_t> sizes = {0,   1,    7,    63,   64,  65,
                                    127, 128,  129,  255,  256, 257,
                                    511, 4096, 65536};
  for (int i = 0; i < 50; ++i) sizes.push_back(rng() % 8192);
  for (std::size_t len : sizes) {
    const auto body = random_body(rng, len);
    auto msg = make_msg(1u, 0, h, body);
    EXPECT_EQ(msg->data.to_vector(), legacy_bytes(h, body))
        << "body length " << len;
  }
}

TEST(WireEnvelope, PupTraversalMatchesLegacy) {
  // A pup-traversed body (the argument-tuple path) must pack the same
  // bytes as serializing the fields separately and appending them.
  BcastHeader h;
  h.coll = 5;
  h.ep = 2;
  h.root = 1;

  int a = 42;
  double b = 3.5;
  std::vector<float> c = {1.0f, 2.0f, 4.0f};
  std::string d = "hello wire";

  auto traverse = [&](pup::Er& p) {
    p | a;
    p | b;
    p | c;
    p | d;
  };

  std::vector<std::byte> body;
  {
    pup::Sizer s;
    traverse(s);
    body.resize(s.size());
    pup::Packer pk(body.data(), body.size());
    traverse(pk);
  }

  auto msg = make_msg_pup(2u, 1, h, traverse);
  EXPECT_EQ(msg->data.to_vector(), legacy_bytes(h, body));
}

TEST(WireEnvelope, PoolOnOffBytesIdentical) {
  std::mt19937 rng(999);
  const EntryHeader h = sample_header();
  const bool saved = pool_enabled();
  for (std::size_t len : {std::size_t{16}, std::size_t{300},
                          std::size_t{5000}}) {
    const auto body = random_body(rng, len);
    set_pool_enabled(true);
    auto pooled = make_msg(1u, 0, h, body);
    set_pool_enabled(false);
    auto plain = make_msg(1u, 0, h, body);
    EXPECT_EQ(pooled->data.to_vector(), plain->data.to_vector())
        << "body length " << len;
  }
  set_pool_enabled(saved);
  drain_caches();
}

TEST(WireEnvelope, SmallPayloadsAreInline) {
  const EntryHeader h = sample_header();
  const std::size_t hsize = pup::size_of(const_cast<EntryHeader&>(h));
  ASSERT_LT(hsize, Buffer::kInlineCapacity);

  // Header alone fits inline.
  auto small = make_msg(1u, 0, h);
  EXPECT_TRUE(small->data.is_inline());

  // Header + enough body to cross kInlineCapacity spills to a block.
  std::mt19937 rng(7);
  const auto body = random_body(rng, Buffer::kInlineCapacity);
  auto large = make_msg(1u, 0, h, body);
  EXPECT_FALSE(large->data.is_inline());
  EXPECT_EQ(large->data.to_vector(), legacy_bytes(h, body));
}

TEST(WireEnvelope, ClonePayloadCopiesBytes) {
  std::mt19937 rng(31);
  const EntryHeader h = sample_header();
  const auto body = random_body(rng, 700);
  auto orig = make_msg(9u, 2, h, body);
  auto copy = clone_payload(9u, 1, orig->data);
  EXPECT_EQ(copy->handler, 9u);
  EXPECT_EQ(copy->dst_pe, 1);
  EXPECT_EQ(copy->data, orig->data);
  EXPECT_NE(copy->data.data(), orig->data.data());
}

TEST(WireEnvelope, ReadHeaderRoundTrip) {
  std::mt19937 rng(64);
  const EntryHeader h = sample_header();
  const auto body = random_body(rng, 33);
  auto msg = make_msg(1u, 0, h, body);

  std::size_t body_off = 0;
  const EntryHeader back = read_header<EntryHeader>(msg->data, &body_off);
  EXPECT_EQ(back.coll, h.coll);
  EXPECT_EQ(back.idx, h.idx);
  EXPECT_EQ(back.ep, h.ep);
  EXPECT_EQ(back.reply.pe, h.reply.pe);
  EXPECT_EQ(back.reply.fid, h.reply.fid);
  ASSERT_EQ(body_off + body.size(), msg->data.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(),
                         msg->data.data() + body_off));
}

}  // namespace
