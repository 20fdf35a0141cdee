#include "net/frame.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "trace/trace.hpp"

namespace cxnet {

namespace {

template <typename T>
void put(std::byte* base, std::size_t off, T v) {
  std::memcpy(base + off, &v, sizeof(T));
}

template <typename T>
T get(const std::byte* base, std::size_t off) {
  T v;
  std::memcpy(&v, base + off, sizeof(T));
  return v;
}

// Header layout (offsets after the u32 length prefix):
//   0 kind  1 ft_flags  2 wire_flags  3 reserved
//   4 handler  8 src_pe  12 dst_pe  16 ft_peer
//   20 ft_seq  28 size_override  36 payload...
void write_header(std::byte* h, FrameKind kind, std::uint8_t ft_flags,
                  std::uint8_t wire_flags, std::uint32_t handler,
                  std::int32_t src_pe, std::int32_t dst_pe,
                  std::int32_t ft_peer, std::uint64_t ft_seq,
                  std::uint64_t size_override) {
  put<std::uint8_t>(h, 0, static_cast<std::uint8_t>(kind));
  put<std::uint8_t>(h, 1, ft_flags);
  put<std::uint8_t>(h, 2, wire_flags);
  put<std::uint8_t>(h, 3, 0);
  put<std::uint32_t>(h, 4, handler);
  put<std::int32_t>(h, 8, src_pe);
  put<std::int32_t>(h, 12, dst_pe);
  put<std::int32_t>(h, 16, ft_peer);
  put<std::uint64_t>(h, 20, ft_seq);
  put<std::uint64_t>(h, 28, size_override);
}

}  // namespace

FrameHead encode_header(const cxm::Message& m) {
  if (m.local != nullptr) {
    // By-reference payloads are the same-process fast path; the location
    // layer must never route one toward a socket.
    throw std::logic_error("cxnet: cannot encode a local-payload message");
  }
  const std::size_t body = kFrameHeaderBytes + m.data.size();
  if (body > kMaxFrameBytes) {
    throw std::length_error("cxnet: frame exceeds kMaxFrameBytes (" +
                            std::to_string(body) + " bytes)");
  }
  FrameHead h{};
  put<std::uint32_t>(h.data(), 0, static_cast<std::uint32_t>(body));
  write_header(h.data() + sizeof(std::uint32_t), FrameKind::Data, m.ft_flags,
               m.wire_flags, m.handler, m.src_pe, m.dst_pe, m.ft_peer,
               m.ft_seq, m.size_override);
  return h;
}

FrameHead encode_control(ControlOp op, std::int32_t dst_pe,
                         std::int32_t src_pe) {
  FrameHead h{};
  put<std::uint32_t>(h.data(), 0,
                     static_cast<std::uint32_t>(kFrameHeaderBytes));
  write_header(h.data() + sizeof(std::uint32_t), FrameKind::Control, 0, 0,
               static_cast<std::uint32_t>(op), src_pe, dst_pe, -1, 0, 0);
  return h;
}

FrameReader::Status FrameReader::next(const std::byte*& p, std::size_t& n,
                                      Frame& out) {
  if (failed()) return Status::Error;
  if (msg_ == nullptr) {
    // The head collects in a fixed array. The 4-byte prefix is taken on
    // its own and validated first: a hostile or corrupt length is
    // rejected before anything is allocated or waited for.
    while (head_have_ < kFrameHeadBytes) {
      if (n == 0) return Status::NeedMore;
      const std::size_t upto = head_have_ < sizeof(std::uint32_t)
                                   ? sizeof(std::uint32_t)
                                   : kFrameHeadBytes;
      const std::size_t take = std::min(n, upto - head_have_);
      std::memcpy(head_.data() + head_have_, p, take);
      head_have_ += take;
      p += take;
      n -= take;
      if (head_have_ != sizeof(std::uint32_t)) continue;
      const auto len = get<std::uint32_t>(head_.data(), 0);
      if (len < kFrameHeaderBytes || len > max_frame_) {
        error_ = "bad frame length prefix " + std::to_string(len) +
                 " (valid: " + std::to_string(kFrameHeaderBytes) + ".." +
                 std::to_string(max_frame_) + ")";
        return Status::Error;
      }
    }
    if (!begin_frame()) return Status::Error;
  }
  // Payload bytes that arrived together with the head; the caller reads
  // the rest straight into payload_window().
  const std::size_t take = std::min(n, msg_->data.size() - have_);
  if (take > 0) {
    std::memcpy(msg_->data.data() + have_, p, take);
    have_ += take;
    p += take;
    n -= take;
    cx::trace::detail::g_wire.net_rx_copy_bytes.fetch_add(
        take, std::memory_order_relaxed);
  }
  if (have_ < msg_->data.size()) return Status::NeedMore;
  out.kind = kind_;
  out.msg = std::move(msg_);
  head_have_ = 0;
  have_ = 0;
  return Status::Frame;
}

std::span<std::byte> FrameReader::payload_window() noexcept {
  if (msg_ == nullptr) return {};
  return {msg_->data.data() + have_, msg_->data.size() - have_};
}

bool FrameReader::begin_frame() {
  const std::byte* h = head_.data() + sizeof(std::uint32_t);
  const auto kind = get<std::uint8_t>(h, 0);
  if (kind > static_cast<std::uint8_t>(FrameKind::Control)) {
    error_ = "unknown frame kind " + std::to_string(kind);
    return false;
  }
  kind_ = static_cast<FrameKind>(kind);
  auto m = std::make_unique<cxm::Message>();
  m->ft_flags = get<std::uint8_t>(h, 1);
  m->wire_flags = get<std::uint8_t>(h, 2);
  m->handler = get<std::uint32_t>(h, 4);
  m->src_pe = get<std::int32_t>(h, 8);
  m->dst_pe = get<std::int32_t>(h, 12);
  m->ft_peer = get<std::int32_t>(h, 16);
  m->ft_seq = get<std::uint64_t>(h, 20);
  m->size_override = get<std::uint64_t>(h, 28);
  m->data.resize_discard(get<std::uint32_t>(head_.data(), 0) -
                         kFrameHeaderBytes);
  msg_ = std::move(m);
  return true;
}

void encode_handshake(const Handshake& h, std::byte out[kHandshakeBytes]) {
  put<std::uint32_t>(out, 0, h.magic);
  put<std::uint16_t>(out, 4, h.version);
  put<std::uint16_t>(out, 6, h.header_bytes);
  put<std::uint32_t>(out, 8, h.endian_probe);
  put<std::uint8_t>(out, 12, h.size_t_width);
  put<std::uint8_t>(out, 13, h.pointer_width);
  put<std::uint8_t>(out, 14, h.long_width);
  put<std::uint8_t>(out, 15, h.double_width);
  put<std::uint32_t>(out, 16, h.rank);
  put<std::uint32_t>(out, 20, h.nranks);
  put<std::uint32_t>(out, 24, h.ppn);
  put<std::uint64_t>(out, 28, h.shm_offer);
}

Handshake decode_handshake(const std::byte in[kHandshakeBytes]) {
  Handshake h;
  h.magic = get<std::uint32_t>(in, 0);
  h.version = get<std::uint16_t>(in, 4);
  h.header_bytes = get<std::uint16_t>(in, 6);
  h.endian_probe = get<std::uint32_t>(in, 8);
  h.size_t_width = get<std::uint8_t>(in, 12);
  h.pointer_width = get<std::uint8_t>(in, 13);
  h.long_width = get<std::uint8_t>(in, 14);
  h.double_width = get<std::uint8_t>(in, 15);
  h.rank = get<std::uint32_t>(in, 16);
  h.nranks = get<std::uint32_t>(in, 20);
  h.ppn = get<std::uint32_t>(in, 24);
  h.shm_offer = get<std::uint64_t>(in, 28);
  return h;
}

std::string handshake_check(const Handshake& mine, const Handshake& theirs) {
  if (theirs.magic != mine.magic) {
    return "peer is not a charmx socket backend (magic 0x" +
           [](std::uint32_t v) {
             char buf[9];
             std::snprintf(buf, sizeof(buf), "%08x", v);
             return std::string(buf);
           }(theirs.magic) +
           ", expected CXSM)";
  }
  if (theirs.version != mine.version) {
    return "wire version mismatch (peer v" + std::to_string(theirs.version) +
           ", local v" + std::to_string(mine.version) + ")";
  }
  if (theirs.endian_probe != mine.endian_probe) {
    return "endianness mismatch (probe 0x" +
           std::to_string(theirs.endian_probe) +
           "): the frame format is native-endian and byte-swapping is not "
           "supported — run all ranks on same-endian hosts";
  }
  if (theirs.header_bytes != mine.header_bytes) {
    return "frame header size mismatch (peer " +
           std::to_string(theirs.header_bytes) + "B, local " +
           std::to_string(mine.header_bytes) + "B)";
  }
  if (theirs.size_t_width != mine.size_t_width ||
      theirs.pointer_width != mine.pointer_width ||
      theirs.long_width != mine.long_width ||
      theirs.double_width != mine.double_width) {
    return "primitive width mismatch (peer size_t/ptr/long/double = " +
           std::to_string(theirs.size_t_width) + "/" +
           std::to_string(theirs.pointer_width) + "/" +
           std::to_string(theirs.long_width) + "/" +
           std::to_string(theirs.double_width) +
           "): pup packs host-width fields — all ranks must share an ABI";
  }
  if (theirs.nranks != mine.nranks || theirs.ppn != mine.ppn) {
    return "job geometry mismatch (peer says " +
           std::to_string(theirs.nranks) + " ranks x " +
           std::to_string(theirs.ppn) + " PEs, local " +
           std::to_string(mine.nranks) + " x " + std::to_string(mine.ppn) +
           ")";
  }
  if (theirs.rank >= theirs.nranks) {
    return "peer rank " + std::to_string(theirs.rank) + " out of range";
  }
  return "";
}

}  // namespace cxnet
