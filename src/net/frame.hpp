#pragma once
// cx::net on-socket frame format and connection handshake.
//
// The socket backend (machine/link.hpp) reuses cx::wire envelopes
// verbatim: the frame is the Message's wire-relevant header fields plus
// its payload bytes, behind a u32 length prefix —
//
//   u32 len   (bytes that follow: header + payload; NOT including len)
//   u8  kind  (0 = data, 1 = control)
//   u8  ft_flags      | the cx::ft reliable-delivery header travels
//   u8  wire_flags    | unchanged, so seq/ack/retransmit and batch
//   u8  reserved      | unpacking work across processes
//   u32 handler       (control frames: opcode)
//   i32 src_pe
//   i32 dst_pe
//   i32 ft_peer
//   u64 ft_seq
//   u64 size_override
//   payload bytes (the Message's cx::wire Buffer, byte-for-byte)
//
// Fields are host-endian and host-width: the payload itself is packed
// by pup with raw memcpy, so byte-swapping the header alone would buy
// nothing. Instead every connection starts with a Handshake carrying a
// magic, a format version, an endianness probe and the primitive
// widths; mismatched peers are rejected with a clear error rather than
// silently corrupting (full byte-swapping support is out of scope).
//
// Neither side accumulates the payload in a staging buffer. The sender
// writes the 40-byte head (prefix + header) and then the Message's own
// pooled buffer with one gathered write; the reader allocates the
// destination Message as soon as a head is validated and fills its
// buffer in place (only payload bytes that came in the same read as the
// head are copied).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "machine/message.hpp"

namespace cxnet {

// ---- frame ---------------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 36;  ///< after the u32 len
/// Length prefix plus header: the fixed head that starts every frame.
inline constexpr std::size_t kFrameHeadBytes =
    sizeof(std::uint32_t) + kFrameHeaderBytes;
/// Upper bound on a single frame (header + payload). A length prefix
/// beyond this is a protocol violation and closes the connection — the
/// reader checks the prefix before it allocates anything, so a hostile
/// 0xffffffff cannot OOM the process.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

using FrameHead = std::array<std::byte, kFrameHeadBytes>;

enum class FrameKind : std::uint8_t { Data = 0, Control = 1 };

/// Control opcodes (carried in the handler field of control frames).
enum class ControlOp : std::uint32_t {
  Stop = 0,    ///< cx::exit() — stop every rank's scheduler
  Kill = 1,    ///< inject_kill(dst_pe) forwarded to the owning rank
  Hang = 2,    ///< inject_hang(dst_pe)
  Revive = 3,  ///< revive_pe(dst_pe)
};

/// Head of the data frame carrying `m`, length prefix included. The
/// payload follows on the wire straight from m.data.
FrameHead encode_header(const cxm::Message& m);

/// A complete control frame (control frames carry no payload).
FrameHead encode_control(ControlOp op, std::int32_t dst_pe,
                         std::int32_t src_pe);

/// A decoded frame. `msg` carries every header field and the payload;
/// for a control frame `msg->handler` is the ControlOp.
struct Frame {
  FrameKind kind = FrameKind::Data;
  cxm::MessagePtr msg;
};

/// Incremental frame decoder over a TCP byte stream. Once a frame's
/// head is validated, the reader allocates the frame's Message at full
/// payload size and fills its buffer: from bytes the caller already
/// read (next()), or by the caller reading the socket straight into
/// payload_window(). Violations (bad length prefix, unknown kind) put
/// the reader in a sticky error state — the caller must drop the
/// connection.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  enum class Status { Frame, NeedMore, Error };

  /// Consume stream bytes from [p, p + n), advancing `p` and `n`.
  /// Returns Frame as soon as one frame is complete (the bytes after it
  /// stay in [p, p + n) for the next call), NeedMore once the input
  /// ends mid-frame, Error on a protocol violation.
  Status next(const std::byte*& p, std::size_t& n, Frame& out);

  /// The unfilled rest of the current frame's payload, for reading the
  /// socket straight into it; empty outside a payload.
  [[nodiscard]] std::span<std::byte> payload_window() noexcept;

  /// Account `n` bytes written into payload_window(); next() yields the
  /// frame once its payload is full.
  void commit(std::size_t n) noexcept { have_ += n; }

  /// True before a frame's first byte: no head or payload is open and
  /// no violation was seen.
  [[nodiscard]] bool between_frames() const noexcept {
    return head_have_ == 0 && msg_ == nullptr && error_.empty();
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }

 private:
  /// A head is complete: check its kind and allocate its Message.
  bool begin_frame();

  std::size_t max_frame_;
  FrameHead head_{};
  std::size_t head_have_ = 0;  ///< head bytes received so far
  FrameKind kind_ = FrameKind::Data;
  cxm::MessagePtr msg_;        ///< frame being filled (its head is done)
  std::size_t have_ = 0;       ///< payload bytes in msg_->data so far
  std::string error_;
};

// ---- handshake -----------------------------------------------------------

inline constexpr std::uint32_t kHandshakeMagic = 0x4d535843;  // "CXSM"
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::uint32_t kEndianProbe = 0x01020304;
inline constexpr std::size_t kHandshakeBytes = 36;

/// First bytes on every connection (rendezvous and mesh). Native-endian
/// like the frames; the probe field is how a foreign byte order is
/// detected (it reads back as 0x04030201 there). `shm_offer` names the
/// shared-memory segment (net/shm_ring.hpp) a mesh connection offers or
/// accepts; 0 means none, and the pair then frames over TCP.
struct Handshake {
  std::uint32_t magic = kHandshakeMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t header_bytes = static_cast<std::uint16_t>(kFrameHeaderBytes);
  std::uint32_t endian_probe = kEndianProbe;
  std::uint8_t size_t_width = sizeof(std::size_t);
  std::uint8_t pointer_width = sizeof(void*);
  std::uint8_t long_width = sizeof(long);
  std::uint8_t double_width = sizeof(double);
  std::uint32_t rank = 0;
  std::uint32_t nranks = 1;
  std::uint32_t ppn = 1;
  std::uint64_t shm_offer = 0;
};

void encode_handshake(const Handshake& h, std::byte out[kHandshakeBytes]);
Handshake decode_handshake(const std::byte in[kHandshakeBytes]);

/// Validate a peer's handshake against ours. Returns "" when the peer
/// speaks our wire format (and agrees on the job geometry), otherwise a
/// human-readable description of the mismatch.
std::string handshake_check(const Handshake& mine, const Handshake& theirs);

}  // namespace cxnet
