#pragma once
// Same-host shared-memory byte rings between two ranks of a job.
//
// Two ranks on one host share one POSIX shared-memory segment holding
// two single-producer, single-consumer byte rings of kRingBytes, one per
// direction. A ring carries exactly the byte stream the TCP connection
// would: each frame's 40-byte head, then its payload (net/frame.hpp), so
// the FrameReader on the far side cannot tell the media apart.
//
// Indices are free-running u64 byte counts: the producer publishes
// `tail` (bytes ever written), the consumer `head` (bytes ever
// consumed); the position in the ring is the count modulo kRingBytes.
// Each side keeps its own index privately and only reads the other's,
// and since the other side is another process, that index is hostile
// input: a tail behind the head, or more than the ring size ahead of
// it, is reported as a protocol violation, never used to address the
// ring.
//
// Doorbells. Neither side ever blocks on the ring itself; each side's
// waiting thread polls, and blocks only in epoll on the pair's TCP
// connection. A consumer about to block sets `sleeping` and looks at
// its ring once more; a producer that has published bytes and finds
// `sleeping` set claims it and pokes the consumer with one byte on the
// connection. Likewise a producer about to block with bytes left over a
// full ring sets `want_space` and looks once more; a consumer that frees
// space and finds `want_space` set claims it and pokes back. Each is
// store, full fence, load on both sides, so one of the two always sees
// the other and no wake-up is lost; a side that is polling costs its
// peer no poke.
//
// Lifetime. The rank that connects creates the segment, reserves its
// pages with posix_fallocate (a full tmpfs fails here, at wireup, not
// with a SIGBUS on a later write), and offers it in its handshake; the
// accepting rank maps it and confirms. Both unlink the name as soon as
// they have mapped it, so no segment outlives wireup; the mappings last
// until each process unmaps or exits.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

namespace cxnet {

/// Bytes in each direction's ring. Fixed: a power of two, so a position
/// is a mask of the free-running index.
inline constexpr std::size_t kRingBytes = 256u << 10;

/// The control words of one ring, each on its own cache line. Plain
/// integers in the shared segment, always accessed through
/// std::atomic_ref, which is address-free for these widths.
struct RingCtl {
  alignas(64) std::uint64_t tail;        ///< producer-written
  alignas(64) std::uint64_t head;        ///< consumer-written
  alignas(64) std::uint32_t sleeping;    ///< consumer may block
  alignas(64) std::uint32_t want_space;  ///< producer waits for room
};
static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free &&
                  std::atomic_ref<std::uint32_t>::is_always_lock_free,
              "ring control words must be address-free atomics");

/// Producer end of a ring. Used by one thread at a time.
class RingTx {
 public:
  RingTx() = default;
  RingTx(RingCtl* ctl, std::byte* data) : ctl_(ctl), data_(data) {}
  explicit operator bool() const noexcept { return ctl_ != nullptr; }

  /// Copy as much of `a` then `b` as the ring has room for and publish
  /// it. Returns the bytes taken (fewer than offered when the ring is
  /// full), or -1 when the consumer's head is out of range.
  std::ptrdiff_t write(std::span<const std::byte> a,
                       std::span<const std::byte> b);

  /// After a write: true when the consumer is (about to be) asleep. The
  /// caller has claimed the wake-up and must poke it.
  bool claim_sleeper();

  /// Free bytes now, or -1 when the consumer's head is out of range.
  [[nodiscard]] std::ptrdiff_t space() const noexcept;

  /// Before blocking on a full ring: ask the consumer to poke once it
  /// frees space. The caller must check space() once more after.
  void want_space();

  /// The ring's control words, for tests that play a hostile peer.
  [[nodiscard]] RingCtl* ctl() const noexcept { return ctl_; }

 private:
  RingCtl* ctl_ = nullptr;
  std::byte* data_ = nullptr;
  std::uint64_t tail_ = 0;
};

/// Consumer end of a ring. Used by one thread at a time; pending() by
/// any thread.
class RingRx {
 public:
  RingRx() = default;
  RingRx(RingCtl* ctl, std::byte* data) : ctl_(ctl), data_(data) {}
  explicit operator bool() const noexcept { return ctl_ != nullptr; }

  /// Bytes ready to read, or -1 when the producer's tail is behind the
  /// head or more than kRingBytes ahead of it. Consumer only.
  [[nodiscard]] std::ptrdiff_t available() const noexcept;

  /// available() from the shared indices alone (the published head, not
  /// the consumer's private one), so any thread may ask, whoever
  /// consumes. Exact while no consume() runs; during one it may be
  /// stale, so it is a hint, and the consumer's available() decides.
  [[nodiscard]] std::ptrdiff_t pending() const noexcept;

  /// The first min(n, bytes to the ring's end) readable bytes, in place.
  /// `n` must not exceed available().
  [[nodiscard]] std::span<const std::byte> peek(std::size_t n) const noexcept;

  /// Copy the next `n` readable bytes into `dst`, across the wrap.
  void copy_out(std::byte* dst, std::size_t n) const noexcept;

  /// Release `n` read bytes to the producer. Returns true when the
  /// producer was waiting for space: the caller has claimed the wake-up
  /// and must poke it.
  bool consume(std::size_t n);

  /// Announce that the consumer is about to block (`on`) or has woken.
  /// After announcing sleep, the caller must check available() once
  /// more before it blocks.
  void set_sleeping(bool on);

 private:
  RingCtl* ctl_ = nullptr;
  std::byte* data_ = nullptr;
  std::uint64_t head_ = 0;
};

/// One mapped segment: the two rings of a rank pair. Move-only; unmaps
/// (and unlinks the name, if this side still holds it) on destruction.
class ShmSegment {
 public:
  ShmSegment() = default;
  ~ShmSegment();
  ShmSegment(ShmSegment&& o) noexcept;
  ShmSegment& operator=(ShmSegment&& o) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  /// Create, reserve and map a fresh segment for the pair (`me`,
  /// `peer`). Empty when any step fails (no shared memory, full tmpfs):
  /// the pair then stays on TCP.
  static ShmSegment create(std::uint32_t me, std::uint32_t peer);
  /// Map the segment `peer` offered. Empty when it cannot be opened or
  /// is not the segment offered to `me`.
  static ShmSegment open(std::uint64_t offer, std::uint32_t me,
                         std::uint32_t peer);

  explicit operator bool() const noexcept { return base_ != nullptr; }
  /// The handshake value naming this segment (never 0 when mapped).
  [[nodiscard]] std::uint64_t offer() const noexcept { return offer_; }
  /// Remove the segment's name; the mappings stay valid.
  void unlink() noexcept;

  /// This side's outbound and inbound rings.
  [[nodiscard]] RingTx tx() const noexcept;
  [[nodiscard]] RingRx rx() const noexcept;

 private:
  void reset() noexcept;
  [[nodiscard]] RingCtl* ctl(int dir) const noexcept;
  [[nodiscard]] std::byte* data(int dir) const noexcept;

  std::byte* base_ = nullptr;
  std::uint64_t offer_ = 0;
  bool creator_ = false;
  bool named_ = false;  ///< this side has not unlinked the name yet
};

}  // namespace cxnet
