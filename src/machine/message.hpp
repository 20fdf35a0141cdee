#pragma once
// The unit of communication between PEs.
//
// A message carries a machine-level handler id (the runtime registers a
// small number of handlers: entry-method delivery, reduction fragments,
// migration, ...) plus either a serialized payload (`data`, used for
// cross-PE sends) or an in-process reference payload (`local`, the paper's
// same-process by-reference optimization — no serialization, zero copy).
//
// Allocation: Message objects come from the cx::wire block pool via the
// class-specific operator new/delete below, and `data` is a cx::wire
// SBO buffer, so a small cross-PE send costs at most one pooled block
// (and often zero heap traffic once the pool is warm). Plain
// make_unique<Message>/new/delete anywhere in the codebase recycles
// automatically.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "wire/buffer.hpp"
#include "wire/pool.hpp"

namespace cxm {

// cx::ft wire flags (Message::ft_flags). All zero on the fault-free
// fast path; the machine backends only inspect them when fault
// tolerance is enabled in MachineConfig.
inline constexpr std::uint8_t kFtReliable = 1;    ///< carries a seq, wants an ack
inline constexpr std::uint8_t kFtAck = 2;         ///< machine-level ack
inline constexpr std::uint8_t kFtTimer = 4;       ///< internal retransmit timer
inline constexpr std::uint8_t kFtRetransmit = 8;  ///< resent copy
/// Fire-and-forget protocol traffic (heartbeats): never enrolled in
/// reliable delivery — a lost copy is superseded by the next one, and
/// acking every heartbeat would double the liveness layer's traffic.
inline constexpr std::uint8_t kFtBestEffort = 16;

// cx::wire aggregation flags (Message::wire_flags). All zero on the
// ordinary path; the backends only inspect them when --wire-agg is on.
inline constexpr std::uint8_t kWireAggBatch = 1;  ///< sealed batch of messages
inline constexpr std::uint8_t kWireNoAgg = 2;     ///< protocol traffic: bypass
inline constexpr std::uint8_t kWireAggFlush = 4;  ///< internal flush timer

struct Message {
  std::uint32_t handler = 0;  ///< machine handler id (see Machine)
  std::int32_t src_pe = -1;   ///< sending PE (-1 = external / bootstrap)
  std::int32_t dst_pe = 0;    ///< destination PE
  cx::wire::Buffer data;      ///< serialized payload (cross-PE path)

  /// Same-PE reference payload. When non-null, `data` is empty and the
  /// receiver downcasts `local` to the runtime's in-process envelope
  /// type. `local_drop` releases it (back to the envelope pool) when
  /// the message dies undelivered; delivery takes ownership and clears
  /// both fields.
  void* local = nullptr;
  void (*local_drop)(void*) noexcept = nullptr;
  std::uint64_t local_size = 0;  ///< nominal size for accounting/cost models

  /// When nonzero, cost models account this size instead of the actual
  /// payload size. Used by modeled-kernel simulation runs that ship
  /// token payloads standing in for full-size data.
  std::uint64_t size_override = 0;

  /// cx::ft reliable-delivery header: per-(src,dst) sequence number,
  /// protocol flags, and the peer PE an ack/timer refers to. All unused
  /// (and never inspected) when fault tolerance is disabled.
  std::uint64_t ft_seq = 0;
  std::int32_t ft_peer = -1;
  std::uint8_t ft_flags = 0;

  /// cx::wire aggregation flags (kWireAggBatch / kWireNoAgg /
  /// kWireAggFlush). Zero for ordinary messages; only inspected when
  /// sender-side aggregation is enabled.
  std::uint8_t wire_flags = 0;

  /// Machine-owned queue link: the threaded machine's mailboxes chain
  /// queued messages through it (never copied, never on the wire).
  std::atomic<Message*> next{nullptr};

  Message() = default;

  /// Duplicate for ft injection/retransmission. Local (by-reference)
  /// payloads are single-owner and never travel those paths — both
  /// backends guard them with `!msg->local` — so the copy drops them.
  Message(const Message& o)
      : handler(o.handler),
        src_pe(o.src_pe),
        dst_pe(o.dst_pe),
        data(o.data),
        local_size(o.local_size),
        size_override(o.size_override),
        ft_seq(o.ft_seq),
        ft_peer(o.ft_peer),
        ft_flags(o.ft_flags),
        wire_flags(o.wire_flags) {}
  Message& operator=(const Message&) = delete;

  ~Message() {
    if (local != nullptr && local_drop != nullptr) local_drop(local);
  }

  /// Take the local payload out (delivery path): the destructor must
  /// not drop what the handler now owns.
  [[nodiscard]] void* take_local() noexcept {
    void* p = local;
    local = nullptr;
    local_drop = nullptr;
    return p;
  }

  [[nodiscard]] std::uint64_t wire_size() const noexcept {
    if (size_override != 0) return size_override;
    return local != nullptr ? local_size : data.size();
  }

  // Pooled storage — every `new Message` / make_unique<Message> in the
  // codebase recycles through the cx::wire block pool.
  static void* operator new(std::size_t sz) { return cx::wire::alloc_msg(sz); }
  static void operator delete(void* p) noexcept {
    cx::wire::free_msg(p, sizeof(Message));
  }
  static void operator delete(void* p, std::size_t sz) noexcept {
    cx::wire::free_msg(p, sz);
  }
};

static_assert(sizeof(Message) <= cx::wire::kMsgBlock,
              "Message must fit the wire pool's message block size");

using MessagePtr = std::unique_ptr<Message>;

}  // namespace cxm
