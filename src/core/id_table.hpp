#pragma once
// Append-only id-indexed table, read without a lock.
//
// Entry methods, chare factories and reduction combiners register during
// static initialization (the ranks of a socket job must assign the same
// ids), plus a few lazily afterwards; after that, every delivered
// message names one of them by id. So the tables are written a handful
// of times and read on every message.
//
// Entries live in fixed-size chunks that never move, so a reference
// handed out stays valid while other threads append. A writer appends
// under the mutex and publishes the new count with a release store. A
// reader bounds-checks the id against an acquire load of the count and
// then indexes without a lock: the chunk pointer and the entry were
// written before the count that makes them visible. An id at or past
// the count (say, from a corrupt message) is a std::out_of_range, never
// a read past the table.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace cx {

template <typename T>
class IdTable {
 public:
  static constexpr std::uint32_t kChunkBits = 6;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  static constexpr std::uint32_t kMaxChunks = 256;
  static constexpr std::uint32_t kCapacity = kChunk * kMaxChunks;

  /// `what` names an entry in error messages ("entry method", ...).
  explicit IdTable(const char* what) noexcept : what_(what) {}
  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;
  ~IdTable() {
    for (T* c : chunks_) delete[] c;
  }

  /// Append `value` and return its id (dense, from 0).
  std::uint32_t append(T value) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t id = count_.load(std::memory_order_relaxed);
    if (id == kCapacity) {
      throw std::length_error(std::string(what_) + " table is full (" +
                              std::to_string(kCapacity) + " ids)");
    }
    T*& chunk = chunks_[id >> kChunkBits];
    if (chunk == nullptr) chunk = new T[kChunk];
    chunk[id & (kChunk - 1)] = std::move(value);
    count_.store(id + 1, std::memory_order_release);
    return id;
  }

  [[nodiscard]] const T& at(std::uint32_t id) const { return slot(id); }
  /// Writable entry, for attribute edits after registration. The table
  /// does not synchronize these with readers of the same entry.
  [[nodiscard]] T& mutable_at(std::uint32_t id) { return slot(id); }

  [[nodiscard]] std::uint32_t size() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

 private:
  T& slot(std::uint32_t id) const {
    const std::uint32_t n = count_.load(std::memory_order_acquire);
    if (id >= n) {
      throw std::out_of_range("unknown " + std::string(what_) + " id " +
                              std::to_string(id) + " (" +
                              std::to_string(n) + " registered)");
    }
    return chunks_[id >> kChunkBits][id & (kChunk - 1)];
  }

  const char* what_;
  std::mutex mutex_;
  std::atomic<std::uint32_t> count_{0};
  std::array<T*, kMaxChunks> chunks_{};
};

}  // namespace cx
