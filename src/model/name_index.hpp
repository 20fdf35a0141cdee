#pragma once
// Name-keyed lookup tables of the model layer: the per-chare attribute
// index, and the class and method tables that dispatch reads without a
// lock.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "core/when.hpp"

namespace cpy::detail {

/// Open-addressed table from a name to an entry pointing into node-based
/// storage owned elsewhere (the attribute dict, the method registry).
/// Linear probing over a power-of-two capacity kept at most half full;
/// it grows by doubling. A probe matches on the cx::attr_key hash and
/// then compares the name itself, so two names whose hashes collide
/// never alias. `E` has a `key`, `bool empty() const` and
/// `std::string_view name() const`.
template <typename E>
class NameIndex {
 public:
  [[nodiscard]] const E* find(cx::AttrKey key,
                              std::string_view name) const noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = key & mask;; i = (i + 1) & mask) {
      const E& e = slots_[i];
      if (e.empty()) return nullptr;
      if (e.key == key && e.name() == name) return &e;
    }
  }

  /// Add an entry whose name is not in the table yet.
  void insert(const E& e) {
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<E> old(std::max<std::size_t>(8, 2 * slots_.size()));
      old.swap(slots_);
      for (const E& o : old) {
        if (!o.empty()) place(o);
      }
    }
    place(e);
    ++size_;
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
  }

 private:
  void place(const E& e) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = e.key & mask;
    while (!slots_[i].empty()) i = (i + 1) & mask;
    slots_[i] = e;
  }

  std::vector<E> slots_;
  std::size_t size_ = 0;
};

/// A NameIndex that readers search without a lock. Writers, serialized
/// by their owner's mutex, copy the current index, add to the copy and
/// publish it with a release store. Superseded copies stay allocated
/// (a reader may still be probing one), so memory grows with the square
/// of the entry count: fine for class and method tables, which are
/// filled once by the program's definitions.
template <typename E>
class PublishedIndex {
 public:
  [[nodiscard]] const E* find(cx::AttrKey key,
                              std::string_view name) const noexcept {
    const NameIndex<E>* cur = cur_.load(std::memory_order_acquire);
    return cur == nullptr ? nullptr : cur->find(key, name);
  }

  /// Publish a copy with `e` added. The caller holds the writers' mutex
  /// and `e`'s name is not in the index yet.
  void insert(const E& e) {
    const NameIndex<E>* cur = cur_.load(std::memory_order_relaxed);
    auto next = cur == nullptr ? std::make_unique<NameIndex<E>>()
                               : std::make_unique<NameIndex<E>>(*cur);
    next->insert(e);
    cur_.store(next.get(), std::memory_order_release);
    versions_.push_back(std::move(next));
  }

 private:
  std::atomic<const NameIndex<E>*> cur_{nullptr};
  std::vector<std::unique_ptr<const NameIndex<E>>> versions_;
};

}  // namespace cpy::detail
