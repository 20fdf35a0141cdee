#pragma once
// Chare — the distributed migratable object (paper §II-B).
//
// Users define distributed types by inheriting from cx::Chare. Any method
// becomes remotely invocable through a proxy (see proxy.hpp); no interface
// files or preprocessing are involved. A single chare class can be used
// for singleton chares, Groups and Arrays of any dimension — the paper's
// key flexibility point over Charm++.

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/ids.hpp"
#include "core/index.hpp"
#include "core/reduction.hpp"
#include "core/runtime.hpp"
#include "core/when.hpp"
#include "pup/pup.hpp"

namespace cxf {
class Fiber;
}

namespace cx {

class Runtime;

/// A buffered entry-method delivery (used by `when` predicates and by
/// messages that arrive before their target element exists).
struct PendingInvoke {
  /// Sentinel for n_slots: dependency count exceeded the inline slots,
  /// fall back to DirtyClock::any_since over deps->attrs.
  static constexpr std::uint8_t kSlowDeps = 0xff;

  EpId ep = 0;
  std::shared_ptr<void> args;  ///< unpacked argument tuple
  ReplyTo reply;
  ReplyTo bcast_done;  ///< broadcast-completion slot (if part of a bcast)
  std::uint64_t seq = 0;       ///< chare-wide arrival order (FIFO)
  const WhenDeps* deps = nullptr;  ///< condition deps (null → conservative)
  std::uint64_t tested_at = 0;     ///< dirty-clock tick of the last test
  /// Cached dirty-clock slots of deps->attrs (fast candidate check).
  std::array<const std::uint64_t*, 2> dep_slots{};
  std::uint8_t n_slots = 0;
};

/// Per-chare buffer of when-gated deliveries, bucketed by (entry point,
/// condition dependency set). All messages of a bucket share the same
/// deps pointer, so a whole bucket can be skipped with one clock check;
/// FIFO order among eligible messages is preserved through `seq`.
struct WhenBuffer {
  struct Bucket {
    EpId ep = 0;
    const WhenDeps* deps = nullptr;  ///< shared by every message in q
    /// Every message in q has tested_at >= floor: if no dep was marked
    /// after floor, no message in the bucket can have become eligible.
    std::uint64_t floor = 0;
    std::deque<PendingInvoke> q;
  };

  std::vector<Bucket> buckets;
  std::size_t total = 0;       ///< messages across all buckets
  std::size_t unknown = 0;     ///< messages without usable deps
  std::uint64_t next_seq = 0;  ///< arrival counter (survives drains)

  [[nodiscard]] bool empty() const noexcept { return total == 0; }

  Bucket& bucket_for(EpId ep, const WhenDeps* deps) {
    for (auto& b : buckets) {
      if (b.ep == ep && b.deps == deps) return b;
    }
    buckets.push_back(Bucket{ep, deps, 0, {}});
    return buckets.back();
  }

  /// Visit every pending delivery in arrival (seq) order.
  template <typename Fn>
  void for_each_in_order(Fn&& fn) {
    std::vector<PendingInvoke*> all;
    all.reserve(total);
    for (auto& b : buckets) {
      for (auto& pi : b.q) all.push_back(&pi);
    }
    std::sort(all.begin(), all.end(),
              [](const PendingInvoke* x, const PendingInvoke* y) {
                return x->seq < y->seq;
              });
    for (PendingInvoke* pi : all) fn(*pi);
  }

  void clear() noexcept {
    buckets.clear();
    total = 0;
    unknown = 0;
  }
};

/// A fiber suspended in wait(cond) until the chare reaches a state.
struct PendingWait {
  std::function<bool()> cond;
  cxf::Fiber* fiber = nullptr;
  bool scheduled = false;  ///< resume already enqueued
};

class Chare {
 public:
  /// Adopts the identity (collection, index) staged by the runtime, so
  /// thisIndex is available inside user constructors (as in CharmPy).
  Chare();
  virtual ~Chare() = default;

  Chare(const Chare&) = delete;
  Chare& operator=(const Chare&) = delete;

  /// Serialize user state for migration (override in migratable chares).
  virtual void pup(pup::Er&) {}

  /// Called after dynamic load balancing completes (AtSync protocol).
  virtual void resume_from_sync() {}

  /// Called on the destination PE right after a migration lands.
  virtual void on_migrated() {}

  /// This chare's index within its collection (thisIndex in the paper).
  [[nodiscard]] const Index& this_index() const noexcept { return idx_; }

  /// Id of the collection this chare belongs to.
  [[nodiscard]] CollectionId collection() const noexcept { return coll_; }

 protected:
  // --- services available to entry-method bodies (defined in runtime.cpp
  //     or charm.hpp; they operate on the current Runtime) ---

  /// Suspend the current (threaded) entry method until cond() is true.
  /// cond is re-evaluated after every entry method executed on this chare
  /// (paper §II-H2).
  void wait(std::function<bool()> cond);

  /// Move this chare to another PE once the current entry method returns
  /// (paper §II-I).
  void migrate(int to_pe);

  /// Tell the runtime this chare is ready for load balancing; the runtime
  /// collects measured loads, rebalances, migrates, then calls
  /// resume_from_sync() on every element (paper §II-J).
  void at_sync();

  /// Measured load (seconds of entry-method execution) since last LB.
  [[nodiscard]] double measured_load() const noexcept { return load_; }

  /// Tell the condition engine that named chare state changed. Pairs
  /// with set_when_deps<M>: conditions whose declared deps were not
  /// marked since their last failed test are not re-evaluated. The
  /// dynamic layer marks every attribute access, through cached slots.
  void mark_when_dirty(AttrKey attr) { dirty_.mark(attr); }

  /// Address-stable dirty tick slot of `attr`: marking through it with
  /// mark_when_dirty_slot is mark_when_dirty(attr) without the search.
  [[nodiscard]] std::uint64_t* when_dirty_slot(AttrKey attr) {
    return dirty_.slot_for(attr);
  }
  void mark_when_dirty_slot(std::uint64_t* slot) noexcept {
    dirty_.mark_slot(slot);
  }

  /// Contribute to the current reduction of this chare's collection
  /// (paper §II-F). `target` receives the combined result.
  /// Defined in charm.hpp.
  template <typename T>
  void contribute(const T& value, CombineId reducer, const Callback& target);

  /// Empty reduction: synchronization only (data=None, reducer=None).
  void contribute(const Callback& target);

  /// Gather contribution: target receives all values sorted by index.
  template <typename T>
  void contribute_gather(const T& value, const Callback& target);

  /// Section-scoped contribution: fold `value` over the members of
  /// `section` only (a SectionProxy obtained from
  /// CollectionProxy::section). Multiple reductions per section may be
  /// in flight — each call advances this element's per-section sequence
  /// tag. Works from migrated elements: the fragment routes through the
  /// member's home PE (its delegate in the section tree). Defined in
  /// charm.hpp.
  template <typename S, typename T>
  void contribute(const S& section, const T& value, CombineId reducer,
                  const Callback& target);

  /// Section-scoped empty reduction (barrier over the section).
  template <typename S>
  void contribute(const S& section, const Callback& target);

 private:
  friend class Runtime;
  friend struct Runtime::Impl;

  CollectionId coll_ = kInvalidCollection;
  Index idx_;
  std::uint32_t red_no_ = 0;      ///< this element's next reduction number
  /// Per-section reduction sequence tags (travel with migration).
  std::map<std::uint64_t, std::uint32_t> sect_seq_;
  double load_ = 0.0;             ///< accumulated EM time since last LB
  bool migrate_pending_ = false;
  bool migrate_for_lb_ = false;
  int migrate_to_ = -1;
  bool sync_pending_ = false;
  bool post_active_ = false;  ///< re-entrancy guard for delivery rescans
  int active_fibers_ = 0;  ///< threaded EMs in flight (blocks migration)
  WhenBuffer buffered_;    ///< `when`-buffered deliveries (bucketed)
  DirtyClock dirty_;       ///< attribute-write clock for retest filtering
  std::uint64_t last_retest_clock_ = 0;  ///< dirty tick at last retest
  std::uint64_t when_epoch_seen_ = 0;    ///< config epoch buffer reflects
  std::vector<PendingWait> waits_;       ///< suspended wait() fibers
};

}  // namespace cx
