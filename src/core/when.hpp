#pragma once
// cx::when — dependency metadata for the condition-aware delivery engine
// (paper §II-E, §II-H2).
//
// The seed engine re-tested every `when`-buffered message after every
// entry method (O(n²) in the buffer depth). This header provides the
// vocabulary the scalable engine uses instead:
//
//   AttrKey    — an interned attribute name (FNV-1a hash; collisions
//                only ever cause spurious re-tests, never missed ones).
//   WhenDeps   — the set of `self.<attr>` names a condition reads,
//                extracted statically from the condition AST (model
//                layer) or declared by hand (set_when_deps<M>).
//   DirtyClock — a per-chare monotone clock; attribute writes mark
//                their key, and a buffered message is only re-tested
//                when one of its dependency keys was marked after the
//                message's last (failed) test.
//
// Conditions without dependency info (opaque C++ predicates) keep the
// seed's conservative behaviour: re-test after every entry method.
// The contract for tracked conditions: they read chare state only
// through attributes whose writes are marked (the dynamic layer marks
// every `self[...]` access), and treat message arguments as immutable
// payloads — exactly CharmPy's semantics.

#include <cstdint>
#include <deque>
#include <string_view>
#include <utility>
#include <vector>

namespace cx {

/// Interned attribute name used in dependency sets and dirty marks.
using AttrKey = std::uint64_t;

/// FNV-1a of the attribute name. A collision merges two attributes'
/// dirty marks, which is conservative (extra re-tests), never unsound.
/// The unrolled loop lets the hash of a string literal (up to 16 chars)
/// fold to a constant wherever the call is inlined.
constexpr AttrKey attr_key(std::string_view name) noexcept {
  std::uint64_t h = 1469598103934665603ull;
#pragma GCC unroll 16
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The chare attributes a `when` condition depends on. `known == false`
/// means static analysis could not bound the reads (e.g. the condition
/// uses bare `self` or a computed attribute name) and the engine must
/// fall back to re-testing after every entry method.
struct WhenDeps {
  bool known = false;
  std::vector<AttrKey> attrs;

  void add(AttrKey k) {
    for (const AttrKey a : attrs) {
      if (a == k) return;
    }
    attrs.push_back(k);
  }
};

/// Per-chare dirty clock: a monotone counter plus the last-marked tick of
/// every attribute written so far. Storage is a deque so the per-attribute
/// tick slots are address-stable — buffered messages cache direct slot
/// pointers for an O(1) "did my dependency change?" check, and the
/// dynamic layer's attribute index marks writes through the same slots.
class DirtyClock {
 public:
  /// Record a write of attribute `k` (bumps the clock).
  void mark(AttrKey k) {
    ++now_;
    for (auto& m : marks_) {
      if (m.first == k) {
        m.second = now_;
        return;
      }
    }
    marks_.emplace_back(k, now_);
  }

  /// Record a write through a slot obtained from slot_for (no search).
  void mark_slot(std::uint64_t* slot) noexcept { *slot = ++now_; }

  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }

  /// Address-stable tick slot for `k` (created at 0 if never marked).
  [[nodiscard]] std::uint64_t* slot_for(AttrKey k) {
    for (auto& m : marks_) {
      if (m.first == k) return &m.second;
    }
    marks_.emplace_back(k, 0);
    return &marks_.back().second;
  }

  /// True if any attribute in `deps` was marked after tick `since`.
  [[nodiscard]] bool any_since(const WhenDeps& deps,
                               std::uint64_t since) const noexcept {
    for (const AttrKey k : deps.attrs) {
      for (const auto& m : marks_) {
        if (m.first == k && m.second > since) return true;
      }
    }
    return false;
  }

 private:
  std::uint64_t now_ = 0;
  std::deque<std::pair<AttrKey, std::uint64_t>> marks_;
};

/// Engine mode switch (defined in delivery.cpp): dirty-dependency
/// filtering can be disabled with set_when_dirty_tracking(false) to
/// recover the seed's retry-all loop for A/B measurements
/// (bench/micro_when).
[[nodiscard]] bool when_dirty_tracking_enabled() noexcept;
void set_when_dirty_tracking(bool on) noexcept;

/// Global generation counter for when-condition *configuration* (as
/// opposed to chare state): bumped whenever a condition or dependency
/// set is attached, replaced or cleared. A chare whose buffer was
/// bucketed under an older epoch conservatively re-extracts every
/// buffered message's deps and re-tests it once (defined in
/// delivery.cpp).
[[nodiscard]] std::uint64_t when_config_epoch() noexcept;
void bump_when_config_epoch() noexcept;

}  // namespace cx
