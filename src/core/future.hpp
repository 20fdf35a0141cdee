#pragma once
// Futures (paper §II-D, §II-H3).
//
// A Future is a proxy for a value that will arrive later. Futures are
// created explicitly (cx::make_future<T>()), returned by proxy call<>()
// (the `ret=True` keyword of the paper), can be sent to other chares as
// entry-method arguments, and can be reduction targets.
//
// get() suspends the calling fiber — the PE keeps scheduling other work
// while waiting, so blocking a future never blocks the process (§II-D).
// get() must run on the creating PE inside a threaded entry method.
//
// get_for(timeout) is the fault-aware variant (cx::ft): it gives up after
// `timeout` seconds of backend time (virtual under the simulator, wall
// under threads) so a caller can detect a dead producer and degrade
// gracefully instead of hanging. The future stays valid after a timeout
// and still picks up a late value.
//
// Ownership. The value lives in a state shared by the Future handles on
// the creating PE, like a std::shared_future; the per-PE future table is
// only a routing index from future id to that state, and its entry goes
// away with the last local handle. get() on an lvalue copies the value,
// so a second get() or a copy still reads; get() on an rvalue (the usual
// `proxy.call<&C::m>(...).get()`) moves the bytes out when no other
// handle shares them. A handle unpacked from bytes — a Future passed as
// an entry-method argument, or cpy::future_from — carries no state: it
// can always fulfill (send), and it reads only while some handle on the
// creating PE keeps the state alive; otherwise get() throws
// std::logic_error. A value that arrives for an id no handle holds any
// more (a discarded call<>() reply, an injected duplicate, a reply after
// a timed-out future died) is dropped and counted in
// cx::trace::future_late_drops().

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "pup/pup.hpp"

namespace cx {

namespace detail {

struct FutureState;  // runtime_impl.hpp

/// The untyped handle every Future<T> wraps: the routing slot plus, on
/// the creating PE, a share of the value's state. Implemented in
/// collectives.cpp.
class FutureHandle {
 public:
  FutureHandle() = default;
  /// A stateless handle (fulfill-only unless the state is still alive).
  explicit FutureHandle(const ReplyTo& slot) : slot_(slot) {}
  FutureHandle(const ReplyTo& slot, std::shared_ptr<FutureState> state)
      : slot_(slot), state_(std::move(state)) {}

  /// Wait for the value and return a copy of its bytes.
  [[nodiscard]] std::vector<std::byte> get() const&;
  /// Wait for the value, release this handle, and move the bytes out
  /// when no other handle shares them.
  [[nodiscard]] std::vector<std::byte> get() &&;
  [[nodiscard]] std::optional<std::vector<std::byte>> get_for(
      double timeout_s) const;
  [[nodiscard]] bool ready() const;
  void send(std::vector<std::byte>&& bytes) const;

  [[nodiscard]] const ReplyTo& slot() const noexcept { return slot_; }
  [[nodiscard]] bool valid() const noexcept { return slot_.valid(); }

  void pup(pup::Er& p) {
    p | slot_;
    if (p.unpacking()) state_.reset();
  }

 private:
  ReplyTo slot_;
  std::shared_ptr<FutureState> state_;
};

/// Allocate a future id on the calling PE with its shared state.
FutureHandle make_future_handle();

}  // namespace detail

template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(const ReplyTo& slot) : h_(slot) {}
  explicit Future(detail::FutureHandle h) : h_(std::move(h)) {}

  /// Block (the current fiber) until the value arrives, then return it.
  [[nodiscard]] T get() const& { return pup::from_bytes<T>(h_.get()); }
  /// Same, consuming the handle: the reply's bytes move out instead of
  /// being copied, and the table entry goes with the last handle.
  [[nodiscard]] T get() && {
    return pup::from_bytes<T>(std::move(h_).get());
  }

  /// Like get(), but give up after `timeout_s` seconds of backend time.
  /// Returns nullopt on timeout; the future stays valid and may still
  /// be fulfilled (and get()/get_for() retried) later.
  [[nodiscard]] std::optional<T> get_for(double timeout_s) const {
    auto bytes = h_.get_for(timeout_s);
    if (!bytes.has_value()) return std::nullopt;
    return pup::from_bytes<T>(*bytes);
  }

  /// Fulfill the future from anywhere (routed to the creating PE).
  void send(const T& value) const {
    T copy = value;
    h_.send(pup::to_bytes(copy));
  }

  /// True once a value is available (non-blocking; creator PE only).
  [[nodiscard]] bool ready() const { return h_.ready(); }

  /// The raw delivery slot (used to build reduction callbacks).
  [[nodiscard]] const ReplyTo& slot() const noexcept { return h_.slot(); }
  /// The untyped handle, sharing this future's state.
  [[nodiscard]] const detail::FutureHandle& handle() const noexcept {
    return h_;
  }

  [[nodiscard]] bool valid() const noexcept { return h_.valid(); }

  void pup(pup::Er& p) { p | h_; }

 private:
  detail::FutureHandle h_;
};

/// Future with no payload (broadcast completions, empty reductions).
template <>
class Future<void> {
 public:
  Future() = default;
  explicit Future(const ReplyTo& slot) : h_(slot) {}
  explicit Future(detail::FutureHandle h) : h_(std::move(h)) {}

  void get() const { (void)h_.get(); }
  /// True if the completion arrived within `timeout_s` seconds.
  [[nodiscard]] bool get_for(double timeout_s) const {
    return h_.get_for(timeout_s).has_value();
  }
  void send() const { h_.send({}); }
  [[nodiscard]] bool ready() const { return h_.ready(); }
  [[nodiscard]] const ReplyTo& slot() const noexcept { return h_.slot(); }
  [[nodiscard]] const detail::FutureHandle& handle() const noexcept {
    return h_;
  }
  [[nodiscard]] bool valid() const noexcept { return h_.valid(); }
  void pup(pup::Er& p) { p | h_; }

 private:
  detail::FutureHandle h_;
};

/// Create a future on the calling PE (paper: charm.createFuture()).
template <typename T>
Future<T> make_future() {
  return Future<T>(detail::make_future_handle());
}

}  // namespace cx
