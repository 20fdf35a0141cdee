#pragma once
// Thin blocking/nonblocking TCP helpers over POSIX sockets. Everything
// here reports failure via std::runtime_error with errno context —
// wireup is sequential bootstrap code where an exception is the right
// shape; the epoll data path in machine/link.cpp handles errors inline.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace cxnet {

/// RAII fd. Movable, closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  ~Fd() { reset(); }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept {
    const int f = fd_;
    fd_ = -1;
    return f;
  }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Listen on `port` (0 = ephemeral) on all interfaces. Backlog sized for
/// full-job wireup bursts.
Fd tcp_listen(std::uint16_t port);

/// The local port a socket is bound to (resolves ephemeral binds).
std::uint16_t local_port(int fd);

/// Connect to host:port, retrying for up to `timeout_s` while the
/// target refuses (covers the listener-not-up-yet wireup race).
Fd tcp_connect(const std::string& host, std::uint16_t port,
               double timeout_s = 20.0);

/// Accept one connection, waiting at most `timeout_s`. Returns the
/// connected fd and fills `peer_ip` (dotted quad) when non-null. While
/// it waits, `while_waiting` (when set) runs about every 100 ms; an
/// exception it throws abandons the accept.
Fd accept_conn(int listen_fd, double timeout_s, std::string* peer_ip = nullptr,
               const std::function<void()>& while_waiting = {});

/// Blocking exact-count I/O (wireup only). Throw on EOF/error/timeout;
/// the socket should carry a SO_RCVTIMEO/SO_SNDTIMEO for bootstrap use.
void send_all(int fd, const void* buf, std::size_t n);
void recv_all(int fd, void* buf, std::size_t n);

void set_nonblocking(int fd);
void set_nodelay(int fd);
/// SO_RCVTIMEO + SO_SNDTIMEO, for the bootstrap/wireup sockets.
void set_timeout(int fd, double seconds);

/// The peer's IPv4 address as a host-order u32 (via getpeername).
std::uint32_t peer_ip_u32(int fd);

}  // namespace cxnet
