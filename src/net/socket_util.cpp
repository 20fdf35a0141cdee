#include "net/socket_util.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace cxnet {

namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("cxnet: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Fd& Fd::operator=(Fd&& o) noexcept {
  if (this != &o) {
    reset(o.fd_);
    o.fd_ = -1;
  }
  return *this;
}

void Fd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Fd tcp_listen(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) die("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    die("bind(port " + std::to_string(port) + ")");
  }
  if (::listen(fd.get(), 128) != 0) die("listen");
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    die("getsockname");
  }
  return ntohs(addr.sin_port);
}

Fd tcp_connect(const std::string& host, std::uint16_t port, double timeout_s) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw std::runtime_error("cxnet: cannot resolve host '" + host +
                             "': " + gai_strerror(rc));
  }
  sockaddr_in addr = *reinterpret_cast<sockaddr_in*>(res->ai_addr);
  addr.sin_port = htons(port);
  ::freeaddrinfo(res);

  // Retry while the listener isn't up yet: rank processes race the root
  // (and each other) during wireup, so ECONNREFUSED is expected early.
  const double deadline =
      timeout_s + static_cast<double>(::time(nullptr));
  for (;;) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) die("socket");
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int err = errno;
    if ((err != ECONNREFUSED && err != ETIMEDOUT && err != EAGAIN) ||
        static_cast<double>(::time(nullptr)) > deadline) {
      errno = err;
      die("connect(" + host + ":" + std::to_string(port) + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Fd accept_conn(int listen_fd, double timeout_s, std::string* peer_ip,
               const std::function<void()>& while_waiting) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const long long left_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (left_ms <= 0) {
      throw std::runtime_error("cxnet: accept timed out after " +
                               std::to_string(timeout_s) + "s");
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(
        &pfd, 1,
        static_cast<int>(while_waiting ? std::min(left_ms, 100LL) : left_ms));
    if (rc > 0) break;
    if (rc < 0 && errno != EINTR) die("poll(accept)");
    if (while_waiting) while_waiting();
  }
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  Fd fd(::accept(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len));
  if (!fd.valid()) die("accept");
  if (peer_ip != nullptr) {
    char buf[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
    *peer_ip = buf;
  }
  return fd;
}

void send_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      die("send");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void recv_all(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r == 0) throw std::runtime_error("cxnet: peer closed during recv");
    if (r < 0) {
      if (errno == EINTR) continue;
      die("recv");
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl < 0 || ::fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) {
    die("fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

std::uint32_t peer_ip_u32(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    die("getpeername");
  }
  return ntohl(addr.sin_addr.s_addr);
}

}  // namespace cxnet
