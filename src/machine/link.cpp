#include "machine/link.hpp"

#include <cerrno>
#include <cstring>
#include <span>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "machine/threaded_machine.hpp"
#include "net/wireup.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace cxm {

namespace {
/// Bytes read per recv() outside a payload: enough for many small
/// frames, or the head and first bytes of a large one (the rest of a
/// large payload is read straight into its Message).
constexpr std::size_t kReadChunk = 64 * 1024;
/// How long the comm thread keeps flushing after the PE loops exit —
/// long enough for the Stop broadcast and tail acks to reach peers.
constexpr double kDrainGrace = 3.0;
/// epoll tag of the wake pipe; a peer's tag is its rank.
constexpr std::uint32_t kWakeTag = ~0u;

void count(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

/// One nonblocking gathered write of what is left of `head` + `body`
/// past `off`: the payload goes out straight from the Message's buffer.
/// Returns sendmsg's result, retrying EINTR.
ssize_t send_from(int fd, const cxnet::FrameHead& head, const Message* msg,
                  std::size_t off) {
  const std::size_t hn = head.size();
  const std::size_t body = msg ? msg->data.size() : 0;
  iovec iov[2];
  std::size_t niov = 0;
  if (off < hn) {
    iov[niov++] = {const_cast<std::byte*>(head.data()) + off, hn - off};
  }
  const std::size_t body_off = off > hn ? off - hn : 0;
  if (body_off < body) {
    iov[niov++] = {const_cast<std::byte*>(msg->data.data()) + body_off,
                   body - body_off};
  }
  msghdr mh{};
  mh.msg_iov = iov;
  mh.msg_iovlen = niov;
  ssize_t w;
  do {
    w = ::sendmsg(fd, &mh, MSG_NOSIGNAL | MSG_DONTWAIT);
  } while (w < 0 && errno == EINTR);
  return w;
}

std::size_t frame_bytes(const cxnet::FrameHead& head, const Message* msg) {
  return head.size() + (msg ? msg->data.size() : 0);
}
}  // namespace

using cx::trace::detail::g_wire;

Link::Link(ThreadedMachine& m, const SocketParams& p)
    : m_(m),
      rank_(p.rank),
      nranks_(p.nranks),
      ppn_(p.ppn),
      peers_(static_cast<std::size_t>(p.nranks)) {
  cxnet::Handshake hs;
  hs.rank = static_cast<std::uint32_t>(rank_);
  hs.nranks = static_cast<std::uint32_t>(nranks_);
  hs.ppn = static_cast<std::uint32_t>(ppn_);
  cxnet::Fd listener = cxnet::tcp_listen(0);
  const std::vector<cxnet::Endpoint> table = cxnet::client_rendezvous(
      p.root_host, p.root_port, hs, cxnet::local_port(listener.get()));
  if (nranks_ > 1) {
    std::vector<cxnet::Fd> fds = cxnet::mesh_wireup(hs, listener.get(), table);
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_) continue;
      cxnet::set_nonblocking(fds[static_cast<std::size_t>(r)].get());
      peers_[static_cast<std::size_t>(r)].fd =
          std::move(fds[static_cast<std::size_t>(r)]);
    }
  }

  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("Link: pipe() failed");
  wake_r_.reset(pipefd[0]);
  wake_w_.reset(pipefd[1]);
  cxnet::set_nonblocking(wake_r_.get());
  cxnet::set_nonblocking(wake_w_.get());
  epoll_.reset(::epoll_create1(0));
  if (!epoll_.valid()) throw std::runtime_error("Link: epoll_create1 failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kWakeTag;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_r_.get(), &ev);
  for (int r = 0; r < nranks_; ++r) {
    const cxnet::Fd& fd = peers_[static_cast<std::size_t>(r)].fd;
    if (!fd.valid()) continue;
    ev.data.u32 = static_cast<std::uint32_t>(r);
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd.get(), &ev);
  }
}

Link::~Link() {
  if (comm_thread_.joinable()) finish();
}

void Link::start() {
  comm_stop_.store(false, std::memory_order_relaxed);
  comm_thread_ = std::thread([this] { comm_loop(); });
}

void Link::finish() {
  comm_stop_.store(true, std::memory_order_release);
  wake_comm();
  comm_thread_.join();
}

void Link::ship(MessagePtr msg, bool idle) {
  const int rank = msg->dst_pe / ppn_;
  OutFrame frame{cxnet::encode_header(*msg), std::move(msg)};
  if (idle) {
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    std::unique_lock<std::mutex> lock(p.mu);
    if (!p.down && !p.writing && p.outq.empty()) {
      p.writing = true;
      lock.unlock();
      write_direct(rank, std::move(frame));
      return;
    }
  }
  queue(rank, std::move(frame));
}

void Link::write_direct(int rank, OutFrame frame) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  const ssize_t w = send_from(p.fd.get(), frame.head, frame.msg.get(), 0);
  const int err = w < 0 ? errno : 0;
  const bool whole =
      w >= 0 && static_cast<std::size_t>(w) == frame_bytes(frame.head,
                                                           frame.msg.get());
  if (w > 0) count(g_wire.net_pe_bytes, static_cast<std::uint64_t>(w));
  if (whole) {
    count(g_wire.net_pe_frames);
  } else if (w >= 0 || err == EAGAIN || err == EWOULDBLOCK) {
    count(g_wire.net_partial_writes);
  }
  // Frames other PEs queued meanwhile, the rest of a short write, or a
  // frame whose write failed (the comm thread meets the error again and
  // drops the peer) are the comm thread's.
  bool wake;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    p.writing = false;
    if (!whole) {
      p.out_off = w > 0 ? static_cast<std::size_t>(w) : 0;
      p.outq.push_front(std::move(frame));
    }
    wake = !p.outq.empty();
  }
  if (wake) wake_comm();
}  // a frame written whole frees its Message here, on the PE

void Link::broadcast(cxnet::ControlOp op, int pe) {
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    queue(r, OutFrame{cxnet::encode_control(op, pe, m_.current_pe()), nullptr});
  }
}

void Link::queue(int rank, OutFrame frame) {
  {
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.down) return;  // dead rank: drop, ft recovers
    p.outq.push_back(std::move(frame));
  }
  wake_comm();
}

void Link::wake_comm() {
  count(g_wire.net_wake_pokes);
  const char b = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_w_.get(), &b, 1);
  // EAGAIN means the pipe already holds a wake byte — good enough.
}

bool Link::all_out_drained() {
  for (Peer& p : peers_) {
    std::lock_guard<std::mutex> lock(p.mu);
    if (!p.down && (p.writing || !p.outq.empty())) return false;
  }
  return true;
}

void Link::set_events(int rank, std::uint32_t events) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  epoll_event ev{};
  ev.events = events;
  ev.data.u32 = static_cast<std::uint32_t>(rank);
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, p.fd.get(), &ev);
  p.want_write = (events & EPOLLOUT) != 0;
}

bool Link::flush_peer(int rank) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  OutFrame* front = nullptr;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.down) return true;
    if (!p.outq.empty()) {
      if (p.writing) return true;  // a PE's write: it wakes us for the rest
      p.writing = true;
      front = &p.outq.front();
    }
  }
  // While this thread owns the write side no PE pushes to the front, so
  // `front` stays valid unlocked.
  while (front != nullptr) {
    const ssize_t w = send_from(p.fd.get(), front->head, front->msg.get(),
                                p.out_off);
    if (w < 0) {
      const int err = errno;
      {
        std::lock_guard<std::mutex> lock(p.mu);
        p.writing = false;
      }
      if (err == EAGAIN || err == EWOULDBLOCK) {
        count(g_wire.net_partial_writes);
        if (!p.want_write) {
          count(g_wire.net_epollout_arms);
          set_events(rank, EPOLLIN | EPOLLOUT);
        }
        return true;
      }
      peer_down(rank, std::string("send failed: ") + std::strerror(err));
      return false;
    }
    count(g_wire.net_comm_bytes, static_cast<std::uint64_t>(w));
    p.out_off += static_cast<std::size_t>(w);
    if (p.out_off < frame_bytes(front->head, front->msg.get())) {
      count(g_wire.net_partial_writes);
      continue;
    }
    count(g_wire.net_comm_frames);
    MessagePtr sent;  // declared before the lock: freed after unlocking
    std::lock_guard<std::mutex> lock(p.mu);
    p.out_off = 0;
    sent = std::move(front->msg);
    p.outq.pop_front();
    if (p.outq.empty()) {
      p.writing = false;
      front = nullptr;
    } else {
      front = &p.outq.front();
    }
  }
  if (p.want_write) set_events(rank, EPOLLIN);
  return true;
}

void Link::read_peer(int rank) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  std::byte chunk[kReadChunk];
  for (;;) {
    // Mid-payload, read straight into the frame's Message; otherwise
    // read a chunk (small frames, or a large frame's head).
    const std::span<std::byte> window = p.reader.payload_window();
    const bool in_place = !window.empty();
    std::byte* dst = in_place ? window.data() : chunk;
    const std::size_t want = in_place ? window.size() : sizeof(chunk);
    const ssize_t r = ::recv(p.fd.get(), dst, want, 0);
    if (r > 0) {
      const auto got = static_cast<std::size_t>(r);
      if (in_place) p.reader.commit(got);
      if (!drain_frames(rank, chunk, in_place ? 0 : got)) return;
      if (got < want) return;  // the socket is drained
      continue;
    }
    if (r == 0) {
      peer_down(rank, "connection closed by peer");
      return;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      peer_down(rank, std::string("recv failed: ") + std::strerror(errno));
    }
    return;
  }
}

bool Link::drain_frames(int rank, const std::byte* p, std::size_t n) {
  cxnet::FrameReader& reader = peers_[static_cast<std::size_t>(rank)].reader;
  for (;;) {
    cxnet::Frame f;
    switch (reader.next(p, n, f)) {
      case cxnet::FrameReader::Status::Frame:
        handle_frame(rank, std::move(f));
        break;
      case cxnet::FrameReader::Status::NeedMore:
        return true;
      case cxnet::FrameReader::Status::Error:
        peer_down(rank, "protocol violation: " + reader.error());
        return false;
    }
  }
}

void Link::handle_frame(int rank, cxnet::Frame f) {
  Message& msg = *f.msg;
  if (f.kind == cxnet::FrameKind::Control) {
    switch (static_cast<cxnet::ControlOp>(msg.handler)) {
      case cxnet::ControlOp::Stop:
        m_.request_stop(false);
        return;
      case cxnet::ControlOp::Kill:
        m_.apply_kill(msg.dst_pe, -1, m_.now());  // the comm thread is no PE
        return;
      case cxnet::ControlOp::Hang:
        m_.apply_hang(msg.dst_pe);
        return;
      case cxnet::ControlOp::Revive:
        m_.apply_revive(msg.dst_pe);
        return;
    }
    CX_LOG_ERROR("rank ", rank, " sent unknown control opcode ", msg.handler);
    return;
  }
  if (!m_.is_local(msg.dst_pe)) {
    CX_LOG_ERROR("rank ", rank, " misrouted a frame for PE ", msg.dst_pe);
    return;
  }
  m_.enqueue(msg.dst_pe, std::move(f.msg));
}

void Link::peer_down(int rank, const std::string& why) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  std::deque<OutFrame> dropped;  // freed after the lock is released
  {
    std::unique_lock<std::mutex> lock(p.mu);
    if (p.down) return;
    p.down = true;
    // A PE mid-write finishes its one nonblocking sendmsg before the fd
    // closes; no PE starts another once `down` is set.
    while (p.writing) {
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
    dropped.swap(p.outq);
  }
  p.reader = cxnet::FrameReader{};  // frees a partly received Message
  if (p.fd.valid()) {
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, p.fd.get(), nullptr);
    p.fd.reset();
  }
  if (m_.stop_.load(std::memory_order_acquire)) return;  // orderly shutdown
  CX_LOG_WARN("connection to rank ", rank, " lost (", why,
              "): declaring its PEs failed");
  // The whole process is gone: every PE it hosted crashed at once. This
  // feeds the same pipeline as heartbeat declaration, so the runtime's
  // recovery machinery runs unchanged.
  for (int pe = rank * ppn_; pe < (rank + 1) * ppn_; ++pe) {
    m_.apply_kill(pe, -1, m_.now());
  }
}

void Link::comm_loop() {
  cxu::set_log_pe(-1);
  double drain_deadline = -1.0;
  epoll_event events[64];
  for (;;) {
    // Push pending output first: what PEs queued, and what is left of
    // their short writes.
    for (int r = 0; r < nranks_; ++r) {
      if (r != rank_) (void)flush_peer(r);
    }
    const bool stopping = comm_stop_.load(std::memory_order_acquire);
    if (stopping) {
      if (drain_deadline < 0.0) drain_deadline = cxu::wall_time() + kDrainGrace;
      if (all_out_drained() || cxu::wall_time() > drain_deadline) break;
    }
    const int n = wait_events(events, 64, stopping ? 20 : 200);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u32 == kWakeTag) {
        char drain[256];
        while (::read(wake_r_.get(), drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      const int rank = static_cast<int>(events[i].data.u32);
      if (!peers_[static_cast<std::size_t>(rank)].fd.valid()) {
        continue;  // raced with peer_down
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        peer_down(rank, "socket error/hangup");
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!flush_peer(rank)) continue;
      }
      if ((events[i].events & EPOLLIN) != 0) read_peer(rank);
    }
  }
}

int Link::wait_events(epoll_event* events, int cap, int timeout_ms) {
  if (m_.poll_) {
    // Same rule and budget as an idle PE: yield-spin on a zero-timeout
    // wait, so a frame or a wake that comes soon costs no wake-up.
    const double until = cxu::wall_time() + ThreadedMachine::kPollBudget;
    do {
      const int n = ::epoll_wait(epoll_.get(), events, cap, 0);
      if (n > 0) {
        count(g_wire.net_poll_hits);
        return n;
      }
      std::this_thread::yield();
    } while (cxu::wall_time() < until);
  }
  count(g_wire.net_blocking_waits);
  return ::epoll_wait(epoll_.get(), events, cap, timeout_ms);
}

}  // namespace cxm
