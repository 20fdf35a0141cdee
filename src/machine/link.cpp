#include "machine/link.hpp"

#include <algorithm>
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
/// How long an idle PE keeps offering the rest of its frame to a full
/// ring before it leaves it to the comm thread. The peer's comm thread
/// may not run until a PE sharing its core finishes an entry method (a
/// 4 MiB rtt-xrank sink takes ~0.6 ms); at one poll budget the rest of
/// most 4 MiB frames went to a comm thread competing with its own busy
/// PE, and stream throughput swung by 30 % (EXPERIMENTS.md).
constexpr double kRingStall = 1e-3;
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

using cx::trace::detail::wire_local;

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
    std::vector<cxnet::ShmSegment> segs;
    std::vector<cxnet::Fd> fds =
        cxnet::mesh_wireup(hs, listener.get(), table, 30.0, &segs);
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_) continue;
      const auto i = static_cast<std::size_t>(r);
      Peer& peer = peers_[i];
      cxnet::set_nonblocking(fds[i].get());
      peer.fd = std::move(fds[i]);
      peer.shm = std::move(segs[i]);
      peer.tx = peer.shm.tx();
      peer.rx = peer.shm.rx();
      peer.rx_open = static_cast<bool>(peer.rx);
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
  // A peer that met this rank's EOF before any Stop would declare its PEs
  // failed. Rings are read before connection events and TCP delivers
  // data before its EOF, so a peer reads this Stop first; a second Stop
  // (after the one stop() broadcast) is a no-op there.
  broadcast(cxnet::ControlOp::Stop, -1);
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
  const std::size_t total = frame_bytes(frame.head, frame.msg.get());
  ssize_t w = put(p, frame, 0);
  std::size_t off = w > 0 ? static_cast<std::size_t>(w) : 0;
  if (w >= 0 && off < total && p.tx && m_.poll_) {
    // A full ring drains as fast as the peer's comm thread copies, so a
    // PE that still has nothing else to run keeps writing, as a socket
    // write would have handed the whole frame to the kernel; it stops
    // when work arrives or the ring stalls for kRingStall.
    const int pe = m_.current_pe();
    double stall_until = -1.0;
    while (off < total && m_.nothing_runnable(pe)) {
      w = put(p, frame, off);
      if (w < 0) break;
      if (w > 0) {
        off += static_cast<std::size_t>(w);
        stall_until = -1.0;
        continue;
      }
      const double now = cxu::wall_time();
      if (stall_until < 0.0) {
        stall_until = now + kRingStall;
      } else if (now > stall_until) {
        break;
      }
      std::this_thread::yield();
    }
  }
  const bool whole = off == total;
  if (off > 0) count(wire_local().net_pe_bytes, off);
  if (whole) {
    count(wire_local().net_pe_frames);
  } else if (w >= 0) {
    count(wire_local().net_partial_writes);
  }
  // Frames other PEs queued meanwhile, the rest of a short write, or a
  // frame whose write failed (the comm thread meets the error again and
  // drops the peer) are the comm thread's.
  bool wake;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    p.writing = false;
    if (!whole) {
      p.out_off = off;
      p.outq.push_front(std::move(frame));
    }
    wake = !p.outq.empty();
  }
  if (wake) wake_comm();
}  // a frame written whole frees its Message here, on the PE

ssize_t Link::put(Peer& p, const OutFrame& frame, std::size_t off) {
  if (!p.tx) {
    const ssize_t w = send_from(p.fd.get(), frame.head, frame.msg.get(), off);
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    return w;
  }
  // The ring twin of send_from: the head's rest, then the payload's.
  const std::span<const std::byte> head(frame.head);
  const std::span<const std::byte> body =
      frame.msg ? std::span<const std::byte>(frame.msg->data.data(),
                                             frame.msg->data.size())
                : std::span<const std::byte>();
  const std::size_t hn = head.size();
  const std::ptrdiff_t w =
      p.tx.write(off < hn ? head.subspan(off) : head.subspan(hn),
                 body.subspan(off > hn ? off - hn : 0));
  if (w < 0) {
    errno = EPROTO;
    return -1;
  }
  if (w > 0 && p.tx.claim_sleeper()) ring_doorbell(p);
  return w;
}

void Link::ring_doorbell(Peer& p) {
  count(wire_local().net_doorbells);
  const char b = 1;
  ssize_t w;
  do {
    w = ::send(p.fd.get(), &b, 1, MSG_NOSIGNAL | MSG_DONTWAIT);
  } while (w < 0 && errno == EINTR);
  // A failed poke needs no handling: EAGAIN means unread pokes already
  // wait for the consumer, and a broken connection reaches the comm
  // thread as EOF.
}

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
  count(wire_local().net_wake_pokes);
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
  p.tx_full = false;
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
    const ssize_t w = put(p, *front, p.out_off);
    if (w <= 0) {
      const int err = errno;
      {
        std::lock_guard<std::mutex> lock(p.mu);
        p.writing = false;
      }
      if (w == 0) {
        // Full. wait_events watches a ring for room; a socket reports it
        // through EPOLLOUT.
        count(wire_local().net_partial_writes);
        if (p.tx) {
          p.tx_full = true;
        } else if (!p.want_write) {
          count(wire_local().net_epollout_arms);
          set_events(rank, EPOLLIN | EPOLLOUT);
        }
        return true;
      }
      if (err == EPROTO) count(wire_local().net_decode_errors);
      peer_down(rank, std::string("send failed: ") +
                          (err == EPROTO ? "ring head out of range"
                                         : std::strerror(err)));
      return false;
    }
    count(wire_local().net_comm_bytes, static_cast<std::uint64_t>(w));
    p.out_off += static_cast<std::size_t>(w);
    if (p.out_off < frame_bytes(front->head, front->msg.get())) {
      count(wire_local().net_partial_writes);
      continue;
    }
    count(wire_local().net_comm_frames);
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
  if (p.rx) {
    // A ring pair's connection carries only doorbells: drain them; the
    // comm loop reads the ring and flushes the queue next.
    char pokes[64];
    for (;;) {
      const ssize_t r = ::recv(p.fd.get(), pokes, sizeof(pokes), 0);
      if (r > 0) continue;
      if (r == 0) {
        peer_closed(rank, "connection closed by peer");
      } else if (errno == EINTR) {
        continue;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        peer_closed(rank, std::string("recv failed: ") + std::strerror(errno));
      }
      return;
    }
  }
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
      if (!drain_frames(rank, chunk, in_place ? 0 : got)) {
        peer_down(rank, "protocol violation: " + p.reader.error());
        return;
      }
      if (got < want) return;  // the socket is drained
      continue;
    }
    if (r == 0) {
      peer_closed(rank, "connection closed by peer");
      return;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      peer_down(rank, std::string("recv failed: ") + std::strerror(errno));
    }
    return;
  }
}

void Link::read_ring(int rank, bool all) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  // An empty ring costs no write to the flag a polling PE reads.
  if (!p.rx_open || (!all && p.rx.pending() == 0)) return;
  // A PE holds `reading` for a few small frames at most.
  while (p.reading.exchange(true, std::memory_order_acquire)) {
    if (!all) return;  // the comm loop comes back for what the PE leaves
    std::this_thread::yield();
  }
  const std::string why = drain_ring(rank, all);
  // The rest of a frame begun here is ours; the next frame may be a PE's.
  p.comm_turn.store(!p.reader.between_frames(), std::memory_order_relaxed);
  p.reading.store(false, std::memory_order_release);
  // A PE that takes `reading` in between finds the bad index or the
  // failed reader and leaves them alone; peer_down waits it out.
  if (!why.empty()) peer_down(rank, why);
}

std::string Link::drain_ring(int rank, bool all) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  // At most one ring's worth per call, so a streaming peer cannot starve
  // the others; the comm loop comes back for the rest.
  std::size_t budget = cxnet::kRingBytes;
  const bool leave = !all && pollers_.load(std::memory_order_relaxed) > 0;
  while (budget > 0) {
    const std::ptrdiff_t avail = p.rx.available();
    if (avail < 0) {
      count(wire_local().net_decode_errors);
      return "protocol violation: ring tail out of range";
    }
    if (avail == 0) break;
    // Mid-payload, copy straight into the frame's Message; otherwise
    // decode in place from the ring (small frames, or a large frame's
    // head). Either way a read chunk at a time, released at once, so the
    // producer refills what one chunk freed while the next is copied.
    const std::span<std::byte> window = p.reader.payload_window();
    std::size_t n = std::min(static_cast<std::size_t>(avail), budget);
    bool ok;
    if (!window.empty()) {
      n = std::min({n, window.size(), kReadChunk});
      p.rx.copy_out(window.data(), n);
      p.reader.commit(n);
      ok = drain_frames(rank, nullptr, 0);
    } else {
      const std::span<const std::byte> run =
          p.rx.peek(std::min(n, kReadChunk));
      n = run.size();
      ok = drain_frames(rank, run.data(), n);
    }
    if (!ok) return "protocol violation: " + p.reader.error();
    budget -= n;
    if (p.rx.consume(n)) ring_doorbell(p);
    // Once a frame is done, the frames behind it are a polling PE's.
    if (leave && p.reader.between_frames()) break;
  }
  return {};
}

void Link::polling(bool on) {
  pollers_.fetch_add(on ? 1 : -1, std::memory_order_relaxed);
}

void Link::poll_rings() {
  for (int r = 0; r < nranks_; ++r) {
    Peer& p = peers_[static_cast<std::size_t>(r)];
    // The shared indices first: a ring with nothing to read, or one
    // whose reader another thread holds, costs no write to `reading`.
    if (!p.rx) continue;
    const std::ptrdiff_t pending = p.rx.pending();
    if (pending < 0) p.comm_turn.store(true, std::memory_order_relaxed);
    if (pending <= 0 || p.reading.load(std::memory_order_relaxed) ||
        p.reading.exchange(true, std::memory_order_acquire)) {
      continue;
    }
    if (!take_small_frames(r)) {
      p.comm_turn.store(true, std::memory_order_relaxed);
    }
    p.reading.store(false, std::memory_order_release);
  }
}

bool Link::take_small_frames(int rank) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  std::size_t budget = kReadChunk;
  bool poke = false;
  bool mine = p.reader.between_frames();
  while (mine) {
    // Only a whole data frame within the bound, its head checked before
    // the reader sees it: the reader then cannot fail on it, so every
    // bad frame or index stays the comm thread's to report.
    const std::ptrdiff_t avail = p.rx.available();
    if (avail < 0) mine = false;
    if (avail < static_cast<std::ptrdiff_t>(cxnet::kFrameHeadBytes)) break;
    cxnet::FrameHead head;
    p.rx.copy_out(head.data(), head.size());
    std::uint32_t len = 0;
    std::memcpy(&len, head.data(), sizeof(len));
    const std::size_t total = sizeof(len) + std::size_t{len};
    mine = head[sizeof(len)] == std::byte{static_cast<std::uint8_t>(
                                    cxnet::FrameKind::Data)} &&
           len >= cxnet::kFrameHeaderBytes && total <= kPeFrameMax;
    // A small frame still arriving is read on a later poll.
    if (!mine || total > static_cast<std::size_t>(avail) || total > budget) {
      break;
    }
    // One run, or two where the frame wraps the ring's end.
    cxnet::Frame f;
    for (std::size_t left = total; left > 0;) {
      const std::span<const std::byte> run = p.rx.peek(left);
      const std::byte* q = run.data();
      std::size_t n = run.size();
      (void)p.reader.next(q, n, f);
      left -= run.size();
      poke = p.rx.consume(run.size()) || poke;
    }
    budget -= total;
    count(wire_local().net_rx_frames);
    count(wire_local().net_rx_bytes, total);
    count(wire_local().net_pe_rx_frames);
    count(wire_local().net_pe_rx_bytes, total);
    handle_frame(rank, std::move(f));
  }
  if (poke) ring_doorbell(p);
  return mine;
}

bool Link::rings_ready(bool defer) const {
  for (const Peer& p : peers_) {
    if (p.rx_open && p.rx.pending() != 0 &&
        (!defer || p.comm_turn.load(std::memory_order_relaxed))) {
      return true;
    }
    if (p.tx_full && p.tx.space() != 0) return true;
  }
  return false;
}

void Link::peer_closed(int rank, const std::string& why) {
  // The peer wrote its ring before its connection ended: deliver what
  // is there first, or a Stop or tail ack could be lost.
  read_ring(rank, true);
  peer_down(rank, why);
}

bool Link::drain_frames(int rank, const std::byte* p, std::size_t n) {
  cxnet::FrameReader& reader = peers_[static_cast<std::size_t>(rank)].reader;
  for (;;) {
    cxnet::Frame f;
    switch (reader.next(p, n, f)) {
      case cxnet::FrameReader::Status::Frame:
        count(wire_local().net_rx_frames);
        count(wire_local().net_rx_bytes, cxnet::kFrameHeadBytes + f.msg->data.size());
        handle_frame(rank, std::move(f));
        break;
      case cxnet::FrameReader::Status::NeedMore:
        return true;
      case cxnet::FrameReader::Status::Error:
        count(wire_local().net_decode_errors);
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
  // Take the read side for good, once a PE reading small frames lets go:
  // no thread reads the ring again (its segment stays mapped until the
  // Link goes), and no PE rings its doorbell on the fd closed below.
  while (p.reading.exchange(true, std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  p.rx_open = false;
  p.reader = cxnet::FrameReader{};  // frees a partly received Message
  p.tx_full = false;
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
    // Rings first: a Stop that one rank wrote must be seen before
    // another rank's EOF that followed it.
    for (int r = 0; r < nranks_; ++r) read_ring(r);
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
        peer_closed(rank, "socket error/hangup");
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
    // While a PE polls, it reads the rings' small frames itself: only a
    // frame it left is ours. Before blocking, every byte is.
    const double until = cxu::wall_time() + ThreadedMachine::kPollBudget;
    do {
      if (rings_ready(pollers_.load(std::memory_order_relaxed) > 0)) {
        count(wire_local().net_poll_hits);
        return 0;
      }
      const int n = ::epoll_wait(epoll_.get(), events, cap, 0);
      if (n > 0) {
        count(wire_local().net_poll_hits);
        return n;
      }
      std::this_thread::yield();
    } while (cxu::wall_time() < until);
  }
  // Ring peers poke only a side that asked for it: mark every inbound
  // ring sleeping and ask every full outbound ring for space, then look
  // at them once more before blocking.
  for (Peer& p : peers_) {
    if (p.rx_open) p.rx.set_sleeping(true);
    if (p.tx_full) p.tx.want_space();
  }
  int n = 0;
  if (!rings_ready(false)) {
    count(wire_local().net_blocking_waits);
    n = ::epoll_wait(epoll_.get(), events, cap, timeout_ms);
  }
  for (Peer& p : peers_) {
    if (p.rx_open) p.rx.set_sleeping(false);
  }
  return n;
}

}  // namespace cxm
