#include "machine/socket_machine.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "net/wireup.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "wire/envelope.hpp"

namespace cxm {

namespace {
thread_local int t_current_pe = -1;

// FtDrop trace reasons (slot a) — shared vocabulary with the threaded
// backend's trace stream.
constexpr std::uint64_t kDropInjected = 0;
constexpr std::uint64_t kDropDuplicate = 1;
constexpr std::uint64_t kDropDeadDst = 2;

/// Bytes read per recv() outside a payload: enough for many small
/// frames, or the head and first bytes of a large one (the rest of a
/// large payload is read straight into its Message).
constexpr std::size_t kReadChunk = 64 * 1024;
/// How long the comm thread keeps flushing after the PE loops exit —
/// long enough for the Stop broadcast and tail acks to reach peers.
constexpr double kDrainGrace = 3.0;

/// Payload bytes copied in user space on the way to a socket. The frame
/// path copies none; the copies counted here are the ones cx::ft makes
/// of remote sends (the pending copy, retransmits, injected duplicates).
void count_tx_copy(std::size_t n) {
  cx::trace::detail::g_wire.net_tx_copy_bytes.fetch_add(
      n, std::memory_order_relaxed);
}
}  // namespace

SocketMachine::SocketMachine(const MachineConfig& cfg)
    : rank_(cfg.socket.rank),
      nranks_(cfg.socket.nranks),
      ppn_(cfg.socket.ppn),
      num_pes_(cfg.socket.nranks * cfg.socket.ppn),
      pe_base_(cfg.socket.rank * cfg.socket.ppn),
      ft_(cfg.faults),
      crashed_(static_cast<std::size_t>(num_pes_)),
      unreachable_(static_cast<std::size_t>(num_pes_)),
      hung_(static_cast<std::size_t>(num_pes_)),
      failure_notified_(static_cast<std::size_t>(num_pes_), 0),
      peers_(static_cast<std::size_t>(nranks_)) {
  if (nranks_ < 1 || ppn_ < 1 || rank_ < 0 || rank_ >= nranks_) {
    throw std::invalid_argument("SocketMachine: bad geometry");
  }
  mailboxes_.reserve(static_cast<std::size_t>(ppn_));
  for (int i = 0; i < ppn_; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  agg_on_ = cx::wire::agg_enabled();
  if (agg_on_) {
    agg_cfg_ = cx::wire::agg_config();
    aggs_.resize(static_cast<std::size_t>(ppn_));
  }
  ft_enabled_ = ft_.enabled();
  if (ft_enabled_) {
    inj_ = std::make_unique<cx::ft::FaultInjector>(ft_);
    ft_pes_.reserve(static_cast<std::size_t>(ppn_));
    for (int i = 0; i < ppn_; ++i) {
      ft_pes_.push_back(std::make_unique<FtPeState>());
    }
  }

  // ---- wireup: rendezvous with the root, then the rank mesh -------------
  cxnet::Handshake hs;
  hs.rank = static_cast<std::uint32_t>(rank_);
  hs.nranks = static_cast<std::uint32_t>(nranks_);
  hs.ppn = static_cast<std::uint32_t>(ppn_);

  if (nranks_ > 1) {
    cxnet::Fd listener = cxnet::tcp_listen(0);
    const std::uint16_t data_port = cxnet::local_port(listener.get());
    const std::vector<cxnet::Endpoint> table = cxnet::client_rendezvous(
        cfg.socket.root_host, cfg.socket.root_port, hs, data_port);
    std::vector<cxnet::Fd> fds =
        cxnet::mesh_wireup(hs, listener.get(), table);
    for (int r = 0; r < nranks_; ++r) {
      if (r == rank_) continue;
      cxnet::set_nonblocking(fds[static_cast<std::size_t>(r)].get());
      peers_[static_cast<std::size_t>(r)].fd =
          std::move(fds[static_cast<std::size_t>(r)]);
    }
  } else if (cfg.socket.root_port != 0) {
    // Single-rank job: still check in with the root so cxrun -np 1 gets
    // its rendezvous accounting (and handshake validation).
    cxnet::Fd listener = cxnet::tcp_listen(0);
    (void)cxnet::client_rendezvous(cfg.socket.root_host, cfg.socket.root_port,
                                   hs, cxnet::local_port(listener.get()));
  }

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw std::runtime_error("SocketMachine: pipe() failed");
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  cxnet::set_nonblocking(wake_r_);
  cxnet::set_nonblocking(wake_w_);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("SocketMachine: epoll_create1 failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_r_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_r_, &ev);
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_ || !peers_[static_cast<std::size_t>(r)].fd.valid()) {
      continue;
    }
    ev.events = EPOLLIN;
    ev.data.fd = peers_[static_cast<std::size_t>(r)].fd.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ev.data.fd, &ev);
  }
}

SocketMachine::~SocketMachine() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

std::uint32_t SocketMachine::register_handler(Handler h) {
  if (running_) throw std::logic_error("register_handler after run()");
  handlers_.push_back(std::move(h));
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

int SocketMachine::current_pe() const noexcept { return t_current_pe; }

double SocketMachine::now() const { return cxu::wall_time() - epoch_; }

void SocketMachine::compute(double seconds) {
  const double end = cxu::wall_time() + seconds;
  while (cxu::wall_time() < end) {
    // busy spin, same load model as the threaded backend
  }
}

void SocketMachine::charge(double) {}

void SocketMachine::enqueue(int dst, MessagePtr msg) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.push_back(std::move(msg));
  }
  mb.cv.notify_one();
}

void SocketMachine::enqueue_delayed(int dst, MessagePtr msg, double deadline) {
  Mailbox& mb = *mailboxes_[lidx(dst)];
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.delayed.emplace(deadline, std::move(msg));
  }
  mb.cv.notify_one();
}

cx::wire::PeAggregator& SocketMachine::agg(int pe) {
  auto& a = aggs_[lidx(pe)];
  if (!a) a = std::make_unique<cx::wire::PeAggregator>(agg_cfg_);
  return *a;
}

bool SocketMachine::agg_pending(int pe) const noexcept {
  const auto& a = aggs_[lidx(pe)];
  return a != nullptr && a->has_pending();
}

void SocketMachine::drain_agg(int pe) {
  auto& a = agg(pe);
  while (MessagePtr batch = a.next_ready()) send(std::move(batch));
}

void SocketMachine::deliver(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (is_local(dst)) {
    enqueue(dst, std::move(msg));
    return;
  }
  OutFrame f{cxnet::encode_header(*msg), std::move(msg)};
  ship(pe_to_rank(dst), std::move(f));
}

void SocketMachine::send(MessagePtr msg) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send: bad destination PE");
  }
  const int src = t_current_pe;
  msg->src_pe = src;
  if (msg->local != nullptr && !is_local(dst)) {
    // The runtime's location layer only takes the by-reference path for
    // same-process destinations; reaching here is a routing bug.
    throw std::logic_error(
        "send: local-payload message addressed to a remote PE");
  }
  if (agg_on_ && src >= 0) {
    auto& a = agg(src);
    if (cx::wire::agg_eligible(*msg, a.config())) {
      CX_TRACE_EVENT(src, now(), cx::trace::EventKind::MsgSend,
                     static_cast<std::uint64_t>(dst), msg->wire_size());
      (void)a.absorb(std::move(msg));
      drain_agg(src);
      return;
    }
    if ((msg->wire_flags & kWireAggBatch) == 0 && dst != src &&
        msg->local == nullptr && a.dst_pending(dst)) {
      a.flush_dst(dst, cx::wire::AggFlush::Ordering);
      drain_agg(src);
    }
  }
  if ((msg->wire_flags & kWireAggBatch) == 0) {
    CX_TRACE_EVENT(src, now(), cx::trace::EventKind::MsgSend,
                   static_cast<std::uint64_t>(dst), msg->wire_size());
  }
  if (src >= 0 && dst != src && msg->local == nullptr) {
    cx::trace::detail::g_wire.transport_msgs.fetch_add(
        1, std::memory_order_relaxed);
  }
  if (ft_enabled_ && src >= 0 && dst != src && !msg->local) {
    FtPeState& me = *ft_pes_[lidx(src)];
    if (ft_.reliable && msg->ft_flags == 0) {
      const std::uint64_t seq = me.sw.allocate(dst);
      msg->ft_seq = seq;
      msg->ft_flags = kFtReliable;
      cx::ft::PendingSend p;
      p.handler = msg->handler;
      p.dst_pe = dst;
      p.data = msg->data;
      if (!is_local(dst)) count_tx_copy(p.data.size());
      p.size_override = msg->size_override;
      p.seq = seq;
      p.wire_flags = msg->wire_flags;
      {
        std::lock_guard<std::mutex> lk(inj_mutex_);
        p.deadline = now() + inj_->retry_timeout(0);
      }
      const double deadline = p.deadline;
      me.sw.pending.emplace(std::make_pair(dst, seq), std::move(p));
      me.sw.arm(dst, seq, deadline);
    }
    if (ft_.injecting()) {
      cx::ft::FaultInjector::Decision d;
      {
        std::lock_guard<std::mutex> lk(inj_mutex_);
        d = inj_->on_wire();
      }
      if (d.drop) {
        CX_TRACE_EVENT(src, now(), cx::trace::EventKind::FtDrop,
                       kDropInjected, msg->ft_seq);
        return;
      }
      if (d.dup) {
        if (!is_local(dst)) count_tx_copy(msg->data.size());
        deliver(std::make_unique<Message>(*msg));
      }
      if (d.extra_delay > 0.0 && is_local(dst)) {
        // Remote destinations skip injected latency (see header note).
        enqueue_delayed(dst, std::move(msg), now() + d.extra_delay);
        return;
      }
    }
  }
  deliver(std::move(msg));
}

void SocketMachine::send_after(MessagePtr msg, double delay_s) {
  const int dst = msg->dst_pe;
  if (dst < 0 || dst >= num_pes_) {
    throw std::out_of_range("send_after: bad destination PE");
  }
  if (!is_local(dst)) {
    // Every runtime timer (future deadlines, heartbeat ticks, pool
    // beats) is self-directed; a remote timer has no owner clock.
    throw std::logic_error("send_after: destination PE is remote");
  }
  msg->src_pe = t_current_pe;
  enqueue_delayed(dst, std::move(msg), now() + delay_s);
}

// ---------------------------------------------------------------------------
// Failure control. State changes initiated locally broadcast a control
// frame so every rank's view converges; frames received from peers
// apply locally without rebroadcast.

void SocketMachine::notify_failure_once(int pe, cx::ft::FailureKind kind) {
  {
    std::lock_guard<std::mutex> lk(failure_mutex_);
    if (failure_notified_[static_cast<std::size_t>(pe)]) return;
    failure_notified_[static_cast<std::size_t>(pe)] = 1;
  }
  const double t = now();
  CX_TRACE_EVENT(t_current_pe, t, cx::trace::EventKind::FtFailure,
                 static_cast<std::uint64_t>(pe),
                 static_cast<std::uint64_t>(kind));
  if (failure_listener_) {
    failure_listener_(cx::ft::PeFailure{pe, kind, t});
  }
}

void SocketMachine::apply_kill(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  if (crashed_[static_cast<std::size_t>(pe)].exchange(
          true, std::memory_order_relaxed)) {
    return;
  }
  any_failed_.store(true, std::memory_order_release);
  if (is_local(pe)) {
    Mailbox& mb = *mailboxes_[lidx(pe)];
    {
      std::lock_guard<std::mutex> lock(mb.mutex);
    }
    mb.cv.notify_all();
  }
  notify_failure_once(pe, cx::ft::FailureKind::Crashed);
}

void SocketMachine::apply_hang(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  if (hung_[i].exchange(true, std::memory_order_relaxed)) return;
  any_failed_.store(true, std::memory_order_release);
  if (is_local(pe)) {
    Mailbox& mb = *mailboxes_[lidx(pe)];
    {
      std::lock_guard<std::mutex> lock(mb.mutex);
    }
    mb.cv.notify_all();
  }
  // Silent by design: discovery is the liveness layer's job.
}

void SocketMachine::apply_revive(int pe) {
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  if (is_local(pe)) {
    Mailbox& mb = *mailboxes_[lidx(pe)];
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.clear();
    mb.delayed.clear();
    crashed_[i].store(false, std::memory_order_relaxed);
    unreachable_[i].store(false, std::memory_order_relaxed);
    hung_[i].store(false, std::memory_order_relaxed);
    mb.cv.notify_all();
  } else {
    crashed_[i].store(false, std::memory_order_relaxed);
    unreachable_[i].store(false, std::memory_order_relaxed);
    hung_[i].store(false, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lk(failure_mutex_);
  failure_notified_[i] = 0;
}

void SocketMachine::inject_kill(int pe) {
  broadcast_control(cxnet::ControlOp::Kill, pe);
  apply_kill(pe);
}

void SocketMachine::inject_hang(int pe) {
  broadcast_control(cxnet::ControlOp::Hang, pe);
  apply_hang(pe);
}

void SocketMachine::revive_pe(int pe) {
  broadcast_control(cxnet::ControlOp::Revive, pe);
  apply_revive(pe);
}

void SocketMachine::declare_failed(int pe, cx::ft::FailureKind kind) {
  // Declared on external evidence (heartbeat silence): every rank's
  // liveness layer reaches its own verdict, so no broadcast — the
  // runtime's ft_notice round spreads the news at the protocol layer.
  if (pe < 0 || pe >= num_pes_) return;
  const auto i = static_cast<std::size_t>(pe);
  any_failed_.store(true, std::memory_order_release);
  if (kind == cx::ft::FailureKind::Crashed) {
    crashed_[i].store(true, std::memory_order_relaxed);
  } else if (!hung_[i].load(std::memory_order_relaxed)) {
    unreachable_[i].store(true, std::memory_order_relaxed);
  }
  if (is_local(pe)) {
    Mailbox& mb = *mailboxes_[lidx(pe)];
    {
      std::lock_guard<std::mutex> lock(mb.mutex);
    }
    mb.cv.notify_all();
  }
  notify_failure_once(pe, kind);
}

bool SocketMachine::pe_failed(int pe) const noexcept {
  if (pe < 0 || pe >= num_pes_) return false;
  const auto i = static_cast<std::size_t>(pe);
  return crashed_[i].load(std::memory_order_relaxed) ||
         unreachable_[i].load(std::memory_order_relaxed) ||
         hung_[i].load(std::memory_order_relaxed);
}

void SocketMachine::stop() { request_stop(true); }

void SocketMachine::request_stop(bool broadcast) {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (broadcast) broadcast_control(cxnet::ControlOp::Stop, -1);
  for (auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lock(mb->mutex);
    mb->cv.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Comm thread: one epoll loop over the peer sockets + the wake pipe.

void SocketMachine::ship(int rank, OutFrame frame) {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    Peer& p = peers_[static_cast<std::size_t>(rank)];
    if (p.down || !p.fd.valid()) return;  // dead rank: drop, ft recovers
    p.outq.push_back(std::move(frame));
  }
  wake_comm();
}

void SocketMachine::wake_comm() {
  const char b = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_w_, &b, 1);
  // EAGAIN means the pipe already holds a wake byte — good enough.
}

void SocketMachine::broadcast_control(cxnet::ControlOp op, int pe) {
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    ship(r, OutFrame{cxnet::encode_control(op, pe, t_current_pe), nullptr});
  }
}

bool SocketMachine::all_out_drained() {
  std::lock_guard<std::mutex> lock(out_mutex_);
  for (const Peer& p : peers_) {
    if (!p.down && !p.outq.empty()) return false;
  }
  return true;
}

bool SocketMachine::flush_peer(int rank) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  if (!p.fd.valid()) return true;
  for (;;) {
    OutFrame* front = nullptr;
    {
      std::lock_guard<std::mutex> lock(out_mutex_);
      if (p.down) return true;
      if (p.outq.empty()) break;
      front = &p.outq.front();
    }
    // Only the comm thread pops, so `front` stays valid unlocked. One
    // gathered write covers what is left of the head and of the payload,
    // which goes out straight from the Message's buffer.
    const std::size_t head = front->head.size();
    const std::size_t body = front->msg ? front->msg->data.size() : 0;
    iovec iov[2];
    std::size_t niov = 0;
    if (p.out_off < head) {
      iov[niov++] = {front->head.data() + p.out_off, head - p.out_off};
    }
    const std::size_t body_off = p.out_off > head ? p.out_off - head : 0;
    if (body_off < body) {
      iov[niov++] = {front->msg->data.data() + body_off, body - body_off};
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t w = ::sendmsg(p.fd.get(), &mh, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!p.want_write) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = p.fd.get();
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd.get(), &ev);
          p.want_write = true;
        }
        return true;
      }
      peer_down(rank, std::string("send failed: ") + std::strerror(errno));
      return false;
    }
    p.out_off += static_cast<std::size_t>(w);
    if (p.out_off == head + body) {
      p.out_off = 0;
      MessagePtr sent;  // declared before the lock: freed after unlocking
      std::lock_guard<std::mutex> lock(out_mutex_);
      sent = std::move(p.outq.front().msg);
      p.outq.pop_front();
    }
  }
  if (p.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = p.fd.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd.get(), &ev);
    p.want_write = false;
  }
  return true;
}

void SocketMachine::read_peer(int rank) {
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

bool SocketMachine::drain_frames(int rank, const std::byte* p,
                                 std::size_t n) {
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

void SocketMachine::handle_frame(int rank, cxnet::Frame f) {
  Message& m = *f.msg;
  if (f.kind == cxnet::FrameKind::Control) {
    switch (static_cast<cxnet::ControlOp>(m.handler)) {
      case cxnet::ControlOp::Stop:
        request_stop(false);
        return;
      case cxnet::ControlOp::Kill:
        apply_kill(m.dst_pe);
        return;
      case cxnet::ControlOp::Hang:
        apply_hang(m.dst_pe);
        return;
      case cxnet::ControlOp::Revive:
        apply_revive(m.dst_pe);
        return;
    }
    CX_LOG_ERROR("rank ", rank, " sent unknown control opcode ", m.handler);
    return;
  }
  if (!is_local(m.dst_pe)) {
    CX_LOG_ERROR("rank ", rank, " misrouted a frame for PE ", m.dst_pe);
    return;
  }
  enqueue(m.dst_pe, std::move(f.msg));
}

void SocketMachine::peer_down(int rank, const std::string& why) {
  Peer& p = peers_[static_cast<std::size_t>(rank)];
  std::deque<OutFrame> dropped;  // freed after the lock is released
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (p.down) return;
    p.down = true;
    dropped.swap(p.outq);
  }
  p.reader = cxnet::FrameReader{};  // frees a partly received Message
  if (p.fd.valid()) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd.get(), nullptr);
    p.fd.reset();
  }
  if (stop_.load(std::memory_order_acquire)) return;  // orderly shutdown
  CX_LOG_WARN("connection to rank ", rank, " lost (", why,
              "): declaring its PEs failed");
  // The whole process is gone: every PE it hosted crashed at once. This
  // feeds the same pipeline as heartbeat declaration, so the runtime's
  // recovery machinery runs unchanged.
  for (int pe = rank * ppn_; pe < (rank + 1) * ppn_; ++pe) {
    if (crashed_[static_cast<std::size_t>(pe)].exchange(
            true, std::memory_order_relaxed)) {
      continue;
    }
    any_failed_.store(true, std::memory_order_release);
    notify_failure_once(pe, cx::ft::FailureKind::Crashed);
  }
}

void SocketMachine::comm_loop() {
  cxu::set_log_pe(-1);
  double drain_deadline = -1.0;
  epoll_event events[64];
  for (;;) {
    // Push pending output first: PE threads only queue + wake.
    for (int r = 0; r < nranks_; ++r) {
      if (r != rank_) (void)flush_peer(r);
    }
    if (comm_stop_.load(std::memory_order_acquire)) {
      if (drain_deadline < 0.0) drain_deadline = now() + kDrainGrace;
      if (all_out_drained() || now() > drain_deadline) break;
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64,
                               comm_stop_.load(std::memory_order_acquire)
                                   ? 20
                                   : 200);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_r_) {
        char drain[256];
        while (::read(wake_r_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      int rank = -1;
      for (int r = 0; r < nranks_; ++r) {
        if (r != rank_ && peers_[static_cast<std::size_t>(r)].fd.valid() &&
            peers_[static_cast<std::size_t>(r)].fd.get() == fd) {
          rank = r;
          break;
        }
      }
      if (rank < 0) continue;  // raced with peer_down
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

// ---------------------------------------------------------------------------
// Scheduler loops (mirrors ThreadedMachine::pe_loop, with global-PE
// failure flags and the remote path handled by send()/deliver()).

void SocketMachine::retransmit_due(int pe, FtPeState& me) {
  const double tnow = now();
  for (;;) {
    me.sw.prune_due();
    if (me.sw.due.empty()) return;
    const cx::ft::SenderWindow::DueEntry e = me.sw.due.top();
    const auto di = static_cast<std::size_t>(e.dst);
    if (crashed_[di].load(std::memory_order_relaxed) ||
        unreachable_[di].load(std::memory_order_relaxed)) {
      me.sw.due.pop();
      me.sw.abandon(e.dst);
      continue;
    }
    if (e.deadline > tnow) return;
    me.sw.due.pop();
    auto it = me.sw.pending.find({e.dst, e.seq});
    if (it == me.sw.pending.end()) continue;
    cx::ft::PendingSend& p = it->second;
    if (p.attempts >= ft_.retry.max_attempts) {
      unreachable_[di].store(true, std::memory_order_relaxed);
      any_failed_.store(true, std::memory_order_release);
      me.sw.abandon(e.dst);
      notify_failure_once(e.dst, cx::ft::FailureKind::Unreachable);
      continue;
    }
    p.attempts++;
    CX_TRACE_EVENT(pe, tnow, cx::trace::EventKind::FtRetransmit,
                   static_cast<std::uint64_t>(e.dst),
                   static_cast<std::uint64_t>(p.attempts));
    {
      std::lock_guard<std::mutex> lk(inj_mutex_);
      p.deadline = tnow + inj_->retry_timeout(p.attempts);
    }
    me.sw.arm(e.dst, e.seq, p.deadline);
    auto copy = cx::wire::clone_payload(p.handler, p.dst_pe, p.data);
    if (!is_local(p.dst_pe)) count_tx_copy(p.data.size());
    copy->size_override = p.size_override;
    copy->ft_seq = p.seq;
    copy->ft_flags = kFtReliable | kFtRetransmit;
    copy->wire_flags = p.wire_flags;
    send(std::move(copy));
  }
}

void SocketMachine::run() {
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  comm_stop_.store(false, std::memory_order_relaxed);
  epoch_ = cxu::wall_time();
  comm_thread_ = std::thread([this] { comm_loop(); });
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ppn_));
  for (int i = 0; i < ppn_; ++i) {
    const int pe = pe_base_ + i;
    threads.emplace_back([this, pe] { pe_loop(pe); });
  }
  for (auto& t : threads) t.join();
  comm_stop_.store(true, std::memory_order_release);
  wake_comm();
  comm_thread_.join();
  running_ = false;
}

void SocketMachine::pe_loop(int pe) {
  t_current_pe = pe;
  cxu::set_log_pe(pe);
  Mailbox& mb = *mailboxes_[lidx(pe)];
  FtPeState* me = ft_enabled_ ? ft_pes_[lidx(pe)].get() : nullptr;
  constexpr double kNever = cx::ft::SenderWindow::kNever;
  while (true) {
    MessagePtr msg;
    bool stopping = false;
    bool flush_idle = false;
    double idle_s = -1.0;
    {
      std::unique_lock<std::mutex> lock(mb.mutex);
      for (;;) {
        if (any_failed_.load(std::memory_order_relaxed) &&
            hung_[static_cast<std::size_t>(pe)].load(
                std::memory_order_relaxed)) {
          if (me && !me->sw.pending.empty()) {
            me->sw.pending.clear();
            while (!me->sw.due.empty()) me->sw.due.pop();
          }
          if (agg_on_ && aggs_[lidx(pe)]) {
            aggs_[lidx(pe)].reset();
          }
          if (stop_.load(std::memory_order_acquire)) {
            stopping = true;
            break;
          }
          mb.cv.wait(lock);
          continue;
        }
        const double tnow = now();
        while (!mb.delayed.empty() && mb.delayed.begin()->first <= tnow) {
          mb.queue.push_back(std::move(mb.delayed.begin()->second));
          mb.delayed.erase(mb.delayed.begin());
        }
        if (!mb.queue.empty()) break;
        if (stop_.load(std::memory_order_acquire)) {
          stopping = true;
          break;
        }
        if (agg_on_ && agg_pending(pe)) {
          flush_idle = true;
          break;
        }
        double dl = mb.delayed.empty() ? kNever : mb.delayed.begin()->first;
        if (me) dl = std::min(dl, me->sw.next_deadline());
        if (dl <= tnow) break;
        const double t0 = cxu::wall_time();
        if (dl >= kNever) {
          mb.cv.wait(lock);
        } else {
          mb.cv.wait_for(lock, std::chrono::duration<double>(dl - tnow));
        }
        const double waited = cxu::wall_time() - t0;
        idle_s = (idle_s < 0.0 ? 0.0 : idle_s) + waited;
      }
      if (!mb.queue.empty()) {
        msg = std::move(mb.queue.front());
        mb.queue.pop_front();
      }
    }
    if (idle_s >= 0.0) {
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::Idle,
                     static_cast<std::uint64_t>(idle_s * 1e9), 0);
    }
    if (me && !me->sw.pending.empty()) retransmit_due(pe, *me);
    if (!msg) {
      if (stopping) break;
      if (flush_idle) {
        if (any_failed_.load(std::memory_order_relaxed) &&
            crashed_[static_cast<std::size_t>(pe)].load(
                std::memory_order_relaxed)) {
          aggs_[lidx(pe)].reset();
        } else {
          agg(pe).flush_all(cx::wire::AggFlush::Idle);
          drain_agg(pe);
        }
      }
      continue;
    }
    if (any_failed_.load(std::memory_order_relaxed) &&
        crashed_[static_cast<std::size_t>(pe)].load(
            std::memory_order_relaxed)) {
      CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop, kDropDeadDst,
                     msg->ft_seq);
      continue;
    }
    if (me && msg->ft_flags != 0) {
      if (msg->ft_flags & kFtAck) {
        me->sw.acked(msg->src_pe, msg->ft_seq);
        continue;
      }
      if (msg->ft_flags & kFtReliable) {
        auto ack = std::make_unique<Message>();
        ack->dst_pe = msg->src_pe;
        ack->ft_seq = msg->ft_seq;
        ack->ft_peer = pe;
        ack->ft_flags = kFtAck;
        CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtAck,
                       static_cast<std::uint64_t>(msg->src_pe), msg->ft_seq);
        send(std::move(ack));
        if (!me->rw.first_delivery(msg->src_pe, msg->ft_seq)) {
          CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::FtDrop,
                         kDropDuplicate, msg->ft_seq);
          continue;
        }
      }
    }
    if (agg_on_ && (msg->wire_flags & kWireAggBatch) != 0) {
      const auto src64 = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(msg->src_pe));
      const bool ok = cx::wire::for_each_agg_record(
          msg->data,
          [&](std::uint32_t h, const std::byte* p, std::uint32_t len) {
            if (h >= handlers_.size()) {
              CX_LOG_ERROR("dropping batched message with unknown handler ",
                           h);
              return;
            }
            auto sub = std::make_unique<Message>();
            sub->handler = h;
            sub->src_pe = msg->src_pe;
            sub->dst_pe = pe;
            sub->data.assign(p, len);
            CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::MsgRecv, src64,
                           len);
            handlers_[h](std::move(sub));
          });
      if (!ok) CX_LOG_ERROR("dropping malformed aggregation batch");
      if (stop_.load(std::memory_order_acquire)) break;
      continue;
    }
    const std::uint32_t h = msg->handler;
    if (h >= handlers_.size()) {
      CX_LOG_ERROR("dropping message with unknown handler ", h);
      continue;
    }
    CX_TRACE_EVENT(pe, now(), cx::trace::EventKind::MsgRecv,
                   static_cast<std::uint32_t>(msg->src_pe),
                   msg->wire_size());
    handlers_[h](std::move(msg));
    if (stop_.load(std::memory_order_acquire)) break;
  }
  t_current_pe = -1;
  cxu::set_log_pe(-1);
}

}  // namespace cxm
