// Socket-backend tier: the on-socket frame codec rejects hostile input
// without allocating and reads payloads in place, the connection
// handshake refuses mismatched peers, and real multi-process jobs
// (forked ranks wired up through an in-test rendezvous root, exactly
// what cxrun does) produce results byte-identical to the threaded
// backend without copying payloads on send. Frames stay in order when
// idle PEs write their own and the comm thread writes the rest, and an
// idle closed loop never wakes the comm thread. Same-host ranks frame
// through shared-memory rings (the doorbell counter shows it), and a
// peer that corrupts its ring's tail is dropped. The kill -9 test checks the
// full failure pipeline: SIGKILL -> connection EOF -> peer_down ->
// crashed + failure listener -> coordinator notice round ->
// cx::ft::on_failure on the surviving rank; a peer hanging up
// mid-payload and a rank whose exec fails under cxrun end promptly too.

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/charm.hpp"
#include "ft/ft.hpp"
#include "machine/link.hpp"
#include "machine/machine.hpp"
#include "net/frame.hpp"
#include "net/shm_ring.hpp"
#include "net/socket_util.hpp"
#include "net/wireup.hpp"
#include "trace/trace.hpp"
#include "wire/pool.hpp"

namespace {

// ---------------------------------------------------------------------------
// Frame codec

std::vector<std::byte> prefix_only(std::uint32_t len) {
  std::vector<std::byte> b(4);
  std::memcpy(b.data(), &len, 4);
  return b;
}

using Status = cxnet::FrameReader::Status;

/// A data frame's bytes on the wire: the encoded head, then the payload.
std::vector<std::byte> wire_bytes(const cxm::Message& m) {
  const cxnet::FrameHead head = cxnet::encode_header(m);
  std::vector<std::byte> out(head.size() + m.data.size());
  std::memcpy(out.data(), head.data(), head.size());
  if (!m.data.empty()) {
    std::memcpy(out.data() + head.size(), m.data.data(), m.data.size());
  }
  return out;
}

/// Hand [p, p + n) to the reader, collecting every frame it completes.
Status feed(cxnet::FrameReader& r, const std::byte* p, std::size_t n,
            std::vector<cxnet::Frame>& got) {
  for (;;) {
    cxnet::Frame f;
    const Status st = r.next(p, n, f);
    if (st != Status::Frame) return st;
    got.push_back(std::move(f));
  }
}

/// Drive the reader over `stream` the way the comm thread does: while a
/// payload is open, "recv" straight into payload_window(); otherwise
/// hand over a chunk. Chunk sizes come from `chunk_size`.
Status pump(cxnet::FrameReader& r, const std::vector<std::byte>& stream,
            const std::function<std::size_t()>& chunk_size,
            std::vector<cxnet::Frame>& got) {
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t k = std::min(chunk_size(), stream.size() - pos);
    const std::span<std::byte> window = r.payload_window();
    Status st;
    if (window.empty()) {
      st = feed(r, stream.data() + pos, k, got);
      pos += k;
    } else {
      const std::size_t in_place = std::min(k, window.size());
      std::memcpy(window.data(), stream.data() + pos, in_place);
      r.commit(in_place);
      pos += in_place;
      st = feed(r, nullptr, 0, got);
    }
    if (st == Status::Error) return st;
  }
  return Status::NeedMore;
}

cxm::Message patterned(std::uint32_t handler, std::size_t size) {
  cxm::Message m;
  m.handler = handler;
  m.dst_pe = 1;
  m.data.resize_discard(size);
  for (std::size_t i = 0; i < size; ++i) {
    m.data.data()[i] = static_cast<std::byte>((i * 131 + handler) >> 3);
  }
  return m;
}

/// Payload blocks and Message objects taken since the last reset.
std::uint64_t allocations() {
  const cx::trace::WireStats w = cx::trace::wire_stats();
  return w.buf_allocs + w.buf_hits + w.msg_allocs + w.msg_hits;
}

TEST(SocketFrame, RoundTripPreservesEveryField) {
  cxm::Message m;
  m.handler = 17;
  m.src_pe = 3;
  m.dst_pe = 9;
  m.ft_seq = 0xdeadbeefcafeull;
  m.ft_peer = 5;
  m.ft_flags = cxm::kFtReliable;
  m.wire_flags = cxm::kWireNoAgg;
  m.size_override = 1u << 20;
  const std::string payload = "the payload travels byte-for-byte";
  m.data.assign(reinterpret_cast<const std::byte*>(payload.data()),
                payload.size());

  const auto bytes = wire_bytes(m);
  ASSERT_EQ(bytes.size(), cxnet::kFrameHeadBytes + payload.size());

  // Dribble the stream in one-byte feeds: a frame only surfaces once
  // the last byte arrives.
  cxnet::FrameReader r;
  std::vector<cxnet::Frame> got;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_EQ(feed(r, &bytes[i], 1, got), Status::NeedMore);
    ASSERT_TRUE(got.empty());
  }
  ASSERT_EQ(feed(r, &bytes[bytes.size() - 1], 1, got), Status::NeedMore);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, cxnet::FrameKind::Data);

  const cxm::MessagePtr& back = got[0].msg;
  EXPECT_EQ(back->handler, m.handler);
  EXPECT_EQ(back->src_pe, m.src_pe);
  EXPECT_EQ(back->dst_pe, m.dst_pe);
  EXPECT_EQ(back->ft_seq, m.ft_seq);
  EXPECT_EQ(back->ft_peer, m.ft_peer);
  EXPECT_EQ(back->ft_flags, m.ft_flags);
  EXPECT_EQ(back->wire_flags, m.wire_flags);
  EXPECT_EQ(back->size_override, m.size_override);
  ASSERT_EQ(back->data.size(), payload.size());
  EXPECT_EQ(std::memcmp(back->data.data(), payload.data(), payload.size()), 0);
  EXPECT_TRUE(r.payload_window().empty());
  EXPECT_FALSE(r.failed());
}

TEST(SocketFrame, LargeFrameInRandomChunksReadsInPlace) {
  // A 4 MiB frame arriving in seeded random pieces: only the piece that
  // carries the head is copied; every later byte lands in the frame's
  // Message directly.
  const cxm::Message m = patterned(7, (4u << 20) + 7);
  const auto stream = wire_bytes(m);
  std::mt19937 rng(20240613);
  const auto chunk = [&] { return std::size_t{1} + rng() % 100000; };

  cx::trace::reset_wire_stats();
  cxnet::FrameReader r;
  std::vector<cxnet::Frame> got;
  ASSERT_EQ(pump(r, stream, chunk, got), Status::NeedMore);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].msg->handler, 7u);
  EXPECT_TRUE(got[0].msg->data == m.data);
  EXPECT_TRUE(r.payload_window().empty());
  EXPECT_LT(cx::trace::wire_stats().net_rx_copy_bytes, 100000u);
}

TEST(SocketFrame, BackToBackFramesDecodeInOrder) {
  // Small, large, small in one stream, read in the comm thread's 64 KiB
  // chunks: the large frame's tail is read in place, so at most one
  // chunk per frame is copied.
  const std::size_t sizes[] = {24, (1u << 20) + 1, 0};
  std::vector<std::byte> stream;
  std::vector<cxm::Message> sent;
  for (std::size_t i = 0; i < 3; ++i) {
    sent.push_back(patterned(static_cast<std::uint32_t>(100 + i), sizes[i]));
    const auto one = wire_bytes(sent.back());
    stream.insert(stream.end(), one.begin(), one.end());
  }
  cx::trace::reset_wire_stats();
  cxnet::FrameReader r;
  std::vector<cxnet::Frame> got;
  ASSERT_EQ(pump(r, stream, [] { return std::size_t{64} << 10; }, got),
            Status::NeedMore);
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].msg->handler, sent[i].handler);
    EXPECT_TRUE(got[i].msg->data == sent[i].data) << "frame " << i;
  }
  EXPECT_LE(cx::trace::wire_stats().net_rx_copy_bytes, 3u * (64u << 10));
}

TEST(SocketFrame, OversizedPrefixRejectedFromPrefixAlone) {
  // A hostile length prefix must be rejected from the 4 prefix bytes
  // alone — before any body arrives, and without allocating what the
  // prefix claims (0xffffffff would be a 4 GiB buffer).
  cx::trace::reset_wire_stats();
  cxnet::FrameReader r;
  std::vector<cxnet::Frame> got;
  const auto b = prefix_only(0xffffffffu);
  EXPECT_EQ(feed(r, b.data(), b.size(), got), Status::Error);
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.error().empty());
  EXPECT_EQ(allocations(), 0u);
  // The error state is sticky: further bytes never resurrect the
  // connection.
  const auto good = cxnet::encode_control(cxnet::ControlOp::Stop, -1, 0);
  EXPECT_EQ(feed(r, good.data(), good.size(), got), Status::Error);
  EXPECT_TRUE(got.empty());
}

TEST(SocketFrame, CustomLimitBoundsFrameSize) {
  cxnet::FrameReader r(256);
  std::vector<cxnet::Frame> got;
  auto over = prefix_only(257);
  EXPECT_EQ(feed(r, over.data(), over.size(), got), Status::Error);

  cxnet::FrameReader ok(256);
  auto fits = prefix_only(256);  // valid size; body just hasn't arrived
  EXPECT_EQ(feed(ok, fits.data(), fits.size(), got), Status::NeedMore);
  EXPECT_FALSE(ok.failed());
}

TEST(SocketFrame, TruncatedPrefixRejected) {
  // A length prefix smaller than the fixed header can never frame a
  // message — protocol violation, not "wait for more".
  cxnet::FrameReader r;
  std::vector<cxnet::Frame> got;
  const auto b =
      prefix_only(static_cast<std::uint32_t>(cxnet::kFrameHeaderBytes - 1));
  EXPECT_EQ(feed(r, b.data(), b.size(), got), Status::Error);
}

TEST(SocketFrame, UnknownKindRejected) {
  auto bytes = wire_bytes(patterned(1, 4096));
  bytes[4] = std::byte{7};  // kind byte: neither Data nor Control
  cx::trace::reset_wire_stats();
  cxnet::FrameReader r;
  std::vector<cxnet::Frame> got;
  EXPECT_EQ(feed(r, bytes.data(), bytes.size(), got), Status::Error);
  EXPECT_EQ(allocations(), 0u);
}

TEST(SocketFrame, LocalPayloadRefusesToEncode) {
  // By-reference payloads are pointers into this process; a frame
  // carrying one would be garbage on the far side.
  cxm::Message m;
  int dummy = 0;
  m.local = &dummy;
  m.local_drop = +[](void*) noexcept {};
  EXPECT_THROW((void)cxnet::encode_header(m), std::logic_error);
}

TEST(SocketFrame, ControlFrameRoundTrip) {
  const auto head = cxnet::encode_control(cxnet::ControlOp::Kill, 6, 2);
  cxnet::FrameReader r;
  std::vector<cxnet::Frame> got;
  EXPECT_EQ(feed(r, head.data(), head.size(), got), Status::NeedMore);
  ASSERT_EQ(got.size(), 1u);
  const cxnet::Frame& f = got[0];
  EXPECT_EQ(f.kind, cxnet::FrameKind::Control);
  EXPECT_EQ(f.msg->handler,
            static_cast<std::uint32_t>(cxnet::ControlOp::Kill));
  EXPECT_EQ(f.msg->dst_pe, 6);
  EXPECT_EQ(f.msg->src_pe, 2);
  EXPECT_TRUE(f.msg->data.empty());
}

// ---------------------------------------------------------------------------
// Handshake

TEST(SocketHandshake, EncodeDecodeRoundTrip) {
  cxnet::Handshake h;
  h.rank = 3;
  h.nranks = 8;
  h.ppn = 2;
  h.shm_offer = 0x0000123489abcdefull;
  std::byte buf[cxnet::kHandshakeBytes];
  cxnet::encode_handshake(h, buf);
  const cxnet::Handshake d = cxnet::decode_handshake(buf);
  EXPECT_EQ(d.magic, cxnet::kHandshakeMagic);
  EXPECT_EQ(d.version, cxnet::kWireVersion);
  EXPECT_EQ(d.endian_probe, cxnet::kEndianProbe);
  EXPECT_EQ(d.rank, 3u);
  EXPECT_EQ(d.nranks, 8u);
  EXPECT_EQ(d.ppn, 2u);
  EXPECT_EQ(d.shm_offer, 0x0000123489abcdefull);
  EXPECT_EQ(d.size_t_width, sizeof(std::size_t));
  EXPECT_EQ(d.double_width, sizeof(double));
}

TEST(SocketHandshake, RejectsMismatchedPeers) {
  cxnet::Handshake mine;
  mine.nranks = 4;
  mine.ppn = 2;
  EXPECT_EQ(cxnet::handshake_check(mine, mine), "");

  struct Case {
    const char* what;
    std::function<void(cxnet::Handshake&)> tamper;
  };
  const Case cases[] = {
      {"magic", [](cxnet::Handshake& h) { h.magic = 0x12345678; }},
      {"version", [](cxnet::Handshake& h) { h.version += 1; }},
      {"endianness", [](cxnet::Handshake& h) { h.endian_probe = 0x04030201; }},
      {"header size", [](cxnet::Handshake& h) { h.header_bytes += 4; }},
      {"size_t width", [](cxnet::Handshake& h) { h.size_t_width = 4; }},
      {"double width", [](cxnet::Handshake& h) { h.double_width = 12; }},
      {"nranks", [](cxnet::Handshake& h) { h.nranks = 5; }},
      {"ppn", [](cxnet::Handshake& h) { h.ppn = 1; }},
      {"rank range", [](cxnet::Handshake& h) { h.rank = h.nranks; }},
  };
  for (const auto& c : cases) {
    cxnet::Handshake theirs = mine;
    c.tamper(theirs);
    EXPECT_NE(cxnet::handshake_check(mine, theirs), "")
        << "mismatch not rejected: " << c.what;
  }
}

// ---------------------------------------------------------------------------
// Multi-process harness: the gtest parent plays cxrun's role — it owns
// the rendezvous listener, forks one child per rank (each child points
// CXRUN_* at the parent and runs `body`), then runs the root exchange.
// Children report through a pipe and _exit() so no gtest/leak machinery
// runs twice.

struct Job {
  std::vector<pid_t> pids;
  std::vector<int> out;  // read end of each rank's result pipe

  ~Job() {
    for (int fd : out) {
      if (fd >= 0) ::close(fd);
    }
    // A test that failed before reaping its ranks must not leave them
    // running: kill and reap every child that has not exited yet.
    for (pid_t pid : pids) {
      int st = 0;
      if (::waitpid(pid, &st, WNOHANG) == 0) {
        ::kill(pid, SIGKILL);
        (void)::waitpid(pid, &st, 0);
      }
    }
  }
};

Job spawn_ranks(int nranks, int ppn,
                const std::function<void(int rank, int wfd)>& body) {
  cxnet::Fd listen = cxnet::tcp_listen(0);
  const std::uint16_t port = cxnet::local_port(listen.get());
  char root[32];
  std::snprintf(root, sizeof(root), "127.0.0.1:%u", port);

  Job job;
  for (int r = 0; r < nranks; ++r) {
    int p[2];
    if (::pipe(p) != 0) throw std::runtime_error("pipe() failed");
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(p[0]);
      listen.reset();
      for (int fd : job.out) ::close(fd);
      char v[16];
      std::snprintf(v, sizeof(v), "%d", r);
      ::setenv("CXRUN_RANK", v, 1);
      std::snprintf(v, sizeof(v), "%d", nranks);
      ::setenv("CXRUN_NRANKS", v, 1);
      std::snprintf(v, sizeof(v), "%d", ppn);
      ::setenv("CXRUN_PPN", v, 1);
      ::setenv("CXRUN_ROOT", root, 1);
      try {
        body(r, p[1]);
      } catch (...) {
        ::_exit(9);
      }
      ::_exit(0);
    }
    ::close(p[1]);
    job.pids.push_back(pid);
    job.out.push_back(p[0]);
  }
  cxnet::run_root_exchange(listen.get(), static_cast<std::uint32_t>(nranks),
                           static_cast<std::uint32_t>(ppn));
  return job;
}

bool read_exact(int fd, void* buf, std::size_t n, int timeout_ms = 120000) {
  auto* p = static_cast<unsigned char*>(buf);
  while (n > 0) {
    struct pollfd pf = {fd, POLLIN, 0};
    if (::poll(&pf, 1, timeout_ms) <= 0) return false;
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

void write_exact(int fd, const void* buf, std::size_t n) {
  auto* p = static_cast<const unsigned char*>(buf);
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r <= 0) return;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

struct ExitStatus {
  bool signaled = false;
  int code = -1;  // exit code, or the signal number when signaled
};

ExitStatus wait_child(pid_t pid) {
  int st = 0;
  if (::waitpid(pid, &st, 0) != pid) return {};
  if (WIFSIGNALED(st)) return {true, WTERMSIG(st)};
  if (WIFEXITED(st)) return {false, WEXITSTATUS(st)};
  return {};
}

/// Ring segments (net/shm_ring.hpp, "/dev/shm/charmx-<pid>-<nonce>")
/// whose creating process is gone: a segment that outlived its job.
/// Live jobs running beside this test may hold a segment for the moment
/// of their wireup; those are not counted.
std::vector<std::string> orphaned_segments() {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/dev/shm", ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("charmx-", 0) != 0) continue;
    const long pid = std::strtol(name.c_str() + 7, nullptr, 10);
    if (pid <= 0 || (::kill(static_cast<pid_t>(pid), 0) != 0 &&
                     errno == ESRCH)) {
      out.push_back(name);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Ring digest parity: a token hops PE 0 -> 1 -> ... -> 0 mixing
// (pe, hop) and every byte of its payload into an FNV accumulator at
// every stop. Any difference in delivery order, payload bytes, or
// routing changes the digest, so one u64 compares the whole run against
// the threaded backend.

struct Token {
  std::uint32_t hop = 0;
  std::uint32_t total = 0;
  std::uint64_t digest = 0;
};
constexpr std::size_t kTokenBytes = sizeof(Token);  // no padding

/// Payload sizes the token steps through, hop by hop: the bare token
/// (an empty pad), the 128 B inline-storage edge, the 64 KiB read
/// chunk, the 1 MiB largest pooled size class, and 4 MiB plus an odd
/// tail.
constexpr std::size_t kRingSizes[] = {
    kTokenBytes, 127,         128,         129,
    (64u << 10) - 1, 64u << 10, (64u << 10) + 1, (1u << 20) - 1,
    1u << 20,    (1u << 20) + 1, (4u << 20) + 7};
constexpr std::size_t kNumRingSizes = std::size(kRingSizes);

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

/// The message carrying `t`: the token, then a pad of patterned bytes
/// filling it out to the size its hop calls for.
cxm::MessagePtr ring_message(std::uint32_t handler, int dst, const Token& t) {
  auto msg = std::make_unique<cxm::Message>();
  msg->handler = handler;
  msg->dst_pe = dst;
  msg->data.resize_discard(kRingSizes[t.hop % kNumRingSizes]);
  std::memcpy(msg->data.data(), &t, kTokenBytes);
  for (std::size_t i = kTokenBytes; i < msg->data.size(); ++i) {
    msg->data.data()[i] = static_cast<std::byte>(t.hop * 131 + i * 7);
  }
  return msg;
}

/// Run the token ring on any machine; returns the final digest on the
/// rank hosting PE 0 (where the ring closes), 0 elsewhere. Counts the
/// messages that arrived from another rank in `remote_in`.
std::uint64_t run_ring(cxm::Machine& m, std::uint32_t total_hops,
                       std::atomic<std::uint64_t>* remote_in = nullptr) {
  std::atomic<std::uint64_t> result{0};
  std::uint32_t h = 0;
  h = m.register_handler([&](cxm::MessagePtr msg) {
    if (remote_in != nullptr && msg->src_pe >= 0 &&
        !m.hosts_pe(msg->src_pe)) {
      remote_in->fetch_add(1);
    }
    Token t;
    std::memcpy(&t, msg->data.data(), kTokenBytes);
    const int pe = m.current_pe();
    t.digest = fnv_step(t.digest, (static_cast<std::uint64_t>(pe) << 32) |
                                      t.hop);
    for (std::size_t i = kTokenBytes; i < msg->data.size(); ++i) {
      t.digest = fnv_step(t.digest, std::to_integer<std::uint64_t>(
                                        msg->data.data()[i]));
    }
    ++t.hop;
    if (t.hop == t.total) {
      result.store(t.digest);
      m.stop();
      return;
    }
    m.send(ring_message(h, (pe + 1) % m.num_pes(), t));
  });
  if (m.hosts_pe(0)) {
    Token t;
    t.total = total_hops;
    t.digest = 0xcbf29ce484222325ull;
    m.send(ring_message(h, 0, t));
  }
  m.run();
  return result.load();
}

// 4 PEs, 25 hops: 25 % 4 == 1, so the ring closes back on PE 0 — the
// rank that reports. With 2 ranks x 2 ppn, hops 1->2 and 3->0 cross
// the sockets while 0->1 and 2->3 take the in-process mailbox path: the
// messages carrying an even hop count cross, and those hops (2..24)
// cover every entry of kRingSizes.
constexpr std::uint32_t kRingHops = 25;

/// What each forked rank reports back: its digest (0 off PE 0's rank)
/// and the frame path's copy counters against the frames it received.
struct RingReport {
  std::uint64_t digest = 0;
  std::uint64_t tx_copy_bytes = 0;
  std::uint64_t rx_copy_bytes = 0;
  std::uint64_t remote_in = 0;
};

TEST(SocketJob, RingDigestMatchesThreaded) {
  cxm::MachineConfig ref;
  ref.num_pes = 4;
  ref.backend = cxm::Backend::Threaded;
  const std::uint64_t expected = run_ring(*cxm::make_machine(ref), kRingHops);
  ASSERT_NE(expected, 0u);

  Job job = spawn_ranks(2, 2, [](int, int wfd) {
    cx::trace::reset_wire_stats();
    cxm::MachineConfig cfg;  // Threaded request; CXRUN_* upgrades it
    auto m = cxm::make_machine(cfg);
    std::atomic<std::uint64_t> remote_in{0};
    RingReport rep;
    rep.digest = run_ring(*m, kRingHops, &remote_in);
    const cx::trace::WireStats w = cx::trace::wire_stats();
    rep.tx_copy_bytes = w.net_tx_copy_bytes;
    rep.rx_copy_bytes = w.net_rx_copy_bytes;
    rep.remote_in = remote_in.load();
    write_exact(wfd, &rep, sizeof(rep));
  });

  for (int r = 0; r < 2; ++r) {
    RingReport rep;
    ASSERT_TRUE(read_exact(job.out[r], &rep, sizeof(rep))) << "rank " << r;
    if (r == 0) {
      EXPECT_EQ(rep.digest, expected);
    }
    // Sends go out straight from the Message buffer; a received frame
    // is copied at most once, for the one read chunk holding its head.
    EXPECT_EQ(rep.tx_copy_bytes, 0u) << "rank " << r;
    EXPECT_GT(rep.remote_in, 0u) << "rank " << r;
    EXPECT_LE(rep.rx_copy_bytes, rep.remote_in * (64u << 10))
        << "rank " << r;
  }
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
}

// ---------------------------------------------------------------------------
// Who writes a frame. A PE whose mailbox holds nothing runnable writes
// its own frame when nothing is queued ahead of it for that rank; the
// comm thread writes everything else, including the rest of a short
// write. These two jobs pin both halves: ordering when the paths mix
// under load, and the exact frame count when every sender is idle.

/// The Link counters one forked rank reports.
struct LinkReport {
  std::uint64_t bad = 0;       ///< stream messages out of order or corrupt
  std::uint64_t received = 0;  ///< stream messages that arrived
  std::uint64_t pe_frames = 0;
  std::uint64_t comm_frames = 0;
  std::uint64_t wake_pokes = 0;
};

LinkReport link_counters() {
  const cx::trace::WireStats w = cx::trace::wire_stats();
  LinkReport r;
  r.pe_frames = w.net_pe_frames;
  r.comm_frames = w.net_comm_frames;
  r.wake_pokes = w.net_wake_pokes;
  return r;
}

/// Messages per (src, dst) stream and round: one lap of kRingSizes, so
/// 4 MiB + 7 overflows the socket buffer, then small frames queued
/// behind it. Rounds repeat the race without holding more memory.
constexpr std::uint32_t kStreamMsgs = kNumRingSizes + 4;
constexpr std::uint32_t kStreamRounds = 3;

std::byte stream_byte(int src, int dst, std::uint32_t seq, std::size_t i) {
  return static_cast<std::byte>(seq * 131 + i * 7 + static_cast<std::size_t>(
                                                        src * 17 + dst));
}

struct StreamHead {
  std::int32_t src = 0;
  std::uint32_t seq = 0;
};

TEST(SocketJob, MixedWritePathsKeepEveryStreamInOrder) {
  // 2 ranks x 2 PEs; in each round every PE streams numbered messages to
  // both PEs of the other rank. Rank 1 starts late and its PEs sleep
  // before they send, so rank 0's idle PEs write frames themselves until
  // the socket is full, and the frames behind a short write (their own,
  // or the other PE's while one writes) queue for the comm thread; rank
  // 1 then sends with a full mailbox, so its frames queue too. PE 0
  // starts the next round once every PE has heard its whole round.
  Job job = spawn_ranks(2, 2, [](int rank, int wfd) {
    cx::trace::reset_wire_stats();
    cxm::MachineConfig cfg;
    auto m = cxm::make_machine(cfg);
    const int npes = m->num_pes();
    const auto remote = [&](int pe) { return !m->hosts_pe(pe); };
    // next[dst][src]: the seq dst expects from src; each row is touched
    // only by its PE's thread.
    std::vector<std::vector<std::uint32_t>> next(
        static_cast<std::size_t>(npes),
        std::vector<std::uint32_t>(static_cast<std::size_t>(npes), 0));
    std::atomic<std::uint64_t> bad{0}, received{0};
    int done = 0;  // PE 0 only
    std::uint32_t round = 0;  // PE 0 only
    std::uint32_t h_data = 0, h_done = 0, h_kick = 0;
    const auto kick_all = [&](std::uint32_t r) {
      for (int pe = 0; pe < npes; ++pe) {
        auto k = std::make_unique<cxm::Message>();
        k->handler = h_kick;
        k->dst_pe = pe;
        k->data.resize_discard(sizeof(r));
        std::memcpy(k->data.data(), &r, sizeof(r));
        m->send(std::move(k));
      }
    };
    h_data = m->register_handler([&](cxm::MessagePtr msg) {
      const int me = m->current_pe();
      StreamHead sh;
      std::memcpy(&sh, msg->data.data(), sizeof(sh));
      std::uint32_t* want = next[static_cast<std::size_t>(me)].data();
      bool ok = sh.seq == want[sh.src] &&
                msg->data.size() ==
                    kRingSizes[(sh.seq % kStreamMsgs) % kNumRingSizes];
      for (std::size_t i = sizeof(sh); ok && i < msg->data.size(); ++i) {
        ok = msg->data.data()[i] == stream_byte(sh.src, me, sh.seq, i);
      }
      if (!ok) bad.fetch_add(1);
      received.fetch_add(1);
      want[sh.src] = sh.seq + 1;
      if (want[sh.src] % kStreamMsgs != 0) return;
      for (int src = 0; src < npes; ++src) {
        if (remote(src) && want[src] != want[sh.src]) return;
      }
      auto d = std::make_unique<cxm::Message>();  // this round is done here
      d->handler = h_done;
      d->dst_pe = 0;
      m->send(std::move(d));
    });
    h_done = m->register_handler([&](cxm::MessagePtr) {
      if (++done < npes) return;
      done = 0;
      if (++round < kStreamRounds) {
        kick_all(round);
      } else {
        m->stop();
      }
    });
    h_kick = m->register_handler([&](cxm::MessagePtr k) {
      std::uint32_t r = 0;
      std::memcpy(&r, k->data.data(), sizeof(r));
      const int me = m->current_pe();
      // Build the round first and send it in one burst, so the two PEs
      // of a rank send while the other is writing.
      std::vector<cxm::MessagePtr> burst;
      for (std::uint32_t i = 0; i < kStreamMsgs; ++i) {
        const std::uint32_t seq = r * kStreamMsgs + i;
        for (int dst = 0; dst < npes; ++dst) {
          if (!remote(dst)) continue;
          auto msg = std::make_unique<cxm::Message>();
          msg->handler = h_data;
          msg->dst_pe = dst;
          msg->data.resize_discard(kRingSizes[i % kNumRingSizes]);
          const StreamHead sh{me, seq};
          std::memcpy(msg->data.data(), &sh, sizeof(sh));
          for (std::size_t b = sizeof(sh); b < msg->data.size(); ++b) {
            msg->data.data()[b] = stream_byte(me, dst, seq, b);
          }
          burst.push_back(std::move(msg));
        }
      }
      if (rank == 1) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      for (cxm::MessagePtr& msg : burst) m->send(std::move(msg));
    });
    if (m->hosts_pe(0)) kick_all(0);
    // Rank 1 starts reading late: rank 0's first round fills the socket.
    if (rank == 1) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    m->run();
    LinkReport rep = link_counters();
    rep.bad = bad.load();
    rep.received = received.load();
    write_exact(wfd, &rep, sizeof(rep));
  });

  LinkReport sum;
  for (int r = 0; r < 2; ++r) {
    LinkReport rep;
    ASSERT_TRUE(read_exact(job.out[r], &rep, sizeof(rep))) << "rank " << r;
    EXPECT_EQ(rep.bad, 0u) << "rank " << r;
    // Each of the rank's 2 PEs hears every round from 2 remote PEs.
    EXPECT_EQ(rep.received, 4u * kStreamMsgs * kStreamRounds) << "rank " << r;
    sum.pe_frames += rep.pe_frames;
    sum.comm_frames += rep.comm_frames;
  }
  EXPECT_GT(sum.pe_frames, 0u);
  EXPECT_GT(sum.comm_frames, 0u);
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
}

TEST(SocketJob, IdlePingPongFramesAreAllWrittenByPes) {
  // One PE per rank, one 8 B message in flight: every send leaves its PE
  // with an empty mailbox and nothing queued for the peer, so each of
  // the 2N data frames is written by its sender and the comm thread is
  // never woken. Each rank reads its counters before Stop: rank 1 after
  // its last echo, rank 0 when the last echo arrives.
  constexpr std::uint64_t kRounds = 200;
  Job job = spawn_ranks(2, 1, [&](int, int wfd) {
    cx::trace::reset_wire_stats();
    cxm::MachineConfig cfg;
    auto m = cxm::make_machine(cfg);
    std::uint64_t seen = 0;  // touched only by this rank's one PE
    LinkReport rep;
    std::uint32_t h = 0;
    const auto ping = [&](int dst, std::uint64_t v) {
      auto msg = std::make_unique<cxm::Message>();
      msg->handler = h;
      msg->dst_pe = dst;
      msg->data.resize_discard(sizeof(v));
      std::memcpy(msg->data.data(), &v, sizeof(v));
      m->send(std::move(msg));
    };
    h = m->register_handler([&](cxm::MessagePtr msg) {
      std::uint64_t v = 0;
      std::memcpy(&v, msg->data.data(), sizeof(v));
      if (v != seen) ++rep.bad;
      ++seen;
      if (m->current_pe() == 1) {
        ping(0, v);
        if (seen == kRounds) {
          const std::uint64_t bad = rep.bad;
          rep = link_counters();
          rep.bad = bad;
          rep.received = seen;
        }
      } else if (seen < kRounds) {
        ping(1, seen);
      } else {
        const std::uint64_t bad = rep.bad;
        rep = link_counters();
        rep.bad = bad;
        rep.received = seen;
        m->stop();
      }
    });
    const std::uint32_t kick = m->register_handler(
        [&](cxm::MessagePtr) { ping(1, 0); });
    if (m->hosts_pe(0)) {
      auto k = std::make_unique<cxm::Message>();
      k->handler = kick;
      k->dst_pe = 0;
      m->send(std::move(k));
    }
    m->run();
    write_exact(wfd, &rep, sizeof(rep));
  });

  for (int r = 0; r < 2; ++r) {
    LinkReport rep;
    ASSERT_TRUE(read_exact(job.out[r], &rep, sizeof(rep))) << "rank " << r;
    EXPECT_EQ(rep.bad, 0u) << "rank " << r;
    EXPECT_EQ(rep.received, kRounds) << "rank " << r;
    EXPECT_EQ(rep.pe_frames, kRounds) << "rank " << r;
    EXPECT_EQ(rep.comm_frames, 0u) << "rank " << r;
    EXPECT_EQ(rep.wake_pokes, 0u) << "rank " << r;
  }
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
}

// ---------------------------------------------------------------------------
// Who reads a frame. A PE polling for work takes the complete data frames
// of at most kPeFrameMax bytes off its rank's inbound rings itself; the
// comm thread reads everything else (control frames, large frames, the
// rest of a partly read one). These two jobs pin both halves: the share
// PEs read in an idle closed loop, and ordering when the readers mix.

/// The inbound counters one forked rank reports.
struct ReadReport {
  std::uint64_t bad = 0;       ///< messages out of order or corrupt
  std::uint64_t received = 0;  ///< messages that arrived
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t pe_rx_frames = 0;
  std::uint64_t pe_rx_bytes = 0;
  std::uint64_t decode_errors = 0;
};

ReadReport read_counters() {
  const cx::trace::WireStats w = cx::trace::wire_stats();
  ReadReport r;
  r.rx_frames = w.net_rx_frames;
  r.rx_bytes = w.net_rx_bytes;
  r.pe_rx_frames = w.net_pe_rx_frames;
  r.pe_rx_bytes = w.net_pe_rx_bytes;
  r.decode_errors = w.net_decode_errors;
  return r;
}

/// A closed loop of `rounds` round trips between the one PE of each of
/// 2 ranks: round v's message carries `size(v)` bytes (v, then zeros)
/// there and back. One message is in flight, so every frame
/// arrives while the receiving PE polls for work (2 ranks x (1 PE + comm
/// thread) fit 4 cores). Returns each rank's counters, read before Stop.
std::vector<ReadReport> idle_ping_pong(std::uint64_t rounds,
                                       std::size_t (*size)(std::uint64_t)) {
  Job job = spawn_ranks(2, 1, [&](int, int wfd) {
    cx::trace::reset_wire_stats();
    cxm::MachineConfig cfg;
    auto m = cxm::make_machine(cfg);
    std::uint64_t seen = 0;  // touched only by this rank's one PE
    ReadReport rep;
    std::uint32_t h = 0;
    const auto ping = [&](int dst, std::uint64_t v) {
      auto msg = std::make_unique<cxm::Message>();
      msg->handler = h;
      msg->dst_pe = dst;
      msg->data.resize_discard(size(v));
      std::memset(msg->data.data(), 0, msg->data.size());
      std::memcpy(msg->data.data(), &v, sizeof(v));
      m->send(std::move(msg));
    };
    const auto snapshot = [&] {
      const std::uint64_t bad = rep.bad;
      rep = read_counters();
      rep.bad = bad;
      rep.received = seen;
    };
    h = m->register_handler([&](cxm::MessagePtr msg) {
      std::uint64_t v = 0;
      std::memcpy(&v, msg->data.data(), sizeof(v));
      if (v != seen || msg->data.size() != size(v)) ++rep.bad;
      ++seen;
      if (m->current_pe() == 1) {
        ping(0, v);
        if (seen == rounds) snapshot();
      } else if (seen < rounds) {
        ping(1, seen);
      } else {
        snapshot();
        m->stop();
      }
    });
    const std::uint32_t kick = m->register_handler(
        [&](cxm::MessagePtr) { ping(1, 0); });
    if (m->hosts_pe(0)) {
      auto k = std::make_unique<cxm::Message>();
      k->handler = kick;
      k->dst_pe = 0;
      m->send(std::move(k));
    }
    m->run();
    write_exact(wfd, &rep, sizeof(rep));
  });

  std::vector<ReadReport> reps(2);
  for (int r = 0; r < 2; ++r) {
    ReadReport& rep = reps[static_cast<std::size_t>(r)];
    EXPECT_TRUE(read_exact(job.out[r], &rep, sizeof(rep))) << "rank " << r;
    EXPECT_EQ(rep.bad, 0u) << "rank " << r;
    EXPECT_EQ(rep.received, rounds) << "rank " << r;
    EXPECT_EQ(rep.rx_frames, rounds) << "rank " << r;
    EXPECT_EQ(rep.decode_errors, 0u) << "rank " << r;
  }
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
  return reps;
}

TEST(SocketJob, IdlePingPongFramesAreReadByPes) {
  // 8 B round trips: the receiving PE takes each frame off the ring
  // itself; the comm thread, polling too, leaves a ring's small frames
  // to a polling PE. On a 4-core VM PEs read 96-100 % of the frames (30
  // runs), and 82-99 % with three busy loops on the same cores; the
  // floor is half.
  constexpr std::uint64_t kRounds = 200;
  const std::vector<ReadReport> reps =
      idle_ping_pong(kRounds, [](std::uint64_t) { return std::size_t{8}; });
  for (int r = 0; r < 2; ++r) {
    const ReadReport& rep = reps[static_cast<std::size_t>(r)];
    EXPECT_EQ(rep.rx_bytes, kRounds * (cxnet::kFrameHeadBytes + 8))
        << "rank " << r;
    EXPECT_GE(rep.pe_rx_frames * 2, kRounds) << "rank " << r;
    EXPECT_EQ(rep.pe_rx_bytes, rep.pe_rx_frames * (cxnet::kFrameHeadBytes + 8))
        << "rank " << r;
  }
}

TEST(SocketJob, PesReadFramesUpToTheBoundOnly) {
  // Frames of exactly kPeFrameMax bytes, head included, alternate with
  // frames one byte longer: PEs take the first kind and never the
  // second, so every frame a PE read is exactly kPeFrameMax bytes.
  constexpr std::uint64_t kRounds = 200;
  const std::vector<ReadReport> reps =
      idle_ping_pong(kRounds, [](std::uint64_t v) {
        return cxm::kPeFrameMax - cxnet::kFrameHeadBytes + v % 2;
      });
  for (int r = 0; r < 2; ++r) {
    const ReadReport& rep = reps[static_cast<std::size_t>(r)];
    EXPECT_EQ(rep.rx_bytes, kRounds * cxm::kPeFrameMax + kRounds / 2)
        << "rank " << r;
    EXPECT_EQ(rep.pe_rx_bytes, rep.pe_rx_frames * cxm::kPeFrameMax)
        << "rank " << r;
    EXPECT_GE(rep.pe_rx_frames * 4, kRounds) << "rank " << r;
  }
}

/// Rounds of the mixed-read job: each rank sends in every other one.
constexpr std::uint32_t kReadRounds = 4;
/// Messages a stream of the mixed-read job keeps in flight.
constexpr std::uint32_t kReadWindow = 2;

/// 2 ranks x `ppn` PEs. In round r every PE of rank r % 2 streams
/// numbered messages of every kRingSizes size to each PE of the other
/// rank, kReadWindow in flight: each one the receiver acknowledges lets
/// the next go. The receiving PEs, idle between arrivals, poll; frames of
/// several streams share one ring. PE 0 starts the next round once every
/// receiver has heard its whole round. Returns each rank's report.
std::vector<ReadReport> mixed_read_streams(int ppn) {
  Job job = spawn_ranks(2, ppn, [ppn](int rank, int wfd) {
    cx::trace::reset_wire_stats();
    cxm::MachineConfig cfg;
    auto m = cxm::make_machine(cfg);
    const int npes = m->num_pes();
    const auto remote = [&](int pe) { return !m->hosts_pe(pe); };
    // next[dst][src]: the seq dst expects from src; each row is touched
    // only by its PE's thread.
    std::vector<std::vector<std::uint32_t>> next(
        static_cast<std::size_t>(npes),
        std::vector<std::uint32_t>(static_cast<std::size_t>(npes), 0));
    std::atomic<std::uint64_t> bad{0}, received{0};
    int done = 0;             // PE 0 only
    std::uint32_t round = 0;  // PE 0 only
    std::uint32_t h_data = 0, h_ack = 0, h_done = 0, h_kick = 0;
    const auto send_u32 = [&](std::uint32_t handler, int dst,
                              std::uint32_t v) {
      auto msg = std::make_unique<cxm::Message>();
      msg->handler = handler;
      msg->dst_pe = dst;
      msg->data.resize_discard(sizeof(v));
      std::memcpy(msg->data.data(), &v, sizeof(v));
      m->send(std::move(msg));
    };
    /// Stream message `seq` from the calling PE to `dst`.
    const auto send_data = [&](int dst, std::uint32_t seq) {
      const int me = m->current_pe();
      auto msg = std::make_unique<cxm::Message>();
      msg->handler = h_data;
      msg->dst_pe = dst;
      msg->data.resize_discard(kRingSizes[(seq % kStreamMsgs) % kNumRingSizes]);
      const StreamHead sh{me, seq};
      std::memcpy(msg->data.data(), &sh, sizeof(sh));
      for (std::size_t b = sizeof(sh); b < msg->data.size(); ++b) {
        msg->data.data()[b] = stream_byte(me, dst, seq, b);
      }
      m->send(std::move(msg));
    };
    const auto kick_senders = [&](std::uint32_t r) {
      for (int pe = 0; pe < npes; ++pe) {
        if (pe / ppn == static_cast<int>(r % 2)) send_u32(h_kick, pe, r);
      }
    };
    h_kick = m->register_handler([&](cxm::MessagePtr k) {
      std::uint32_t r = 0;
      std::memcpy(&r, k->data.data(), sizeof(r));
      for (int dst = 0; dst < npes; ++dst) {
        if (!remote(dst)) continue;
        for (std::uint32_t i = 0; i < kReadWindow; ++i) {
          send_data(dst, r / 2 * kStreamMsgs + i);
        }
      }
    });
    h_ack = m->register_handler([&](cxm::MessagePtr a) {
      std::uint32_t seq = 0;
      std::memcpy(&seq, a->data.data(), sizeof(seq));
      if (seq % kStreamMsgs + kReadWindow < kStreamMsgs) {
        send_data(a->src_pe, seq + kReadWindow);
      }
    });
    h_data = m->register_handler([&](cxm::MessagePtr msg) {
      const int me = m->current_pe();
      StreamHead sh;
      std::memcpy(&sh, msg->data.data(), sizeof(sh));
      std::uint32_t* want = next[static_cast<std::size_t>(me)].data();
      bool ok = sh.seq == want[sh.src] &&
                msg->data.size() ==
                    kRingSizes[(sh.seq % kStreamMsgs) % kNumRingSizes];
      for (std::size_t i = sizeof(sh); ok && i < msg->data.size(); ++i) {
        ok = msg->data.data()[i] == stream_byte(sh.src, me, sh.seq, i);
      }
      if (!ok) bad.fetch_add(1);
      received.fetch_add(1);
      send_u32(h_ack, sh.src, sh.seq);
      want[sh.src] = sh.seq + 1;
      if (want[sh.src] % kStreamMsgs != 0) return;
      for (int src = 0; src < npes; ++src) {
        if (remote(src) && want[src] != want[sh.src]) return;
      }
      send_u32(h_done, 0, 0);  // this round is done here
    });
    h_done = m->register_handler([&](cxm::MessagePtr) {
      if (++done < ppn) return;  // every receiver of the round
      done = 0;
      if (++round < kReadRounds) {
        kick_senders(round);
      } else {
        m->stop();
      }
    });
    if (rank == 0) kick_senders(0);
    m->run();
    ReadReport rep = read_counters();
    rep.bad = bad.load();
    rep.received = received.load();
    write_exact(wfd, &rep, sizeof(rep));
  });

  std::vector<ReadReport> reps(2);
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(read_exact(job.out[r], &reps[r], sizeof(reps[r])))
        << "rank " << r;
  }
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
  return reps;
}

TEST(SocketJob, MixedReadPathsKeepEveryStreamInOrder) {
  // Small frames reach PEs that poll between entry methods, and the
  // frames around them (up to 4 MiB + 7) reach the comm thread, so the
  // two readers take turns on one ring. PEs poll only where the job's
  // threads fit the cores: 2 x 1 PEs do on 4 cores, 2 x 2 PEs (sibling
  // deliveries) from 6 on.
  const unsigned cores = std::thread::hardware_concurrency();
  for (const int ppn : {1, 2}) {
    SCOPED_TRACE("2 ranks x " + std::to_string(ppn) + " PEs");
    const std::vector<ReadReport> reps = mixed_read_streams(ppn);
    ReadReport sum;
    for (int r = 0; r < 2; ++r) {
      const ReadReport& rep = reps[static_cast<std::size_t>(r)];
      EXPECT_EQ(rep.bad, 0u) << "rank " << r;
      // Each of the rank's PEs hears half the rounds from every remote PE.
      EXPECT_EQ(rep.received, std::uint64_t(ppn * ppn) * kStreamMsgs *
                                  kReadRounds / 2)
          << "rank " << r;
      EXPECT_EQ(rep.decode_errors, 0u) << "rank " << r;
      // PEs take whole frames within the bound only.
      EXPECT_LE(rep.pe_rx_bytes, rep.pe_rx_frames * cxm::kPeFrameMax)
          << "rank " << r;
      sum.pe_rx_frames += rep.pe_rx_frames;
      sum.rx_bytes += rep.rx_bytes;
      sum.pe_rx_bytes += rep.pe_rx_bytes;
    }
    EXPECT_GE(sum.rx_bytes - sum.pe_rx_bytes, std::uint64_t{4} << 20)
        << "no large frame was read by a comm thread";
    if (2u * static_cast<unsigned>(ppn + 1) <= cores) {
      EXPECT_GT(sum.pe_rx_frames, 0u) << "no frame was read by a PE";
    }
  }
}

// ---------------------------------------------------------------------------
// Same-host ranks frame through shared-memory rings, and a pair without a
// segment frames over TCP. The doorbell tells them apart: a ring write
// that finds the peer's comm thread blocked pokes it, and the TCP path
// never rings one. Rank 0 pauses before every ping, long enough for rank
// 1's comm thread to finish polling and block, so on a ring its ping
// must ring the doorbell.

/// Make this process unable to reserve a ring segment: a file size
/// limit below a segment's makes posix_fallocate fail with EFBIG (and
/// raise SIGXFSZ, ignored here), so the rank offers none.
void forbid_segments() {
  ::signal(SIGXFSZ, SIG_IGN);
  const rlimit small{64u << 10, 64u << 10};
  if (::setrlimit(RLIMIT_FSIZE, &small) != 0) ::_exit(8);
}

/// What one rank of the paused-ping job reports.
struct RingPathReport {
  std::uint64_t bad = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t decode_errors = 0;
};

constexpr std::uint64_t kPings = 5;

/// 2 ranks x 1 PE: rank 0 pauses 20 ms before each of kPings 8 B pings,
/// rank 1 echoes each. Every rank's report, read before Stop.
std::vector<RingPathReport> paused_pings(bool with_segments) {
  Job job = spawn_ranks(2, 1, [&](int, int wfd) {
    if (!with_segments) forbid_segments();
    cx::trace::reset_wire_stats();
    cxm::MachineConfig cfg;
    auto m = cxm::make_machine(cfg);
    std::uint64_t seen = 0;
    RingPathReport rep;
    std::uint32_t h = 0;
    const auto send8 = [&](int dst, std::uint64_t v) {
      auto msg = std::make_unique<cxm::Message>();
      msg->handler = h;
      msg->dst_pe = dst;
      msg->data.resize_discard(sizeof(v));
      std::memcpy(msg->data.data(), &v, sizeof(v));
      m->send(std::move(msg));
    };
    const auto snapshot = [&] {
      const cx::trace::WireStats w = cx::trace::wire_stats();
      rep.doorbells = w.net_doorbells;
      rep.rx_frames = w.net_rx_frames;
      rep.rx_bytes = w.net_rx_bytes;
      rep.decode_errors = w.net_decode_errors;
    };
    const auto pause_then_ping = [&](std::uint64_t v) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      send8(1, v);
    };
    h = m->register_handler([&](cxm::MessagePtr msg) {
      std::uint64_t v = 0;
      std::memcpy(&v, msg->data.data(), sizeof(v));
      if (v != seen) ++rep.bad;
      ++seen;
      if (m->current_pe() == 1) {
        send8(0, v);
        if (seen == kPings) snapshot();
      } else if (seen < kPings) {
        pause_then_ping(seen);
      } else {
        snapshot();
        m->stop();
      }
    });
    const std::uint32_t kick = m->register_handler(
        [&](cxm::MessagePtr) { pause_then_ping(0); });
    if (m->hosts_pe(0)) {
      auto k = std::make_unique<cxm::Message>();
      k->handler = kick;
      k->dst_pe = 0;
      m->send(std::move(k));
    }
    m->run();
    write_exact(wfd, &rep, sizeof(rep));
  });

  std::vector<RingPathReport> reps(2);
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(read_exact(job.out[r], &reps[r], sizeof(reps[r])))
        << "rank " << r;
    EXPECT_EQ(reps[r].bad, 0u) << "rank " << r;
    // Each side received its kPings 8 B data frames whole.
    EXPECT_EQ(reps[r].rx_frames, kPings) << "rank " << r;
    EXPECT_EQ(reps[r].rx_bytes, kPings * (cxnet::kFrameHeadBytes + 8))
        << "rank " << r;
    EXPECT_EQ(reps[r].decode_errors, 0u) << "rank " << r;
  }
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
  return reps;
}

TEST(SocketJob, SameHostFramesTakeTheRing) {
  const std::vector<RingPathReport> reps = paused_pings(true);
  EXPECT_GE(reps[0].doorbells, 1u) << "no ping went through a ring";
}

TEST(SocketJob, PairWithoutSegmentFallsBackToTcp) {
  const std::vector<RingPathReport> reps = paused_pings(false);
  EXPECT_EQ(reps[0].doorbells + reps[1].doorbells, 0u)
      << "a pair without a segment rang a doorbell";

  // Frames of every size, and the writes a full socket cuts short, keep
  // their bytes and order on the TCP fallback too.
  cxm::MachineConfig ref;
  ref.num_pes = 4;
  ref.backend = cxm::Backend::Threaded;
  const std::uint64_t expected = run_ring(*cxm::make_machine(ref), kRingHops);
  Job job = spawn_ranks(2, 2, [](int, int wfd) {
    forbid_segments();
    cxm::MachineConfig cfg;
    const std::uint64_t digest = run_ring(*cxm::make_machine(cfg), kRingHops);
    write_exact(wfd, &digest, sizeof(digest));
  });
  std::uint64_t digest = 0;
  ASSERT_TRUE(read_exact(job.out[0], &digest, sizeof(digest)));
  EXPECT_EQ(digest, expected);
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
  EXPECT_TRUE(orphaned_segments().empty());
}

// ---------------------------------------------------------------------------
// A peer that hangs up mid-payload. Rank 0 is a real socket-job machine
// in this process; rank 1 is the test itself, wiring up by hand and then
// closing the connection a quarter of the way into a 4 MiB data frame.
// In-process so the leak checker sees the partly received Message.

TEST(SocketJob, EofMidPayloadDropsPeerAndFreesMessage) {
  const bool pooled = cx::wire::pool_enabled();
  cx::wire::set_pool_enabled(true);
  cx::wire::drain_caches();

  cxnet::Fd root = cxnet::tcp_listen(0);
  const std::uint16_t root_port = cxnet::local_port(root.get());
  std::thread root_thread([&] {
    try {
      cxnet::run_root_exchange(root.get(), 2, 1);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "root exchange: " << e.what();
    }
  });
  std::unique_ptr<cxm::Machine> m;
  std::thread rank0([&] {
    cxm::MachineConfig cfg;
    cfg.backend = cxm::Backend::Socket;
    cfg.socket.rank = 0;
    cfg.socket.nranks = 2;
    cfg.socket.ppn = 1;
    cfg.socket.root_port = root_port;
    try {
      m = cxm::make_machine(cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "rank 0 wireup: " << e.what();
    }
  });
  cxnet::Handshake hs;
  hs.rank = 1;
  hs.nranks = 2;
  hs.ppn = 1;
  cxnet::Fd data = cxnet::tcp_listen(0);
  const std::vector<cxnet::Endpoint> table = cxnet::client_rendezvous(
      "127.0.0.1", root_port, hs, cxnet::local_port(data.get()));
  std::vector<cxnet::Fd> mesh = cxnet::mesh_wireup(hs, data.get(), table);
  root_thread.join();
  rank0.join();
  ASSERT_NE(m, nullptr);

  std::atomic<int> delivered{0};
  (void)m->register_handler([&](cxm::MessagePtr) { delivered.fetch_add(1); });
  std::atomic<int> failed_pe{-1};
  m->set_failure_listener([&](const cx::ft::PeFailure& f) {
    failed_pe.store(f.pe);
    m->stop();
  });
  const cxm::Message big = patterned(0, 4u << 20);
  const cxnet::FrameHead head = cxnet::encode_header(big);
  cx::trace::reset_wire_stats();
  std::thread runner([&] { m->run(); });
  cxnet::send_all(mesh[0].get(), head.data(), head.size());
  cxnet::send_all(mesh[0].get(), big.data.data(), 1u << 20);
  mesh[0].reset();
  runner.join();

  EXPECT_EQ(failed_pe.load(), 1);
  EXPECT_EQ(delivered.load(), 0);
  // The frame's one payload block was taken when its head arrived and
  // was back in the pool before run() returned; only the chunk holding
  // the head was copied, the rest was read in place.
  const cx::trace::WireStats w = cx::trace::wire_stats();
  EXPECT_EQ(w.buf_allocs + w.buf_hits, 1u);
  EXPECT_EQ(w.buf_recycled, 1u);
  EXPECT_LE(w.net_rx_copy_bytes, 64u << 10);
  m.reset();
  cx::wire::set_pool_enabled(pooled);
  cx::wire::drain_caches();
}

// ---------------------------------------------------------------------------
// A peer that corrupts its ring's tail. Rank 0 is a real socket-job
// machine in this process; rank 1 is the test, wiring up by hand with a
// shared-memory offer, so it holds the producer end of the ring rank 0
// reads. After one good frame and the start of a large one it sets the
// tail behind the head, or more than a ring ahead of it: rank 0 must
// declare rank 1 down without delivering anything more or reading
// outside the ring (in-process, so ASan sees every access).

TEST(SocketJob, HostileRingIndexDropsPeer) {
  for (const bool behind : {false, true}) {
    SCOPED_TRACE(behind ? "tail behind head" : "tail beyond the ring");
    cxnet::Fd root = cxnet::tcp_listen(0);
    const std::uint16_t root_port = cxnet::local_port(root.get());
    std::thread root_thread([&] {
      try {
        cxnet::run_root_exchange(root.get(), 2, 1);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "root exchange: " << e.what();
      }
    });
    std::unique_ptr<cxm::Machine> m;
    std::thread rank0([&] {
      cxm::MachineConfig cfg;
      cfg.backend = cxm::Backend::Socket;
      cfg.socket.rank = 0;
      cfg.socket.nranks = 2;
      cfg.socket.ppn = 1;
      cfg.socket.root_port = root_port;
      try {
        m = cxm::make_machine(cfg);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "rank 0 wireup: " << e.what();
      }
    });
    cxnet::Handshake hs;
    hs.rank = 1;
    hs.nranks = 2;
    hs.ppn = 1;
    cxnet::Fd data = cxnet::tcp_listen(0);
    const std::vector<cxnet::Endpoint> table = cxnet::client_rendezvous(
        "127.0.0.1", root_port, hs, cxnet::local_port(data.get()));
    std::vector<cxnet::ShmSegment> shm;
    std::vector<cxnet::Fd> mesh =
        cxnet::mesh_wireup(hs, data.get(), table, 30.0, &shm);
    root_thread.join();
    rank0.join();
    ASSERT_NE(m, nullptr);
    ASSERT_TRUE(shm[0]) << "rank 0 did not map the offered segment";
    EXPECT_TRUE(orphaned_segments().empty());

    std::atomic<int> delivered{0};
    (void)m->register_handler([&](cxm::MessagePtr) { delivered.fetch_add(1); });
    std::atomic<int> failed_pe{-1};
    m->set_failure_listener([&](const cx::ft::PeFailure& f) {
      failed_pe.store(f.pe);
      m->stop();
    });
    cx::trace::reset_wire_stats();
    std::thread runner([&] { m->run(); });

    cxnet::RingTx tx = shm[0].tx();
    const auto poke = [&] {
      const char b = 1;
      cxnet::send_all(mesh[0].get(), &b, 1);
    };
    const auto until = [](const std::function<bool()>& done) {
      const auto t0 = std::chrono::steady_clock::now();
      while (!done() &&
             std::chrono::steady_clock::now() - t0 < std::chrono::seconds(20)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return done();
    };
    // One good frame, then the head and first bytes of a 1 MiB one, so
    // rank 0 has a payload open when the tail goes bad: a reader that
    // trusted the tail would fill it from the ring and deliver it.
    cxm::Message good = patterned(0, 100);
    good.dst_pe = 0;
    cxm::Message big = patterned(0, 1u << 20);
    big.dst_pe = 0;
    std::vector<std::byte> bytes = wire_bytes(good);
    const std::vector<std::byte> big_bytes = wire_bytes(big);
    bytes.insert(bytes.end(), big_bytes.begin(), big_bytes.begin() + 1000);
    ASSERT_EQ(tx.write(bytes, {}), static_cast<std::ptrdiff_t>(bytes.size()));
    poke();
    EXPECT_TRUE(until([&] {
      return delivered.load() == 1 &&
             std::atomic_ref<std::uint64_t>(tx.ctl()->head).load() ==
                 bytes.size();
    }));
    const std::uint64_t head = bytes.size();
    std::atomic_ref<std::uint64_t>(tx.ctl()->tail)
        .store(behind ? head - 1 : head + cxnet::kRingBytes + 1);
    poke();
    const bool declared = until([&] { return failed_pe.load() >= 0; });
    if (!declared) m->stop();
    runner.join();

    EXPECT_TRUE(declared);
    EXPECT_EQ(failed_pe.load(), 1);
    EXPECT_EQ(delivered.load(), 1);
    const cx::trace::WireStats w = cx::trace::wire_stats();
    EXPECT_EQ(w.net_rx_frames, 1u);
    EXPECT_EQ(w.net_decode_errors, 1u);
    m.reset();
  }
}

// ---------------------------------------------------------------------------
// A rank that exits after Stop. Rank 0 is a real socket-job machine in
// this process; rank 1 is the test, wiring up by hand with a
// shared-memory offer. A peer's EOF that follows its Stop frame is an
// orderly exit, not a failure, and a rank stopped by a peer's Stop still
// sends every live peer a Stop of its own before it exits, so no third
// rank can meet its EOF first. An EOF without a Stop is still a failure.

/// Rank 0 of a 2-rank, 1-PE-per-rank job, built in this process, and
/// the connection and ring segment of the rank 1 the test plays.
struct HandWiredPair {
  std::unique_ptr<cxm::Machine> m;
  std::vector<cxnet::Fd> mesh;
  std::vector<cxnet::ShmSegment> shm;
};

HandWiredPair wire_pair() {
  HandWiredPair w;
  cxnet::Fd root = cxnet::tcp_listen(0);
  const std::uint16_t root_port = cxnet::local_port(root.get());
  std::thread root_thread([&] {
    try {
      cxnet::run_root_exchange(root.get(), 2, 1);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "root exchange: " << e.what();
    }
  });
  std::thread rank0([&] {
    cxm::MachineConfig cfg;
    cfg.backend = cxm::Backend::Socket;
    cfg.socket.rank = 0;
    cfg.socket.nranks = 2;
    cfg.socket.ppn = 1;
    cfg.socket.root_port = root_port;
    try {
      w.m = cxm::make_machine(cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "rank 0 wireup: " << e.what();
    }
  });
  cxnet::Handshake hs;
  hs.rank = 1;
  hs.nranks = 2;
  hs.ppn = 1;
  cxnet::Fd data = cxnet::tcp_listen(0);
  const std::vector<cxnet::Endpoint> table = cxnet::client_rendezvous(
      "127.0.0.1", root_port, hs, cxnet::local_port(data.get()));
  w.mesh = cxnet::mesh_wireup(hs, data.get(), table, 30.0, &w.shm);
  root_thread.join();
  rank0.join();
  return w;
}

TEST(SocketJob, StopBeforeEofIsNoFailure) {
  enum class Exit { StopThenEof, StopThenWait, EofOnly };
  for (const Exit how :
       {Exit::StopThenEof, Exit::StopThenWait, Exit::EofOnly}) {
    SCOPED_TRACE(how == Exit::StopThenEof    ? "Stop, then EOF at once"
                 : how == Exit::StopThenWait ? "Stop, EOF after rank 0 ends"
                                             : "EOF without Stop");
    HandWiredPair w = wire_pair();
    ASSERT_NE(w.m, nullptr);
    ASSERT_TRUE(w.shm[0]) << "rank 0 did not map the offered segment";
    std::atomic<int> failed_pe{-1};
    w.m->set_failure_listener([&](const cx::ft::PeFailure& f) {
      failed_pe.store(f.pe);
      w.m->stop();
    });
    std::atomic<bool> ended{false};
    std::thread runner([&] {
      w.m->run();
      ended.store(true);
    });
    if (how != Exit::EofOnly) {
      const cxnet::FrameHead stop =
          cxnet::encode_control(cxnet::ControlOp::Stop, -1, 1);
      cxnet::RingTx tx = w.shm[0].tx();
      ASSERT_EQ(tx.write(stop, {}), static_cast<std::ptrdiff_t>(stop.size()));
      const char b = 1;
      cxnet::send_all(w.mesh[0].get(), &b, 1);
    }
    if (how != Exit::StopThenWait) w.mesh[0].reset();
    const auto t0 = std::chrono::steady_clock::now();
    while (!ended.load() &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(20)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(ended.load()) << "rank 0 did not stop";
    if (!ended.load()) w.m->stop();
    runner.join();
    EXPECT_EQ(failed_pe.load(), how == Exit::EofOnly ? 1 : -1);
    if (how == Exit::StopThenWait) {
      // Rank 0 stopped on our Stop and broadcast none; its Link still
      // wrote one Stop to us before it let its comm thread go.
      cxnet::RingRx rx = w.shm[0].rx();
      const std::ptrdiff_t avail = rx.available();
      ASSERT_GT(avail, 0) << "rank 0 exited without a Stop";
      std::vector<std::byte> bytes(static_cast<std::size_t>(avail));
      rx.copy_out(bytes.data(), bytes.size());
      cxnet::FrameReader reader;
      std::vector<cxnet::Frame> got;
      EXPECT_EQ(feed(reader, bytes.data(), bytes.size(), got),
                Status::NeedMore);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0].kind, cxnet::FrameKind::Control);
      EXPECT_EQ(got[0].msg->handler,
                static_cast<std::uint32_t>(cxnet::ControlOp::Stop));
      w.mesh[0].reset();
    }
    w.m.reset();
  }
}

// ---------------------------------------------------------------------------
// cxrun: a rank whose exec fails never checks in. cxrun must notice the
// dead child while it waits for the rendezvous, not after the 30 s
// accept timeout.

TEST(Cxrun, RankExecFailureEndsJobPromptly) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(CHARMX_CXRUN_PATH, "cxrun", "-np", "2", "/nonexistent",
            static_cast<char*>(nullptr));
    ::_exit(126);
  }
  ASSERT_GT(pid, 0);
  const ExitStatus st = wait_child(pid);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(st.signaled);
  EXPECT_NE(st.code, 0);
  EXPECT_LT(secs, 5.0);
}

// ---------------------------------------------------------------------------
// cxrun: a rank SIGKILLed after wireup, with no fault tolerance, while
// rank 0 waits on a future. cxrun must reap the dead rank as it ends,
// tear down the survivor and exit nonzero, not block on rank 0. The job
// runs in its own process group so a hung cxrun can be cleaned up.

TEST(Cxrun, RankDeathAfterWireupEndsJobPromptly) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setpgid(0, 0);
    ::execl(CHARMX_CXRUN_PATH, "cxrun", "-np", "2", CHARMX_RANK_DIES_PATH,
            static_cast<char*>(nullptr));
    ::_exit(126);
  }
  ASSERT_GT(pid, 0);
  int st = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid, &st, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(20)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (done == 0) {
    ::kill(-pid, SIGKILL);
    (void)::waitpid(pid, &st, 0);
    FAIL() << "cxrun still running after " << secs << " s";
  }
  ASSERT_EQ(done, pid);
  EXPECT_TRUE(WIFEXITED(st));
  EXPECT_NE(WEXITSTATUS(st), 0);
  EXPECT_LT(secs, 5.0);
  // The ranks' ring segments were unlinked at wireup: none outlives them.
  EXPECT_TRUE(orphaned_segments().empty());
}

// ---------------------------------------------------------------------------
// Full-runtime reduction parity: create_array spreads elements over
// both ranks, the broadcast and the sum reduction cross the sockets,
// and the result must match the threaded backend exactly.

struct SumCell : cx::Chare {
  void start(cx::Future<int> f) {
    contribute(this_index()[0] * 7 + 1, cx::reducer::sum<int>(),
               cx::cb(f));
  }
};

constexpr int kSumCells = 8;

int run_reduction_program(const cx::RuntimeConfig& cfg, int wfd) {
  int sum = -1;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto arr = cx::create_array<SumCell>({kSumCells});
    auto f = cx::make_future<int>();
    arr.broadcast<&SumCell::start>(f);
    sum = f.get();
    if (wfd >= 0) write_exact(wfd, &sum, sizeof(sum));
    cx::exit();
  });
  return sum;
}

TEST(SocketJob, RuntimeReductionMatchesThreaded) {
  cx::RuntimeConfig ref;
  ref.machine.num_pes = 4;
  const int expected = run_reduction_program(ref, -1);
  int check = 0;
  for (int i = 0; i < kSumCells; ++i) check += i * 7 + 1;
  ASSERT_EQ(expected, check);

  Job job = spawn_ranks(2, 2, [](int, int wfd) {
    cx::RuntimeConfig cfg;  // geometry comes from the CXRUN_* environment
    (void)run_reduction_program(cfg, wfd);
  });

  int sum = 0;
  ASSERT_TRUE(read_exact(job.out[0], &sum, sizeof(sum)));
  EXPECT_EQ(sum, expected);
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
}

// ---------------------------------------------------------------------------
// kill -9 a worker rank: the comm threads of the survivors see the
// connection EOF, mark every PE of the dead rank crashed, and feed the
// failure listener — from there the PR 7 pipeline (coordinator notice
// round, cx::ft::on_failure) runs unchanged. Heartbeats are enabled so
// the liveness layer is live too; whichever detector fires first wins
// and the coordinator dedups the rest.

TEST(SocketJob, Kill9WorkerDeclaredThroughFtPipeline) {
  const int kVictimRank = 2;  // == PE 2 with ppn 1
  Job job = spawn_ranks(3, 1, [](int rank, int wfd) {
    cx::RuntimeConfig cfg;
    cfg.machine.faults.heartbeat_s = 0.05;
    cx::Runtime rt(cfg);
    if (rank != 0) {
      // Wireup is complete once the Runtime exists: report ready, then
      // run the scheduler until the Stop broadcast (or SIGKILL).
      const char ready = 'R';
      write_exact(wfd, &ready, 1);
    }
    rt.run([&] {
      // The callback outlives this entry function — keep its state on
      // the heap, not the entry frame.
      auto reported = std::make_shared<std::atomic<bool>>(false);
      cx::ft::on_failure([reported, wfd](const cx::ft::PeFailure& f) {
        if (reported->exchange(true)) return;
        const int report[2] = {f.pe, static_cast<int>(f.kind)};
        write_exact(wfd, report, sizeof(report));
        cx::exit();
      });
      const char ready = 'R';
      write_exact(wfd, &ready, 1);
    });
  });

  // All ranks wired up and rank 0's entry running: now pull the plug.
  for (int r = 0; r < 3; ++r) {
    char c = 0;
    ASSERT_TRUE(read_exact(job.out[r], &c, 1)) << "rank " << r;
    ASSERT_EQ(c, 'R');
  }
  ASSERT_EQ(::kill(job.pids[kVictimRank], SIGKILL), 0);

  int report[2] = {-1, -1};
  ASSERT_TRUE(read_exact(job.out[0], report, sizeof(report)));
  EXPECT_EQ(report[0], kVictimRank);  // the dead rank's PE
  EXPECT_EQ(report[1], static_cast<int>(cx::ft::FailureKind::Crashed));

  const ExitStatus victim = wait_child(job.pids[kVictimRank]);
  EXPECT_TRUE(victim.signaled);
  EXPECT_EQ(victim.code, SIGKILL);
  // Its ring segments were unlinked at wireup, so the kill left none.
  EXPECT_TRUE(orphaned_segments().empty());
  for (int r = 0; r < 3; ++r) {
    if (r == kVictimRank) continue;
    const ExitStatus st = wait_child(job.pids[r]);
    EXPECT_FALSE(st.signaled) << "rank " << r;
    EXPECT_EQ(st.code, 0) << "rank " << r;
  }
}

}  // namespace
