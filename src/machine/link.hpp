#pragma once
// Link — a ThreadedMachine's connections to the other ranks of a
// multi-process job (launched by cxrun).
//
// The machine hands the Link every message for a PE of another rank.
// One comm thread runs an epoll loop over one nonblocking TCP
// connection per peer rank. Cross-rank messages are the cx::wire
// envelope verbatim behind a 40-byte head (src/net/frame.hpp);
// connections open with a version/endianness/ABI handshake so a
// mismatched peer is rejected with a clear error instead of silently
// corrupting native-endian payloads.
//
// Medium. cxrun starts every rank on one host, so at wireup each pair
// of ranks also maps a shared-memory segment holding two 256 KiB byte
// rings, one per direction (src/net/shm_ring.hpp), and frames travel
// through the ring byte for byte as they would through the socket: no
// syscall on a hop. The TCP connection of a ring pair then carries only
// doorbells (one poke byte when the consumer sleeps, or when a full
// producer waits for space) and its EOF, which still reports the peer's
// death. A pair that cannot map a segment, or a peer that offers none,
// frames over TCP. The medium is fixed per pair for the whole job, so
// frames of one stream never mix media.
//
// Writers. A PE with nothing else to run writes its frame itself when
// nothing is queued ahead of it for that peer; every other frame, and
// the rest of a short write (socket full, or ring full), is queued for
// the comm thread, which a PE wakes through a pipe. Where the job's
// threads fit the host's cores the comm thread polls its rings and its
// epoll set for a while before it blocks, so neither side of a hop
// waits on a wake-up.
//
// Wireup: the launcher (cxrun, or a test harness) listens as the
// rendezvous root; every rank connects, sends its handshake + data
// port, and receives the rank->endpoint table, then the ranks build a
// full mesh (connect to lower ranks, accept from higher ones) and agree
// on each pair's segment.
//
// Failure: a broken or EOF'd connection marks every PE of that rank
// crashed through the machine's failure pipeline, the one heartbeat
// detection uses, so a kill -9'd worker process is detected and
// declared without new protocol; the frames its ring still holds are
// read first. A ring index out of range or an undecodable frame drops
// the peer the same way. Stop, and a kill, hang or revive of a PE,
// travel to every other rank as control frames.

#include <sys/epoll.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine.hpp"
#include "net/frame.hpp"
#include "net/shm_ring.hpp"
#include "net/socket_util.hpp"

namespace cxm {

class ThreadedMachine;

class Link {
 public:
  /// Wire up with the other ranks of `p`'s job (a one-rank job only
  /// checks in with the root). Throws if the rendezvous or mesh fails.
  Link(ThreadedMachine& m, const SocketParams& p);
  /// Finishes the comm thread if it still runs.
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Start the comm thread (Machine::run).
  void start();
  /// Stop the comm thread once every queued frame is written, waiting
  /// a bounded grace period for the Stop broadcast and tail acks.
  void finish();

  /// Send `msg` to its PE's rank: written on the calling thread when
  /// `idle` (the sending PE has nothing else to run) and no other frame
  /// for that rank is queued or being written, queued for the comm
  /// thread otherwise. Dropped if that rank is down (cx::ft recovers it
  /// when reliable delivery is on).
  void ship(MessagePtr msg, bool idle);
  /// Send control `op` about `pe` to every other rank.
  void broadcast(cxnet::ControlOp op, int pe);

 private:
  /// One queued frame: its head, then the payload straight from the
  /// Message's own buffer (control frames have no Message).
  struct OutFrame {
    cxnet::FrameHead head;
    MessagePtr msg;
  };

  /// One peer rank's connection. `mu` guards `outq`, `writing` and
  /// `down`. At most one thread writes frames, the one that set
  /// `writing`: a PE writing its own frame, or the comm thread flushing
  /// `outq`; that thread alone touches `out_off` and `tx`, and it writes
  /// without holding `mu`. `fd` is closed only by peer_down, once no PE
  /// writes. Everything else is comm-thread-only.
  struct Peer {
    std::mutex mu;
    cxnet::Fd fd;
    cxnet::ShmSegment shm;  ///< mapped for the job on a ring pair
    cxnet::RingTx tx;       ///< outbound ring (ring pair only)
    cxnet::RingRx rx;       ///< inbound ring; emptied by peer_down
    cxnet::FrameReader reader;
    std::deque<OutFrame> outq;
    std::size_t out_off = 0;  ///< bytes of outq.front() already written
    bool writing = false;     ///< a thread owns the write side
    bool want_write = false;  ///< EPOLLOUT currently armed
    /// The comm thread left queued bytes over a full ring. The queue is
    /// not empty then, so no PE writes and `tx` is the comm thread's.
    bool tx_full = false;
    bool down = false;
  };

  void comm_loop();
  /// Wait for epoll events or ring progress: poll both first when the
  /// machine's PEs poll, then block for up to `timeout_ms` with every
  /// inbound ring marked sleeping and every full outbound ring asking
  /// for space. Returns epoll_wait's result (0 when a ring is ready).
  int wait_events(epoll_event* events, int cap, int timeout_ms);
  /// Write what is left of `frame` past `off` to `p`'s ring or socket,
  /// ringing the doorbell if the ring's consumer sleeps. Returns the
  /// bytes taken (0 when the medium is full), or -1 with errno set when
  /// the peer broke.
  ssize_t put(Peer& p, const OutFrame& frame, std::size_t off);
  /// One poke byte on `p`'s connection: a ring pair's doorbell.
  void ring_doorbell(Peer& p);
  void queue(int rank, OutFrame frame);
  /// Write `frame` on the calling PE's thread, which owns `rank`'s
  /// socket; queue what the socket does not take and wake the comm
  /// thread for it.
  void write_direct(int rank, OutFrame frame);
  void wake_comm();
  /// Write as much of `rank`'s outq as the socket accepts; arms/disarms
  /// EPOLLOUT. Leaves the queue to a PE that is writing. Returns false if
  /// the peer broke.
  bool flush_peer(int rank);
  /// Read what `rank`'s socket holds, straight into the open frame's
  /// Message while one is mid-payload; on a ring pair, drain doorbells.
  void read_peer(int rank);
  /// Read what `rank`'s inbound ring holds, the twin of read_peer.
  void read_ring(int rank);
  /// True when some inbound ring has bytes to read, or some full
  /// outbound ring has room again (or either has a bad index).
  [[nodiscard]] bool rings_ready() const;
  /// `rank`'s connection ended: read what its ring still holds, then
  /// drop it.
  void peer_closed(int rank, const std::string& why);
  /// Hand every frame completed by [p, p + n) to handle_frame. Returns
  /// false when a protocol violation dropped the peer.
  bool drain_frames(int rank, const std::byte* p, std::size_t n);
  void handle_frame(int rank, cxnet::Frame f);
  void peer_down(int rank, const std::string& why);
  [[nodiscard]] bool all_out_drained();
  void set_events(int rank, std::uint32_t events);

  ThreadedMachine& m_;
  int rank_;
  int nranks_;
  int ppn_;
  std::vector<Peer> peers_;  ///< indexed by rank; self entry unused
  cxnet::Fd epoll_;
  cxnet::Fd wake_r_, wake_w_;  ///< self-pipe to rouse the comm thread
  std::atomic<bool> comm_stop_{false};
  std::thread comm_thread_;
};

}  // namespace cxm
