#pragma once
// Link — a ThreadedMachine's connections to the other ranks of a
// multi-process job (launched by cxrun).
//
// The machine hands the Link every message for a PE of another rank.
// One comm thread runs an epoll loop over one nonblocking TCP
// connection per peer rank. A PE with nothing else to run writes its
// frame to the socket itself when nothing is queued ahead of it for that
// peer; every other frame, and the rest of a short write, is queued for
// the comm thread, which a PE wakes through a pipe. Where the job's
// threads fit the host's cores the comm thread polls its epoll set for
// a while before it blocks, so neither side of a hop waits on a wake-up.
// Cross-rank messages are the cx::wire envelope verbatim behind a u32
// length prefix (src/net/frame.hpp); connections open with a
// version/endianness/ABI handshake so a mismatched peer is rejected
// with a clear error instead of silently corrupting native-endian
// payloads.
//
// Wireup: the launcher (cxrun, or a test harness) listens as the
// rendezvous root; every rank connects, sends its handshake + data
// port, and receives the rank->endpoint table, then the ranks build a
// full mesh (connect to lower ranks, accept from higher ones).
//
// Failure: a broken or EOF'd connection marks every PE of that rank
// crashed through the machine's failure pipeline, the one heartbeat
// detection uses, so a kill -9'd worker process is detected and
// declared without new protocol. Stop, and a kill, hang or revive of a
// PE, travel to every other rank as control frames.

#include <sys/epoll.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine.hpp"
#include "net/frame.hpp"
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
  /// `down`. At most one thread writes the socket, the one that set
  /// `writing`: a PE writing its own frame, or the comm thread flushing
  /// `outq`; that thread alone touches `out_off`, and it writes without
  /// holding `mu`. `fd` is closed only by peer_down, once no PE writes.
  /// Everything else is comm-thread-only.
  struct Peer {
    std::mutex mu;
    cxnet::Fd fd;
    cxnet::FrameReader reader;
    std::deque<OutFrame> outq;
    std::size_t out_off = 0;  ///< bytes of outq.front() already written
    bool writing = false;     ///< a thread owns the socket's write side
    bool want_write = false;  ///< EPOLLOUT currently armed
    bool down = false;
  };

  void comm_loop();
  /// Wait for epoll events: poll first when the machine's PEs poll, then
  /// block for up to `timeout_ms`. Returns epoll_wait's result.
  int wait_events(epoll_event* events, int cap, int timeout_ms);
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
  /// Message while one is mid-payload.
  void read_peer(int rank);
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
