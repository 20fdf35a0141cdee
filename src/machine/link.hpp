#pragma once
// Link — a ThreadedMachine's connections to the other ranks of a
// multi-process job (launched by cxrun).
//
// The machine hands the Link every message for a PE of another rank.
// One comm thread runs an epoll loop over one nonblocking TCP
// connection per peer rank: PE threads only queue frames and wake it.
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

  /// Queue `msg` for its PE's rank. Dropped if that rank is down (cx::ft
  /// recovers it when reliable delivery is on).
  void ship(MessagePtr msg);
  /// Send control `op` about `pe` to every other rank.
  void broadcast(cxnet::ControlOp op, int pe);

 private:
  /// One queued frame: its head, then the payload straight from the
  /// Message's own buffer (control frames have no Message).
  struct OutFrame {
    cxnet::FrameHead head;
    MessagePtr msg;
  };

  /// One peer rank's connection. `outq`/`down` are guarded by
  /// out_mutex_ (producers are PE threads, consumer is the comm
  /// thread); everything else is comm-thread-only.
  struct Peer {
    cxnet::Fd fd;
    cxnet::FrameReader reader;
    std::deque<OutFrame> outq;
    std::size_t out_off = 0;  ///< bytes of outq.front() already written
    bool want_write = false;  ///< EPOLLOUT currently armed
    bool down = false;
  };

  void comm_loop();
  void queue(int rank, OutFrame frame);
  void wake_comm();
  /// Write as much of `rank`'s outq as the socket accepts; arms/disarms
  /// EPOLLOUT. Returns false if the peer broke.
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
  std::mutex out_mutex_;
  cxnet::Fd epoll_;
  cxnet::Fd wake_r_, wake_w_;  ///< self-pipe to rouse the comm thread
  std::atomic<bool> comm_stop_{false};
  std::thread comm_thread_;
};

}  // namespace cxm
