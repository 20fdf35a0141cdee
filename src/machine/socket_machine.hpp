#pragma once
// SocketMachine — N OS processes (ranks) bridged by nonblocking TCP.
//
// Each rank hosts `ppn` worker PEs (global PE p lives on rank p/ppn)
// plus one comm thread running an epoll loop over one connection per
// peer rank. Within a rank, PEs talk through the same MPSC mailboxes
// as the threaded backend — including the by-reference `local` payload
// fast path, which never crosses a socket. Cross-rank messages are the
// cx::wire envelope verbatim behind a u32 length prefix (src/net/
// frame.hpp); connections open with a version/endianness/ABI handshake
// so a mismatched peer is rejected with a clear error instead of
// silently corrupting native-endian payloads.
//
// Fault tolerance reuses cx::ft unchanged: reliable sends enroll in the
// sender PE's seq/ack/retransmit window exactly as on the threaded
// backend (the ft header rides in the frame), and a broken or EOF'd
// connection marks every PE of that rank crashed and feeds the same
// failure-listener pipeline heartbeat detection uses — so a kill -9'd
// worker process is detected and declared without new protocol.
//
// Wireup: the launcher (cxrun, or a test harness) listens as the
// rendezvous root; every rank connects, sends its handshake + data
// port, and receives the rank->endpoint table, then the ranks build a
// full mesh (connect to lower ranks, accept from higher ones).
//
// Injection semantics vs the threaded backend: drop and duplicate work
// for cross-rank sends; an injected extra delay is only honored for
// rank-local destinations (TCP supplies real latency, and delaying
// inside the comm thread would stall unrelated traffic).

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "ft/fault.hpp"
#include "ft/reliable.hpp"
#include "machine/machine.hpp"
#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "wire/agg.hpp"

namespace cxm {

class SocketMachine final : public Machine {
 public:
  explicit SocketMachine(const MachineConfig& cfg);
  ~SocketMachine() override;

  std::uint32_t register_handler(Handler h) override;
  [[nodiscard]] int num_pes() const noexcept override { return num_pes_; }
  [[nodiscard]] int current_pe() const noexcept override;
  void send(MessagePtr msg) override;
  [[nodiscard]] double now() const override;
  void compute(double seconds) override;
  void charge(double seconds) override;
  void run() override;
  void stop() override;
  [[nodiscard]] bool is_simulated() const noexcept override { return false; }

  [[nodiscard]] int my_rank() const noexcept override { return rank_; }
  [[nodiscard]] int num_ranks() const noexcept override { return nranks_; }
  [[nodiscard]] int pe_to_rank(int pe) const noexcept override {
    return pe / ppn_;
  }

  void send_after(MessagePtr msg, double delay_s) override;
  void inject_kill(int pe) override;
  void inject_hang(int pe) override;
  void declare_failed(int pe, cx::ft::FailureKind kind) override;
  void revive_pe(int pe) override;
  [[nodiscard]] bool pe_failed(int pe) const noexcept override;

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<MessagePtr> queue;
    std::multimap<double, MessagePtr> delayed;
  };

  /// Per-local-PE ft protocol state, touched only by the owning thread.
  struct FtPeState {
    cx::ft::SenderWindow sw;
    cx::ft::ReceiverWindow rw;
  };

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
    std::size_t out_off = 0;   ///< bytes of outq.front() already written
    bool want_write = false;   ///< EPOLLOUT currently armed
    bool down = false;
  };

  [[nodiscard]] bool is_local(int pe) const noexcept {
    return pe >= pe_base_ && pe < pe_base_ + ppn_;
  }
  [[nodiscard]] std::size_t lidx(int pe) const noexcept {
    return static_cast<std::size_t>(pe - pe_base_);
  }

  void pe_loop(int pe);
  void enqueue(int dst, MessagePtr msg);
  void enqueue_delayed(int dst, MessagePtr msg, double deadline);
  void deliver(MessagePtr msg);
  void retransmit_due(int pe, FtPeState& me);
  void notify_failure_once(int pe, cx::ft::FailureKind kind);
  void request_stop(bool broadcast);
  void apply_kill(int pe);
  void apply_hang(int pe);
  void apply_revive(int pe);

  // ---- comm thread --------------------------------------------------------
  void comm_loop();
  void ship(int rank, OutFrame frame);
  void wake_comm();
  void broadcast_control(cxnet::ControlOp op, int pe);
  /// Write as much of `p`'s outq as the socket accepts; arms/disarms
  /// EPOLLOUT. Comm thread only. Returns false if the peer broke.
  bool flush_peer(int rank);
  /// Read what `rank`'s socket holds, straight into the open frame's
  /// Message while one is mid-payload. Comm thread only.
  void read_peer(int rank);
  /// Hand every frame completed by [p, p + n) to handle_frame. Returns
  /// false when a protocol violation dropped the peer.
  bool drain_frames(int rank, const std::byte* p, std::size_t n);
  void handle_frame(int rank, cxnet::Frame f);
  void peer_down(int rank, const std::string& why);
  [[nodiscard]] bool all_out_drained();

  // ---- sender-side aggregation (--wire-agg), local PEs only --------------
  [[nodiscard]] cx::wire::PeAggregator& agg(int pe);
  [[nodiscard]] bool agg_pending(int pe) const noexcept;
  void drain_agg(int pe);

  int rank_;
  int nranks_;
  int ppn_;
  int num_pes_;   ///< global PE count = nranks * ppn
  int pe_base_;   ///< first global PE hosted here = rank * ppn

  std::vector<Handler> handlers_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  ///< local PEs (ppn)
  bool agg_on_ = false;
  cx::wire::AggConfig agg_cfg_;
  std::vector<std::unique_ptr<cx::wire::PeAggregator>> aggs_;  ///< local
  std::atomic<bool> stop_{false};
  bool running_ = false;
  double epoch_ = 0.0;

  cx::ft::FaultConfig ft_;
  bool ft_enabled_ = false;
  std::unique_ptr<cx::ft::FaultInjector> inj_;
  std::mutex inj_mutex_;
  std::vector<std::unique_ptr<FtPeState>> ft_pes_;  ///< local PEs
  // Liveness flags cover every GLOBAL PE: remote failures must stop
  // local traffic (retransmit abandon) exactly like local ones.
  std::atomic<bool> any_failed_{false};
  std::vector<std::atomic<bool>> crashed_;
  std::vector<std::atomic<bool>> unreachable_;
  std::vector<std::atomic<bool>> hung_;
  std::mutex failure_mutex_;
  std::vector<std::uint8_t> failure_notified_;

  std::vector<Peer> peers_;  ///< indexed by rank; self entry unused
  std::mutex out_mutex_;
  int epoll_fd_ = -1;
  int wake_r_ = -1, wake_w_ = -1;  ///< self-pipe to rouse the comm thread
  std::thread comm_thread_;
  std::atomic<bool> comm_stop_{false};
};

}  // namespace cxm
