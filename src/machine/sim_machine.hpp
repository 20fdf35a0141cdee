#pragma once
// SimMachine — deterministic discrete-event simulator backend.
//
// All PEs are virtual and run in one OS thread. Each PE has a virtual
// clock; messages are delivered through a NetworkModel that charges
// latency + bytes/bandwidth (+ per-message CPU overhead on both sides).
// Handlers execute real code; compute()/charge() advance the virtual
// clock of the PE the handler runs on.
//
// Event ordering: a single min-heap keyed by (arrival time, sequence).
// Handlers can only generate events with arrival >= their own start time,
// so per-PE FIFO arrival order equals pop order and causality holds.
//
// Fault tolerance (cx::ft): when MachineConfig::faults is enabled the
// simulator injects seeded drop/duplicate/delay on cross-PE messages,
// runs the seq+ack reliable-delivery protocol with retransmit timer
// events, and executes scripted PE crash/hang at a virtual time. All
// fault decisions flow through one seeded FaultInjector consumed in
// deterministic event order, so the same seed replays the same fault
// script. When faults are disabled, send/run take exactly one extra
// branch and the event stream is byte-identical to the pre-ft backend.
// The fault, retry and receive steps and the PE-liveness state machine
// are the ones the threaded machine runs (machine/pipeline.hpp); the
// simulator keeps its virtual clocks, its timer events, its event heap
// and the messages parked at a hung PE.

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "machine/pipeline.hpp"

namespace cxm {

class SimMachine final : public PipelineMachine {
 public:
  explicit SimMachine(const MachineConfig& cfg);
  ~SimMachine() override;

  [[nodiscard]] int current_pe() const noexcept override {
    return current_pe_;
  }
  void send(MessagePtr msg) override;
  [[nodiscard]] double now() const override;
  void compute(double seconds) override { charge(seconds); }
  void charge(double seconds) override;
  void run() override;
  void stop() override { stop_ = true; }
  [[nodiscard]] bool is_simulated() const noexcept override { return true; }

  void send_after(MessagePtr msg, double delay_s) override;

  /// Max virtual time reached across PEs (the simulated makespan).
  [[nodiscard]] double makespan() const;

  /// Total events processed (for reporting / sanity checks).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  [[nodiscard]] const NetworkModel& network() const noexcept {
    return *net_;
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Message* msg;  // owned; unique_ptr is not movable through priority_queue
    bool operator>(const Event& o) const noexcept {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void arm_retry(int pe, const cx::ft::PendingSend& p) override;
  void discard_backlog(int pe) override;
  void forget_peer(int pe) override;
  void handle_timer(int pe, const Message& msg, double time);
  void check_scripted(double time);

  /// Deterministic aggregation flush: a DES timer event (kWireAggFlush)
  /// that seals `dst`'s open batch on `pe` unless the batch already
  /// closed (its generation moved past `gen`).
  void push_agg_flush(int pe, int dst, std::uint64_t gen, double at);

  std::vector<double> clock_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  std::unique_ptr<NetworkModel> net_;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  int current_pe_ = -1;
  bool stop_ = false;

  /// With aggregation on, channels are FIFO, as its ordering argument
  /// needs: a message never arrives before an earlier one on the same
  /// (src, dst) channel.
  std::map<std::pair<int, int>, double> last_arrival_;

  /// Time-sorted fault script (--ft-script). The cursor only moves
  /// forward: a fired event never refires, so a revived PE is not
  /// instantly re-killed, yet later script entries can hit the same PE
  /// again across revives.
  std::vector<cx::ft::ScriptedFault> script_;
  std::size_t next_script_ = 0;
  /// Messages that arrived at a hung PE (its mailbox fills; nothing
  /// drains). Discarded on revive — restore rebuilds state anyway.
  std::vector<std::vector<Message*>> parked_;
};

}  // namespace cxm
