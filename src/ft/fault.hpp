#pragma once
// cx::ft — fault model shared by every machine backend.
//
// A FaultConfig describes which failures a run injects (seeded message
// drop/duplicate/delay probabilities, scripted PE crash/hang events)
// and how the runtime reacts: the unified RetryPolicy drives reliable
// delivery's retransmits, the liveness layer's heartbeats detect silent
// PEs, and the recovery coordinator can restore from checkpoint
// automatically (--ft-auto-recover). It travels inside
// cxm::MachineConfig so every backend sees the same knobs.
//
// All randomness flows through seeded FaultInjector streams: one per
// simulator, so a Sim run with the same seed replays the exact same
// fault script (the property the ft/chaos test tiers and the DES figure
// runs rely on), and one per PE on the threaded machine, derived from
// (seed, PE).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ft/retry.hpp"
#include "pup/pup.hpp"
#include "util/rng.hpp"

namespace cxu {
class Options;
}

namespace cx::ft {

enum class FailureKind : std::uint8_t {
  Crashed = 0,      ///< PE stopped executing (scripted or inject_kill)
  Unreachable = 1,  ///< retransmits to the PE exhausted (ack give-up)
  Hung = 2,         ///< PE stopped draining its mailbox
};

/// A typed PE-failure notification, surfaced to the runtime instead of
/// letting a lost peer hang the scheduler forever.
struct PeFailure {
  std::int32_t pe = -1;
  FailureKind kind = FailureKind::Crashed;
  double time = 0.0;  ///< backend clock at detection

  void pup(pup::Er& p) {
    p | pe;
    p | kind;
    p | time;
  }
};

const char* failure_kind_name(FailureKind k) noexcept;

/// One scripted fault event: at backend time `at`, PE `pe` crashes or
/// hangs. A script holds any number of events, so a PE revived by
/// restore can be killed again by a later entry — the shape chaos
/// schedules need.
struct ScriptedFault {
  std::int32_t pe = -1;
  double at = 0.0;
  FailureKind kind = FailureKind::Crashed;  ///< Crashed or Hung
};

struct FaultConfig {
  std::uint64_t seed = 1;  ///< drives every injection decision

  // Network fault injection (per cross-PE message, every backend).
  double drop = 0.0;        ///< P(message silently lost)
  double dup = 0.0;         ///< P(message delivered twice)
  double delay = 0.0;       ///< P(message held back before delivery)
  double delay_s = 1.0e-3;  ///< mean extra latency of a delayed message

  // Reliable delivery (send-side seq + ack, retransmit with backoff).
  // `retry` is the unified RetryPolicy: base_s is the initial RTO,
  // max_attempts the give-up threshold before PeFailure{Unreachable}.
  bool reliable = false;
  RetryPolicy retry{};

  // Liveness layer (src/ft/liveness.hpp): runtime heartbeats on a ring
  // with an accrual-style detector per link. heartbeat_s == 0 disables
  // it entirely — no timers armed, no messages sent, zero overhead.
  double heartbeat_s = 0.0;   ///< heartbeat interval; 0 = off
  double hb_threshold = 4.0;  ///< suspicion (missed intervals) to declare

  // Recovery coordinator (src/ft/recovery.hpp): when on, the lowest
  // live PE drives notice -> quiesce -> restore on every PeFailure.
  bool auto_recover = false;
  double settle_s = -1.0;  ///< quiesce delay before restore; <0 = backend default

  // Scripted faults (--ft-script): multi-event, works across revives.
  // Simulator only; the threaded machine refuses a script.
  std::vector<ScriptedFault> script;

  [[nodiscard]] bool injecting() const noexcept {
    return drop > 0.0 || dup > 0.0 || delay > 0.0;
  }
  [[nodiscard]] bool scripted() const noexcept {
    return !script.empty();
  }
  [[nodiscard]] bool liveness() const noexcept { return heartbeat_s > 0.0; }
  /// True when any ft machinery must be active. When false, the
  /// backends keep the exact pre-ft send/deliver path: no acks, no
  /// buffering, no extra branches beyond this one check.
  [[nodiscard]] bool enabled() const noexcept {
    return injecting() || reliable || scripted() || liveness();
  }

  /// The scripted events sorted by time, ties kept in insertion order.
  [[nodiscard]] std::vector<ScriptedFault> full_script() const;
};

/// Parse the --ft-* flag family (see README "Fault injection &
/// checkpointing" / "Self-healing"): --ft-seed, --ft-drop, --ft-dup,
/// --ft-delay, --ft-delay-ms, --ft-reliable, --ft-rto-ms, --ft-backoff,
/// --ft-jitter, --ft-retries, --ft-script, --ft-heartbeat-ms,
/// --ft-heartbeat-threshold, --ft-auto-recover, --ft-settle-ms.
/// Probabilities are validated via Options::get_prob (throw outside
/// [0,1]); injection implies reliable delivery unless --ft-reliable=0.
/// The retired single-event flags (--ft-crash-pe, --ft-crash-at,
/// --ft-hang-pe, --ft-hang-at) throw std::invalid_argument naming their
/// --ft-script replacement.
FaultConfig fault_config_from_options(const cxu::Options& opt);

/// Parse a fault script string: comma-separated events of the form
/// "crash:<pe>@<time_s>" / "hang:<pe>@<time_s>", e.g.
/// "crash:2@5e-5,hang:1@9e-5". Throws std::invalid_argument on
/// malformed input.
std::vector<ScriptedFault> parse_fault_script(const std::string& spec);

/// Per-message injection decisions, drawn from one seeded stream. The
/// simulator draws from one stream in event order; the threaded machine
/// gives each PE a stream of its own, so no draw takes a lock.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed) {}
  /// Stream `stream` (a global PE) of the streams cfg.seed derives.
  FaultInjector(const FaultConfig& cfg, std::uint64_t stream)
      : cfg_(cfg), rng_(cxu::Rng(cfg.seed).next() + stream) {}

  struct Decision {
    bool drop = false;
    bool dup = false;
    double extra_delay = 0.0;  ///< seconds added before delivery
  };

  /// Decide the fate of one cross-PE message. Consumes RNG draws in a
  /// fixed order so identical seeds give identical fault scripts.
  Decision on_wire() {
    Decision d;
    if (cfg_.drop > 0.0 && rng_.uniform() < cfg_.drop) {
      d.drop = true;
      return d;  // a dropped message consumes no further draws
    }
    if (cfg_.dup > 0.0 && rng_.uniform() < cfg_.dup) d.dup = true;
    if (cfg_.delay > 0.0 && rng_.uniform() < cfg_.delay) {
      // Uniform in (0, 2*mean): bounded, mean = delay_s.
      d.extra_delay = rng_.uniform(0.0, 2.0 * cfg_.delay_s);
    }
    return d;
  }

  /// Retransmit timeout for `attempts` prior tries: the RetryPolicy's
  /// exponential backoff plus seeded jitter (desynchronizes retransmit
  /// storms).
  double retry_timeout(int attempts) {
    double t = cfg_.retry.delay(attempts);
    if (cfg_.retry.jitter > 0.0) {
      t += rng_.uniform(0.0, cfg_.retry.jitter * t);
    }
    return t;
  }

  [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }

 private:
  FaultConfig cfg_;
  cxu::Rng rng_;
};

}  // namespace cx::ft
