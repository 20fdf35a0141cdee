#pragma once
// Internal shared state of the runtime scheduler. PR 4 split the old
// 2100-line runtime.cpp into cohesive translation units that all
// include this header:
//
//   runtime.cpp     — Impl construction, handler registration, the
//                     public Runtime API, Chare services
//   delivery.cpp    — entry-method delivery, when-buffering, fibers,
//                     the pooled LocalEnvelope fast path, proxy_send
//   location.cpp    — location manager, migration, insert/create
//   collectives.cpp — reductions, broadcasts, futures, callbacks
//   coordinator.cpp — LB coordinator and quiescence detection (PE 0)
//   ft_handlers.cpp — fault-tolerance handlers and the cx::ft API
//
// Wire-format headers live in wire/wire_headers.hpp; every cross-PE
// send goes through the cx::wire single-pass envelope builder.
// Nothing outside src/core includes this header.

#include <atomic>
#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/chare.hpp"
#include "core/collection.hpp"
#include "core/future.hpp"
#include "core/lb.hpp"
#include "core/registry.hpp"
#include "core/runtime.hpp"
#include "core/send_iface.hpp"
#include "core/spantree.hpp"
#include "fiber/fiber.hpp"
#include "ft/ft.hpp"
#include "machine/machine.hpp"
#include "trace/trace.hpp"
#include "wire/envelope.hpp"
#include "wire/wire_headers.hpp"

namespace cx {

using cxf::Fiber;
using cxm::Message;
using cxm::MessagePtr;

// Wire header types are defined once in wire/wire_headers.hpp and used
// unqualified throughout the runtime TUs.
using wire::BcastDoneHeader;
using wire::BcastHeader;
using wire::CkptAckHeader;
using wire::CkptHeader;
using wire::CollBlob;
using wire::CreateHeader;
using wire::DoneInsertingHeader;
using wire::ElementBlob;
using wire::EntryHeader;
using wire::FtFailureHeader;
using wire::FtNoticeHeader;
using wire::FutureHeader;
using wire::HeartbeatHeader;
using wire::InsertCountHeader;
using wire::InsertHeader;
using wire::LbAckHeader;
using wire::LbCmdHeader;
using wire::LbResumeHeader;
using wire::LocUpdateHeader;
using wire::MigrateHeader;
using wire::OverrideBlob;
using wire::PeBlob;
using wire::QdProbeHeader;
using wire::QdReplyHeader;
using wire::QdStartHeader;
using wire::RedBlob;
using wire::ReduceHeader;
using wire::RestoreAckHeader;
using wire::RestoreHeader;
using wire::SectBcastHeader;
using wire::SectBlob;
using wire::SectBuildHeader;
using wire::SectExpectHeader;
using wire::SectionSpec;
using wire::SectRedBlob;
using wire::SectReduceHeader;
using wire::SetSizeHeader;
using wire::SizeAckHeader;

/// The single live Runtime (defined in runtime.cpp).
extern Runtime* g_runtime;

/// Identity staged for the Chare constructor (see construct_element).
/// Function-local thread_locals (not extern ones): cross-TU extern TLS
/// goes through a compiler-generated wrapper that GCC's UBSan flags
/// with a bogus "store to null pointer" under -O2.
inline CollectionId& staged_coll() {
  thread_local CollectionId v = kInvalidCollection;
  return v;
}
inline Index& staged_idx() {
  thread_local Index v;
  return v;
}

// ---- in-process (same-PE) payloads: the zero-serialization fast path ----

struct LocalEnvelope {
  enum class Kind { Entry, Resume, Start, Timer, Post } kind = Kind::Entry;
  // Entry:
  CollectionId coll = kInvalidCollection;
  Index idx;
  EpId ep = 0;
  std::shared_ptr<void> tuple;
  void (*pup_args)(void* tuple, pup::Er& p) = nullptr;
  ReplyTo reply;
  ReplyTo bcast_done;
  // Resume:
  Fiber* fiber = nullptr;
  // Start / Post:
  std::function<void()> fn;
  // Timer (Future::get_for deadline; delivered via Machine::send_after):
  std::uint64_t timer_token = 0;

  void reset() {
    kind = Kind::Entry;
    coll = kInvalidCollection;
    idx = Index();
    ep = 0;
    tuple.reset();
    pup_args = nullptr;
    reply = ReplyTo{};
    bcast_done = ReplyTo{};
    fiber = nullptr;
    fn = nullptr;
    timer_token = 0;
  }
};

/// Pooled envelope allocation (delivery.cpp): local sends, resumes and
/// timers reuse envelopes from a per-thread free list instead of a
/// fresh make_shared per send.
LocalEnvelope* acquire_envelope();
void release_envelope(LocalEnvelope* env) noexcept;
/// Message::local_drop for envelopes that die undelivered.
void drop_envelope(void* env) noexcept;

struct EnvelopeDeleter {
  void operator()(LocalEnvelope* e) const noexcept { release_envelope(e); }
};
using EnvelopePtr = std::unique_ptr<LocalEnvelope, EnvelopeDeleter>;

/// Binomial-tree children of `self` in a broadcast rooted at `root`
/// (delivery.cpp; the math lives in core/spantree.hpp and is shared
/// with the section SpanningTree).
void tree_children(int self, int root, int num_pes, std::vector<int>& out);

Index delinearize(std::uint64_t lin, const Index& dims);

// ---- per-PE state --------------------------------------------------------

struct CollMeta {
  CollectionInfo info;
  /// resolve_map(info), set together with `info` when the creation
  /// broadcast or a restore installs the collection: routing a send
  /// never touches the process-global map registry.
  MapFn map;
  std::unordered_map<Index, std::unique_ptr<Chare>, IndexHash> elements;
  std::unordered_map<Index, int, IndexHash> overrides;  ///< migrated homes
  std::unordered_map<Index, std::vector<MessagePtr>, IndexHash> pending;

  void install(const CollectionInfo& ci) {
    info = ci;
    map = resolve_map(ci);
  }
  [[nodiscard]] int home(const Index& idx, int num_pes) const {
    return home_pe(info, map, idx, num_pes);
  }
};

struct RedState {
  std::uint64_t count = 0;
  bool has_acc = false;
  std::vector<std::byte> acc;
  CombineId combiner = kNoCombine;
  Callback cb;
};

/// Per-PE view of a section (sections.cpp). The spec is identical on
/// every involved PE; the delivery split (which home members are
/// physically present vs migrated away) is a cache that migration
/// invalidates by bumping `epoch` — the next multicast rebuilds it
/// (counted as a tree repair).
struct SectMeta {
  wire::SectionSpec spec;
  /// Members homed on this PE (static under migration: home_pe never
  /// changes). Computed once at build.
  std::vector<Index> home_members;
  std::uint64_t epoch = 0;        ///< bumped by migrations touching members
  std::uint64_t routes_epoch = 0; ///< epoch the split below was built at
  bool routes_built = false;
  std::vector<Index> present;  ///< home members with a live local element
  std::vector<Index> away;     ///< home members migrated off this PE
};

/// PeState's future table: a routing index from future id to the state
/// the creating PE's Future handles share (future.hpp). Only pending or
/// still-held futures have an entry.
using FutureTable = std::unordered_map<FutureId, detail::FutureState*>;

namespace detail {
/// One future's value and suspended reader, owned by the Future handles
/// on its creating PE. The last handle's release erases the table entry;
/// an unlinked state (`table` null: given up by a restore, or outliving
/// its PeState) is reachable from its handles only.
struct FutureState : std::enable_shared_from_this<FutureState> {
  std::optional<std::vector<std::byte>> value;
  Fiber* waiter = nullptr;
  FutureId fid = 0;
  FutureTable* table = nullptr;

  FutureState() = default;
  FutureState(const FutureState&) = delete;
  FutureState& operator=(const FutureState&) = delete;
  ~FutureState() { unlink(); }
  /// Leave the table: values for this id no longer reach this state.
  void unlink() {
    if (table != nullptr) table->erase(fid);
    table = nullptr;
  }
};
}  // namespace detail

struct FiberRec {
  std::unique_ptr<Fiber> fiber;
  Chare* owner = nullptr;
};

struct PeState {
  std::unordered_map<CollectionId, CollMeta> colls;
  /// Messages for collections whose creation hasn't reached this PE yet.
  std::unordered_map<CollectionId, std::vector<MessagePtr>> stash;
  FutureTable futures;
  FutureId next_future = 0;
  std::unordered_map<Fiber*, FiberRec> fibers;
  /// Reductions rooted on this PE, keyed (collection, red_no).
  std::map<std::pair<CollectionId, std::uint32_t>, RedState> red_root;
  /// Broadcast-completion counts, keyed (reply.pe, reply.fid).
  std::map<std::pair<std::int32_t, FutureId>, std::uint64_t> bcast_done_root;
  /// Section completion expectations registered by the section tree
  /// root for broadcast_done over a proper subset: the credit count to
  /// fire at instead of info.size. All-members sections never register
  /// one (the info.size path is already correct), which keeps the two
  /// completion sources race-free. Ordered for checkpoint determinism.
  std::map<std::pair<std::int32_t, FutureId>, std::uint64_t> bcast_expect;
  /// Sections this PE participates in (or created), keyed by id.
  /// Ordered so checkpoint blobs pack deterministically.
  std::map<std::uint64_t, SectMeta> sections;
  /// Section-reduction fold state at this tree node, keyed (section,
  /// seq). Multiple in-flight reductions per section = multiple seqs.
  std::map<std::pair<std::uint64_t, std::uint32_t>, RedState> sect_red;
  /// Messages for sections whose build hasn't reached this PE yet.
  std::unordered_map<std::uint64_t, std::vector<MessagePtr>> sect_stash;
  /// Per-PE section-id allocator (id = pe<<32 | ++next_sect); rolled
  /// back by restore like next_future so replayed creations after a
  /// recovery reuse the same ids a fault-free run hands out.
  std::uint64_t next_sect = 0;
  /// Sparse-array size gathering, keyed by collection: (total, reports).
  std::unordered_map<CollectionId, std::pair<std::uint64_t, int>> ins_count;
  /// SetSize acknowledgment counts (done_inserting completion).
  std::unordered_map<CollectionId, int> size_acks;
  std::uint64_t created = 0;    ///< app messages sent from this PE
  std::uint64_t processed = 0;  ///< app messages handled on this PE
  /// Armed Future::get_for deadlines: token -> suspended fiber. A timer
  /// whose token is gone (value arrived first) is a no-op on delivery.
  std::unordered_map<std::uint64_t, Fiber*> timer_waiters;
  std::uint64_t next_timer_token = 0;

  PeState() = default;
  PeState(const PeState&) = delete;
  PeState& operator=(const PeState&) = delete;
  /// Futures held by chares, queued tuples or leaked fiber stacks may
  /// outlive this table: detach them before any member is destroyed.
  ~PeState() {
    for (auto& [fid, st] : futures) st->table = nullptr;
  }
};

// ---------------------------------------------------------------------------
// Runtime::Impl

struct Runtime::Impl {
  RuntimeConfig cfg;
  std::unique_ptr<cxm::Machine> machine;
  int P = 0;
  std::atomic<CollectionId> next_coll{0};
  std::vector<std::unique_ptr<PeState>> pes;
  std::atomic<bool> exiting{false};

  // Handler ids
  std::uint32_t h_local = 0, h_entry = 0, h_create = 0, h_bcast = 0,
                h_bcast_done = 0, h_reduce = 0, h_future = 0, h_migrate = 0,
                h_loc = 0, h_insert = 0, h_done_inserting = 0,
                h_insert_count = 0, h_set_size = 0, h_size_ack = 0,
                h_lb_sync = 0, h_lb_cmd = 0, h_lb_ack = 0, h_lb_resume = 0,
                h_qd_start = 0, h_qd_probe = 0, h_qd_reply = 0,
                h_ft_failure = 0, h_ckpt = 0, h_ckpt_ack = 0, h_restore = 0,
                h_restore_ack = 0, h_heartbeat = 0, h_hb_tick = 0,
                h_ft_notice = 0, h_ft_round_done = 0, h_sect_build = 0,
                h_sect_bcast = 0, h_sect_reduce = 0, h_sect_expect = 0;

  // LB coordinator state (touched on PE 0 only).
  struct LbCollState {
    std::vector<ChareLoadRecord> records;
    std::uint64_t pending_acks = 0;
  };
  std::unordered_map<CollectionId, LbCollState> lb;
  LbStats lb_stats;

  // Quiescence detection state (PE 0 only).
  struct QdState {
    std::vector<Callback> waiters;
    bool wave_active = false;
    std::uint64_t phase = 0;
    int replies = 0;
    std::uint64_t sum_c = 0, sum_p = 0;
    std::uint64_t prev_c = 0, prev_p = 0;
    bool have_prev = false;
  };
  QdState qd;

  // Fault-tolerance coordinator state. Failure bookkeeping, callbacks
  // and the recovery machine run on the coordinator PE (lowest live PE
  // — the failure listener routes every detection there); ack counting
  // on whichever PE drives checkpoint()/restore(). The shared-memory
  // struct means coordinator failover needs no state handoff: the new
  // coordinator sees the same FtState. `mu` guards cross-thread access
  // on the threaded backend (the Sim scheduler is single-threaded).
  struct FtState {
    std::set<int> failed;
    std::vector<std::function<void(const cx::ft::PeFailure&)>> callbacks;
    std::vector<std::function<void(std::uint64_t)>> recovery_callbacks;
    std::uint64_t next_epoch = 0;
    std::map<std::uint64_t, int> ckpt_acks;  ///< epoch -> PEs stored
    /// Restore ack counts keyed by the driving (PE, future id) — fids
    /// are per-PE counters, so the PE disambiguates concurrent rounds
    /// driven from different coordinators. Keys are pre-registered
    /// before the broadcast; stale acks from an abandoned round land on
    /// an unknown key and are ignored. Guarded by `mu`.
    std::map<std::pair<std::int32_t, std::uint64_t>, int> restore_acks;
    /// The restore driver's ack wait rides the timer-token mechanism,
    /// not a future: future ids are pupped into checkpoint blobs, and
    /// one burned across the rollback would skew the digest against a
    /// fault-free run. `restore_rounds` supplies the ack key's id part.
    Fiber* restore_waiter = nullptr;
    bool restore_done = false;
    std::uint64_t restore_rounds = 0;
    /// Same discipline for the checkpoint driver's ack wait: the
    /// completion wake must stay outside the counted-message ledger or
    /// a rolled-back run (whose crashed epoch never completes) would
    /// diverge from a fault-free one by one resume per recovery.
    Fiber* ckpt_waiter = nullptr;
    bool ckpt_done = false;
    std::uint64_t ckpt_wait_epoch = 0;
    cx::ft::RecoveryState rec;
    std::atomic<std::uint64_t> completed_rounds{0};
    std::atomic<std::uint64_t> last_restored{0};  ///< epoch of last Ok restore
    std::mutex mu;
  };
  FtState ftst;

  // Liveness layer (heartbeats). `live_cfg` is fixed at construction;
  // `live[pe]` is touched only on that PE's scheduler.
  cx::ft::LivenessConfig live_cfg;
  std::vector<cx::ft::PeLiveness> live;

  explicit Impl(RuntimeConfig c);  // runtime.cpp

  [[nodiscard]] int mype() const { return machine->current_pe(); }

  std::uint32_t next_red_no(Chare& c) { return c.red_no_++; }

  /// Per-section reduction sequence on a contributing element: the tag
  /// that keeps multiple in-flight reductions over one section apart.
  std::uint32_t next_sect_seq(Chare& c, std::uint64_t sect) {
    return c.sect_seq_[sect]++;
  }

  PeState& me() {
    const int pe = mype();
    assert(pe >= 0 && "runtime call outside of a PE context");
    return *pes[static_cast<std::size_t>(pe)];
  }

  // ---- send helpers ------------------------------------------------------

  /// Counted application-message send.
  void rt_send(MessagePtr msg) {
    const int cp = mype();
    const int attr = cp >= 0 ? cp : msg->dst_pe;
    pes[static_cast<std::size_t>(attr)]->created++;
    machine->send(std::move(msg));
  }

  /// Uncounted send for quiescence-detection / ft control traffic.
  /// Protocol messages must not sit in an aggregation buffer (QD probes
  /// would deadlock waiting on themselves), so they bypass --wire-agg.
  void raw_send(MessagePtr msg) {
    msg->wire_flags |= cxm::kWireNoAgg;
    machine->send(std::move(msg));
  }

  /// Wrap a pooled envelope in a local (by-reference) message.
  MessagePtr wrap_local(LocalEnvelope* env, int pe) {
    auto m = std::make_unique<Message>();
    m->handler = h_local;
    m->dst_pe = pe;
    m->local = env;
    m->local_drop = &drop_envelope;
    m->local_size = 0;
    return m;
  }

  void send_local(int pe, LocalEnvelope* env) {
    rt_send(wrap_local(env, pe));
  }

  void send_resume(Fiber* f) {
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Resume;
    env->fiber = f;
    send_local(mype(), env);
  }

  // ---- element lookup ----------------------------------------------------

  Chare* find_local(CollMeta& cm, const Index& idx) {
    const auto it = cm.elements.find(idx);
    return it == cm.elements.end() ? nullptr : it->second.get();
  }

  void stash_msg(CollectionId coll, MessagePtr msg) {
    me().stash[coll].push_back(std::move(msg));
  }

  /// Enumerate the dense-array indexes whose home is this PE.
  template <typename Fn>
  void for_each_local_index(const CollMeta& cm, Fn&& fn) {
    const CollectionInfo& info = cm.info;
    const std::uint64_t n = dense_size(info.dims);
    const auto up = static_cast<std::uint64_t>(P);
    const auto pe = static_cast<std::uint64_t>(mype());
    if (info.map_name == "block") {
      const std::uint64_t lo = (pe * n + up - 1) / up;
      const std::uint64_t hi = ((pe + 1) * n + up - 1) / up;
      for (std::uint64_t lin = lo; lin < hi && lin < n; ++lin) {
        fn(delinearize(lin, info.dims));
      }
    } else if (info.map_name == "rr") {
      for (std::uint64_t lin = pe; lin < n; lin += up) {
        fn(delinearize(lin, info.dims));
      }
    } else {
      for (std::uint64_t lin = 0; lin < n; ++lin) {
        const Index idx = delinearize(lin, info.dims);
        if (cm.home(idx, P) == mype()) fn(idx);
      }
    }
  }

  /// Forward an already-packed payload to this PE's children in the
  /// binomial broadcast tree rooted at `root` (delivery.cpp). One
  /// definition for what used to be a copy-pasted tree_children +
  /// clone_payload loop at every broadcast-shaped handler.
  void forward_tree(std::uint32_t handler, int root, const wire::Buffer& payload);

  // ---- sections (sections.cpp) -------------------------------------------

  /// The k-ary tree over the PEs hosting members of `spec`.
  [[nodiscard]] tree::SpanningTree section_tree(const SectionSpec& spec) const;
  /// Contributions the subtree rooted at this PE must fold before the
  /// combined fragment may travel up (member count per involved PE,
  /// summed over the subtree positions).
  [[nodiscard]] std::uint64_t sect_subtree_expected(const SectionSpec& spec) const;
  /// Install a section meta on this PE (idempotent) and flush stashes.
  SectMeta& install_section(const SectionSpec& spec);
  /// Rebuild the present/away delivery split if migration invalidated
  /// it (counts a tree repair in the section stats).
  void sect_refresh_routes(SectMeta& sm, CollMeta& cm);
  /// Bump the epoch of every section of `coll` containing `idx` —
  /// called by migration (out, in, and location updates).
  void invalidate_section_routes(CollectionId coll, const Index& idx);

  // ---- fibers / delivery (delivery.cpp) ----------------------------------

  void run_fiber(std::function<void()> body, Chare* owner);
  void resume_fiber(Fiber* f);
  // `info` is Registry::instance().ep(ep), looked up once per message.
  void deliver(Chare* obj, const EpInfo& info, EpId ep,
               std::shared_ptr<void> tuple, const ReplyTo& reply,
               const ReplyTo& bdone);
  void execute(Chare* obj, const EpInfo& info, EpId ep,
               std::shared_ptr<void> tuple, const ReplyTo& reply,
               const ReplyTo& bdone);
  void post_execute(Chare* obj);
  // when-condition engine (delivery.cpp)
  const WhenDeps* resolve_when_deps(const EpInfo& info, Chare* obj,
                                    void* args);
  void bind_dep_slots(Chare* obj, PendingInvoke& pi);
  void buffer_invoke(Chare* obj, const EpInfo& info, EpId ep,
                     std::shared_ptr<void> tuple, const ReplyTo& reply,
                     const ReplyTo& bdone);
  void rebucket_buffered(Chare* obj);
  void retest_buffered(Chare* obj);

  // ---- location / migration (location.cpp) -------------------------------

  void route_entry_msg(CollMeta& cm, const Index& idx, MessagePtr msg);
  void flush_pending(CollMeta& cm, const Index& idx);
  void flush_stash(CollectionId coll);
  Chare* construct_element(CollMeta& cm, const Index& idx);
  void do_migrate(Chare* obj, int to_pe, bool for_lb);

  // ---- callbacks / futures (collectives.cpp) -----------------------------

  void fulfill_future(FutureId fid, std::vector<std::byte>&& bytes);
  void send_future_bytes(const ReplyTo& f, std::vector<std::byte>&& bytes);
  void deliver_callback(const Callback& cb, std::vector<std::byte>&& bytes);

  // ---- LB / quiescence coordinator (coordinator.cpp) ---------------------

  void lb_round(CollectionId coll, LbCollState& st);
  void broadcast_lb_resume(CollectionId coll);
  void qd_start_wave();

  // ---- handlers ----------------------------------------------------------

  void register_handlers();  // runtime.cpp
  // delivery.cpp
  void on_local(MessagePtr msg);
  void on_entry(MessagePtr msg);
  // location.cpp
  void on_create(MessagePtr msg);
  void on_migrate(MessagePtr msg);
  void on_loc(MessagePtr msg);
  void on_insert(MessagePtr msg);
  // collectives.cpp
  void on_bcast(MessagePtr msg);
  void on_bcast_done(MessagePtr msg);
  void on_reduce(MessagePtr msg);
  void on_future(MessagePtr msg);
  void on_done_inserting(MessagePtr msg);
  void on_insert_count(MessagePtr msg);
  void on_set_size(MessagePtr msg);
  void on_size_ack(MessagePtr msg);
  // coordinator.cpp
  void on_lb_sync(MessagePtr msg);
  void on_lb_cmd(MessagePtr msg);
  void on_lb_ack(MessagePtr msg);
  void on_lb_resume(MessagePtr msg);
  void on_qd_start(MessagePtr msg);
  void on_qd_probe(MessagePtr msg);
  void on_qd_reply(MessagePtr msg);
  // ft_handlers.cpp
  void on_ft_failure(MessagePtr msg);
  void on_ckpt(MessagePtr msg);
  void on_ckpt_ack(MessagePtr msg);
  void on_restore(MessagePtr msg);
  void on_restore_ack(MessagePtr msg);
  void on_heartbeat(MessagePtr msg);
  void on_hb_tick(MessagePtr msg);
  void on_ft_notice(MessagePtr msg);
  void on_ft_round_done(MessagePtr msg);
  // sections.cpp
  void on_sect_build(MessagePtr msg);
  void on_sect_bcast(MessagePtr msg);
  void on_sect_reduce(MessagePtr msg);
  void on_sect_expect(MessagePtr msg);
  /// Re-fire every armed timer token on this PE (uncounted, idempotent)
  /// so fibers suspended in timed waits re-check their condition now.
  void wake_armed_timers();
  /// Re-arm this PE's heartbeat tick chain under a fresh generation
  /// (start of run, and after each restore revives dead chains).
  void arm_hb_tick(int pe);
  /// Coordinator-side auto-recovery driver (runs on a fiber).
  void auto_recover_driver(std::uint64_t round);
  /// Block the calling fiber for `seconds` of backend time without
  /// counting against quiescence (uses a future + timer token).
  void ft_sleep(double seconds);
};

}  // namespace cx
