// Runtime glue: Impl construction, handler registration, the public
// Runtime API, and Chare services. The scheduler logic lives in the
// sibling TUs (delivery.cpp, location.cpp, collectives.cpp,
// coordinator.cpp, ft_handlers.cpp); see runtime_impl.hpp for the map.

#include <stdexcept>
#include <utility>

#include "core/runtime_impl.hpp"
#include "machine/sim_machine.hpp"

namespace cx {

Runtime* g_runtime = nullptr;

Runtime::Impl::Impl(RuntimeConfig c) : cfg(std::move(c)) {
  machine = cxm::make_machine(cfg.machine);
  P = machine->num_pes();
  // Collection ids are allocated by whichever PE drives create_*; under
  // the socket backend each rank draws from its own partition so two
  // ranks can never mint the same id (2^24 collections per rank).
  next_coll.store(static_cast<CollectionId>(machine->my_rank()) << 24,
                  std::memory_order_relaxed);
  const int per_rank = P / machine->num_ranks();
  cx::trace::begin_run(P, machine->is_simulated(),
                       machine->my_rank() * per_rank, per_rank);
  pes.reserve(static_cast<std::size_t>(P));
  for (int i = 0; i < P; ++i) pes.push_back(std::make_unique<PeState>());
  register_handlers();
  cx::ft::CheckpointStore::instance().reset(P);
  live_cfg = cx::ft::liveness_from_faults(cfg.machine.faults);
  live.resize(static_cast<std::size_t>(P));
  machine->set_failure_listener([this](const cx::ft::PeFailure& f) {
    // Route every detection (scripted crash, inject_kill, heartbeat
    // declaration, retransmit give-up) to the coordinator — the lowest
    // live PE, so recovery survives losing PE 0 — as an uncounted
    // control message.
    int coord = 0;
    while (coord < P - 1 && (machine->pe_failed(coord) || coord == f.pe)) {
      ++coord;
    }
    FtFailureHeader h;
    h.failure = f;
    raw_send(wire::make_msg(h_ft_failure, coord, h));
  });
}

void Runtime::Impl::register_handlers() {
  auto reg = [&](void (Impl::*fn)(MessagePtr)) {
    return machine->register_handler(
        [this, fn](MessagePtr m) { (this->*fn)(std::move(m)); });
  };
  h_local = reg(&Impl::on_local);
  h_entry = reg(&Impl::on_entry);
  h_create = reg(&Impl::on_create);
  h_bcast = reg(&Impl::on_bcast);
  h_bcast_done = reg(&Impl::on_bcast_done);
  h_reduce = reg(&Impl::on_reduce);
  h_future = reg(&Impl::on_future);
  h_migrate = reg(&Impl::on_migrate);
  h_loc = reg(&Impl::on_loc);
  h_insert = reg(&Impl::on_insert);
  h_done_inserting = reg(&Impl::on_done_inserting);
  h_insert_count = reg(&Impl::on_insert_count);
  h_set_size = reg(&Impl::on_set_size);
  h_size_ack = reg(&Impl::on_size_ack);
  h_lb_sync = reg(&Impl::on_lb_sync);
  h_lb_cmd = reg(&Impl::on_lb_cmd);
  h_lb_ack = reg(&Impl::on_lb_ack);
  h_lb_resume = reg(&Impl::on_lb_resume);
  h_qd_start = reg(&Impl::on_qd_start);
  h_qd_probe = reg(&Impl::on_qd_probe);
  h_qd_reply = reg(&Impl::on_qd_reply);
  // ft handlers stay at the end: earlier ids are wire-stable across the
  // pre-ft message-count baselines.
  h_ft_failure = reg(&Impl::on_ft_failure);
  h_ckpt = reg(&Impl::on_ckpt);
  h_ckpt_ack = reg(&Impl::on_ckpt_ack);
  h_restore = reg(&Impl::on_restore);
  h_restore_ack = reg(&Impl::on_restore_ack);
  h_heartbeat = reg(&Impl::on_heartbeat);
  h_hb_tick = reg(&Impl::on_hb_tick);
  h_ft_notice = reg(&Impl::on_ft_notice);
  h_ft_round_done = reg(&Impl::on_ft_round_done);
  // Section handlers (PR 9) append after the ft block for the same
  // wire-stability reason.
  h_sect_build = reg(&Impl::on_sect_build);
  h_sect_bcast = reg(&Impl::on_sect_bcast);
  h_sect_reduce = reg(&Impl::on_sect_reduce);
  h_sect_expect = reg(&Impl::on_sect_expect);
}

// ---------------------------------------------------------------------------
// Runtime public API

Runtime::Runtime(RuntimeConfig cfg) : impl_(new Impl(std::move(cfg))) {
  if (g_runtime != nullptr) {
    throw std::logic_error("only one cx::Runtime may exist at a time");
  }
  g_runtime = this;
}

Runtime::~Runtime() { g_runtime = nullptr; }

void Runtime::run(std::function<void()> entry) {
  // The entry function runs on PE 0; under the socket backend only the
  // rank hosting PE 0 seeds it (the Start envelope is a by-reference
  // local payload and must not cross a process boundary). Other ranks
  // just run their schedulers until the Stop broadcast arrives.
  if (impl_->machine->hosts_pe(0)) {
    LocalEnvelope* env = acquire_envelope();
    env->kind = LocalEnvelope::Kind::Start;
    env->fn = std::move(entry);
    impl_->send_local(0, env);
  }
  if (impl_->live_cfg.enabled()) {
    // Seed one heartbeat tick chain per locally hosted PE. With
    // --ft-heartbeat-ms=0 (the default) this block is never entered:
    // zero liveness traffic, zero overhead.
    for (int pe = 0; pe < impl_->P; ++pe) {
      if (!impl_->machine->hosts_pe(pe)) continue;
      auto m = std::make_unique<Message>();
      m->handler = impl_->h_hb_tick;
      m->dst_pe = pe;
      m->ft_seq = 0;  // generation 0 matches the fresh PeLiveness
      m->ft_flags = cxm::kFtBestEffort;
      m->wire_flags = cxm::kWireNoAgg;
      impl_->machine->send(std::move(m));
    }
  }
  impl_->machine->run();
}

void Runtime::exit() {
  impl_->exiting.store(true);
  impl_->machine->stop();
}

int Runtime::num_pes() const noexcept { return impl_->P; }
int Runtime::my_pe() const noexcept { return impl_->machine->current_pe(); }
int Runtime::my_rank() const noexcept { return impl_->machine->my_rank(); }
int Runtime::num_ranks() const noexcept {
  return impl_->machine->num_ranks();
}
double Runtime::now() const { return impl_->machine->now(); }
void Runtime::compute(double seconds) { impl_->machine->compute(seconds); }
void Runtime::charge(double seconds) { impl_->machine->charge(seconds); }
bool Runtime::is_simulated() const noexcept {
  return impl_->machine->is_simulated();
}

double Runtime::sim_makespan() const {
  auto* sm = dynamic_cast<cxm::SimMachine*>(impl_->machine.get());
  return sm != nullptr ? sm->makespan() : 0.0;
}

cxm::Machine& Runtime::machine() noexcept { return *impl_->machine; }

void Runtime::start_quiescence(const Callback& target) {
  QdStartHeader h;
  h.cb = target;
  impl_->raw_send(wire::make_msg(impl_->h_qd_start, 0, h));
}

Runtime::LbStats Runtime::lb_stats() const { return impl_->lb_stats; }

std::uint64_t Runtime::messages_sent() const {
  std::uint64_t total = 0;
  for (const auto& ps : impl_->pes) total += ps->created;
  return total;
}

std::size_t Runtime::future_table_size() const {
  return impl_->me().futures.size();
}

Runtime& Runtime::current() {
  if (g_runtime == nullptr) {
    throw std::logic_error("no cx::Runtime is active");
  }
  return *g_runtime;
}

bool Runtime::has_current() noexcept { return g_runtime != nullptr; }

// ---------------------------------------------------------------------------
// Chare services

Chare::Chare() : coll_(staged_coll()), idx_(staged_idx()) {}

void Chare::wait(std::function<bool()> cond) {
  if (cond()) return;
  Fiber* f = Fiber::current();
  if (f == nullptr) {
    throw std::logic_error(
        "wait() requires a threaded entry method (set_threaded<M>())");
  }
  for (;;) {
    waits_.push_back({cond, f, false});
    Fiber::yield();
    for (auto it = waits_.begin(); it != waits_.end(); ++it) {
      if (it->fiber == f) {
        waits_.erase(it);
        break;
      }
    }
    if (cond()) return;
  }
}

void Chare::migrate(int to_pe) {
  migrate_pending_ = true;
  migrate_for_lb_ = false;
  migrate_to_ = to_pe;
}

void Chare::at_sync() { sync_pending_ = true; }

void Chare::contribute(const Callback& target) {
  detail::contribute_bytes(*this, {}, kNoCombine, target);
}

// ---------------------------------------------------------------------------
// detail:: fast-path switch used by the header-only templates

namespace detail {

namespace {
// The paper's same-process by-reference optimization (SecII-D) can be
// disabled for ablation studies (bench/micro_messaging).
std::atomic<bool> g_local_fastpath{true};
}  // namespace

bool local_fastpath_enabled() noexcept {
  return g_local_fastpath.load(std::memory_order_relaxed);
}

void set_local_fastpath(bool on) noexcept {
  g_local_fastpath.store(on, std::memory_order_relaxed);
}

}  // namespace detail
}  // namespace cx
