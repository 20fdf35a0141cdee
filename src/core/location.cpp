// Location management: routing to moved elements, element
// construction, creation broadcasts, sparse insertion placement, and
// migration (paper §II-C/§II-G).

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/runtime_impl.hpp"
#include "util/log.hpp"

namespace cx {

// ---- routing --------------------------------------------------------------

/// Route a fully-formed entry message (h_entry payload). Called on a PE
/// that knows the collection but does not host the element.
void Runtime::Impl::route_entry_msg(CollMeta& cm, const Index& idx,
                                    MessagePtr msg) {
  const auto ov = cm.overrides.find(idx);
  int dst;
  if (ov != cm.overrides.end()) {
    dst = ov->second;
  } else {
    const int home = cm.home(idx, P);
    if (home == mype()) {
      // I'm the home and have no forwarding info: the element does not
      // exist yet (creation/insertion in flight). Buffer until it does.
      cm.pending[idx].push_back(std::move(msg));
      return;
    }
    dst = home;
  }
  msg->dst_pe = dst;
  rt_send(std::move(msg));
}

void Runtime::Impl::flush_pending(CollMeta& cm, const Index& idx) {
  const auto it = cm.pending.find(idx);
  if (it == cm.pending.end()) return;
  auto msgs = std::move(it->second);
  cm.pending.erase(it);
  for (auto& m : msgs) {
    m->dst_pe = mype();
    rt_send(std::move(m));  // re-dispatch through the scheduler
  }
}

void Runtime::Impl::flush_stash(CollectionId coll) {
  auto& ps = me();
  const auto it = ps.stash.find(coll);
  if (it == ps.stash.end()) return;
  auto msgs = std::move(it->second);
  ps.stash.erase(it);
  for (auto& m : msgs) {
    m->dst_pe = mype();
    rt_send(std::move(m));
  }
}

// ---- element construction -------------------------------------------------

Chare* Runtime::Impl::construct_element(CollMeta& cm, const Index& idx) {
  staged_coll() = cm.info.id;
  staged_idx() = idx;
  const auto& fac = Registry::instance().factory(cm.info.ctor);
  Chare* obj = fac.construct(cm.info.ctor_args.data(),
                             cm.info.ctor_args.size());
  staged_coll() = kInvalidCollection;
  cm.elements[idx].reset(obj);
  flush_pending(cm, idx);
  return obj;
}

// ---- migration ------------------------------------------------------------

void Runtime::Impl::do_migrate(Chare* obj, int to_pe, bool for_lb) {
  const CollectionId coll = obj->coll_;
  const Index idx = obj->idx_;
  auto& cm = me().colls.at(coll);
  if (to_pe == mype()) {
    if (for_lb) {
      LbAckHeader h;
      h.coll = coll;
      rt_send(wire::make_msg(h_lb_ack, 0, h));
    }
    return;
  }
  if (obj->active_fibers_ > 0) {
    CX_LOG_ERROR("cannot migrate chare ", idx.to_string(),
                 " with suspended threaded entry methods");
    throw std::logic_error("migrate with active threaded entry methods");
  }
  // Re-route when-buffered deliveries to the new location, preserving
  // arrival order (they re-enter deliver() there and are re-tested
  // against a fresh dirty clock).
  obj->buffered_.for_each_in_order([&](PendingInvoke& pi) {
    const EpInfo& info = Registry::instance().ep(pi.ep);
    EntryHeader eh;
    eh.coll = coll;
    eh.idx = idx;
    eh.ep = pi.ep;
    eh.reply = pi.reply;
    eh.bcast_done = pi.bcast_done;
    rt_send(wire::make_msg_pup(h_entry, to_pe, eh, [&](pup::Er& p) {
      info.pup_args(pi.args.get(), p);
    }));
  });
  obj->buffered_.clear();
  CX_TRACE_EVENT(mype(), machine->now(), cx::trace::EventKind::MigrateOut,
                 coll, static_cast<std::uint64_t>(to_pe));
  // Serialize user + runtime state straight into the outgoing buffer.
  MigrateHeader mh;
  mh.coll = coll;
  mh.idx = idx;
  mh.red_no = obj->red_no_;
  mh.for_lb = for_lb;
  mh.sect_seq = obj->sect_seq_;
  auto out = wire::make_msg_pup(h_migrate, to_pe, mh,
                                [&](pup::Er& p) { obj->pup(p); });
  // Remove locally, install forwarder, update the home PE.
  cm.elements.erase(idx);
  cm.overrides[idx] = to_pe;
  // Any section counting this element among its local members must
  // re-derive its delivery split: bump the epoch, repair lazily.
  invalidate_section_routes(coll, idx);
  const int home = cm.home(idx, P);
  if (home != mype()) {
    LocUpdateHeader lh;
    lh.coll = coll;
    lh.idx = idx;
    lh.pe = to_pe;
    rt_send(wire::make_msg(h_loc, home, lh));
  }
  rt_send(std::move(out));
}

// ---- handlers -------------------------------------------------------------

void Runtime::Impl::on_create(MessagePtr msg) {
  me().processed++;
  CreateHeader h = pup::from_bytes<CreateHeader>(msg->data);
  // Forward down the creation tree first.
  forward_tree(h_create, h.root, msg->data);
  auto& cm = me().colls[h.info.id];
  cm.install(h.info);
  switch (h.info.kind) {
    case CollectionKind::Singleton:
      if (h.info.fixed_pe == mype()) construct_element(cm, Index(0));
      break;
    case CollectionKind::Group:
      construct_element(cm, Index(mype()));
      break;
    case CollectionKind::Array:
      for_each_local_index(cm,
                           [&](const Index& idx) { construct_element(cm, idx); });
      break;
    case CollectionKind::SparseArray:
      break;
  }
  flush_stash(h.info.id);
}

void Runtime::Impl::on_migrate(MessagePtr msg) {
  me().processed++;
  pup::Unpacker u(msg->data.data(), msg->data.size());
  MigrateHeader h;
  u | h;
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  CollMeta& cm = cit->second;
  const auto& fac = Registry::instance().factory(cm.info.ctor);
  if (fac.construct_default == nullptr) {
    CX_LOG_ERROR("chare type of collection ", h.coll,
                 " is not default-constructible; cannot migrate");
    throw std::logic_error("migration requires default-constructible chare");
  }
  staged_coll() = h.coll;
  staged_idx() = h.idx;
  Chare* obj = fac.construct_default();
  staged_coll() = kInvalidCollection;
  obj->pup(u);
  obj->red_no_ = h.red_no;
  obj->sect_seq_ = h.sect_seq;
  obj->load_ = 0.0;
  cm.elements[h.idx].reset(obj);
  cm.overrides.erase(h.idx);
  invalidate_section_routes(h.coll, h.idx);
  CX_TRACE_EVENT(mype(), machine->now(), cx::trace::EventKind::MigrateIn,
                 h.coll, 0);
  obj->on_migrated();
  flush_pending(cm, h.idx);
  if (h.for_lb) {
    LbAckHeader ah;
    ah.coll = h.coll;
    rt_send(wire::make_msg(h_lb_ack, 0, ah));
  }
  post_execute(obj);
}

void Runtime::Impl::on_loc(MessagePtr msg) {
  me().processed++;
  LocUpdateHeader h = pup::from_bytes<LocUpdateHeader>(msg->data);
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  CollMeta& cm = cit->second;
  if (h.pe == mype()) {
    cm.overrides.erase(h.idx);
  } else {
    cm.overrides[h.idx] = h.pe;
  }
  // The home PE is the section tree node responsible for this member;
  // its cached delivery split just went stale.
  invalidate_section_routes(h.coll, h.idx);
  flush_pending(cm, h.idx);
}

void Runtime::Impl::on_insert(MessagePtr msg) {
  me().processed++;
  pup::Unpacker u(msg->data.data(), msg->data.size());
  InsertHeader h;
  u | h;
  auto& ps = me();
  const auto cit = ps.colls.find(h.coll);
  if (cit == ps.colls.end()) {
    stash_msg(h.coll, std::move(msg));
    return;
  }
  CollMeta& cm = cit->second;
  const std::byte* args = msg->data.data() + u.offset();
  const std::size_t args_len = msg->data.size() - u.offset();
  if (!h.routed) {
    // Placement phase: this PE now knows the collection; resolve the
    // destination and hand the element over for construction.
    const int home = cm.home(h.idx, P);
    const int dst = h.on_pe >= 0 ? h.on_pe : home;
    InsertHeader out = h;
    out.routed = true;
    rt_send(wire::make_msg(h_insert, dst, out, args, args_len));
    if (dst != home) {
      LocUpdateHeader lh;
      lh.coll = h.coll;
      lh.idx = h.idx;
      lh.pe = dst;
      rt_send(wire::make_msg(h_loc, home, lh));
    }
    return;
  }
  staged_coll() = h.coll;
  staged_idx() = h.idx;
  const auto& fac = Registry::instance().factory(h.ctor);
  Chare* obj = fac.construct(args, args_len);
  staged_coll() = kInvalidCollection;
  cm.elements[h.idx].reset(obj);
  flush_pending(cm, h.idx);
  post_execute(obj);
}

// ---- creation / insertion (bridge from the header-only templates) ---------

namespace detail {

CollectionId create_collection(CollectionKind kind, const Index& dims,
                               int ndims, FactoryId ctor,
                               std::vector<std::byte> ctor_args,
                               const std::string& map_name, int fixed_pe) {
  auto& I = Runtime::current().impl();
  if (I.mype() < 0) {
    throw std::logic_error("collections must be created from a PE context");
  }
  const CollectionId id = I.next_coll.fetch_add(1);
  CollectionInfo info;
  info.id = id;
  info.kind = kind;
  info.dims = dims;
  info.ndims = ndims;
  info.ctor = ctor;
  info.ctor_args = std::move(ctor_args);
  info.map_name = map_name;
  switch (kind) {
    case CollectionKind::Singleton:
      info.size = 1;
      info.fixed_pe =
          fixed_pe >= 0
              ? fixed_pe
              : static_cast<int>((id * 2654435761u) %
                                 static_cast<std::uint32_t>(I.P));
      break;
    case CollectionKind::Group:
      info.size = static_cast<std::uint64_t>(I.P);
      break;
    case CollectionKind::Array:
      info.size = dense_size(dims);
      break;
    case CollectionKind::SparseArray:
      info.size = 0;
      info.inserting = true;
      break;
  }
  CreateHeader h;
  h.info = std::move(info);
  h.root = I.mype();
  I.rt_send(wire::make_msg(I.h_create, I.mype(), h));
  return id;
}

void sparse_insert(CollectionId coll, const Index& idx, FactoryId ctor,
                   std::vector<std::byte> ctor_args, int on_pe) {
  auto& I = Runtime::current().impl();
  // Route via a self-message: if the creation broadcast hasn't reached
  // this PE yet, the message is stashed and retried once it has.
  InsertHeader h;
  h.coll = coll;
  h.idx = idx;
  h.ctor = ctor;
  h.on_pe = on_pe;
  h.routed = false;
  I.rt_send(wire::make_msg(I.h_insert, I.mype(), h, ctor_args));
}

}  // namespace detail
}  // namespace cx
