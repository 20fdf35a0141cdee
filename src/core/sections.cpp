// Chare-array sections: first-class handles over arbitrary index
// subsets of a collection. A section's spec (sorted members + arity) is
// the single source of truth — every involved PE derives the identical
// k-ary spanning tree over the members' home PEs, so no per-edge
// routing state ever travels. Multicasts descend the tree's edges;
// section-scoped reductions climb the same edges. Migration never
// reshapes the tree: a member's home PE stays its delegate node, which
// routes deliveries through the location manager (overrides) and keeps
// accepting the member's contributions wherever it physically lives.

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/runtime_impl.hpp"

namespace cx {

namespace {

void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

// ---- spec-derived topology ------------------------------------------------

tree::SpanningTree Runtime::Impl::section_tree(const SectionSpec& spec) const {
  const CollMeta& cm = pes[static_cast<std::size_t>(machine->current_pe())]
                           ->colls.at(spec.coll);
  std::vector<int> hosts;
  hosts.reserve(spec.members.size());
  for (const Index& m : spec.members) hosts.push_back(cm.home(m, P));
  return tree::make_spanning_tree(std::move(hosts), spec.arity);
}

std::uint64_t Runtime::Impl::sect_subtree_expected(
    const SectionSpec& spec) const {
  const tree::SpanningTree t = section_tree(spec);
  const CollMeta& cm = pes[static_cast<std::size_t>(machine->current_pe())]
                           ->colls.at(spec.coll);
  std::vector<std::uint64_t> weight(static_cast<std::size_t>(t.size()), 0);
  for (const Index& m : spec.members) {
    const int pos = t.pos_of(cm.home(m, P));
    weight[static_cast<std::size_t>(pos)]++;
  }
  return tree::kary_subtree_sum(t.pos_of(machine->current_pe()), t.size(),
                                t.arity, weight);
}

SectMeta& Runtime::Impl::install_section(const SectionSpec& spec) {
  auto& ps = me();
  auto [it, fresh] = ps.sections.try_emplace(spec.id);
  SectMeta& sm = it->second;
  if (fresh) {
    sm.spec = spec;
    const CollMeta& cm = ps.colls.at(spec.coll);
    for (const Index& m : spec.members) {
      if (cm.home(m, P) == mype()) sm.home_members.push_back(m);
    }
  }
  // Flush operations that raced ahead of the build (idempotent).
  const auto st = ps.sect_stash.find(spec.id);
  if (st != ps.sect_stash.end()) {
    auto msgs = std::move(st->second);
    ps.sect_stash.erase(st);
    for (auto& m : msgs) {
      m->dst_pe = mype();
      rt_send(std::move(m));  // re-dispatch through the scheduler
    }
  }
  return sm;
}

void Runtime::Impl::sect_refresh_routes(SectMeta& sm, CollMeta& cm) {
  if (sm.routes_built && sm.routes_epoch == sm.epoch) return;
  const bool repair = sm.routes_built;
  sm.present.clear();
  sm.away.clear();
  for (const Index& m : sm.home_members) {
    if (cm.elements.count(m) != 0) {
      sm.present.push_back(m);
    } else {
      sm.away.push_back(m);
    }
  }
  sm.routes_built = true;
  sm.routes_epoch = sm.epoch;
  if (repair) bump(cx::trace::detail::g_section.tree_repairs);
}

void Runtime::Impl::invalidate_section_routes(CollectionId coll,
                                              const Index& idx) {
  for (auto& [id, sm] : me().sections) {
    (void)id;
    if (sm.spec.coll != coll) continue;
    if (std::binary_search(sm.spec.members.begin(), sm.spec.members.end(),
                           idx)) {
      sm.epoch++;
    }
  }
}

// ---- handlers -------------------------------------------------------------

void Runtime::Impl::on_sect_build(MessagePtr msg) {
  me().processed++;
  SectBuildHeader h = pup::from_bytes<SectBuildHeader>(msg->data);
  auto& ps = me();
  if (ps.colls.find(h.spec.coll) == ps.colls.end()) {
    stash_msg(h.spec.coll, std::move(msg));
    return;
  }
  install_section(h.spec);
  const tree::SpanningTree t = section_tree(h.spec);
  if (!h.down && mype() != t.root()) {
    // Initial self-routed message on the creator: detour to the root,
    // which starts the descent proper.
    SectBuildHeader h2 = h;
    h2.down = true;
    rt_send(wire::make_msg(h_sect_build, t.root(), h2));
    return;
  }
  std::vector<int> kids;
  t.children_of(mype(), kids);
  SectBuildHeader h2 = h;
  h2.down = true;
  for (const int k : kids) rt_send(wire::make_msg(h_sect_build, k, h2));
}

void Runtime::Impl::on_sect_bcast(MessagePtr msg) {
  me().processed++;
  std::size_t off = 0;
  const SectBcastHeader h =
      wire::read_header<SectBcastHeader>(msg->data, &off);
  auto& ps = me();
  const auto sit = ps.sections.find(h.sect);
  if (sit == ps.sections.end()) {
    ps.sect_stash[h.sect].push_back(std::move(msg));
    return;
  }
  SectMeta& sm = sit->second;
  CollMeta& cm = ps.colls.at(h.coll);
  const tree::SpanningTree t = section_tree(sm.spec);
  const std::byte* body = msg->data.data() + off;
  const std::size_t body_len = msg->data.size() - off;
  if (!h.down && mype() != t.root()) {
    // Initiator-side hop from a PE that is not the tree root (a stale
    // proxy root, or a creator that never hosted a member).
    SectBcastHeader h2 = h;
    h2.down = true;
    rt_send(wire::make_msg(h_sect_bcast, t.root(), h2, body, body_len));
    return;
  }
  // Descend: forward to this node's children in the section tree.
  std::vector<int> kids;
  t.children_of(mype(), kids);
  for (const int k : kids) {
    if (h.down) {
      rt_send(wire::clone_payload(h_sect_bcast, k, msg->data));
    } else {
      SectBcastHeader h2 = h;
      h2.down = true;
      rt_send(wire::make_msg(h_sect_bcast, k, h2, body, body_len));
    }
  }
  if (t.pos_of(mype()) == 0) {
    // Root bookkeeping. For a proper subset, tell the collection's
    // completion PE how many delivery credits finish this broadcast;
    // all-members sections ride the unchanged info.size path, which
    // keeps the two completion sources race-free.
    bool expect = false;
    if (h.reply.valid() && sm.spec.members.size() != cm.info.size) {
      expect = true;
      SectExpectHeader eh;
      eh.coll = h.coll;
      eh.reply = h.reply;
      eh.expected = sm.spec.members.size();
      rt_send(wire::make_msg(h_sect_expect, static_cast<int>(h.coll) % P,
                             eh));
    }
    // Nominal envelope accounting vs a broadcast+filter over the whole
    // collection (initial hop + binomial forwards + per-element credit).
    const std::uint64_t credits =
        h.reply.valid() ? sm.spec.members.size() : 0;
    const std::uint64_t naive =
        1 + static_cast<std::uint64_t>(P - 1) +
        (h.reply.valid() ? cm.info.size : 0);
    const std::uint64_t actual = 1 +
                                 static_cast<std::uint64_t>(t.size() - 1) +
                                 credits + (expect ? 1 : 0);
    bump(cx::trace::detail::g_section.mcast_envelopes, actual);
    if (naive > actual) {
      bump(cx::trace::detail::g_section.envelopes_saved, naive - actual);
    }
  }
  sect_refresh_routes(sm, cm);
  const EpInfo& info = Registry::instance().ep(h.ep);
  // Route a member's delivery through the location manager as packed
  // bytes (used for migrated-away members, and as the fallback when a
  // present member moves mid-loop).
  auto route_away = [&](const Index& idx) {
    EntryHeader eh;
    eh.coll = h.coll;
    eh.idx = idx;
    eh.ep = h.ep;
    eh.bcast_done = h.reply;
    route_entry_msg(cm, idx,
                    wire::make_msg(h_entry, mype(), eh, body, body_len));
  };
  // Deliver to each present member with a freshly unpacked tuple.
  const std::vector<Index> present = sm.present;
  for (const Index& idx : present) {
    if (Chare* obj = find_local(cm, idx)) {
      pup::Unpacker ue(msg->data.data(), msg->data.size());
      SectBcastHeader dummy;
      ue | dummy;
      auto tuple = info.unpack(ue);
      deliver(obj, info, h.ep, std::move(tuple), {}, h.reply);
    } else {
      route_away(idx);
    }
  }
  for (const Index& idx : sm.away) route_away(idx);
}

void Runtime::Impl::on_sect_reduce(MessagePtr msg) {
  me().processed++;
  pup::Unpacker u(msg->data.data(), msg->data.size());
  SectReduceHeader h;
  u | h;
  auto& ps = me();
  const auto sit = ps.sections.find(h.sect);
  if (sit == ps.sections.end()) {
    ps.sect_stash[h.sect].push_back(std::move(msg));
    return;
  }
  SectMeta& sm = sit->second;
  if (h.count == 1 &&
      !std::binary_search(sm.spec.members.begin(), sm.spec.members.end(),
                          h.contributor)) {
    throw std::logic_error("section reduction: element " +
                           h.contributor.to_string() +
                           " contributed to a section it is not a member of");
  }
  std::vector<std::byte> value(
      msg->data.begin() + static_cast<long>(u.offset()), msg->data.end());
  auto& rs = ps.sect_red[{h.sect, h.seq}];
  rs.count += h.count;
  if (h.combiner != kNoCombine) {
    if (!rs.has_acc) {
      rs.acc = std::move(value);
      rs.has_acc = true;
      rs.combiner = h.combiner;
    } else {
      rs.acc = checked_combine(h.combiner, rs.acc, value, h.coll,
                               h.contributor);
    }
  }
  if (h.cb.kind != Callback::Kind::Ignore) rs.cb = h.cb;
  // This node may finish as soon as its whole subtree has reported —
  // derived from the spec alone, so it stays correct across migration
  // (contributions always route via home PEs, the tree's node set).
  if (rs.count < sect_subtree_expected(sm.spec)) return;
  auto node = ps.sect_red.extract({h.sect, h.seq});
  RedState& done = node.mapped();
  const tree::SpanningTree t = section_tree(sm.spec);
  if (t.pos_of(mype()) == 0) {
    bump(cx::trace::detail::g_section.reductions_done);
    deliver_callback(done.cb, std::move(done.acc));
    return;
  }
  bump(cx::trace::detail::g_section.red_fragments);
  SectReduceHeader up = h;
  up.count = done.count;
  up.cb = done.cb;
  rt_send(wire::make_msg(h_sect_reduce, t.parent_of(mype()), up, done.acc));
}

void Runtime::Impl::on_sect_expect(MessagePtr msg) {
  me().processed++;
  const SectExpectHeader h = pup::from_bytes<SectExpectHeader>(msg->data);
  auto& ps = me();
  const auto key = std::make_pair(h.reply.pe, h.reply.fid);
  ps.bcast_expect[key] = h.expected;
  // The credits may all have landed before the expectation did.
  const auto cit = ps.bcast_done_root.find(key);
  if (cit != ps.bcast_done_root.end() && cit->second >= h.expected) {
    ps.bcast_done_root.erase(cit);
    ps.bcast_expect.erase(key);
    send_future_bytes(h.reply, {});
  }
}

// ---- bridge from the header-only templates --------------------------------

namespace detail {

SectionHandle section_create(CollectionId coll, std::vector<Index> members) {
  auto& I = Runtime::current().impl();
  if (I.mype() < 0) {
    throw std::logic_error("sections must be created from a PE context");
  }
  if (members.empty()) {
    throw std::invalid_argument("section over an empty member set");
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  auto& ps = I.me();
  SectionSpec spec;
  spec.id = (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(I.mype()))
             << 32) |
            ++ps.next_sect;
  spec.coll = coll;
  spec.members = std::move(members);
  spec.arity = tree::section_arity();
  SectionHandle handle;
  handle.id = spec.id;
  handle.size = spec.members.size();
  // The tree root is derivable only once the collection's creation
  // broadcast has landed here; until then the proxy routes through this
  // PE and the first hop detours to the real root.
  const auto cit = ps.colls.find(coll);
  if (cit != ps.colls.end()) {
    std::vector<int> hosts;
    hosts.reserve(spec.members.size());
    for (const Index& m : spec.members) {
      hosts.push_back(cit->second.home(m, I.P));
    }
    handle.root = tree::make_spanning_tree(std::move(hosts), spec.arity)
                      .root();
  } else {
    handle.root = I.mype();
  }
  bump(cx::trace::detail::g_section.sections_built);
  SectBuildHeader bh;
  bh.spec = std::move(spec);
  I.rt_send(wire::make_msg(I.h_sect_build, I.mype(), bh));
  return handle;
}

void section_broadcast(std::uint64_t sect, CollectionId coll,
                       std::int32_t root, EpId ep, ArgsCarrier args,
                       const ReplyTo& reply) {
  auto& I = Runtime::current().impl();
  if (sect == 0 || root < 0) {
    throw std::logic_error("broadcast on an invalid section proxy");
  }
  bump(cx::trace::detail::g_section.mcasts);
  SectBcastHeader h;
  h.sect = sect;
  h.coll = coll;
  h.ep = ep;
  h.reply = reply;
  I.rt_send(wire::make_msg_pup(I.h_sect_bcast, root, h, [&](pup::Er& p) {
    args.pup(args.tuple.get(), p);
  }));
}

void section_contribute_bytes(Chare& chare, std::uint64_t sect,
                              std::vector<std::byte> value,
                              CombineId combiner, const Callback& target) {
  auto& I = Runtime::current().impl();
  if (sect == 0) {
    throw std::logic_error("contribute to an invalid section proxy");
  }
  bump(cx::trace::detail::g_section.contributions);
  SectReduceHeader h;
  h.sect = sect;
  h.coll = chare.collection();
  h.seq = I.next_sect_seq(chare, sect);
  h.combiner = combiner;
  h.cb = target;
  h.count = 1;
  h.contributor = chare.this_index();
  // Always via the home PE — the element's delegate node in the section
  // tree — so a migrated member's contribution needs no special path.
  const int home =
      I.me().colls.at(chare.collection()).home(chare.this_index(), I.P);
  I.rt_send(wire::make_msg(I.h_sect_reduce, home, h, value));
}

}  // namespace detail
}  // namespace cx
