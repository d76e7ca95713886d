#include "lb/strategy/inform_plane.hpp"

#include <algorithm>
#include <utility>

#include "obs/lb_report.hpp"
#include "support/assert.hpp"

namespace tlb::lb {

InformCore::InformCore(RankId num_ranks, GossipWire wire, int fanout,
                       int rounds, std::size_t max_knowledge)
    : wire_{wire},
      fanout_{fanout},
      rounds_{rounds},
      max_knowledge_{max_knowledge} {
  TLB_EXPECTS(num_ranks > 0);
  TLB_EXPECTS(fanout >= 1 && "inform fanout must be at least 1");
  TLB_EXPECTS(rounds >= 1 && rounds <= 63 &&
              "inform rounds must lie in [1, 63]");
  // Knowledge, its bitmap and the snapshot pool grow by use (see reset),
  // so a rank costs the same few hundred bytes here whatever P is; only
  // the peer list has a P-independent bound to reserve.
  slots_.resize(static_cast<std::size_t>(num_ranks));
  for (auto& slot : slots_) {
    slot.peers.reserve(
        static_cast<std::size_t>(std::min<RankId>(fanout, num_ranks)));
  }
}

void InformCore::reset(RankId rank, Rng& rng) {
  Slot& slot = slots_[static_cast<std::size_t>(rank)];
  // One pool slot per forwarding event (a rank forwards at most once per
  // round — the `forwarded` bitmask — and a slot is recycled once its f
  // messages drain). No payload outgrows its sender's knowledge, so
  // buffers that fit the capacity the knowledge has grown to keep an
  // epoch that fits it free of allocation; before the knowledge has any
  // capacity there is nothing to fit, and the pool grows as it is used.
  // prime() skips a slot still leased by a message of an epoch whose
  // quiescence timed out.
  if (slot.knowledge.capacity() > 0) {
    slot.pool.prime(static_cast<std::size_t>(rounds_),
                    kHeaderBound + Knowledge::wire_capacity_bound(
                                       slot.knowledge.capacity()));
  }
  slot.knowledge.clear();
  slot.forwarded = 0;
  slot.hwm = 0;
  slot.need_full = true;
  // Reusing one overlay for every forward of the epoch is what makes
  // delta payloads exactly equivalent to full resend (each peer receives
  // the whole contiguous forward sequence); see the file comment.
  // clear()+push_back keeps the vector's capacity, so epochs after the
  // first do not allocate.
  auto const p = num_ranks();
  slot.peers.clear();
  auto const want = static_cast<std::size_t>(std::min<RankId>(fanout_, p - 1));
  while (slot.peers.size() < want) {
    auto const peer =
        static_cast<RankId>(rng.uniform_below(static_cast<std::uint64_t>(p)));
    if (peer != rank && std::find(slot.peers.begin(), slot.peers.end(),
                                  peer) == slot.peers.end()) {
      slot.peers.push_back(peer);
    }
  }
}

rt::SnapshotPool::Lease InformCore::seed(RankId rank, LoadType load) {
  Slot& slot = slots_[static_cast<std::size_t>(rank)];
  slot.knowledge.insert(rank, load);
  slot.forwarded |= 1ull;
  return forward(rank, 1);
}

rt::SnapshotPool::Lease InformCore::forward(RankId rank, int round) {
  Slot& slot = slots_[static_cast<std::size_t>(rank)];
  // Serialize once per forwarding event; the f messages share one pooled
  // byte buffer (they carry identical wire data), which also bounds peak
  // memory when the lists approach O(P).
  bool const truncated = slot.knowledge.take_truncated();
  bool const full = wire_ == GossipWire::full || slot.need_full || truncated;
  auto snap = slot.pool.acquire();
  rt::Packer packer{snap->bytes};
  packer.pack_varint(static_cast<std::uint64_t>(round));
  packer.pack(static_cast<std::uint8_t>(full ? 1 : 0));
  if (full) {
    slot.knowledge.pack_full(packer);
  } else {
    // An empty delta still goes out: the message itself is what keeps the
    // receipt-triggered cascade alive (Algorithm 1's round gating), and
    // it costs ~3 bytes.
    slot.knowledge.pack_delta(packer, slot.hwm);
  }
  slot.hwm = slot.knowledge.version_mark();
  slot.need_full = false;
  return snap;
}

InformCore::Delivery InformCore::receive(RankId rank,
                                         std::span<std::byte const> bytes,
                                         Rng& rng) {
  Slot& slot = slots_[static_cast<std::size_t>(rank)];
  rt::Unpacker unpacker{bytes};
  Delivery d;
  d.round = static_cast<int>(unpacker.unpack_varint());
  d.full = unpacker.unpack<std::uint8_t>() != 0;
  slot.knowledge.merge_packed(unpacker, num_ranks());
  TLB_ASSERT(unpacker.exhausted());
  slot.knowledge.truncate_random(max_knowledge_, rng);
  if (d.round < rounds_) {
    std::uint64_t const bit = 1ull << d.round;
    d.forward = (slot.forwarded & bit) == 0;
    slot.forwarded |= bit;
  }
  return d;
}

std::vector<Knowledge> InformCore::take_knowledge() {
  std::vector<Knowledge> out;
  out.reserve(slots_.size());
  for (auto& slot : slots_) {
    out.push_back(std::exchange(slot.knowledge, Knowledge{}));
  }
  return out;
}

InformPlane::InformPlane(RankId num_ranks, std::uint64_t root_seed,
                         GossipWire wire, int fanout, int rounds,
                         std::size_t max_knowledge,
                         obs::LbReportBuilder* report)
    : core_{num_ranks, wire, fanout, rounds, max_knowledge},
      report_{report} {
  Rng const gossip_root = Rng{root_seed}.split(kGossipStreamTag);
  rngs_.reserve(static_cast<std::size_t>(num_ranks));
  for (RankId r = 0; r < num_ranks; ++r) {
    rngs_.push_back(gossip_root.split(static_cast<std::uint64_t>(r)));
  }
}

void InformPlane::reset_epoch() {
  for (RankId r = 0; r < core_.num_ranks(); ++r) {
    core_.reset(r, rngs_[static_cast<std::size_t>(r)]);
  }
}

void InformPlane::seed_and_forward(rt::RankContext& ctx, LoadType load) {
  send(ctx, core_.seed(ctx.rank(), load));
}

void InformPlane::send(rt::RankContext& ctx, rt::SnapshotPool::Lease snap) {
  auto self = shared_from_this();
  for (RankId const dest : core_.peers(ctx.rank())) {
    ctx.send(
        dest, snap->bytes.size(),
        [self, snap](rt::RankContext& c) { self->receive(c, snap); },
        rt::MessageKind::gossip);
  }
}

void InformPlane::receive(rt::RankContext& ctx,
                          rt::SnapshotPool::Lease const& snap) {
  RankId const rank = ctx.rank();
  auto const d = core_.receive(rank, snap->bytes,
                               rngs_[static_cast<std::size_t>(rank)]);
  if (report_ != nullptr) {
    report_->on_gossip_message(d.round, snap->bytes.size(),
                               core_.knowledge(rank).size(), d.full);
  }
  if (d.forward) {
    send(ctx, core_.forward(rank, d.round + 1));
  }
}

} // namespace tlb::lb
