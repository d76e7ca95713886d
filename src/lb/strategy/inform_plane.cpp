#include "lb/strategy/inform_plane.hpp"

#include <algorithm>

#include "obs/lb_report.hpp"
#include "support/assert.hpp"

namespace tlb::lb {

InformPlane::InformPlane(RankId num_ranks, std::uint64_t root_seed,
                         GossipWire wire, int fanout, int rounds,
                         std::size_t max_knowledge,
                         obs::LbReportBuilder* report)
    : slots_(static_cast<std::size_t>(num_ranks)),
      wire_{wire},
      fanout_{fanout},
      rounds_{rounds},
      max_knowledge_{max_knowledge},
      report_{report} {
  Rng const gossip_root = Rng{root_seed}.split(kGossipStreamTag);
  // Steady-state inform rounds must not allocate, so every capacity is
  // grown to its bound up front: knowledge and inbox to P entries (the
  // most any rank can ever learn) and their membership bitmaps to P bits,
  // the snapshot pool to one slot per forwarding event (a rank forwards
  // at most once per round — the `forwarded` bitmask — and a slot is
  // recycled once its f messages drain) with each buffer at the
  // wire-format ceiling plus the round/flag header.
  // ~P*(rounds*13 + 32.25) bytes per rank, transient per balance().
  auto const pool_depth = static_cast<std::size_t>(std::max(rounds, 1));
  auto const pool_capacity =
      Knowledge::wire_capacity_bound(static_cast<std::size_t>(num_ranks)) +
      kHeaderBound;
  for (RankId r = 0; r < num_ranks; ++r) {
    auto& slot = slots_[static_cast<std::size_t>(r)];
    slot.rng = gossip_root.split(static_cast<std::uint64_t>(r));
    slot.knowledge.reserve(static_cast<std::size_t>(num_ranks));
    slot.inbox.reserve(static_cast<std::size_t>(num_ranks));
    slot.peers.reserve(static_cast<std::size_t>(
        std::min<RankId>(static_cast<RankId>(fanout), num_ranks)));
    slot.pool.prime(pool_depth, pool_capacity);
  }
}

void InformPlane::reset_epoch() {
  auto const p = static_cast<RankId>(slots_.size());
  for (RankId r = 0; r < p; ++r) {
    Slot& slot = slots_[static_cast<std::size_t>(r)];
    slot.knowledge.clear();
    slot.forwarded = 0;
    slot.hwm = 0;
    slot.need_full = true;
    // Draw the epoch's fixed peer set: min(f, P-1) distinct ranks != r,
    // uniform without replacement. Reusing one overlay for every forward
    // of the epoch is what makes delta payloads exactly equivalent to
    // full resend (each peer receives the whole contiguous forward
    // sequence); see the file comment. clear()+push_back keeps the
    // vector's capacity, so epochs after the first do not allocate.
    slot.peers.clear();
    auto const want = static_cast<std::size_t>(
        std::min<RankId>(static_cast<RankId>(fanout_), p - 1));
    while (slot.peers.size() < want) {
      auto const peer = static_cast<RankId>(
          slot.rng.uniform_below(static_cast<std::uint64_t>(p)));
      if (peer != r && std::find(slot.peers.begin(), slot.peers.end(),
                                 peer) == slot.peers.end()) {
        slot.peers.push_back(peer);
      }
    }
  }
}

void InformPlane::seed_and_forward(rt::RankContext& ctx, LoadType load) {
  auto& slot = slots_[static_cast<std::size_t>(ctx.rank())];
  slot.knowledge.insert(ctx.rank(), load);
  slot.forwarded |= 1ull;
  forward(ctx, 1);
}

void InformPlane::forward(rt::RankContext& ctx, int next_round) {
  auto& slot = slots_[static_cast<std::size_t>(ctx.rank())];
  // Serialize once per forwarding event; the f messages share one pooled
  // byte buffer (they carry identical wire data), which also bounds peak
  // memory when the lists approach O(P). Receivers deserialize, proving
  // the protocol serialization-clean.
  bool const truncated = slot.knowledge.take_truncated();
  bool const full =
      wire_ == GossipWire::full || slot.need_full || truncated;
  auto snap = slot.pool.acquire();
  rt::Packer packer{snap->bytes};
  packer.pack_varint(static_cast<std::uint64_t>(next_round));
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
  std::size_t const bytes = packer.size();
  auto self = shared_from_this();
  for (RankId const dest : slot.peers) {
    ctx.send(
        dest, bytes,
        [self, snap, bytes](rt::RankContext& c) {
          self->receive(c, snap, bytes);
        },
        rt::MessageKind::gossip);
  }
}

void InformPlane::receive(rt::RankContext& ctx,
                          rt::SnapshotPool::Lease const& snap,
                          std::size_t bytes) {
  auto& slot = slots_[static_cast<std::size_t>(ctx.rank())];
  rt::Unpacker unpacker{snap->bytes};
  auto const round = static_cast<int>(unpacker.unpack_varint());
  bool const full = unpacker.unpack<std::uint8_t>() != 0;
  slot.inbox.unpack_into(unpacker);
  TLB_ASSERT(unpacker.exhausted());
  slot.knowledge.merge(slot.inbox);
  slot.knowledge.truncate_random(max_knowledge_, slot.rng);
  if (report_ != nullptr) {
    report_->on_gossip_message(round, bytes, slot.knowledge.size(), full);
  }
  if (round < rounds_) {
    std::uint64_t const bit = 1ull << round;
    if ((slot.forwarded & bit) == 0) {
      slot.forwarded |= bit;
      forward(ctx, round + 1);
    }
  }
}

} // namespace tlb::lb
