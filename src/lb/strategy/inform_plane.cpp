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
  // Knowledge, its bitmap and the snapshot pool grow by use (see
  // reset_epoch), so a rank costs the same few hundred bytes here
  // whatever P is; only the peer list has a P-independent bound to
  // reserve.
  for (RankId r = 0; r < num_ranks; ++r) {
    auto& slot = slots_[static_cast<std::size_t>(r)];
    slot.rng = gossip_root.split(static_cast<std::uint64_t>(r));
    slot.peers.reserve(static_cast<std::size_t>(
        std::min<RankId>(static_cast<RankId>(fanout), num_ranks)));
  }
}

void InformPlane::reset_epoch() {
  auto const p = static_cast<RankId>(slots_.size());
  // One pool slot per forwarding event (a rank forwards at most once per
  // round — the `forwarded` bitmask — and a slot is recycled once its f
  // messages drain).
  auto const pool_depth = static_cast<std::size_t>(std::max(rounds_, 1));
  for (RankId r = 0; r < p; ++r) {
    Slot& slot = slots_[static_cast<std::size_t>(r)];
    // No payload outgrows its sender's knowledge, so buffers that fit the
    // capacity the knowledge has grown to keep an epoch that fits it
    // free of allocation. prime() skips a slot still leased by a message
    // of an epoch whose quiescence timed out.
    slot.pool.prime(pool_depth,
                    kHeaderBound + Knowledge::wire_capacity_bound(
                                       slot.knowledge.capacity()));
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
  // memory when the lists approach O(P). Receivers merge straight from
  // the bytes, proving the protocol serialization-clean.
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
  slot.knowledge.merge_packed(unpacker, static_cast<RankId>(slots_.size()));
  TLB_ASSERT(unpacker.exhausted());
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
