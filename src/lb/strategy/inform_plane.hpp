#pragma once

/// \file inform_plane.hpp
/// The inform stage of Algorithm 1: InformCore, the one per-rank protocol
/// state machine and wire codec, and InformPlane, its driver on the
/// runtime. lbaf::run_gossip is the other driver: the same core, fed from
/// a sequential FIFO queue.
///
/// Three properties define the protocol (see DESIGN.md "Gossip wire
/// plane"):
///
/// 1. *Versioned deltas.* Each rank tracks a high-water mark over its
///    knowledge's version stamps, advanced at every forwarding event; in
///    GossipWire::delta mode a forward ships only entries stamped above
///    the mark. The first forward of an epoch and any forward after a
///    truncation ship a full snapshot instead (the recovery rule).
///
/// 2. *A per-epoch overlay.* Each rank draws its f gossip peers once per
///    epoch, and every forwarding event of the epoch fans out to that
///    same set. Fixing the overlay makes the delta wire *exactly*
///    equivalent to full resend: every peer receives the sender's whole
///    forward sequence, so the contiguous deltas (full snapshot first,
///    deltas after) union to precisely the full-resend payloads edge by
///    edge, and per-rank knowledge is identical under both modes at every
///    protocol step (pinned by the equivalence tests; the footnote-2 cap
///    breaks the induction and is the documented exception). The overlay
///    also keeps routing knowledge-independent. InformPlane draws it from
///    Rng{seed}.split(kGossipStreamTag).split(rank), never from the rank's
///    main runtime stream, so the transfer/CMF stream stays untouched.
///
/// 3. *Capacities grown by use; zero steady-state allocation.* Payloads
///    are serialized into pooled, refcount-recycled buffers
///    (rt::SnapshotPool) by a scratch-mode Packer; receives merge straight
///    from the bytes (Knowledge::merge_packed), with no inbox. Nothing is
///    sized to P up front: knowledge and its bitmap grow as entries
///    arrive, and each epoch's reset re-primes a rank's pool to fit the
///    capacity its knowledge has reached. After warm-up, InformPlane's
///    epochs perform no heap allocations (pinned by the allocation-counter
///    test, which also pins construction bytes per rank independent of P).
///
/// Wire message (one per forwarding event, shared by its f copies):
///
///   varint round                   the round the receiver processes it at
///   u8 flag                        1 = full snapshot, 0 = delta
///   knowledge payload              Knowledge::pack_full / pack_delta
///
/// Thread confinement: each rank's core state is mutated only by handlers
/// executing on that rank, so no field needs locking or capability
/// annotations; the SnapshotPool's in-flight leases are the only
/// cross-rank traffic, and their counts are atomic with release/acquire
/// ordering.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lb/knowledge.hpp"
#include "lb/lb_types.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tlb::obs {
class LbReportBuilder;
}

namespace tlb::lb {

/// Stream tag for the gossip plane's RNG split (far outside the per-rank
/// tag space 0..P-1, like rt::kFaultStreamTag).
inline constexpr std::uint64_t kGossipStreamTag = 0x6055'0000'0000'0001ull;

/// Algorithm 1 for P ranks, with no runtime: per-rank knowledge, overlay,
/// round gating and the wire codec. A driver moves the bytes; the core
/// decides what they are and what a delivery does. Every step names the
/// rank it acts for and touches only that rank's state, so a driver may
/// run ranks on different threads as long as each rank's steps stay on
/// one. Randomness comes from the caller's Rng, so a driver chooses its
/// streams (one per rank, or one for the whole epoch).
class InformCore {
public:
  /// Checks the inform parameters, once for every driver: fanout >= 1,
  /// and 1 <= rounds <= 63 (the width of the forwarded-rounds bitmask).
  InformCore(RankId num_ranks, GossipWire wire, int fanout, int rounds,
             std::size_t max_knowledge);

  /// Start a new epoch for `rank`: wipe its knowledge and forwarding
  /// state, grow its snapshot buffers to fit its knowledge's capacity,
  /// and draw the epoch's peers from `rng`: min(f, P-1) distinct ranks
  /// other than `rank`, uniform without replacement. Capacities survive,
  /// so an epoch whose knowledge fits the capacity earlier epochs reached
  /// does not allocate.
  void reset(RankId rank, Rng& rng);

  /// Algorithm 1 lines 9-12 on an underloaded rank: adopt own (rank, load)
  /// and pack the round-1 forward for the peers.
  [[nodiscard]] rt::SnapshotPool::Lease seed(RankId rank, LoadType load);

  /// What one delivery was, and whether it fires the receiver's next
  /// forwarding event.
  struct Delivery {
    int round = 0;        ///< round the message is processed at
    bool full = false;    ///< full snapshot (else delta) payload
    bool forward = false; ///< first delivery of `round` < k: forward
  };

  /// Algorithm 1's INFORMHANDLER on `rank`: merge the message's payload
  /// straight from `bytes`, truncate to the footnote-2 cap with `rng`,
  /// and gate the forward (at most once per rank and round). When
  /// `forward` is set the driver sends forward(rank, round + 1).
  Delivery receive(RankId rank, std::span<std::byte const> bytes, Rng& rng);

  /// One forwarding event: pack the round, the flag byte and the full or
  /// delta payload into a pooled buffer that the f messages share. The
  /// message's wire size is the buffer's size.
  [[nodiscard]] rt::SnapshotPool::Lease forward(RankId rank, int round);

  /// The epoch's fixed peer set of `rank` (the random f-out overlay).
  [[nodiscard]] std::span<RankId const> peers(RankId rank) const {
    return slots_[static_cast<std::size_t>(rank)].peers;
  }

  /// The rank's accumulated knowledge; mutable because the transfer pass
  /// applies speculative load updates through it (run_transfer).
  [[nodiscard]] Knowledge& knowledge(RankId rank) {
    return slots_[static_cast<std::size_t>(rank)].knowledge;
  }

  /// Hand every rank's knowledge over, leaving the core's empty.
  [[nodiscard]] std::vector<Knowledge> take_knowledge();

  [[nodiscard]] RankId num_ranks() const {
    return static_cast<RankId>(slots_.size());
  }

private:
  /// Worst-case bytes prepended to a knowledge payload: a round-number
  /// varint (10 bytes covers any u64) plus the flag byte. Sizes pooled
  /// buffers so packing within the knowledge's capacity never reallocates.
  static constexpr std::size_t kHeaderBound = 11;

  /// One rank's protocol state.
  struct Slot {
    /// S^p and LOAD^p(); receives merge payloads into it from the wire.
    Knowledge knowledge;
    /// Serialized-payload pool for this rank's forwarding events, one
    /// slot per round, re-primed at reset to fit the knowledge.
    rt::SnapshotPool pool;
    /// The epoch's fixed peer set; every forward fans out to these ranks.
    std::vector<RankId> peers;
    std::uint64_t forwarded = 0; ///< bitmask of rounds already forwarded
    /// Version high-water mark of the last forwarding event.
    std::uint32_t hwm = 0;
    /// First forward of the epoch must ship a full snapshot.
    bool need_full = true;
  };

  std::vector<Slot> slots_;
  GossipWire wire_;
  int fanout_;
  int rounds_;
  std::size_t max_knowledge_; ///< 0 = unlimited (footnote-2 cap)
};

/// The runtime driver: one inform plane serves every epoch of one
/// balance() invocation, sending each forward to the peers with ctx.send
/// and reporting every delivery to the optional LbReportBuilder.
/// shared_from_this lets forwarding closures keep the plane alive for the
/// lifetime of in-flight messages while staying within the runtime's
/// inline-handler budget (self + snapshot lease = 24 of 64 bytes).
class InformPlane : public std::enable_shared_from_this<InformPlane> {
public:
  InformPlane(RankId num_ranks, std::uint64_t root_seed, GossipWire wire,
              int fanout, int rounds, std::size_t max_knowledge,
              obs::LbReportBuilder* report);

  /// Driver-side, at a quiescent point: reset every rank's core state for
  /// the next inform epoch (InformCore::reset). The per-rank gossip RNG
  /// streams deliberately run on across epochs, matching how the per-rank
  /// runtime streams behave.
  void reset_epoch();

  /// Handler-side, on an underloaded rank: adopt own (rank, load) into
  /// the knowledge and start the cascade (Algorithm 1 lines 9-12).
  void seed_and_forward(rt::RankContext& ctx, LoadType load);

  /// The rank's accumulated knowledge (see InformCore::knowledge).
  [[nodiscard]] Knowledge& knowledge_of(RankId rank) {
    return core_.knowledge(rank);
  }

private:
  /// Fan one forwarding event's shared buffer out to the rank's peers.
  /// `snap` is taken by value: a closure capturing a const lease could
  /// only copy it, so every relocation of a queued message would pay two
  /// atomic refcount updates on a counter that other workers also touch.
  void send(rt::RankContext& ctx, rt::SnapshotPool::Lease snap);

  /// Delivery of one gossip message on the destination rank.
  void receive(rt::RankContext& ctx, rt::SnapshotPool::Lease const& snap);

  InformCore core_;
  /// Per-rank gossip RNG streams (see file comment, property 2); each is
  /// used only by its own rank's handlers.
  std::vector<Rng> rngs_;
  obs::LbReportBuilder* report_; ///< optional introspection sink
};

} // namespace tlb::lb
