#pragma once

/// \file inform_plane.hpp
/// The distributed inform stage of Algorithm 1, factored out of the
/// gossip strategy as its own protocol plane: per-rank knowledge, the
/// round-gated forwarding cascade, and the delta-encoded wire format.
///
/// Three properties define the plane (see DESIGN.md "Gossip wire plane"):
///
/// 1. *Versioned deltas.* Each rank tracks a high-water mark over its
///    knowledge's version stamps, advanced at every forwarding event; in
///    GossipWire::delta mode a forward ships only entries stamped above
///    the mark. The first forward of an epoch and any forward after a
///    truncation ship a full snapshot instead (the recovery rule).
///
/// 2. *A per-epoch overlay on a dedicated RNG stream.* Each rank draws
///    its f gossip peers once per epoch from
///    Rng{seed}.split(kGossipStreamTag).split(rank) — never from the
///    rank's main runtime stream — and every forwarding event of the
///    epoch fans out to that same set. Fixing the overlay makes the
///    delta wire *exactly* equivalent to full resend: every peer
///    receives the sender's whole forward sequence, so the contiguous
///    deltas (full snapshot first, deltas after) union to precisely the
///    full-resend payloads edge by edge, and per-rank knowledge is
///    identical under both modes at every protocol step (pinned by the
///    equivalence tests; the footnote-2 cap breaks the induction and is
///    the documented exception). The overlay also keeps routing
///    knowledge-independent and the transfer/CMF stream untouched.
///
/// 3. *Capacities grown by use; zero steady-state allocation.* Payloads
///    are serialized into pooled, refcount-recycled buffers
///    (rt::SnapshotPool) by a scratch-mode Packer; receives merge straight
///    from the bytes (Knowledge::merge_packed), with no inbox. Nothing is
///    sized to P up front: knowledge and its bitmap grow as entries
///    arrive, and reset_epoch re-primes each rank's pool to fit the
///    capacity its knowledge has reached. After warm-up, inform epochs
///    perform no heap allocations (pinned by the allocation-counter test,
///    which also pins construction bytes per rank independent of P).
///
/// Thread-confinement (PR 7 discipline): each Slot is mutated only by
/// handlers executing on its own rank, so no slot field needs locking or
/// capability annotations; the SnapshotPool's in-flight leases are the
/// only cross-rank traffic, and their counts are atomic with
/// release/acquire ordering.

#include <cstdint>
#include <memory>
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

/// One inform plane serves every epoch of one balance() invocation.
/// shared_from_this lets forwarding closures keep the plane alive for the
/// lifetime of in-flight messages while staying within the runtime's
/// inline-handler budget (self + snapshot lease + bytes = 32 of 64 bytes).
class InformPlane : public std::enable_shared_from_this<InformPlane> {
public:
  InformPlane(RankId num_ranks, std::uint64_t root_seed, GossipWire wire,
              int fanout, int rounds, std::size_t max_knowledge,
              obs::LbReportBuilder* report);

  /// Driver-side, at a quiescent point: wipe per-rank knowledge and
  /// forwarding state for the next inform epoch, and grow each rank's
  /// snapshot buffers to fit its knowledge's capacity. Capacities (entry
  /// vectors, bitmaps, snapshot buffers) survive, so an epoch whose
  /// knowledge fits the capacity earlier epochs reached does not
  /// allocate. RNG streams deliberately run on across epochs, matching
  /// how the per-rank runtime streams behave.
  void reset_epoch();

  /// Handler-side, on an underloaded rank: adopt own (rank, load) into
  /// the knowledge and start the cascade (Algorithm 1 lines 9-12).
  void seed_and_forward(rt::RankContext& ctx, LoadType load);

  /// The rank's accumulated knowledge; mutable because the transfer pass
  /// applies speculative load updates through it (run_transfer).
  [[nodiscard]] Knowledge& knowledge_of(RankId rank) {
    return slots_[static_cast<std::size_t>(rank)].knowledge;
  }

private:
  /// Worst-case bytes the plane prepends to a packed knowledge payload:
  /// a round-number varint (10 bytes covers any u64) plus the full/delta
  /// flag byte. Used to size pooled buffers so packing within the
  /// knowledge's capacity never reallocates.
  static constexpr std::size_t kHeaderBound = 11;

  /// Per-rank protocol state; mutated only by handlers on its own rank
  /// (and by reset_epoch, at a quiescent point).
  struct Slot {
    /// S^p and LOAD^p(); receives merge payloads into it from the wire.
    Knowledge knowledge;
    /// Serialized-payload pool for this rank's forwarding events, one
    /// slot per round, re-primed at reset_epoch to fit the knowledge.
    rt::SnapshotPool pool;
    /// Dedicated gossip RNG (see file comment, property 2).
    Rng rng;
    /// The epoch's fixed peer set (the random f-out overlay); every
    /// forwarding event fans out to exactly these ranks.
    std::vector<RankId> peers;
    std::uint64_t forwarded = 0; ///< bitmask of rounds already forwarded
    /// Version high-water mark of the last forwarding event.
    std::uint32_t hwm = 0;
    /// First forward of the epoch must ship a full snapshot.
    bool need_full = true;
  };

  /// One forwarding event: serialize once (full or delta), fan out f
  /// messages sharing the pooled buffer.
  void forward(rt::RankContext& ctx, int next_round);

  /// Delivery of one gossip message on the destination rank.
  void receive(rt::RankContext& ctx,
               rt::SnapshotPool::Lease const& snap,
               std::size_t bytes);

  std::vector<Slot> slots_;
  GossipWire wire_;
  int fanout_;
  int rounds_;
  std::size_t max_knowledge_; ///< 0 = unlimited (footnote-2 cap)
  obs::LbReportBuilder* report_; ///< optional introspection sink
};

} // namespace tlb::lb
