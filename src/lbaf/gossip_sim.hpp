#pragma once

/// \file gossip_sim.hpp
/// Sequential emulation of the inform/gossip stage (Algorithm 1): a FIFO
/// driver over lb::InformCore, the protocol state machine and wire codec
/// the runtime's InformPlane also drives, so the emulation ships and
/// decodes the same bytes as the distributed protocol. Messages are
/// processed from a FIFO queue, which reproduces the unsynchronized,
/// causally-ordered delivery of the asynchronous implementation without
/// threads. One Rng serves the epoch: every rank's peer draw first, in
/// rank order, then the footnote-2 truncations in delivery order.
///
/// Forwarding is gated per (rank, round): a rank forwards at most once for
/// each round index it observes. The paper's pseudocode re-forwards on
/// every received message, which is exponential in k; the production vt
/// implementation (and the LBAF tool) gate per round, bounding traffic at
/// O(P * f * k) messages. We follow the implementations.
///
/// Peer selection is per *epoch*, not per forwarding event: each rank
/// draws f distinct peers up front and every one of its forwards fans out
/// to that same set (a random f-out overlay). Fixing the overlay is what
/// makes the delta wire (GossipWire::delta) exactly equivalent to full
/// resend — each peer sees the sender's whole forward sequence, so the
/// contiguous deltas union to the full-resend payloads edge by edge — at
/// a coverage cost bounded by the paper's own footnote-2 random-graph
/// connectivity argument (see DESIGN.md "Gossip wire plane").

#include <cstdint>
#include <vector>

#include "lb/knowledge.hpp"
#include "lb/lb_types.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tlb::lbaf {

/// Per-round-index traffic/propagation statistics within one epoch.
struct GossipRoundStats {
  std::size_t messages = 0;      ///< deliveries processed at this round
  std::size_t full_messages = 0; ///< of those, full-snapshot payloads
  std::size_t bytes = 0;         ///< wire bytes of those messages
  std::size_t knowledge_min = 0; ///< smallest post-merge knowledge size
  std::size_t knowledge_max = 0; ///< largest post-merge knowledge size
  std::size_t knowledge_sum = 0; ///< sum of post-merge knowledge sizes
};

/// Traffic statistics from one gossip epoch.
struct GossipStats {
  std::size_t messages = 0;       ///< total gossip messages delivered
  std::size_t full_messages = 0;  ///< full-snapshot payloads (rest deltas)
  std::size_t bytes = 0;          ///< total wire bytes (headers included)
  std::size_t max_round_seen = 0; ///< deepest round that fired
  /// Indexed by round (entry 0 unused: deliveries start at round 1).
  /// Sized rounds + 1; rounds that never fired stay all-zero.
  std::vector<GossipRoundStats> per_round;
};

/// Run one inform epoch.
/// \param rank_loads  Current load of every rank (index == rank id).
/// \param l_ave       Global average load (constant for the epoch).
/// \param fanout      f, messages sent per forwarding event.
/// \param rounds      k, maximum round index.
/// \param rng         Peer-selection stream (deterministic).
/// \param[out] stats  Optional traffic statistics.
/// \param max_knowledge  Cap on per-rank knowledge entries (a random
///                    subset kept); 0 = unlimited. Bounds message sizes
///                    at O(cap) instead of O(P) (paper footnote 2).
/// \param wire        Payload encoding per forwarding event: full resend
///                    or versioned deltas with full-snapshot recovery
///                    (see lb::GossipWire and DESIGN.md "Gossip wire
///                    plane"). Bytes are the packed message's size:
///                    varint round + flag byte + entries.
/// \return Per-rank knowledge (LOAD^p()) after quiescence.
[[nodiscard]] std::vector<lb::Knowledge>
run_gossip(std::vector<LoadType> const& rank_loads, LoadType l_ave, int fanout,
           int rounds, Rng& rng, GossipStats* stats = nullptr,
           std::size_t max_knowledge = 0,
           lb::GossipWire wire = lb::GossipWire::full);

} // namespace tlb::lbaf
