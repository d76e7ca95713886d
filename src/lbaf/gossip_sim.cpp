#include "lbaf/gossip_sim.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "runtime/serialize.hpp"
#include "support/assert.hpp"

namespace tlb::lbaf {

namespace {

/// One in-flight gossip message: the sender's knowledge snapshot plus the
/// round it will be processed at. The snapshot is shared across the f
/// messages of one forwarding event (they serialize the same bytes), which
/// bounds peak memory at large P — the pitfall the paper's footnote 2
/// flags for O(P) underloaded lists.
struct GossipMessage {
  RankId dest = invalid_rank;
  std::shared_ptr<lb::Knowledge const> payload;
  int round = 0;
  bool full = true; ///< full snapshot vs delta payload (GossipWire)
  /// Modeled wire size: what the distributed protocol packs (varint round
  /// + one flag byte + the entries encoding). Computed once per
  /// forwarding event; its f messages share it.
  std::size_t bytes = 0;
};

/// Draw `self`'s gossip peers for the epoch: min(fanout, P-1) distinct
/// ranks != self, uniform without replacement. Every forwarding event of
/// the epoch reuses this set (a random f-out overlay), which is what
/// makes the delta wire exactly equivalent to full resend: each peer
/// receives the sender's *entire* forward sequence, so the contiguous
/// deltas union to precisely the full-resend payloads edge by edge. The
/// paper's footnote-2 random-graph-connectivity argument bounds the
/// coverage cost of fixing the overlay (a random f-out digraph is an
/// expander; its giant out-component misses O(e^-f) of rank pairs).
void draw_peers(std::vector<RankId>& peers, RankId num_ranks, RankId self,
                int fanout, Rng& rng) {
  peers.clear();
  auto const want = static_cast<std::size_t>(
      std::min<RankId>(static_cast<RankId>(fanout), num_ranks - 1));
  while (peers.size() < want) {
    auto const r = static_cast<RankId>(
        rng.uniform_below(static_cast<std::uint64_t>(num_ranks)));
    if (r != self && std::find(peers.begin(), peers.end(), r) == peers.end()) {
      peers.push_back(r);
    }
  }
}

} // namespace

std::vector<lb::Knowledge>
run_gossip(std::vector<LoadType> const& rank_loads, LoadType l_ave, int fanout,
           int rounds, Rng& rng, GossipStats* stats,
           std::size_t max_knowledge, lb::GossipWire wire) {
  auto const num_ranks = static_cast<RankId>(rank_loads.size());
  TLB_EXPECTS(num_ranks > 0);
  TLB_EXPECTS(fanout > 0);
  TLB_EXPECTS(rounds >= 1);

  std::vector<lb::Knowledge> knowledge(rank_loads.size());
  // Bitmask of rounds each rank has already forwarded at (k <= 64).
  std::vector<std::uint64_t> forwarded(rank_loads.size(), 0);
  // Delta-wire bookkeeping: the version high-water mark of each rank's
  // last forwarding event, and whether its next forward must be a full
  // snapshot (first forward of the epoch, or truncation recovery).
  std::vector<std::uint32_t> hwm(rank_loads.size(), 0);
  std::vector<char> need_full(rank_loads.size(), 1);
  GossipStats local_stats;
  local_stats.per_round.resize(static_cast<std::size_t>(rounds) + 1);

  if (num_ranks == 1) {
    if (stats != nullptr) {
      *stats = local_stats;
    }
    return knowledge;
  }

  std::deque<GossipMessage> queue;

  // The epoch's gossip overlay: every rank's peer set is fixed up front
  // (drawn before any message flows, so RNG consumption is identical
  // under both wire modes and the message graph is knowledge-independent).
  std::vector<std::vector<RankId>> overlay(rank_loads.size());
  for (RankId p = 0; p < num_ranks; ++p) {
    draw_peers(overlay[static_cast<std::size_t>(p)], num_ranks, p, fanout,
               rng);
  }

  auto send_fanout = [&](RankId from, int next_round) {
    auto const fi = static_cast<std::size_t>(from);
    bool const truncated = knowledge[fi].take_truncated();
    bool const full = wire == lb::GossipWire::full || need_full[fi] != 0 ||
                      truncated;
    auto const snapshot =
        full ? std::make_shared<lb::Knowledge const>(knowledge[fi])
             : std::make_shared<lb::Knowledge const>(
                   knowledge[fi].delta_copy(hwm[fi]));
    hwm[fi] = knowledge[fi].version_mark();
    need_full[fi] = 0;
    std::size_t const bytes =
        rt::varint_size(static_cast<std::uint64_t>(next_round)) + 1 +
        snapshot->wire_bytes();
    for (RankId const dest : overlay[fi]) {
      queue.push_back(GossipMessage{dest, snapshot, next_round, full, bytes});
    }
  };

  // Algorithm 1, INFORM: underloaded ranks seed the epidemic.
  for (RankId p = 0; p < num_ranks; ++p) {
    auto const pi = static_cast<std::size_t>(p);
    if (rank_loads[pi] < l_ave) {
      knowledge[pi].insert(p, rank_loads[pi]);
      forwarded[pi] |= 1ull;
      send_fanout(p, 1);
    }
  }

  // Algorithm 1, INFORMHANDLER: FIFO drain emulates async delivery.
  while (!queue.empty()) {
    GossipMessage msg = std::move(queue.front());
    queue.pop_front();
    auto const pi = static_cast<std::size_t>(msg.dest);

    ++local_stats.messages;
    local_stats.full_messages += msg.full ? 1 : 0;
    local_stats.bytes += msg.bytes;
    local_stats.max_round_seen = std::max(
        local_stats.max_round_seen, static_cast<std::size_t>(msg.round));

    knowledge[pi].merge(*msg.payload);
    knowledge[pi].truncate_random(max_knowledge, rng);

    auto& round_stats = local_stats.per_round[static_cast<std::size_t>(
        std::min(msg.round, rounds))];
    std::size_t const k = knowledge[pi].size();
    round_stats.knowledge_min = round_stats.messages == 0
                                    ? k
                                    : std::min(round_stats.knowledge_min, k);
    round_stats.knowledge_max = std::max(round_stats.knowledge_max, k);
    round_stats.knowledge_sum += k;
    ++round_stats.messages;
    round_stats.full_messages += msg.full ? 1 : 0;
    round_stats.bytes += msg.bytes;

    if (msg.round < rounds) {
      std::uint64_t const bit = 1ull << msg.round;
      if ((forwarded[pi] & bit) == 0) {
        forwarded[pi] |= bit;
        send_fanout(msg.dest, msg.round + 1);
      }
    }
  }

  if (stats != nullptr) {
    *stats = local_stats;
  }
  return knowledge;
}

} // namespace tlb::lbaf
