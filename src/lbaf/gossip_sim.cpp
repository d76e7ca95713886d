#include "lbaf/gossip_sim.hpp"

#include <algorithm>
#include <deque>

#include "lb/strategy/inform_plane.hpp"

namespace tlb::lbaf {

namespace {

/// One in-flight gossip message: the destination and the sender's pooled
/// wire bytes, which the f messages of one forwarding event share.
struct GossipMessage {
  RankId dest = invalid_rank;
  rt::SnapshotPool::Lease snap;
};

} // namespace

std::vector<lb::Knowledge>
run_gossip(std::vector<LoadType> const& rank_loads, LoadType l_ave, int fanout,
           int rounds, Rng& rng, GossipStats* stats,
           std::size_t max_knowledge, lb::GossipWire wire) {
  auto const num_ranks = static_cast<RankId>(rank_loads.size());
  lb::InformCore core{num_ranks, wire, fanout, rounds, max_knowledge};
  GossipStats local_stats;
  local_stats.per_round.resize(static_cast<std::size_t>(rounds) + 1);

  if (num_ranks == 1) {
    if (stats != nullptr) {
      *stats = local_stats;
    }
    return core.take_knowledge();
  }

  // The epoch's gossip overlay: every rank's peer set is fixed up front
  // (drawn before any message flows, so RNG consumption is identical
  // under both wire modes and the message graph is knowledge-independent).
  for (RankId p = 0; p < num_ranks; ++p) {
    core.reset(p, rng);
  }

  std::deque<GossipMessage> queue;
  auto send = [&](RankId from, rt::SnapshotPool::Lease const& snap) {
    for (RankId const dest : core.peers(from)) {
      queue.push_back(GossipMessage{dest, snap});
    }
  };

  // Algorithm 1, INFORM: underloaded ranks seed the epidemic.
  for (RankId p = 0; p < num_ranks; ++p) {
    auto const load = rank_loads[static_cast<std::size_t>(p)];
    if (load < l_ave) {
      send(p, core.seed(p, load));
    }
  }

  // Algorithm 1, INFORMHANDLER: FIFO drain emulates async delivery.
  while (!queue.empty()) {
    GossipMessage const msg = std::move(queue.front());
    queue.pop_front();
    auto const d = core.receive(msg.dest, msg.snap->bytes, rng);
    std::size_t const bytes = msg.snap->bytes.size();

    ++local_stats.messages;
    local_stats.full_messages += d.full ? 1 : 0;
    local_stats.bytes += bytes;
    local_stats.max_round_seen = std::max(local_stats.max_round_seen,
                                          static_cast<std::size_t>(d.round));
    auto& round_stats =
        local_stats.per_round[static_cast<std::size_t>(d.round)];
    std::size_t const k = core.knowledge(msg.dest).size();
    round_stats.knowledge_min = round_stats.messages == 0
                                    ? k
                                    : std::min(round_stats.knowledge_min, k);
    round_stats.knowledge_max = std::max(round_stats.knowledge_max, k);
    round_stats.knowledge_sum += k;
    ++round_stats.messages;
    round_stats.full_messages += d.full ? 1 : 0;
    round_stats.bytes += bytes;

    if (d.forward) {
      send(msg.dest, core.forward(msg.dest, d.round + 1));
    }
  }

  if (stats != nullptr) {
    *stats = local_stats;
  }
  return core.take_knowledge();
}

} // namespace tlb::lbaf
