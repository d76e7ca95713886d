#pragma once

/// \file probes.hpp
/// Layer probes of the traced run: each times one module's public calls
/// on a workload's own data, outside the workload's end-to-end timing.

#include <cstdint>
#include <vector>

#include "lb/lb_types.hpp"
#include "lb/strategy/strategy.hpp"
#include "lbaf/workload.hpp"
#include "support/types.hpp"

namespace perfbench {

struct ObjectStoreProbe {
  double owner_ns = 0.0; ///< ObjectStore::owner, per call
  double find_ns = 0.0;  ///< ObjectStore::find(owner(id), id), per call
};

/// Build a store of `ranks` ranks holding task i on `owner_of_task[i]`
/// and time owner/find over every task in id order, repeated for about
/// 0.2 s.
[[nodiscard]] ObjectStoreProbe
probe_object_store(tlb::RankId ranks,
                   std::vector<tlb::RankId> const& owner_of_task);

struct BalancerProbe {
  double inform_s = 0.0;   ///< one InformPlane epoch on a fresh runtime
  double transfer_s = 0.0; ///< run_transfer on every overloaded rank
  double knowledge_avg = 0.0; ///< mean |S^p| over the overloaded ranks
};

/// One inform epoch and one transfer pass of `params` over `input`, the
/// way the distributed strategy runs its first iteration.
[[nodiscard]] BalancerProbe probe_balancer(tlb::lb::StrategyInput const& input,
                                           tlb::lb::LbParams const& params,
                                           std::uint64_t runtime_seed);

struct LbafProbe {
  double gossip_s = 0.0;   ///< lbaf::run_gossip
  double transfer_s = 0.0; ///< run_transfer on every overloaded rank
  double knowledge_avg = 0.0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t gossip_messages = 0;
  std::size_t gossip_bytes = 0;
};

/// Iteration 1 of trial 0 of lbaf::run_experiment, split into its inform
/// and transfer calls with the experiment's own random streams, so its
/// counts equal the experiment's first IterationRecord.
[[nodiscard]] LbafProbe probe_lbaf_iteration(tlb::lbaf::Workload const& workload,
                                             tlb::lb::LbParams const& params);

} // namespace perfbench
