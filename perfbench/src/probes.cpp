#include "probes.hpp"

#include <algorithm>
#include <memory>

#include "harness.hpp"
#include "lb/strategy/inform_plane.hpp"
#include "lb/transfer.hpp"
#include "lbaf/assignment.hpp"
#include "lbaf/gossip_sim.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using namespace tlb;

namespace {
/// Keeps the probe loops' results observable.
volatile std::int64_t probe_sink = 0;
} // namespace

ObjectStoreProbe probe_object_store(RankId ranks,
                                    std::vector<RankId> const& owner_of_task) {
  constexpr double budget_s = 0.2;
  rt::ObjectStore store{ranks};
  for (std::size_t i = 0; i < owner_of_task.size(); ++i) {
    store.create(owner_of_task[i], static_cast<TaskId>(i),
                 std::make_unique<workload::TaskPayload>(64));
  }
  auto const n = static_cast<TaskId>(owner_of_task.size());
  double owner_s = 0.0;
  double find_s = 0.0;
  std::size_t passes = 0;
  std::int64_t checksum = 0;
  auto const start = Clock::now();
  do {
    owner_s += timed([&] {
      for (TaskId id = 0; id < n; ++id) {
        checksum += store.owner(id);
      }
    });
    find_s += timed([&] {
      for (TaskId id = 0; id < n; ++id) {
        checksum += store.find(store.owner(id), id) != nullptr ? 1 : 0;
      }
    });
    ++passes;
  } while (seconds_since(start) < budget_s);
  probe_sink = checksum;
  double const calls = static_cast<double>(passes) * static_cast<double>(n);
  return {1e9 * owner_s / calls, 1e9 * find_s / calls};
}

BalancerProbe probe_balancer(lb::StrategyInput const& input,
                             lb::LbParams const& params,
                             std::uint64_t runtime_seed) {
  auto const loads = input.rank_loads();
  RankId const p = input.num_ranks();
  double total = 0.0;
  for (double const l : loads) {
    total += l;
  }
  double const l_ave = total / static_cast<double>(p);

  rt::RuntimeConfig rc;
  rc.num_ranks = p;
  rc.num_threads = 1;
  rc.seed = runtime_seed;
  rt::Runtime runtime{rc};
  auto plane = std::make_shared<lb::InformPlane>(
      p, params.seed, params.gossip_wire, params.fanout, params.rounds,
      static_cast<std::size_t>(std::max(0, params.max_knowledge)), nullptr);
  auto const* load_of = &loads;

  BalancerProbe out;
  out.inform_s = timed([&] {
    plane->reset_epoch();
    runtime.post_all([plane, load_of, l_ave](rt::RankContext& ctx) {
      double const load = (*load_of)[static_cast<std::size_t>(ctx.rank())];
      if (load < l_ave) {
        plane->seed_and_forward(ctx, load);
      }
    });
    runtime.run_until_quiescent();
  });

  std::size_t overloaded = 0;
  std::size_t known = 0;
  Rng const root{runtime_seed};
  out.transfer_s = timed([&] {
    for (RankId r = 0; r < p; ++r) {
      double const l_p = loads[static_cast<std::size_t>(r)];
      if (l_p <= params.threshold * l_ave) {
        continue;
      }
      ++overloaded;
      lb::Knowledge& knowledge = plane->knowledge_of(r);
      known += knowledge.size();
      Rng rng = root.split(static_cast<std::uint64_t>(r));
      auto const transfer =
          lb::run_transfer(params, r, input.tasks[static_cast<std::size_t>(r)],
                           l_p, l_ave, knowledge, rng);
      (void)transfer;
    }
  });
  if (overloaded > 0) {
    out.knowledge_avg =
        static_cast<double>(known) / static_cast<double>(overloaded);
  }
  return out;
}

LbafProbe probe_lbaf_iteration(lbaf::Workload const& workload,
                               lb::LbParams const& params) {
  lbaf::Assignment const working{workload};
  double const l_ave = working.average_load();
  std::vector<LoadType> const loads(working.rank_loads().begin(),
                                    working.rank_loads().end());
  // run_experiment's streams for trial 0, iteration 1.
  Rng const iter_rng = Rng{params.seed}.split(0).split(1);
  Rng gossip_rng = iter_rng.split(0);

  LbafProbe out;
  lbaf::GossipStats stats;
  std::vector<lb::Knowledge> knowledge;
  out.gossip_s = timed([&] {
    knowledge = lbaf::run_gossip(
        loads, l_ave, params.fanout, params.rounds, gossip_rng, &stats,
        static_cast<std::size_t>(std::max(0, params.max_knowledge)),
        params.gossip_wire);
  });
  out.gossip_messages = stats.messages;
  out.gossip_bytes = stats.bytes;

  std::size_t overloaded = 0;
  std::size_t known = 0;
  out.transfer_s = timed([&] {
    for (RankId p = 0; p < working.num_ranks(); ++p) {
      LoadType const l_p = working.load_of_rank(p);
      if (l_p <= params.threshold * l_ave) {
        continue;
      }
      ++overloaded;
      auto& rank_knowledge = knowledge[static_cast<std::size_t>(p)];
      known += rank_knowledge.size();
      Rng rank_rng = iter_rng.split(static_cast<std::uint64_t>(p) + 1);
      auto const transfer =
          lb::run_transfer(params, p, working.tasks_of(p), l_p, l_ave,
                           rank_knowledge, rank_rng);
      out.accepted += transfer.accepted;
      out.rejected += transfer.rejected;
    }
  });
  if (overloaded > 0) {
    out.knowledge_avg =
        static_cast<double>(known) / static_cast<double>(overloaded);
  }
  return out;
}

} // namespace perfbench
