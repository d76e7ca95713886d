#include "lb/strategy/gossip_strategy.hpp"

#include <gtest/gtest.h>

#include <map>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace tlb::lb {
namespace {

rt::RuntimeConfig config(RankId ranks, int threads = 1,
                         std::uint64_t seed = 1234) {
  rt::RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  cfg.seed = seed;
  return cfg;
}

/// Clustered input: all tasks on the first `loaded` ranks.
StrategyInput clustered_input(RankId ranks, RankId loaded,
                              std::size_t tasks_per_loaded,
                              std::uint64_t seed = 7) {
  StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(ranks));
  Rng rng{seed};
  TaskId id = 0;
  for (RankId r = 0; r < loaded; ++r) {
    for (std::size_t i = 0; i < tasks_per_loaded; ++i) {
      input.tasks[static_cast<std::size_t>(r)].push_back(
          {id++, rng.uniform(0.5, 1.5)});
    }
  }
  return input;
}

void check_migrations_consistent(StrategyInput const& input,
                                 StrategyResult const& result) {
  // Each migration's `from` must match the task's actual rank; no task
  // migrates twice.
  std::map<TaskId, RankId> home;
  for (std::size_t r = 0; r < input.tasks.size(); ++r) {
    for (TaskEntry const& t : input.tasks[r]) {
      home[t.id] = static_cast<RankId>(r);
    }
  }
  std::map<TaskId, int> seen;
  for (Migration const& m : result.migrations) {
    ASSERT_TRUE(home.count(m.task));
    EXPECT_EQ(home[m.task], m.from);
    EXPECT_NE(m.from, m.to);
    EXPECT_EQ(++seen[m.task], 1);
  }
  // Projected loads must conserve total load.
  double input_total = 0.0;
  for (auto const& tasks : input.tasks) {
    for (auto const& t : tasks) {
      input_total += t.load;
    }
  }
  double projected_total = 0.0;
  for (double const l : result.new_rank_loads) {
    projected_total += l;
  }
  EXPECT_NEAR(projected_total, input_total, 1e-6);
}

TEST(TemperedLB, ReducesImbalanceDramatically) {
  rt::Runtime rt{config(64)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  auto const input = clustered_input(64, 4, 50);
  double const before = imbalance(input.rank_loads());
  auto params = LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 4;
  params.rounds = 6;
  auto const result = strategy.balance(rt, input, params);
  EXPECT_GT(before, 10.0);
  EXPECT_LT(result.achieved_imbalance, 1.0);
  check_migrations_consistent(input, result);
}

TEST(TemperedLB, NeverWorseThanInitial) {
  rt::Runtime rt{config(32)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  auto const input = clustered_input(32, 32, 4, 11); // already spread
  double const before = imbalance(input.rank_loads());
  auto params = LbParams::tempered();
  params.num_trials = 1;
  params.num_iterations = 2;
  params.rounds = 5;
  auto const result = strategy.balance(rt, input, params);
  EXPECT_LE(result.achieved_imbalance, before + 1e-9);
  check_migrations_consistent(input, result);
}

TEST(TemperedLBDeath, InformParametersAreCheckedByTheCore) {
  // fanout 0 once ran an inform stage that informed nobody, and a
  // negative fanout threw std::length_error from a reserve.
  auto const input = clustered_input(16, 2, 10);
  for (int const fanout : {0, -1}) {
    rt::Runtime rt{config(16)};
    GossipStrategy strategy{GossipStrategy::Flavor::tempered};
    auto params = LbParams::tempered();
    params.fanout = fanout;
    EXPECT_DEATH((void)strategy.balance(rt, input, params), "fanout >= 1");
  }
  rt::Runtime rt{config(16)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  auto params = LbParams::tempered();
  params.rounds = 64;
  EXPECT_DEATH((void)strategy.balance(rt, input, params), "rounds <= 63");
}

TEST(TemperedLB, EmptySystemNoMigrations) {
  rt::Runtime rt{config(8)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  StrategyInput input;
  input.tasks.resize(8);
  auto const result = strategy.balance(rt, input, LbParams::tempered());
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_DOUBLE_EQ(result.achieved_imbalance, 0.0);
}

TEST(TemperedLB, AlreadyBalancedProposesLittle) {
  rt::Runtime rt{config(16)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  StrategyInput input;
  input.tasks.resize(16);
  TaskId id = 0;
  for (auto& tasks : input.tasks) {
    tasks.push_back({id++, 1.0}); // perfect balance
  }
  auto params = LbParams::tempered();
  params.num_trials = 1;
  params.num_iterations = 2;
  auto const result = strategy.balance(rt, input, params);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_NEAR(result.achieved_imbalance, 0.0, 1e-12);
}

TEST(TemperedLB, AchievedImbalanceMatchesProjectedLoads) {
  rt::Runtime rt{config(48)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  auto const input = clustered_input(48, 3, 40, 23);
  auto params = LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 3;
  params.rounds = 6;
  auto const result = strategy.balance(rt, input, params);
  EXPECT_NEAR(result.achieved_imbalance, imbalance(result.new_rank_loads),
              1e-9);
}

TEST(TemperedLB, DeterministicOnSequentialDriver) {
  auto run_once = [] {
    rt::Runtime rt{config(32, 1, 99)};
    GossipStrategy strategy{GossipStrategy::Flavor::tempered};
    auto const input = clustered_input(32, 2, 30, 5);
    auto params = LbParams::tempered();
    params.num_trials = 2;
    params.num_iterations = 3;
    params.rounds = 5;
    return strategy.balance(rt, input, params);
  };
  auto const a = run_once();
  auto const b = run_once();
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.achieved_imbalance, b.achieved_imbalance);
}

TEST(TemperedLB, CostAccountingPopulated) {
  rt::Runtime rt{config(32)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  auto const input = clustered_input(32, 2, 30, 9);
  auto params = LbParams::tempered();
  params.num_trials = 1;
  params.num_iterations = 2;
  params.rounds = 5;
  auto const result = strategy.balance(rt, input, params);
  EXPECT_GT(result.cost.lb_messages, 0u);
  EXPECT_GT(result.cost.lb_bytes, 0u);
  EXPECT_EQ(result.cost.migration_count, result.migrations.size());
  double load = 0.0;
  for (auto const& m : result.migrations) {
    load += m.load;
  }
  EXPECT_NEAR(result.cost.migrated_load, load, 1e-9);
}

/// Bimodal input in the §V-B regime: the heavy population exceeds l_ave,
/// so GrapevineLB's original criterion cannot move it while TemperedLB's
/// relaxed criterion can.
StrategyInput bimodal_input(RankId ranks, RankId loaded,
                            std::size_t per_rank, std::uint64_t seed) {
  StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(ranks));
  Rng rng{seed};
  TaskId id = 0;
  for (RankId r = 0; r < loaded; ++r) {
    for (std::size_t i = 0; i < per_rank; ++i) {
      double const load = rng.uniform() < 0.3 ? rng.uniform(4.0, 6.0)
                                              : rng.uniform(0.2, 0.6);
      input.tasks[static_cast<std::size_t>(r)].push_back({id++, load});
    }
  }
  return input;
}

TEST(GrapevineLB, ImprovesButLessThanTempered) {
  auto const input = bimodal_input(128, 4, 50, 31);
  double const before = imbalance(input.rank_loads());

  rt::Runtime rt1{config(128)};
  GossipStrategy grapevine{GossipStrategy::Flavor::grapevine};
  auto params = LbParams::tempered();
  params.rounds = 6;
  auto const gv = grapevine.balance(rt1, input, params);

  rt::Runtime rt2{config(128)};
  GossipStrategy tempered{GossipStrategy::Flavor::tempered};
  auto tp = params;
  tp.num_trials = 2;
  tp.num_iterations = 4;
  auto const tl = tempered.balance(rt2, input, tp);

  EXPECT_LT(gv.achieved_imbalance, before);      // grapevine does improve
  EXPECT_LT(tl.achieved_imbalance,
            0.5 * gv.achieved_imbalance);        // tempered wins clearly
  check_migrations_consistent(input, gv);
  check_migrations_consistent(input, tl);
}

TEST(GossipLB, ThreadedDriverProducesValidResult) {
  rt::Runtime rt{config(32, 4)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  auto const input = clustered_input(32, 2, 40, 13);
  double const before = imbalance(input.rank_loads());
  auto params = LbParams::tempered();
  params.num_trials = 1;
  params.num_iterations = 3;
  params.rounds = 5;
  auto const result = strategy.balance(rt, input, params);
  EXPECT_LT(result.achieved_imbalance, before);
  check_migrations_consistent(input, result);
}

TEST(TemperedFastLB, MatchesTemperedDecisionForDecision) {
  // The incremental-CMF flavor runs the same protocol over the same rng
  // streams; with an identical runtime seed it must reproduce the
  // reference flavor's migrations exactly (a sampling divergence would
  // mean the Fenwick path drew a different recipient).
  auto const input = clustered_input(48, 3, 40, 23);
  auto params = LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 3;
  params.rounds = 6;

  rt::Runtime rt1{config(48)};
  GossipStrategy reference{GossipStrategy::Flavor::tempered};
  auto const a = reference.balance(rt1, input, params);

  rt::Runtime rt2{config(48)};
  GossipStrategy fast{GossipStrategy::Flavor::tempered_fast};
  auto const b = fast.balance(rt2, input, params);

  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.achieved_imbalance, b.achieved_imbalance);
  EXPECT_EQ(a.cost.migration_count, b.cost.migration_count);
  check_migrations_consistent(input, b);
}

class OrderingSweep : public ::testing::TestWithParam<OrderKind> {};

TEST_P(OrderingSweep, AllOrderingsProduceValidImprovingResults) {
  rt::Runtime rt{config(48)};
  GossipStrategy strategy{GossipStrategy::Flavor::tempered};
  auto const input = clustered_input(48, 4, 30, 17);
  double const before = imbalance(input.rank_loads());
  auto params = LbParams::tempered();
  params.order = GetParam();
  params.num_trials = 2;
  params.num_iterations = 3;
  params.rounds = 6;
  auto const result = strategy.balance(rt, input, params);
  EXPECT_LT(result.achieved_imbalance, 0.3 * before);
  check_migrations_consistent(input, result);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, OrderingSweep,
    ::testing::Values(OrderKind::arbitrary, OrderKind::load_intensive,
                      OrderKind::fewest_migrations, OrderKind::lightest));

} // namespace
} // namespace tlb::lb
