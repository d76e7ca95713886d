#include "lbaf/gossip_sim.hpp"

#include <gtest/gtest.h>

namespace tlb::lbaf {
namespace {

TEST(GossipSim, UnderloadedRanksKnowThemselves) {
  std::vector<LoadType> const loads{0.0, 2.0, 0.5, 2.0};
  Rng rng{1};
  auto const knowledge = run_gossip(loads, 1.125, 2, 3, rng);
  EXPECT_TRUE(knowledge[0].contains(0));
  EXPECT_TRUE(knowledge[2].contains(2));
  EXPECT_DOUBLE_EQ(knowledge[0].load_of(0), 0.0);
  EXPECT_DOUBLE_EQ(knowledge[2].load_of(2), 0.5);
}

TEST(GossipSim, OverloadedRanksNeverEnterKnowledge) {
  std::vector<LoadType> const loads{0.0, 4.0, 0.0, 4.0};
  Rng rng{2};
  auto const knowledge = run_gossip(loads, 2.0, 3, 4, rng);
  for (auto const& k : knowledge) {
    EXPECT_FALSE(k.contains(1));
    EXPECT_FALSE(k.contains(3));
  }
}

TEST(GossipSim, NoUnderloadedMeansNoTraffic) {
  std::vector<LoadType> const loads{1.0, 1.0, 1.0};
  GossipStats stats;
  Rng rng{3};
  auto const knowledge = run_gossip(loads, 1.0, 4, 5, rng, &stats);
  EXPECT_EQ(stats.messages, 0u);
  for (auto const& k : knowledge) {
    EXPECT_TRUE(k.empty());
  }
}

TEST(GossipSim, SingleRankIsQuiet) {
  std::vector<LoadType> const loads{0.5};
  GossipStats stats;
  Rng rng{4};
  auto const knowledge = run_gossip(loads, 1.0, 4, 5, rng, &stats);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(knowledge.size(), 1u);
}

TEST(GossipSim, DeterministicGivenSeed) {
  std::vector<LoadType> loads;
  Rng gen{5};
  for (int i = 0; i < 64; ++i) {
    loads.push_back(gen.uniform(0.0, 2.0));
  }
  Rng r1{6};
  Rng r2{6};
  auto const a = run_gossip(loads, 1.0, 3, 4, r1);
  auto const b = run_gossip(loads, 1.0, 3, 4, r2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    auto const ea = a[i].entries();
    auto const eb = b[i].entries();
    for (std::size_t j = 0; j < ea.size(); ++j) {
      EXPECT_EQ(ea[j].rank, eb[j].rank);
      EXPECT_DOUBLE_EQ(ea[j].load, eb[j].load);
    }
  }
}

TEST(GossipSim, TrafficBoundedByPFK) {
  // Round-gated forwarding caps traffic at O(P * f * k).
  constexpr int p = 128;
  constexpr int f = 4;
  constexpr int k = 5;
  std::vector<LoadType> loads(p, 0.0);
  for (int i = 0; i < p / 2; ++i) {
    loads[static_cast<std::size_t>(i)] = 2.0;
  }
  GossipStats stats;
  Rng rng{7};
  (void)run_gossip(loads, 1.0, f, k, rng, &stats);
  EXPECT_LE(stats.messages,
            static_cast<std::size_t>(p) * f * k);
  EXPECT_GT(stats.messages, 0u);
  EXPECT_LE(stats.max_round_seen, static_cast<std::size_t>(k));
}

class GossipCoverage
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GossipCoverage, OverloadedRanksLearnMostUnderloaded) {
  // Overloaded ranks should know nearly all underloaded ranks with high
  // probability (the paper's §IV-B analysis). Peer sets are fixed per
  // epoch (the static f-out overlay behind the delta wire plane), so
  // saturation needs k a few rounds past the overlay's log_f(P) diameter
  // — entries travel one hop per round along fixed edges — rather than
  // the bare k >= log_f(P) that fresh-peers-per-forward mixing achieves.
  auto const [fanout, rounds] = GetParam();
  constexpr int p = 256;
  std::vector<LoadType> loads(p, 0.0);
  // Half the ranks overloaded, half underloaded.
  for (int i = 0; i < p; i += 2) {
    loads[static_cast<std::size_t>(i)] = 2.0;
  }
  Rng rng{11};
  auto const knowledge = run_gossip(loads, 1.0, fanout, rounds, rng);
  double coverage_sum = 0.0;
  int overloaded = 0;
  for (int i = 0; i < p; i += 2) {
    coverage_sum +=
        static_cast<double>(knowledge[static_cast<std::size_t>(i)].size()) /
        (p / 2.0);
    ++overloaded;
  }
  double const mean_coverage = coverage_sum / overloaded;
  EXPECT_GT(mean_coverage, 0.75)
      << "f=" << fanout << " k=" << rounds;
}

INSTANTIATE_TEST_SUITE_P(FanoutRounds, GossipCoverage,
                         ::testing::Values(std::tuple{4, 10},
                                           std::tuple{6, 8},
                                           std::tuple{8, 6}));

TEST(GossipSim, FewRoundsGiveOnlyPartialKnowledge) {
  constexpr int p = 512;
  std::vector<LoadType> loads(p, 0.0);
  for (int i = 0; i < p; i += 2) {
    loads[static_cast<std::size_t>(i)] = 2.0;
  }
  Rng rng{13};
  auto const partial = run_gossip(loads, 1.0, /*fanout=*/2, /*rounds=*/1, rng);
  double total = 0.0;
  for (int i = 0; i < p; i += 2) {
    total += static_cast<double>(partial[static_cast<std::size_t>(i)].size());
  }
  double const mean = total / (p / 2.0);
  EXPECT_LT(mean, p / 4.0); // nowhere near full knowledge after 1 round
}

TEST(GossipSimDeath, InformParametersAreCheckedByTheCore) {
  std::vector<LoadType> const loads{0.0, 2.0, 0.5, 2.0};
  Rng rng{1};
  EXPECT_DEATH((void)run_gossip(loads, 1.125, 0, 3, rng), "fanout >= 1");
  EXPECT_DEATH((void)run_gossip(loads, 1.125, -1, 3, rng), "fanout >= 1");
  EXPECT_DEATH((void)run_gossip(loads, 1.125, 2, 0, rng), "rounds >= 1");
  // 64 rounds would shift the forwarded-rounds bitmask by 64.
  EXPECT_DEATH((void)run_gossip(loads, 1.125, 2, 64, rng), "rounds <= 63");
  (void)run_gossip(loads, 1.125, 2, 63, rng); // the widest legal k
}

} // namespace
} // namespace tlb::lbaf
