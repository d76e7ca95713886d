/// \file split_equivalence_test.cpp
/// The traced run times Strategy::balance and ObjectStore::migrate (and,
/// under lb-chaos, TriggerPolicy::decide/record_outcome) one by one,
/// where the untraced run calls LbManager. These tests pin that both
/// paths run the same program: equal seeds give equal migrations,
/// imbalance and message counts, phase by phase. They also pin that the
/// lbaf-e2 probe reproduces the experiment's first iteration.

#include <gtest/gtest.h>

#include <vector>

#include "lb_loop.hpp"
#include "lbaf/experiment.hpp"
#include "lbaf/workload.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

LbLoopConfig small_config(bool chaos) {
  LbLoopConfig config = lb_loop_config(7, chaos);
  config.ranks = 64;
  config.tasks_per_rank = 8;
  config.phases = chaos ? 60 : 12;
  return config;
}

void expect_same_program(bool chaos) {
  LbLoopConfig const config = small_config(chaos);
  LbLoop managed{config};
  LbLoop split{config};
  std::size_t invoked = 0;
  std::size_t migrations = 0;
  for (std::uint64_t phase = 0; phase < config.phases; ++phase) {
    PhaseTimes times;
    tlb::obs::LbInvocationReport report;
    PhaseOutcome const a = managed.run_phase_managed(phase, times);
    PhaseOutcome const b = split.run_phase_split(phase, times, &report);
    EXPECT_EQ(a, b) << "phase " << phase;
    EXPECT_TRUE(managed.placement_ok());
    EXPECT_TRUE(split.placement_ok());
    EXPECT_EQ(managed.placed_imbalance(phase), split.placed_imbalance(phase));
    invoked += a.invoked ? 1 : 0;
    migrations += a.migrations;
  }
  // The comparison means something only if the balancer ran and moved
  // tasks.
  EXPECT_GT(invoked, 0u);
  EXPECT_GT(migrations, 0u);
  if (chaos) {
    EXPECT_LT(invoked, config.phases);
  }
}

TEST(SplitEquivalence, HotspotSplitMatchesLbManagerInvoke) {
  expect_same_program(false);
}

TEST(SplitEquivalence, ChaosSplitMatchesInvokeIfBeneficial) {
  expect_same_program(true);
}

TEST(SplitEquivalence, LbafProbeReproducesIterationOne) {
  auto const instance =
      tlb::lbaf::make_bimodal(256, 4, 600, tlb::lbaf::BimodalSpec{}, 11);
  tlb::lb::LbParams params = tlb::lb::LbParams::tempered();
  params.order = tlb::lb::OrderKind::arbitrary;
  params.num_trials = 1;
  params.num_iterations = 1;
  params.seed = 11 ^ 0xabcdef;
  auto const result = tlb::lbaf::run_experiment(params, instance);
  ASSERT_EQ(result.records.size(), 1u);
  LbafProbe const probe = probe_lbaf_iteration(instance, params);
  EXPECT_EQ(probe.accepted, result.records[0].transfers);
  EXPECT_EQ(probe.rejected, result.records[0].rejected);
  EXPECT_EQ(probe.gossip_messages, result.records[0].gossip_messages);
  EXPECT_EQ(probe.gossip_bytes, result.records[0].gossip_bytes);
  EXPECT_GT(probe.accepted, 0u);
}

} // namespace
} // namespace perfbench
