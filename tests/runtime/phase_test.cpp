#include "runtime/phase.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlb::rt {
namespace {

TEST(Phase, StartsAtZero) {
  PhaseInstrumentation inst{2};
  EXPECT_EQ(inst.phase(), 0u);
  EXPECT_TRUE(inst.previous_tasks(0).empty());
}

TEST(Phase, RecordAccumulatesPerTask) {
  PhaseInstrumentation inst{2};
  inst.record(0, 10, 1.5);
  inst.record(0, 10, 0.5); // same task, accumulates
  inst.record(0, 11, 2.0);
  auto const tasks = inst.current_tasks(0);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].id, 10);
  EXPECT_DOUBLE_EQ(tasks[0].load, 2.0);
  EXPECT_EQ(tasks[1].id, 11);
  EXPECT_DOUBLE_EQ(tasks[1].load, 2.0);
}

TEST(Phase, StartPhaseArchivesCurrentAsPrevious) {
  PhaseInstrumentation inst{2};
  inst.record(0, 1, 3.0);
  inst.record(1, 2, 4.0);
  inst.start_phase();
  EXPECT_EQ(inst.phase(), 1u);
  EXPECT_TRUE(inst.current_tasks(0).empty());
  auto const prev0 = inst.previous_tasks(0);
  ASSERT_EQ(prev0.size(), 1u);
  EXPECT_DOUBLE_EQ(prev0[0].load, 3.0);
  auto const loads = inst.previous_rank_loads();
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_DOUBLE_EQ(loads[0], 3.0);
  EXPECT_DOUBLE_EQ(loads[1], 4.0);
}

TEST(Phase, TwoPhaseHistoryWindow) {
  PhaseInstrumentation inst{1};
  inst.record(0, 1, 1.0);
  inst.start_phase(); // phase 1: previous has load 1.0
  inst.record(0, 1, 9.0);
  inst.start_phase(); // phase 2: previous has load 9.0
  auto const prev = inst.previous_tasks(0);
  ASSERT_EQ(prev.size(), 1u);
  EXPECT_DOUBLE_EQ(prev[0].load, 9.0);
}

TEST(Phase, TaskDisappearsWhenNotRecorded) {
  PhaseInstrumentation inst{1};
  inst.record(0, 1, 1.0);
  inst.record(0, 2, 2.0);
  inst.start_phase();
  inst.record(0, 1, 1.0); // task 2 idle this phase
  inst.start_phase();
  auto const prev = inst.previous_tasks(0);
  ASSERT_EQ(prev.size(), 1u);
  EXPECT_EQ(prev[0].id, 1);
}

TEST(Phase, OutOfOrderRecordsComeBackSortedAndAccumulated) {
  PhaseInstrumentation inst{2};
  inst.record(0, 9, 1.0);
  inst.record(0, 2, 0.5);
  inst.record(0, 5, 2.0);
  inst.record(0, 2, 0.25); // accumulates into an entry not at the back
  inst.record(0, 1, 4.0);  // inserts at the front
  inst.record(0, 9, 3.0);  // accumulates into the back entry
  inst.record(1, 3, 7.0);
  std::vector<lb::TaskEntry> const want{
      {1, 4.0}, {2, 0.75}, {5, 2.0}, {9, 4.0}};
  EXPECT_EQ(inst.current_tasks(0), want);
  inst.start_phase();
  EXPECT_EQ(inst.previous_tasks(0), want);
  EXPECT_EQ(inst.previous_tasks(1), (std::vector<lb::TaskEntry>{{3, 7.0}}));
  auto const loads = inst.previous_rank_loads();
  EXPECT_EQ(loads[0], 4.0 + 0.75 + 2.0 + 4.0);
  EXPECT_EQ(loads[1], 7.0);
}

TEST(Phase, RepeatedCyclesKeepExactTwoPhaseHistory) {
  // Each phase records a different task set, out of order, so stale
  // entries from two phases back would show up in `previous`.
  PhaseInstrumentation inst{2};
  std::vector<lb::TaskEntry> recorded;
  for (int phase = 0; phase < 5; ++phase) {
    std::vector<lb::TaskEntry> want;
    for (TaskId id = 10 - phase; id >= phase; id -= 2) {
      auto const load = static_cast<LoadType>(phase * 100 + id);
      inst.record(0, id, load);
      want.insert(want.begin(), {id, load});
    }
    EXPECT_EQ(inst.current_tasks(0), want);
    if (phase > 0) {
      EXPECT_EQ(inst.previous_tasks(0), recorded);
    }
    EXPECT_TRUE(inst.current_tasks(1).empty());
    inst.start_phase();
    EXPECT_EQ(inst.phase(), static_cast<std::size_t>(phase + 1));
    EXPECT_TRUE(inst.current_tasks(0).empty());
    EXPECT_EQ(inst.previous_tasks(0), want);
    recorded = want;
  }
}

TEST(PhaseDeath, NegativeLoadAborts) {
  PhaseInstrumentation inst{1};
  EXPECT_DEATH(inst.record(0, 1, -1.0), "precondition");
}

TEST(PhaseDeath, BadRankAborts) {
  PhaseInstrumentation inst{1};
  EXPECT_DEATH(inst.record(3, 1, 1.0), "precondition");
}

} // namespace
} // namespace tlb::rt
