#pragma once

/// \file lb_loop.hpp
/// The phase loop of the lb-hotspot and lb-chaos workloads: a drifting
/// hotspot scenario over a fixed task population held in an ObjectStore,
/// one balancer decision per phase. Each phase runs down one of two
/// paths that must do the same thing:
///
///   managed — LbManager::invoke (lb-hotspot) or
///             LbManager::invoke_if_beneficial (lb-chaos), as an
///             application would call it;
///   split   — the same steps called one by one (TriggerPolicy::decide,
///             Strategy::balance, ObjectStore::migrate,
///             TriggerPolicy::record_outcome), so the traced run can time
///             each layer from outside the program.
///
/// PhaseOutcome holds everything deterministic a phase produced; equal
/// seeds give equal outcomes on either path (checked by the traced run and
/// by tests/split_equivalence_test.cpp).

#include <array>
#include <cstdint>
#include <memory>

#include "fault/fault_plane.hpp"
#include "lb/strategy/lb_manager.hpp"
#include "obs/lb_report.hpp"
#include "policy/trigger_policy.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

struct LbLoopConfig {
  std::uint64_t seed = 1;
  tlb::RankId ranks = 1024;
  std::size_t tasks_per_rank = 16;
  std::size_t phases = 40;
  /// Install the chaos fault profile and let the costbenefit policy
  /// decide each phase (lb-chaos); otherwise balance every phase.
  bool chaos = false;
  tlb::lb::LbParams params;
};

/// The lb-hotspot / lb-chaos configuration for `seed`: TemperedLB with
/// 1 trial x 4 iterations (fanout 6, 5 rounds) at 1024 ranks x 16 tasks.
[[nodiscard]] LbLoopConfig lb_loop_config(std::uint64_t seed, bool chaos);

/// Cost model policy_sim charges for an invocation (fixed synchronization
/// term included); feeds sim_total_s and the costbenefit policy.
[[nodiscard]] tlb::lb::LbCostModel sim_cost_model();

using KindCounts = std::array<std::size_t, tlb::rt::num_message_kinds>;

/// Deterministic result of one phase.
struct PhaseOutcome {
  bool invoked = false;
  double makespan = 0.0; ///< max rank load the phase ran with (s)
  double imbalance_before = 0.0;
  /// What the strategy reports it achieved.
  double imbalance_after = 0.0;
  /// I of the placement the invocation left behind (set by the caller,
  /// outside the timed phase; see LbLoop::placed_imbalance).
  double imbalance_placed = 0.0;
  std::size_t migrations = 0;
  std::size_t migration_bytes = 0;
  std::size_t lb_messages = 0;
  std::size_t lb_bytes = 0;
  std::size_t failed_migrations = 0;
  std::size_t aborted_rounds = 0;
  /// Runtime counter deltas across the invocation (balance + migrate).
  KindCounts kind_messages{};
  KindCounts kind_bytes{};
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t delayed = 0;
  std::size_t retried = 0;

  friend bool operator==(PhaseOutcome const&, PhaseOutcome const&) = default;
};

/// Host seconds of one phase's calls. The split path fills every field;
/// the managed path fills phase_s, measure_s and invoke_s.
struct PhaseTimes {
  double phase_s = 0.0;   ///< the whole phase
  double measure_s = 0.0; ///< ScenarioWorkload::measure
  double policy_s = 0.0;  ///< TriggerPolicy::decide + record_outcome
  double balance_s = 0.0; ///< Strategy::balance
  double migrate_s = 0.0; ///< ObjectStore::migrate
  double invoke_s = 0.0;  ///< the balancer call(s), skipped phases 0
};

class LbLoop {
public:
  explicit LbLoop(LbLoopConfig config);
  ~LbLoop();
  LbLoop(LbLoop const&) = delete;
  LbLoop& operator=(LbLoop const&) = delete;

  /// Phase `phase` through LbManager.
  PhaseOutcome run_phase_managed(std::uint64_t phase, PhaseTimes& times);

  /// Phase `phase` through the split calls. When `report` is non-null an
  /// invoked phase also fills it with the strategy's introspection.
  PhaseOutcome run_phase_split(std::uint64_t phase, PhaseTimes& times,
                               tlb::obs::LbInvocationReport* report);

  /// Every task sits on exactly one rank and the directory agrees.
  [[nodiscard]] bool placement_ok() const;

  /// I of the current placement under `phase`'s loads, computed the way
  /// PhaseOutcome::imbalance_before is.
  [[nodiscard]] double placed_imbalance(std::uint64_t phase) const;

  /// The most recent phase's measured input (pre-migration).
  [[nodiscard]] tlb::lb::StrategyInput const& last_input() const {
    return input_;
  }
  [[nodiscard]] tlb::rt::ObjectStore const& store() const { return store_; }
  [[nodiscard]] tlb::rt::Runtime const& runtime() const { return runtime_; }

private:
  /// Measure the phase; returns its rank loads and fills the pre-decision
  /// fields of `out`.
  std::vector<double> measure(std::uint64_t phase, PhaseOutcome& out,
                              PhaseTimes& times);

  LbLoopConfig config_;
  std::unique_ptr<tlb::workload::Scenario> scenario_;
  tlb::workload::ScenarioWorkload workload_;
  tlb::rt::Runtime runtime_;
  std::unique_ptr<tlb::fault::FaultPlane> faults_;
  tlb::rt::ObjectStore store_;
  std::unique_ptr<tlb::policy::TriggerPolicy> policy_; ///< chaos only
  tlb::lb::LbManager manager_;
  std::unique_ptr<tlb::lb::Strategy> strategy_; ///< split path
  tlb::lb::StrategyInput input_;
};

} // namespace perfbench
