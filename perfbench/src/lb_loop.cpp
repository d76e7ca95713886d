#include "lb_loop.hpp"

#include <algorithm>
#include <vector>

#include "harness.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workload/policy_sim.hpp"

namespace perfbench {

using namespace tlb;

LbLoopConfig lb_loop_config(std::uint64_t seed, bool chaos) {
  LbLoopConfig config;
  config.seed = seed;
  config.chaos = chaos;
  // Most lb-chaos phases are skipped; a longer loop gives the policy
  // enough decisions that its invocation count settles.
  config.phases = chaos ? 300 : 40;
  config.params = lb::LbParams::tempered();
  config.params.num_trials = 1;
  config.params.num_iterations = 4;
  config.params.rounds = 5;
  config.params.seed = derive_seed(seed, workload::kLbSeedStreamTag);
  return config;
}

lb::LbCostModel sim_cost_model() { return workload::SimConfig{}.cost_model; }

namespace {

/// policy_sim's task shape: 1 ms mean weight, 4 KiB payload.
constexpr double kBaseLoad = workload::SimConfig{}.base_load;
constexpr std::size_t kPayloadBytes = workload::SimConfig{}.payload_bytes;

std::unique_ptr<workload::Scenario> make_hotspot(LbLoopConfig const& config) {
  workload::ScenarioSpec spec;
  spec.name = "hotspot";
  spec.num_ranks = config.ranks;
  spec.phases = config.phases;
  spec.seed = config.seed;
  return workload::make_scenario(spec);
}

rt::RuntimeConfig runtime_config(LbLoopConfig const& config) {
  rt::RuntimeConfig rc;
  rc.num_ranks = config.ranks;
  rc.num_threads = 1;
  rc.seed = config.seed;
  return rc;
}

/// Fill the invocation's counter deltas into `out`.
void record_traffic(rt::NetworkStatsSnapshot const& before,
                    rt::NetworkStatsSnapshot const& after, PhaseOutcome& out) {
  for (std::size_t k = 0; k < rt::num_message_kinds; ++k) {
    out.kind_messages[k] = after.kind_messages[k] - before.kind_messages[k];
    out.kind_bytes[k] = after.kind_bytes[k] - before.kind_bytes[k];
    out.dropped += after.kind_dropped[k] - before.kind_dropped[k];
    out.duplicated += after.kind_duplicated[k] - before.kind_duplicated[k];
    out.delayed += after.kind_delayed[k] - before.kind_delayed[k];
    out.retried += after.kind_retried[k] - before.kind_retried[k];
  }
}

} // namespace

LbLoop::LbLoop(LbLoopConfig config)
    : config_{std::move(config)}, scenario_{make_hotspot(config_)},
      workload_{*scenario_, config_.tasks_per_rank, config_.seed, kBaseLoad},
      runtime_{runtime_config(config_)}, store_{config_.ranks},
      manager_{runtime_, "tempered", config_.params},
      strategy_{lb::make_strategy("tempered")} {
  if (config_.chaos) {
    faults_ =
        fault::install_fault_plane(runtime_, fault::FaultConfig::chaos());
    policy_ = policy::make_policy("costbenefit");
  }
  workload_.populate(store_, kPayloadBytes);
}

LbLoop::~LbLoop() { runtime_.set_fault_hook(nullptr); }

std::vector<double> LbLoop::measure(std::uint64_t phase, PhaseOutcome& out,
                                    PhaseTimes& times) {
  times.measure_s = timed([&] { input_ = workload_.measure(phase, store_); });
  auto loads = input_.rank_loads();
  out.makespan = *std::max_element(loads.begin(), loads.end());
  out.imbalance_before = imbalance(loads);
  out.imbalance_after = out.imbalance_before;
  return loads;
}

PhaseOutcome LbLoop::run_phase_managed(std::uint64_t phase,
                                       PhaseTimes& times) {
  auto const start = Clock::now();
  PhaseOutcome out;
  measure(phase, out, times);
  auto const before = runtime_.stats();
  lb::LbManager::Report report;
  times.invoke_s = timed([&] {
    if (config_.chaos) {
      auto const outcome = manager_.invoke_if_beneficial(
          input_, store_, *policy_, sim_cost_model());
      out.invoked = outcome.invoked;
      report = outcome.report;
    } else {
      report = manager_.invoke(input_, store_);
      out.invoked = true;
    }
  });
  if (!out.invoked) {
    times.invoke_s = 0.0;
  } else {
    record_traffic(before, runtime_.stats(), out);
    out.imbalance_after = report.imbalance_after;
    out.migrations = report.cost.migration_count;
    out.migration_bytes = report.migration_payload_bytes;
    out.lb_messages = report.cost.lb_messages;
    out.lb_bytes = report.cost.lb_bytes;
    out.failed_migrations = store_.failed_migrations().size();
    out.aborted_rounds = report.aborted_rounds;
  }
  times.phase_s = seconds_since(start);
  return out;
}

PhaseOutcome LbLoop::run_phase_split(std::uint64_t phase, PhaseTimes& times,
                                     obs::LbInvocationReport* report) {
  auto const start = Clock::now();
  PhaseOutcome out;
  auto const loads = measure(phase, out, times);
  out.invoked = true;
  if (policy_ != nullptr) {
    times.policy_s += timed(
        [&] { out.invoked = policy_->decide(phase, loads).invoke; });
  }
  if (!out.invoked) {
    times.policy_s +=
        timed([&] { policy_->record_outcome(false, 0.0, {}); });
    times.phase_s = seconds_since(start);
    return out;
  }

  obs::LbReportBuilder builder;
  if (report != nullptr) {
    builder.set_strategy(std::string{strategy_->name()});
    builder.set_threshold(config_.params.threshold);
    builder.set_initial_imbalance(out.imbalance_before);
    strategy_->set_introspection(&builder);
  }
  auto const before = runtime_.stats();
  lb::StrategyResult result;
  times.balance_s = timed(
      [&] { result = strategy_->balance(runtime_, input_, config_.params); });
  times.migrate_s = timed([&] {
    out.migration_bytes = store_.migrate(runtime_, result.migrations);
  });
  times.invoke_s = times.balance_s + times.migrate_s;
  record_traffic(before, runtime_.stats(), out);
  out.imbalance_after = result.achieved_imbalance;
  out.migrations = result.cost.migration_count;
  out.lb_messages = result.cost.lb_messages;
  out.lb_bytes = result.cost.lb_bytes;
  out.failed_migrations = store_.failed_migrations().size();
  out.aborted_rounds = result.aborted_rounds;
  if (report != nullptr) {
    strategy_->set_introspection(nullptr);
    builder.set_final(out.imbalance_after, out.migrations,
                      out.migration_bytes);
    *report = builder.finish(phase);
  }
  if (policy_ != nullptr) {
    double const cost = sim_cost_model().cost(out.lb_messages, out.lb_bytes,
                                              out.migration_bytes);
    times.policy_s += timed([&] {
      policy_->record_outcome(true, cost, result.new_rank_loads);
    });
  }
  times.phase_s = seconds_since(start);
  return out;
}

double LbLoop::placed_imbalance(std::uint64_t phase) const {
  return imbalance(workload_.measure(phase, store_).rank_loads());
}

bool LbLoop::placement_ok() const {
  std::size_t const total = workload_.num_tasks();
  std::vector<char> seen(total, 0);
  std::size_t count = 0;
  for (RankId r = 0; r < store_.num_ranks(); ++r) {
    for (TaskId const id : store_.tasks_on(r)) {
      auto const i = static_cast<std::size_t>(id);
      if (i >= total || seen[i] != 0 || store_.owner(id) != r) {
        return false;
      }
      seen[i] = 1;
      ++count;
    }
  }
  return count == total && store_.total_tasks() == total;
}

} // namespace perfbench
