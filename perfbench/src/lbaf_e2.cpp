/// \file lbaf_e2.cpp
/// lbaf-e2: lbaf::run_experiment on the §V-B/E2 instance — 10^4 bimodal
/// tasks on 16 of 4096 ranks, relaxed criterion, modified CMF recomputed
/// per candidate, 1 trial. Seed 2021 is the instance of the paper's table
/// (bench/table_relaxed_criterion).

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "lb/strategy/lb_manager.hpp"
#include "lbaf/assignment.hpp"
#include "lbaf/experiment.hpp"
#include "obs/lb_report.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tlb;

namespace {

/// Algorithm-3 iterations per unit.
constexpr int kIterations = 3;

lbaf::Workload make_instance(std::uint64_t seed) {
  return lbaf::make_bimodal(4096, 16, 10000, lbaf::BimodalSpec{}, seed);
}

lb::LbParams e2_params(std::uint64_t seed, int iterations) {
  lb::LbParams params = lb::LbParams::tempered();
  params.criterion = lb::CriterionKind::relaxed;
  params.cmf = lb::CmfKind::modified;
  params.refresh = lb::CmfRefresh::recompute;
  params.order = lb::OrderKind::arbitrary;
  params.fanout = 6;
  params.rounds = 10;
  params.threshold = 1.0;
  params.num_trials = 1;
  params.num_iterations = iterations;
  params.seed = seed ^ 0xabcdef;
  return params;
}

struct Unit {
  double setup_s = 0.0;
  double run_s = 0.0;
  lbaf::ExperimentResult result;
  obs::LbInvocationReport introspection; ///< traced units only
  std::uint64_t tracer_dropped = 0;
};

/// Modelled cost of the experiment's inform traffic (the sequential
/// emulation sends no transfer messages and moves no payload).
double modelled_cost_s(lbaf::ExperimentResult const& result) {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  for (lbaf::IterationRecord const& r : result.records) {
    messages += r.gossip_messages;
    bytes += r.gossip_bytes;
  }
  return lb::LbCostModel{}.cost(messages, bytes, 0);
}

/// Check the outputs: one record per iteration, the kept-best imbalance
/// is no worse than the initial one, and the best migrations realise it.
void check(lbaf::Workload const& instance, lbaf::ExperimentResult const& r,
           int iterations, Report& report) {
  for (int i = 1; i <= iterations; ++i) {
    bool found = false;
    for (lbaf::IterationRecord const& rec : r.records) {
      found = found || (rec.trial == 0 && rec.iteration == i &&
                        std::isfinite(rec.imbalance));
    }
    if (!found) {
      report.violation("no record for iteration " + std::to_string(i));
    }
    report.attempt(found);
  }
  if (r.records.size() != static_cast<std::size_t>(iterations)) {
    report.violation("record count differs from the iteration count");
  }
  if (!(r.best_imbalance <= r.initial_imbalance)) {
    report.violation("best imbalance exceeds the initial imbalance");
  }
  lbaf::Assignment best{instance};
  best.apply(r.best_migrations);
  if (!best.validate() ||
      std::abs(best.imbalance() - r.best_imbalance) >
          1e-9 * std::max(1.0, r.best_imbalance)) {
    report.violation("best migrations do not realise the best imbalance");
  }
}

bool same_result(lbaf::ExperimentResult const& a,
                 lbaf::ExperimentResult const& b) {
  if (a.records.size() != b.records.size() ||
      a.best_imbalance != b.best_imbalance ||
      a.best_migrations.size() != b.best_migrations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    auto const& x = a.records[i];
    auto const& y = b.records[i];
    if (x.transfers != y.transfers || x.rejected != y.rejected ||
        x.imbalance != y.imbalance || x.gossip_messages != y.gossip_messages ||
        x.gossip_bytes != y.gossip_bytes) {
      return false;
    }
  }
  return true;
}

Unit run_unit(std::uint64_t seed, int iterations, bool traced,
              Report& report) {
  Unit unit;
  lbaf::Workload instance;
  unit.setup_s = timed([&] { instance = make_instance(seed); });
  lb::LbParams const params = e2_params(seed, iterations);
  obs::LbReportBuilder builder;
  if (traced) {
    obs::Tracer::instance().clear();
    obs::set_enabled(true);
  }
  unit.run_s = timed([&] {
    unit.result =
        lbaf::run_experiment(params, instance, traced ? &builder : nullptr);
  });
  obs::set_enabled(false);
  if (traced) {
    unit.tracer_dropped = obs::Tracer::instance().dropped();
    unit.introspection = builder.finish(0);
  }
  check(instance, unit.result, iterations, report);
  return unit;
}

} // namespace

Report run_lbaf_e2(Args const& args) {
  Report report;
  obs::set_enabled(false);

  // Untraced runs sample setup_s before the first unit and after each;
  // with two units a run, in half-second batches.
  SetupSampler setup{[&] { (void)make_instance(args.seed); }, 0.5};
  auto run_units = [&](double budget_s, int min_units, bool traced) {
    std::vector<Unit> units;
    repeat_units(budget_s, min_units, [&] {
      units.push_back(run_unit(args.seed, kIterations, traced, report));
      double const unit_s = units.back().setup_s + units.back().run_s;
      return unit_s + (args.trace ? 0.0 : setup.batch());
    });
    for (Unit const& u : units) {
      if (!same_result(u.result, units.front().result)) {
        report.violation("repeated units of one seed differ");
      }
    }
    return units;
  };

  if (!args.trace) {
    HostReference const host;
    setup.batch();
    std::vector<Unit> const units = run_units(args.seconds, 2, false);
    std::vector<double> step_ms;
    for (Unit const& u : units) {
      step_ms.push_back(1e3 * u.run_s / kIterations);
    }
    lbaf::ExperimentResult const& r = units.front().result;
    lbaf::Workload const instance = make_instance(args.seed);
    double const l_ave = instance.total_load() /
                         static_cast<double>(instance.num_ranks);
    double const cost_s = modelled_cost_s(r);
    double const raw_step_ms = median(std::move(step_ms));
    std::cerr << "perfbench: raw setup " << setup.median_s() << " s, raw step "
              << raw_step_ms << " ms, reference " << host.median_ms()
              << " ms\n";
    report.metric("setup_s", setup.median_s() * host.scale());
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("step_ms", raw_step_ms * host.scale());
    // One balanced phase: the makespan the best placement gives (task
    // loads read as seconds) plus the modelled cost of finding it.
    report.metric("sim_total_s", (1.0 + r.best_imbalance) * l_ave + cost_s);
    report.metric("imbalance_after", r.best_imbalance);
    report.metric("lb_sim_cost_ms", 1e3 * cost_s);
    return report;
  }

  double const segment_s = traced_segment_s(args);
  std::vector<Unit> const untraced = run_units(segment_s, 1, false);
  std::vector<Unit> const traced = run_units(segment_s, 1, true);
  if (!same_result(traced.front().result, untraced.front().result)) {
    report.violation("the traced run computed different results");
  }

  // Iteration 1, once as a whole experiment and once split into its
  // inform and transfer calls.
  lbaf::Workload const instance = make_instance(args.seed);
  double const iteration1_s = timed(
      [&] { (void)lbaf::run_experiment(e2_params(args.seed, 1), instance); });
  LbafProbe const probe =
      probe_lbaf_iteration(instance, e2_params(args.seed, 1));
  lbaf::IterationRecord const& first_record =
      untraced.front().result.records.front();
  if (probe.accepted != first_record.transfers ||
      probe.rejected != first_record.rejected ||
      probe.gossip_messages != first_record.gossip_messages ||
      probe.gossip_bytes != first_record.gossip_bytes) {
    // The probe replays run_experiment's random streams; if those change,
    // its timings still cover the same calls but no longer the same draws.
    std::cerr << "perfbench: warning: the split iteration's counts differ "
                 "from iteration 1 of the experiment\n";
  }
  report.metric("lbaf.gossip_ms", 1e3 * probe.gossip_s);
  report.metric("lbaf.transfer_ms", 1e3 * probe.transfer_s);
  report.metric("lb.transfer_pass_ms", 1e3 * probe.transfer_s);
  report.metric("lb.knowledge_avg", probe.knowledge_avg);
  report.metric("unattributed_pct",
      100.0 * (iteration1_s - probe.gossip_s - probe.transfer_s) /
          iteration1_s);

  Unit const& first = traced.front();
  double messages = 0.0;
  double bytes = 0.0;
  for (lbaf::IterationRecord const& r : first.result.records) {
    messages += static_cast<double>(r.gossip_messages);
    bytes += static_cast<double>(r.gossip_bytes);
  }
  auto const iterations = static_cast<double>(first.result.records.size());
  report.metric("lbaf.gossip_msgs_per_iter", messages / iterations);
  report.metric("lbaf.gossip_bytes_per_iter", bytes / iterations);
  obs::LbInvocationReport const& intro = first.introspection;
  auto const attempted = static_cast<double>(
      intro.transfers_accepted + intro.transfers_rejected +
      intro.transfers_no_target);
  double const accept =
      attempted > 0.0
          ? static_cast<double>(intro.transfers_accepted) / attempted
          : 0.0;
  report.metric("lbaf.accept_ratio", accept);
  report.metric("lb.accept_ratio", accept);
  report.metric("lb.cmf_rebuilds_per_invoke",
      static_cast<double>(intro.cmf_rebuilds));

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (Unit const& u : untraced) {
    untraced_s.push_back(u.run_s);
  }
  for (Unit const& u : traced) {
    traced_s.push_back(u.run_s);
  }
  report.metric("obs.trace_overhead_pct",
      100.0 * (median(traced_s) / median(untraced_s) - 1.0));
  report.metric("obs.tracer_dropped",
      static_cast<double>(first.tracer_dropped));
  // The emulation never touches the runtime, the PIC app, a fault plane
  // or a policy; its inform layer is lbaf.gossip_ms.
  report.not_called({"pic.app_ms_per_step", "pic.lb_wall_ms",
                     "pic.particles_final", "pic.exchanged_per_step",
                     "pic.remote_exchanged_per_step", "workload.measure_ms",
                     "runtime.objstore_owner_ns", "runtime.objstore_find_ns",
                     "runtime.migrate_ms", "runtime.migrations_per_invoke",
                     "runtime.migration_bytes_per_invoke",
                     "runtime.failed_migrations",
                     "runtime.msgs_per_invoke.gossip",
                     "runtime.msgs_per_invoke.transfer",
                     "runtime.msgs_per_invoke.migration",
                     "runtime.msgs_per_invoke.termination",
                     "runtime.msgs_per_invoke.other",
                     "runtime.bytes_per_invoke.gossip",
                     "runtime.bytes_per_invoke.transfer",
                     "runtime.bytes_per_invoke.migration",
                     "runtime.bytes_per_invoke.termination",
                     "runtime.bytes_per_invoke.other", "runtime.msgs_per_s",
                     "runtime.max_mailbox_depth", "runtime.dropped",
                     "runtime.duplicated", "runtime.delayed",
                     "runtime.retried", "lb.balance_ms", "lb.inform_epoch_ms",
                     "lb.aborted_rounds", "lb.invoke_ms_p50",
                     "lb.invoke_ms_tail", "lb.invoke_tail_pct",
                     "lb.invoke_samples", "policy.invoke_ratio",
                     "policy.skip_ms"});
  return report;
}

} // namespace perfbench
