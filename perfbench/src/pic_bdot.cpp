/// \file pic_bdot.cpp
/// pic-bdot: PicApp::run with Fig. 2's TemperedLB configuration (AMT, 24
/// colours per rank, 10 trials x 8 iterations, fanout 6, 5 rounds, LB at
/// step 2 and then every 100 steps) at 1024 ranks.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "lb/strategy/lb_manager.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "pic/app.hpp"
#include "pic/bdot.hpp"
#include "probes.hpp"
#include "support/rng.hpp"
#include "workload/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tlb;

namespace {

/// Steps per unit: covers the LB invocations at steps 2 and 100.
constexpr int kSteps = 150;

pic::PicConfig pic_config(std::uint64_t seed) {
  pic::PicConfig cfg;
  cfg.mesh.ranks_x = 32;
  cfg.mesh.ranks_y = 32;
  cfg.mesh.colors_x = 6;
  cfg.mesh.colors_y = 4;
  cfg.mode = pic::ExecutionMode::amt;
  cfg.strategy = "tempered";
  cfg.steps = kSteps;
  cfg.first_lb_step = 2;
  cfg.lb_period = 100;
  cfg.seed = seed;
  cfg.runtime_threads = 1;
  cfg.bdot.total_steps = kSteps;
  cfg.lb_params = lb::LbParams::tempered();
  cfg.lb_params.num_trials = 10;
  cfg.lb_params.num_iterations = 8;
  cfg.lb_params.fanout = 6;
  cfg.lb_params.rounds = 5;
  cfg.lb_params.seed = derive_seed(seed, workload::kLbSeedStreamTag);
  return cfg;
}

struct Unit {
  double setup_s = 0.0;
  double run_s = 0.0;
  pic::RunResult result;
  std::vector<lb::LbManager::Report> history;
  std::vector<obs::LbInvocationReport> introspection;
  rt::NetworkStatsSnapshot stats;
  /// Every deterministic number the unit produced, for exact comparison.
  std::vector<double> digest;
  // Traced units only:
  std::vector<double> lb_wall_s;
  std::uint64_t tracer_dropped = 0;
  std::vector<RankId> owners;     ///< final colour placement
  lb::StrategyInput final_input;  ///< final colour loads, per owner rank
};

/// Check the run's outputs: particles are conserved every step, every
/// colour has a valid owner, and no invocation worsened the imbalance.
void check(pic::PicApp const& app, pic::PicConfig const& cfg,
           pic::RunResult const& result, Report& report) {
  pic::BDotScenario const injection{cfg.bdot};
  std::size_t injected = 0;
  for (pic::StepMetrics const& m : result.steps) {
    injected += static_cast<std::size_t>(injection.count(m.step));
    bool const ok = m.total_particles == injected;
    if (!ok) {
      report.violation("step " + std::to_string(m.step) +
                       ": particles not conserved");
    }
    report.attempt(ok);
  }
  if (app.total_particles() != injected) {
    report.violation("final particle count differs from the injected total");
  }
  RankId const ranks = app.mesh().num_ranks();
  for (pic::ColorId c = 0; c < app.mesh().num_colors(); ++c) {
    RankId const owner = app.owner_of(c);
    if (owner < 0 || owner >= ranks) {
      report.violation("colour " + std::to_string(c) + " has no owner");
    }
  }
  for (lb::LbManager::Report const& r : app.lb_manager()->history()) {
    // Without migrations the placement is unchanged; with them the
    // strategy reports I of the projected loads, comparable exactly.
    bool const kept_best = r.cost.migration_count == 0 ||
                           r.imbalance_after <= r.imbalance_before;
    if (!kept_best || r.aborted_rounds != 0) {
      report.violation("LB invocation " + std::to_string(r.phase) +
                       " worsened the imbalance or aborted a round");
    }
  }
}

Unit run_unit(pic::PicConfig const& cfg, bool traced, Report& report) {
  Unit unit;
  std::unique_ptr<pic::PicApp> app;
  unit.setup_s = timed([&] { app = std::make_unique<pic::PicApp>(cfg); });
  if (traced) {
    obs::Tracer::instance().clear();
    obs::PhaseTimeline::instance().clear();
    obs::set_enabled(true);
  }
  unit.run_s = timed([&] { unit.result = app->run(); });
  obs::set_enabled(false);
  check(*app, cfg, unit.result, report);

  unit.history = app->lb_manager()->history();
  unit.stats = app->runtime().stats();
  auto const& t = unit.result.totals;
  unit.digest = {t.t_particle,
                 t.t_nonparticle,
                 t.t_lb,
                 t.t_total,
                 static_cast<double>(t.migrations),
                 static_cast<double>(t.migration_bytes),
                 static_cast<double>(t.exchanged),
                 static_cast<double>(t.remote_exchanged),
                 static_cast<double>(unit.stats.messages),
                 static_cast<double>(unit.stats.bytes)};
  for (lb::LbManager::Report const& r : unit.history) {
    unit.digest.push_back(r.imbalance_before);
    unit.digest.push_back(r.imbalance_after);
    unit.digest.push_back(static_cast<double>(r.cost.lb_messages));
  }
  if (!traced) {
    return unit;
  }

  unit.tracer_dropped = obs::Tracer::instance().dropped();
  for (obs::PhaseSample const& s : obs::PhaseTimeline::instance().samples()) {
    unit.lb_wall_s.push_back(1e-6 * static_cast<double>(s.lb_wall_us));
  }
  unit.introspection = app->lb_manager()->introspection();
  pic::Mesh const& mesh = app->mesh();
  double const factor = 1.0 + cfg.work.amt_particle_overhead;
  unit.final_input.tasks.resize(static_cast<std::size_t>(mesh.num_ranks()));
  for (pic::ColorId c = 0; c < mesh.num_colors(); ++c) {
    RankId const owner = app->owner_of(c);
    unit.owners.push_back(owner);
    double const load =
        factor * (cfg.work.alpha * static_cast<double>(app->particles_in(c)) +
                  cfg.work.beta * mesh.cells_per_color());
    unit.final_input.tasks[static_cast<std::size_t>(owner)].push_back(
        {static_cast<TaskId>(c), load});
  }
  return unit;
}

void per_layer(Report& report, pic::PicConfig const& cfg,
               std::vector<Unit> const& untraced,
               std::vector<Unit> const& traced) {
  auto const steps = static_cast<double>(cfg.steps);
  Unit const& first = traced.front();
  double lb_wall = 0.0;
  for (double const s : first.lb_wall_s) {
    lb_wall += s;
  }
  auto const inv = static_cast<double>(first.history.size());
  auto const per_invoke = [&](double v) { return inv > 0 ? v / inv : 0.0; };
  auto const& totals = first.result.totals;

  report.metric("pic.app_ms_per_step", 1e3 * (first.run_s - lb_wall) / steps);
  report.metric("pic.lb_wall_ms", 1e3 * per_invoke(lb_wall));
  report.metric("pic.particles_final",
      static_cast<double>(first.result.steps.back().total_particles));
  report.metric("pic.exchanged_per_step",
      static_cast<double>(totals.exchanged) / steps);
  report.metric("pic.remote_exchanged_per_step",
      static_cast<double>(totals.remote_exchanged) / steps);
  // The whole run is one call; only the LB invocations inside it are
  // timed (by the program's own PhaseTimeline).
  report.metric("unattributed_pct",
      100.0 * (first.run_s - lb_wall) / first.run_s);

  std::vector<double> wall_ms;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (Unit const& u : traced) {
    traced_s.push_back(u.run_s);
    for (double const s : u.lb_wall_s) {
      wall_ms.push_back(1e3 * s);
    }
  }
  for (Unit const& u : untraced) {
    untraced_s.push_back(u.run_s);
  }
  Tail const tail = tail_percentile(wall_ms);
  report.metric("lb.invoke_ms_p50", median(wall_ms));
  report.metric("lb.invoke_ms_tail", tail.value);
  report.metric("lb.invoke_tail_pct", tail.percentile);
  report.metric("lb.invoke_samples", static_cast<double>(wall_ms.size()));
  report.metric("obs.trace_overhead_pct",
      100.0 * (median(traced_s) / median(untraced_s) - 1.0));
  report.metric("obs.tracer_dropped",
      static_cast<double>(first.tracer_dropped));

  // The PIC phases send no messages, so the runtime's counters are the
  // balancer's traffic.
  for (std::size_t k = 0; k < rt::num_message_kinds; ++k) {
    std::string const name =
        rt::message_kind_name(static_cast<rt::MessageKind>(k));
    report.metric("runtime.msgs_per_invoke." + name,
        per_invoke(static_cast<double>(first.stats.kind_messages[k])));
    report.metric("runtime.bytes_per_invoke." + name,
        per_invoke(static_cast<double>(first.stats.kind_bytes[k])));
  }
  report.metric("runtime.msgs_per_s",
      lb_wall > 0.0 ? static_cast<double>(first.stats.messages) / lb_wall
                    : 0.0);
  report.metric("runtime.max_mailbox_depth",
      static_cast<double>(first.stats.max_mailbox_depth));
  report.metric("runtime.migrations_per_invoke",
      per_invoke(static_cast<double>(totals.migrations)));
  report.metric("runtime.migration_bytes_per_invoke",
      per_invoke(static_cast<double>(totals.migration_bytes)));
  double aborted = 0.0;
  for (lb::LbManager::Report const& r : first.history) {
    aborted += static_cast<double>(r.aborted_rounds);
  }
  report.metric("lb.aborted_rounds", aborted);
  report.metric("policy.invoke_ratio", inv / steps);

  std::uint64_t accepted = 0;
  std::uint64_t attempted = 0;
  std::uint64_t rebuilds = 0;
  for (obs::LbInvocationReport const& r : first.introspection) {
    accepted += r.transfers_accepted;
    attempted += r.transfers_accepted + r.transfers_rejected +
                 r.transfers_no_target;
    rebuilds += r.cmf_rebuilds;
  }
  report.metric("lb.accept_ratio",
      attempted > 0
          ? static_cast<double>(accepted) / static_cast<double>(attempted)
          : 0.0);
  report.metric("lb.cmf_rebuilds_per_invoke",
      per_invoke(static_cast<double>(rebuilds)));

  BalancerProbe const probe =
      probe_balancer(first.final_input, cfg.lb_params, cfg.seed);
  report.metric("lb.inform_epoch_ms", 1e3 * probe.inform_s);
  report.metric("lb.transfer_pass_ms", 1e3 * probe.transfer_s);
  report.metric("lb.knowledge_avg", probe.knowledge_avg);
  ObjectStoreProbe const store_probe = probe_object_store(
      static_cast<RankId>(first.final_input.tasks.size()), first.owners);
  report.metric("runtime.objstore_owner_ns", store_probe.owner_ns);
  report.metric("runtime.objstore_find_ns", store_probe.find_ns);

  // Balance and migrate run inside PicApp::run, which cannot be split
  // from outside; there is no fault plane, no policy and no LBAF.
  report.not_called({"workload.measure_ms", "runtime.migrate_ms",
                     "runtime.failed_migrations", "runtime.dropped",
                     "runtime.duplicated", "runtime.delayed",
                     "runtime.retried", "lb.balance_ms", "policy.skip_ms",
                     "lbaf.gossip_ms", "lbaf.transfer_ms",
                     "lbaf.gossip_msgs_per_iter", "lbaf.gossip_bytes_per_iter",
                     "lbaf.accept_ratio"});
}

} // namespace

Report run_pic_bdot(Args const& args) {
  Report report;
  obs::set_enabled(false);
  pic::PicConfig const cfg = pic_config(args.seed);

  // Untraced runs sample setup_s before the first unit and after each;
  // with two units a run, in half-second batches.
  SetupSampler setup{[&] { pic::PicApp const app{cfg}; }, 0.5};
  auto run_units = [&](double budget_s, int min_units, bool traced) {
    std::vector<Unit> units;
    repeat_units(budget_s, min_units, [&] {
      units.push_back(run_unit(cfg, traced, report));
      double const unit_s = units.back().setup_s + units.back().run_s;
      return unit_s + (args.trace ? 0.0 : setup.batch());
    });
    for (Unit const& u : units) {
      if (u.digest != units.front().digest) {
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
      step_ms.push_back(1e3 * u.run_s / static_cast<double>(cfg.steps));
    }
    Unit const& first = units.front();
    // The imbalance every step ran with once the first invocation had
    // placed the colours (Fig. 4c), averaged over those steps.
    double imbalance_sum = 0.0;
    double balanced_steps = 0.0;
    for (pic::StepMetrics const& m : first.result.steps) {
      if (m.step > cfg.first_lb_step) {
        imbalance_sum += m.imbalance;
        balanced_steps += 1.0;
      }
    }
    lb::LbCostModel const cost{};
    double cost_sum = 0.0;
    for (lb::LbManager::Report const& r : first.history) {
      cost_sum += cost.cost(r.cost.lb_messages, r.cost.lb_bytes,
                            r.migration_payload_bytes);
    }
    auto const inv = static_cast<double>(first.history.size());
    double const raw_step_ms = median(std::move(step_ms));
    std::cerr << "perfbench: raw setup " << setup.median_s() << " s, raw step "
              << raw_step_ms << " ms, reference " << host.median_ms()
              << " ms\n";
    report.metric("setup_s", setup.median_s() * host.scale());
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("step_ms", raw_step_ms * host.scale());
    report.metric("sim_total_s", first.result.totals.t_total);
    report.metric("imbalance_after", imbalance_sum / balanced_steps);
    report.metric("lb_sim_cost_ms", 1e3 * cost_sum / inv);
    return report;
  }

  double const segment_s = traced_segment_s(args);
  std::vector<Unit> const untraced = run_units(segment_s, 1, false);
  std::vector<Unit> const traced = run_units(segment_s, 1, true);
  if (traced.front().digest != untraced.front().digest) {
    report.violation("the traced run computed different results");
  }
  per_layer(report, cfg, untraced, traced);
  return report;
}

} // namespace perfbench
