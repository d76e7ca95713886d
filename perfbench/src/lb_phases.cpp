/// \file lb_phases.cpp
/// lb-hotspot and lb-chaos: the LbLoop phase loop, untraced through
/// LbManager and traced through the split layer calls.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "lb_loop.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "probes.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tlb;

namespace {

/// Hotspot trajectories a run covers; unit u runs trajectory
/// u % trajectory_count, seeded from the run seed. Averaging the
/// deterministic metrics over several trajectories keeps their spread
/// across seeds down. An untraced run covers each once and then repeats
/// trajectory 0, which must reproduce its first run exactly: in full if
/// the budget leaves room, otherwise its first fifth.
std::size_t trajectory_count(bool chaos) { return chaos ? 2 : 4; }

LbLoopConfig loop_config(std::uint64_t seed, bool chaos, std::size_t unit) {
  return lb_loop_config(derive_seed(seed, unit % trajectory_count(chaos)),
                        chaos);
}

/// One unit: a fresh loop over every phase.
struct Unit {
  double setup_s = 0.0;
  std::vector<PhaseOutcome> outcomes;
  std::vector<PhaseTimes> times;
  std::vector<obs::LbInvocationReport> reports; ///< split path, invoked
  double phase_s = 0.0; ///< sum of the phases' wall times
  /// reference_kernel() right after each invoked phase of the managed
  /// path (outside the phase's timing): the host's speed on the same core
  /// at the same moments as the phases step_ms is taken from.
  std::vector<double> reference_s;
};

/// Called after each phase (untimed) with the loop and phase index.
using AfterPhase =
    std::function<void(LbLoop const&, std::size_t, PhaseOutcome const&)>;

/// Run the loop's first `phases` phases (all of them by default).
Unit run_unit(LbLoopConfig const& config, bool split, Report& report,
              AfterPhase const& after_phase, std::size_t phases = SIZE_MAX) {
  Unit unit;
  std::unique_ptr<LbLoop> loop;
  unit.setup_s = timed([&] { loop = std::make_unique<LbLoop>(config); });
  bool const chaos = config.chaos;
  for (std::uint64_t phase = 0; phase < std::min(config.phases, phases);
       ++phase) {
    PhaseTimes times;
    obs::LbInvocationReport introspection;
    PhaseOutcome out =
        split ? loop->run_phase_split(phase, times, &introspection)
              : loop->run_phase_managed(phase, times);
    unit.phase_s += times.phase_s;
    if (!split && out.invoked) {
      unit.reference_s.push_back(reference_kernel());
    }

    // Output checks (untimed).
    std::string const where = "phase " + std::to_string(phase) + ": ";
    bool ok = true;
    if (!loop->placement_ok()) {
      report.violation(where + "a task is not on exactly one rank");
      ok = false;
    }
    bool const lb_failed = out.failed_migrations > 0 || out.aborted_rounds > 0;
    if (lb_failed && !chaos) {
      report.violation(where +
                       "failed migrations or aborted rounds without faults");
    }
    out.imbalance_placed = out.imbalance_before;
    if (out.invoked) {
      out.imbalance_placed = loop->placed_imbalance(phase);
      // Keep-best (Lemma 1): a completed invocation never leaves a worse
      // placement. A rolled-back migration may, and already counts as
      // failed.
      if (!lb_failed && !(out.imbalance_placed <= out.imbalance_before)) {
        report.violation(where + "the new placement is more imbalanced");
        ok = false;
      }
    }
    report.attempt(ok && !lb_failed);

    if (after_phase) {
      after_phase(*loop, phase, out);
    }
    unit.outcomes.push_back(out);
    unit.times.push_back(times);
    if (split && out.invoked) {
      unit.reports.push_back(std::move(introspection));
    }
  }
  return unit;
}

void check_same(Report& report, std::vector<PhaseOutcome> const& expected,
                std::vector<PhaseOutcome> const& got, char const* what) {
  if (got != expected) {
    report.violation(std::string{what} +
                     ": deterministic phase outcomes differ for one seed");
  }
}

/// step_ms is the median host time of a balanced phase (measure +
/// invocation) over every unit, and setup_s the median construction
/// `setup_s`, both at the reference speed of the kernel calls between the
/// phases; the deterministic metrics cover the first `trajectories`
/// units, one per trajectory.
void end_to_end(Report& report, std::vector<Unit> const& units,
                std::size_t trajectories, double setup_s) {
  std::vector<double> step_ms;
  std::vector<double> reference_ms;
  for (Unit const& u : units) {
    for (double const s : u.reference_s) {
      reference_ms.push_back(1e3 * s);
    }
    for (std::size_t i = 0; i < u.outcomes.size(); ++i) {
      if (u.outcomes[i].invoked) {
        step_ms.push_back(1e3 * u.times[i].phase_s);
      }
    }
  }
  std::vector<PhaseOutcome> outcomes;
  for (std::size_t t = 0; t < trajectories; ++t) {
    outcomes.insert(outcomes.end(), units[t].outcomes.begin(),
                    units[t].outcomes.end());
  }
  lb::LbCostModel const lb_cost{};
  lb::LbCostModel const sim_cost = sim_cost_model();
  double sim_total = 0.0;
  double imbalance_sum = 0.0;
  double cost_sum = 0.0;
  std::size_t invoked = 0;
  for (PhaseOutcome const& o : outcomes) {
    sim_total += o.makespan;
    if (!o.invoked) {
      continue;
    }
    ++invoked;
    sim_total += sim_cost.cost(o.lb_messages, o.lb_bytes, o.migration_bytes);
    imbalance_sum += o.imbalance_placed;
    cost_sum += lb_cost.cost(o.lb_messages, o.lb_bytes, o.migration_bytes);
  }
  if (invoked == 0) {
    report.violation("no phase invoked the balancer");
    return;
  }
  auto const n = static_cast<double>(invoked);
  double const raw_step_ms = median(std::move(step_ms));
  double const scale = kReferenceMs / median(reference_ms);
  std::cerr << "perfbench: raw setup " << setup_s << " s, raw step "
            << raw_step_ms << " ms, reference " << median(reference_ms)
            << " ms\n";
  report.metric("setup_s", setup_s * scale);
  report.metric("peak_rss_mb", peak_rss_mb());
  report.metric("step_ms", raw_step_ms * scale);
  report.metric("sim_total_s", sim_total / static_cast<double>(trajectories));
  report.metric("imbalance_after", imbalance_sum / n);
  report.metric("lb_sim_cost_ms", 1e3 * cost_sum / n);
}

void per_layer(Report& report, LbLoopConfig const& config,
               std::vector<Unit> const& untraced,
               std::vector<Unit> const& traced,
               std::vector<BalancerProbe> const& probes,
               ObjectStoreProbe const& store_probe,
               std::uint64_t max_mailbox_depth, std::uint64_t tracer_dropped) {
  auto const phases = static_cast<double>(config.phases);

  // Invocation latency, from the untraced (LbManager) units.
  std::vector<double> invoke_ms;
  for (Unit const& u : untraced) {
    for (std::size_t i = 0; i < u.outcomes.size(); ++i) {
      if (u.outcomes[i].invoked) {
        invoke_ms.push_back(1e3 * u.times[i].invoke_s);
      }
    }
  }
  Tail const tail = tail_percentile(invoke_ms);
  report.metric("lb.invoke_ms_p50", median(invoke_ms));
  report.metric("lb.invoke_ms_tail", tail.value);
  report.metric("lb.invoke_tail_pct", tail.percentile);
  report.metric("lb.invoke_samples", static_cast<double>(invoke_ms.size()));

  // Layer times, from the traced (split) units.
  double phase_s = 0.0;
  double measure_s = 0.0;
  double policy_s = 0.0;
  double balance_s = 0.0;
  double migrate_s = 0.0;
  double skip_s = 0.0;
  std::size_t invoked = 0;
  std::size_t skipped = 0;
  for (Unit const& u : traced) {
    for (std::size_t i = 0; i < u.times.size(); ++i) {
      PhaseTimes const& t = u.times[i];
      phase_s += t.phase_s;
      measure_s += t.measure_s;
      policy_s += t.policy_s;
      balance_s += t.balance_s;
      migrate_s += t.migrate_s;
      if (u.outcomes[i].invoked) {
        ++invoked;
      } else {
        ++skipped;
        skip_s += t.phase_s;
      }
    }
  }
  auto const traced_phases =
      static_cast<double>(traced.size()) * phases;
  auto const inv = static_cast<double>(invoked);
  report.metric("workload.measure_ms", 1e3 * measure_s / traced_phases);
  report.metric("lb.balance_ms", invoked > 0 ? 1e3 * balance_s / inv : 0.0);
  report.metric("runtime.migrate_ms", invoked > 0 ? 1e3 * migrate_s / inv : 0.0);
  report.metric("policy.skip_ms",
      skipped > 0 ? 1e3 * skip_s / static_cast<double>(skipped) : 0.0);
  report.metric("unattributed_pct",
      100.0 * (phase_s - measure_s - policy_s - balance_s - migrate_s) /
          phase_s);
  // Unit i of either segment runs trajectory i, so pair them: the figure
  // is telemetry plus the split calls against LbManager on the same work.
  double paired_untraced_s = 0.0;
  double paired_traced_s = 0.0;
  for (std::size_t i = 0; i < traced.size() && i < untraced.size(); ++i) {
    paired_untraced_s += untraced[i].phase_s;
    paired_traced_s += traced[i].phase_s;
  }
  report.metric("obs.trace_overhead_pct",
                100.0 * (paired_traced_s / paired_untraced_s - 1.0));
  report.metric("obs.tracer_dropped", static_cast<double>(tracer_dropped));

  // Deterministic counts, from the first traced unit.
  Unit const& first = traced.front();
  KindCounts msgs{};
  KindCounts bytes{};
  std::size_t migrations = 0;
  std::size_t migration_bytes = 0;
  std::size_t failed = 0;
  std::size_t aborted = 0;
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t delayed = 0;
  std::size_t retried = 0;
  std::size_t first_invoked = 0;
  double first_invoke_s = 0.0;
  for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
    PhaseOutcome const& o = first.outcomes[i];
    if (!o.invoked) {
      continue;
    }
    ++first_invoked;
    first_invoke_s += first.times[i].invoke_s;
    for (std::size_t k = 0; k < rt::num_message_kinds; ++k) {
      msgs[k] += o.kind_messages[k];
      bytes[k] += o.kind_bytes[k];
    }
    migrations += o.migrations;
    migration_bytes += o.migration_bytes;
    failed += o.failed_migrations;
    aborted += o.aborted_rounds;
    dropped += o.dropped;
    duplicated += o.duplicated;
    delayed += o.delayed;
    retried += o.retried;
  }
  auto const per_invoke = [&](std::size_t v) {
    return first_invoked > 0
               ? static_cast<double>(v) / static_cast<double>(first_invoked)
               : 0.0;
  };
  std::size_t all_msgs = 0;
  for (std::size_t k = 0; k < rt::num_message_kinds; ++k) {
    auto const kind = static_cast<rt::MessageKind>(k);
    std::string const name = rt::message_kind_name(kind);
    report.metric("runtime.msgs_per_invoke." + name, per_invoke(msgs[k]));
    report.metric("runtime.bytes_per_invoke." + name, per_invoke(bytes[k]));
    all_msgs += msgs[k];
  }
  report.metric("runtime.msgs_per_s",
      first_invoke_s > 0.0 ? static_cast<double>(all_msgs) / first_invoke_s
                           : 0.0);
  report.metric("runtime.max_mailbox_depth",
      static_cast<double>(max_mailbox_depth));
  report.metric("runtime.migrations_per_invoke", per_invoke(migrations));
  report.metric("runtime.migration_bytes_per_invoke",
      per_invoke(migration_bytes));
  report.metric("runtime.failed_migrations", static_cast<double>(failed));
  report.metric("lb.aborted_rounds", static_cast<double>(aborted));
  report.metric("runtime.dropped", static_cast<double>(dropped));
  report.metric("runtime.duplicated", static_cast<double>(duplicated));
  report.metric("runtime.delayed", static_cast<double>(delayed));
  report.metric("runtime.retried", static_cast<double>(retried));
  report.metric("policy.invoke_ratio",
      static_cast<double>(first_invoked) / phases);

  std::uint64_t accepted = 0;
  std::uint64_t attempted = 0;
  std::uint64_t rebuilds = 0;
  for (obs::LbInvocationReport const& r : first.reports) {
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
      per_invoke(static_cast<std::size_t>(rebuilds)));

  std::vector<double> inform_ms;
  std::vector<double> transfer_ms;
  std::vector<double> knowledge;
  for (BalancerProbe const& p : probes) {
    inform_ms.push_back(1e3 * p.inform_s);
    transfer_ms.push_back(1e3 * p.transfer_s);
    knowledge.push_back(p.knowledge_avg);
  }
  report.metric("lb.inform_epoch_ms", median(inform_ms));
  report.metric("lb.transfer_pass_ms", median(transfer_ms));
  report.metric("lb.knowledge_avg", mean(knowledge));
  report.metric("runtime.objstore_owner_ns", store_probe.owner_ns);
  report.metric("runtime.objstore_find_ns", store_probe.find_ns);
  report.not_called({"pic.app_ms_per_step", "pic.lb_wall_ms",
                     "pic.particles_final", "pic.exchanged_per_step",
                     "pic.remote_exchanged_per_step", "lbaf.gossip_ms",
                     "lbaf.transfer_ms", "lbaf.gossip_msgs_per_iter",
                     "lbaf.gossip_bytes_per_iter", "lbaf.accept_ratio"});
}

} // namespace

Report run_lb_phases(Args const& args, bool chaos) {
  Report report;
  obs::set_enabled(false);
  std::size_t const trajectories = trajectory_count(chaos);
  auto run_next = [&](std::vector<Unit>& units, bool split,
                      AfterPhase const& after_phase) {
    units.push_back(run_unit(loop_config(args.seed, chaos, units.size()),
                             split, report, after_phase));
    return units.back().setup_s + units.back().phase_s;
  };

  if (!args.trace) {
    // setup_s is sampled before the first unit and after each, in batches
    // of a quarter second (a run has three to five units).
    SetupSampler setup{
        [&] { LbLoop const loop{loop_config(args.seed, chaos, 0)}; }, 0.25};
    setup.batch();
    std::vector<Unit> units;
    repeat_units(args.seconds, static_cast<int>(trajectories), [&] {
      double const unit_s = run_next(units, false, {});
      return unit_s + setup.batch();
    });
    for (std::size_t i = trajectories; i < units.size(); ++i) {
      check_same(report, units[i % trajectories].outcomes, units[i].outcomes,
                 "repeat");
    }
    if (units.size() == trajectories) {
      LbLoopConfig const first = loop_config(args.seed, chaos, 0);
      Unit const again =
          run_unit(first, false, report, {}, first.phases / 5);
      std::vector<PhaseOutcome> const first_phases(
          units.front().outcomes.begin(),
          units.front().outcomes.begin() +
              static_cast<std::ptrdiff_t>(again.outcomes.size()));
      check_same(report, first_phases, again.outcomes, "partial repeat");
    }
    end_to_end(report, units, trajectories, setup.median_s());
    return report;
  }

  LbLoopConfig const config = loop_config(args.seed, chaos, 0);
  double const segment_s = traced_segment_s(args);
  std::vector<Unit> untraced;
  repeat_units(segment_s, 1, [&] { return run_next(untraced, false, {}); });

  // Traced units: telemetry on, split calls; the first one also runs the
  // layer probes (with telemetry off, outside the phase timings).
  std::vector<Unit> traced;
  std::vector<BalancerProbe> probes;
  ObjectStoreProbe store_probe;
  std::uint64_t max_depth = 0;
  std::uint64_t dropped = 0;
  std::size_t invoked_seen = 0;
  repeat_units(segment_s, 1, [&] {
    bool const first = traced.empty();
    AfterPhase probe_phase = [&](LbLoop const& loop, std::size_t phase,
                                 PhaseOutcome const& out) {
      if (out.invoked && invoked_seen++ % 5 == 0) {
        obs::set_enabled(false);
        probes.push_back(
            probe_balancer(loop.last_input(), config.params, config.seed));
        obs::set_enabled(true);
      }
      if (phase + 1 == config.phases) {
        obs::set_enabled(false);
        max_depth = loop.runtime().stats().max_mailbox_depth;
        dropped = obs::Tracer::instance().dropped();
        std::vector<RankId> owners(loop.store().total_tasks());
        for (std::size_t id = 0; id < owners.size(); ++id) {
          owners[id] = loop.store().owner(static_cast<TaskId>(id));
        }
        store_probe = probe_object_store(config.ranks, owners);
      }
    };
    obs::Tracer::instance().clear();
    obs::set_enabled(true);
    double const unit_s =
        run_next(traced, true, first ? probe_phase : AfterPhase{});
    obs::set_enabled(false);
    return unit_s;
  });
  for (std::size_t i = 0; i < traced.size() && i < untraced.size(); ++i) {
    check_same(report, untraced[i].outcomes, traced[i].outcomes,
               "split vs LbManager");
  }
  per_layer(report, config, untraced, traced, probes, store_probe, max_depth,
            dropped);
  return report;
}

} // namespace perfbench
