#include "lbaf/experiment.hpp"

#include <algorithm>

#include "lb/transfer.hpp"
#include "obs/tracer.hpp"
#include "support/assert.hpp"

namespace tlb::lbaf {

namespace {

/// Compute the migrations that turn `initial` into `final` (one entry per
/// task whose rank changed).
std::vector<Migration> diff_assignments(Assignment const& initial,
                                        Assignment const& final_state) {
  TLB_EXPECTS(initial.num_tasks() == final_state.num_tasks());
  std::vector<Migration> out;
  for (std::size_t i = 0; i < initial.num_tasks(); ++i) {
    auto const id = static_cast<TaskId>(i);
    RankId const from = initial.rank_of(id);
    RankId const to = final_state.rank_of(id);
    if (from != to) {
      out.push_back(Migration{id, from, to, initial.load_of_task(id)});
    }
  }
  return out;
}

} // namespace

ExperimentResult run_experiment(lb::LbParams const& params,
                                Workload const& workload,
                                obs::LbReportBuilder* report) {
  TLB_EXPECTS(params.num_trials >= 1);
  TLB_EXPECTS(params.num_iterations >= 1);

  TLB_SPAN_ARG("lbaf", "experiment", "trials", params.num_trials);
  Assignment const initial{workload};
  ExperimentResult result;
  result.initial_imbalance = initial.imbalance();
  result.best_imbalance = result.initial_imbalance;
  if (report != nullptr) {
    report->set_strategy("lbaf");
    report->set_threshold(params.threshold);
    report->set_initial_imbalance(result.initial_imbalance);
  }

  // l_ave is invariant: no load enters or leaves the system.
  LoadType const l_ave = initial.average_load();
  auto const num_ranks = initial.num_ranks();

  Rng const root{params.seed};
  std::optional<Assignment> best_state;

  for (int trial = 0; trial < params.num_trials; ++trial) {
    // Algorithm 3 line 3: every trial restarts from the original mapping
    // with an independent random stream.
    Assignment working{workload};
    Rng trial_rng = root.split(static_cast<std::uint64_t>(trial));

    for (int iter = 1; iter <= params.num_iterations; ++iter) {
      Rng iter_rng =
          trial_rng.split(static_cast<std::uint64_t>(iter));

      // Algorithm 3 line 7: INFORM with current (speculative) loads.
      std::vector<LoadType> loads(working.rank_loads().begin(),
                                  working.rank_loads().end());
      GossipStats gossip_stats;
      Rng gossip_rng = iter_rng.split(0);
      auto knowledge =
          run_gossip(loads, l_ave, params.fanout, params.rounds, gossip_rng,
                     &gossip_stats,
                     static_cast<std::size_t>(
                         std::max(0, params.max_knowledge)),
                     params.gossip_wire);
      if (report != nullptr) {
        for (std::size_t r = 0; r < gossip_stats.per_round.size(); ++r) {
          GossipRoundStats const& rs = gossip_stats.per_round[r];
          report->on_gossip_round(static_cast<int>(r), rs.messages,
                                  rs.full_messages, rs.bytes,
                                  rs.knowledge_min, rs.knowledge_max,
                                  rs.knowledge_sum);
        }
      }

      // Algorithm 3 line 8: TRANSFER on each overloaded rank. Ranks run
      // independently (no visibility into each other's proposals within an
      // iteration), matching the distributed execution.
      IterationRecord record;
      record.trial = trial;
      record.iteration = iter;
      record.gossip_messages = gossip_stats.messages;
      record.gossip_bytes = gossip_stats.bytes;

      std::vector<Migration> iteration_migrations;
      for (RankId p = 0; p < num_ranks; ++p) {
        LoadType const l_p = working.load_of_rank(p);
        if (l_p <= params.threshold * l_ave) {
          continue;
        }
        auto tasks = working.tasks_of(p);
        Rng rank_rng =
            iter_rng.split(static_cast<std::uint64_t>(p) + 1);
        auto transfer =
            lb::run_transfer(params, p, tasks, l_p, l_ave,
                             knowledge[static_cast<std::size_t>(p)], rank_rng);
        record.transfers += transfer.accepted;
        record.rejected += transfer.rejected;
        if (report != nullptr) {
          report->on_transfer_pass(transfer.accepted, transfer.rejected,
                                   transfer.no_target, transfer.cmf_rebuilds);
        }
        iteration_migrations.insert(iteration_migrations.end(),
                                    transfer.migrations.begin(),
                                    transfer.migrations.end());
      }

      // Speculatively apply this iteration's proposals; real task movement
      // is deferred to the end (Algorithm 3 line 13).
      working.apply(iteration_migrations);

      auto const total = record.transfers + record.rejected;
      record.rejection_rate =
          total > 0 ? 100.0 * static_cast<double>(record.rejected) /
                          static_cast<double>(total)
                    : 0.0;
      record.imbalance = working.imbalance();
      result.records.push_back(record);
      if (report != nullptr) {
        report->on_trial_iteration(trial, iter, record.imbalance);
      }

      // Algorithm 3 lines 9-10: keep the best state seen anywhere.
      if (record.imbalance < result.best_imbalance) {
        result.best_imbalance = record.imbalance;
        result.best_trial = trial;
        result.best_iteration = iter;
        best_state = working;
      }
    }
  }

  if (best_state.has_value()) {
    result.best_migrations = diff_assignments(initial, *best_state);
  }
  if (report != nullptr) {
    // The sequential emulation moves no payload bytes; only the count.
    report->set_final(result.best_imbalance, result.best_migrations.size(),
                      0);
  }
  return result;
}

std::vector<IterationRecord> trial_records(ExperimentResult const& result,
                                           int trial) {
  std::vector<IterationRecord> out;
  for (auto const& r : result.records) {
    if (r.trial == trial) {
      out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](IterationRecord const& a, IterationRecord const& b) {
              return a.iteration < b.iteration;
            });
  return out;
}

} // namespace tlb::lbaf
