#include "lb/strategy/gossip_strategy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "lb/strategy/inform_plane.hpp"
#include "lb/transfer.hpp"
#include "obs/lb_report.hpp"
#include "obs/tracer.hpp"
#include "runtime/collectives.hpp"
#include "support/assert.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace tlb::lb {

namespace {

/// A task in the speculative (proposed) placement: where it physically
/// lives (`origin`) versus where the proposal currently puts it.
struct SpecTask {
  TaskId id = invalid_task;
  LoadType load = 0.0;
  RankId origin = invalid_rank;
};

/// Per-rank protocol state for one iteration sequence. Each slot is only
/// mutated by handlers executing on its own rank. The inform-stage state
/// (knowledge, forwarding bitmask) lives in the InformPlane.
struct RankState {
  LoadType load = 0.0;
  std::vector<SpecTask> tasks;
};

/// One speculative task move of a transfer epoch (Algorithm 3: the
/// proposal only notifies the destination; the payload moves at commit).
/// The destination decides a proposal once and bounces a refused task
/// back; the driver retries undecided proposals at quiescent points and
/// takes back every task that was neither accepted nor returned, so the
/// proposed placement conserves tasks under any drop/duplicate/delay mix.
struct Proposal {
  SpecTask task;
  RankId from = invalid_rank;
  RankId to = invalid_rank;
  int attempts = 1; ///< delivery attempts so far; driver-only
  // `decided`/`accepted` are written only by handlers on rank `to`;
  // `returned` only by the bounce handler on rank `from` (and by the
  // driver at a quiescent point). Distinct bytes per writer: no races.
  char decided = 0;
  char accepted = 0;
  char returned = 0;
};

struct Shared {
  std::vector<RankState> states;
  /// The inform stage: per-rank knowledge, forwarding cascade, and the
  /// delta-encoded wire plane (see inform_plane.hpp).
  std::shared_ptr<InformPlane> inform;
  bool use_nacks = false;
  LoadType l_ave = 0.0;
  /// Transfer-pass threshold h (params.threshold), hoisted here so the
  /// post_all closures read it through `shared` instead of capturing it.
  double threshold = 0.0;
  /// Full parameter block for run_transfer. Kept in the shared block for
  /// the same reason: capturing LbParams by value (48 bytes) pushes the
  /// transfer-pass closure past the envelope's inline capacity, which
  /// InlineHandler rejects at compile time.
  LbParams params;
  obs::LbReportBuilder* report = nullptr; ///< optional introspection sink
  /// outbox[r] — the current transfer epoch's proposals originated by
  /// rank r. Cleared by the driver, filled once by rank r's transfer-pass
  /// handler before any send references them and never resized while
  /// they are in flight, so Proposal pointers stay stable across retries.
  std::vector<std::vector<Proposal>> outbox;
};

/// One delivery attempt of `prop` from the origin rank's context. A
/// duplicated or retried delivery of a decided proposal is a no-op.
void send_proposal(std::shared_ptr<Shared> const& shared,
                   rt::RankContext& ctx, Proposal* prop) {
  ctx.send(
      prop->to, sizeof(SpecTask),
      [shared, prop](rt::RankContext& dest) {
        if (prop->decided != 0) {
          return;
        }
        prop->decided = 1;
        auto& dst = shared->states[static_cast<std::size_t>(dest.rank())];
        // Menon-style negative acknowledgement (optional): refuse
        // proposals that would push this rank past the average, bouncing
        // the task back to its sender.
        if (shared->use_nacks && dst.load + prop->task.load > shared->l_ave) {
          if (shared->report != nullptr) {
            shared->report->on_nack();
          }
          dest.send(
              prop->from, sizeof(SpecTask),
              [shared, prop](rt::RankContext& back) {
                if (prop->returned != 0) {
                  return; // duplicated bounce: already back home
                }
                prop->returned = 1;
                auto& src =
                    shared->states[static_cast<std::size_t>(back.rank())];
                src.tasks.push_back(prop->task);
                src.load += prop->task.load;
              },
              rt::MessageKind::transfer);
          return;
        }
        prop->accepted = 1;
        dst.tasks.push_back(prop->task);
        dst.load += prop->task.load;
      },
      rt::MessageKind::transfer);
}

} // namespace

StrategyResult GossipStrategy::balance(rt::Runtime& rt,
                                       StrategyInput const& input,
                                       LbParams const& caller_params) {
  auto const p = input.num_ranks();
  TLB_EXPECTS(p == rt.num_ranks());
  TLB_EXPECTS(p > 0);

  // The flavor pins the algorithmic switches; numeric knobs (fanout,
  // rounds, threshold, seed) always come from the caller.
  LbParams params = caller_params;
  bool accept_always = false;
  if (flavor_ == Flavor::grapevine) {
    LbParams const base = LbParams::grapevine();
    params.criterion = base.criterion;
    params.cmf = base.cmf;
    params.refresh = base.refresh;
    params.order = base.order;
    params.num_iterations = base.num_iterations;
    params.num_trials = base.num_trials;
    accept_always = true;
  } else if (flavor_ == Flavor::tempered_fast) {
    params.refresh = CmfRefresh::incremental;
  }
  TLB_EXPECTS(params.rounds >= 1 && params.rounds <= 63);

  TLB_SPAN_ARG("lb", "balance", "ranks", p);
  rt::RetryPolicy const& retry = rt.config().retry;
  auto const stats_before = rt.stats();

  // Stage 0: constant-size statistics reduction (l_max, l_ave).
  auto const initial_loads = input.rank_loads();
  bool stats_complete = true;
  auto const stat =
      rt::allreduce_loads(rt, initial_loads, &stats_complete)[0];
  LoadType const l_ave = stat.average();

  StrategyResult result;
  result.new_rank_loads = initial_loads;
  result.achieved_imbalance =
      l_ave > 0.0 ? stat.max / l_ave - 1.0 : 0.0;
  if (!stats_complete) {
    // The statistics reduction never reached some rank (lost or crashed
    // reduction link): without trustworthy l_ave there is no round to
    // run. Fall back to the current (last good) task→rank mapping.
    result.aborted_rounds = 1;
    result.achieved_imbalance = 0.0;
    auto const stats_after_abort = rt.stats();
    result.cost.lb_messages =
        stats_after_abort.messages - stats_before.messages;
    result.cost.lb_bytes = stats_after_abort.bytes - stats_before.bytes;
    return result;
  }
  if (l_ave <= 0.0) {
    return result; // empty system: nothing to balance
  }

  if (introspection_ != nullptr) {
    introspection_->set_strategy(std::string{name()});
    introspection_->set_threshold(params.threshold);
    introspection_->set_initial_imbalance(result.achieved_imbalance);
  }

  auto shared = std::make_shared<Shared>();
  shared->inform = std::make_shared<InformPlane>(
      p, params.seed, params.gossip_wire, params.fanout, params.rounds,
      static_cast<std::size_t>(std::max(0, params.max_knowledge)),
      introspection_);
  shared->use_nacks = params.use_nacks;
  shared->l_ave = l_ave;
  shared->threshold = params.threshold;
  shared->params = params;
  shared->report = introspection_;
  shared->states.resize(static_cast<std::size_t>(p));
  shared->outbox.resize(static_cast<std::size_t>(p));

  auto reset_states = [&] {
    for (RankId r = 0; r < p; ++r) {
      auto& st = shared->states[static_cast<std::size_t>(r)];
      st.load = initial_loads[static_cast<std::size_t>(r)];
      st.tasks.clear();
      st.tasks.reserve(input.tasks[static_cast<std::size_t>(r)].size());
      for (TaskEntry const& t : input.tasks[static_cast<std::size_t>(r)]) {
        st.tasks.push_back(SpecTask{t.id, t.load, r});
      }
    }
  };

  double best_imbalance = result.achieved_imbalance;
  bool have_best = false;
  std::vector<std::vector<SpecTask>> best_snapshot;

  for (int trial = 0; trial < params.num_trials; ++trial) {
    TLB_SPAN_ARG("lb", "trial", "trial", trial);
    reset_states();

    for (int iter = 1; iter <= params.num_iterations; ++iter) {
      // Valid until a liveness timeout or incomplete reduction proves
      // otherwise; an invalid epoch aborts the whole trial and the commit
      // falls back to the last good snapshot.
      bool epoch_valid = true;

      // --- Inform epoch (Algorithm 1): seed from underloaded ranks. ---
      {
        TLB_SPAN_ARG("lb", "inform", "iter", iter);
        shared->inform->reset_epoch();
        rt.post_all([shared, l_ave](rt::RankContext& ctx) {
          auto& st = shared->states[static_cast<std::size_t>(ctx.rank())];
          if (st.load < l_ave) {
            shared->inform->seed_and_forward(ctx, st.load);
          }
        });
        // Gossip tolerates loss (knowledge just stays partial), but a
        // liveness timeout here means the epoch never settled.
        epoch_valid = rt.run_until_quiescent() && epoch_valid;
      }

      // --- Transfer pass (Algorithm 2) on every overloaded rank; the
      // accepted proposals are *notification* messages: the task payload
      // does not move until the best state is committed. ---
      {
        TLB_SPAN_ARG("lb", "transfer", "iter", iter);
        for (auto& outbox : shared->outbox) {
          outbox.clear();
        }
        rt.post_all([shared](rt::RankContext& ctx) {
          auto& st = shared->states[static_cast<std::size_t>(ctx.rank())];
          if (st.load <= shared->threshold * shared->l_ave) {
            return;
          }
          std::vector<TaskEntry> entries;
          entries.reserve(st.tasks.size());
          for (SpecTask const& t : st.tasks) {
            entries.push_back({t.id, t.load});
          }
          auto const transfer =
              run_transfer(shared->params, ctx.rank(), entries, st.load,
                           shared->l_ave,
                           shared->inform->knowledge_of(ctx.rank()),
                           ctx.rng());
          if (shared->report != nullptr) {
            shared->report->on_transfer_pass(transfer.accepted,
                                             transfer.rejected,
                                             transfer.no_target,
                                             transfer.cmf_rebuilds);
          }
          st.load = transfer.final_load;
          auto& outbox = shared->outbox[static_cast<std::size_t>(ctx.rank())];
          outbox.reserve(transfer.migrations.size());
          for (Migration const& m : transfer.migrations) {
            auto const it = std::find_if(
                st.tasks.begin(), st.tasks.end(),
                [&](SpecTask const& t) { return t.id == m.task; });
            TLB_ASSERT(it != st.tasks.end());
            outbox.push_back(Proposal{*it, ctx.rank(), m.to});
            st.tasks.erase(it);
          }
          // Send only after the outbox is fully built: handlers capture
          // pointers into it, so it must never grow again.
          for (Proposal& pending : outbox) {
            send_proposal(shared, ctx, &pending);
          }
        });
        epoch_valid = rt.run_until_quiescent() && epoch_valid;

        // Timeout = quiescence with the proposal undecided: every delivery
        // so far was provably lost. Retry with exponential backoff until
        // decided or the attempt budget runs out.
        int const max_attempts =
            retry.max_attempts > 0 ? retry.max_attempts : 1;
        for (;;) {
          bool retried = false;
          for (auto& outbox : shared->outbox) {
            for (Proposal& prop : outbox) {
              if (prop.decided != 0 || prop.attempts >= max_attempts) {
                continue;
              }
              std::uint64_t backoff =
                  retry.backoff_base_polls
                  << (static_cast<unsigned>(prop.attempts) - 1u);
              if (backoff > retry.max_backoff_polls) {
                backoff = retry.max_backoff_polls;
              }
              ++prop.attempts;
              rt.record_retry(rt::MessageKind::transfer);
              Proposal* pending = &prop;
              rt.post_delayed(
                  prop.from,
                  [shared, pending](rt::RankContext& ctx) {
                    send_proposal(shared, ctx, pending);
                  },
                  backoff, 0, rt::MessageKind::transfer);
              retried = true;
            }
          }
          if (!retried) {
            break;
          }
          epoch_valid = rt.run_until_quiescent() && epoch_valid;
        }

        // The origin takes back every task that is not at its destination
        // and not already home: proposals whose retries ran out, and
        // refusals whose bounce was lost.
        for (auto& outbox : shared->outbox) {
          for (Proposal& prop : outbox) {
            if (prop.accepted != 0 || prop.returned != 0) {
              continue;
            }
            prop.returned = 1;
            auto& src = shared->states[static_cast<std::size_t>(prop.from)];
            src.tasks.push_back(prop.task);
            src.load += prop.task.load;
          }
        }
      }

      TLB_AUDIT_BLOCK {
        // Speculative transfers (and NACK bounces) only relocate tasks:
        // once the notification traffic quiesces, the proposed placement
        // must hold exactly the input's tasks and exactly its total load.
        std::size_t spec_tasks = 0;
        double spec_total = 0.0;
        std::size_t input_tasks = 0;
        double input_total = 0.0;
        for (RankId r = 0; r < p; ++r) {
          auto const& st = shared->states[static_cast<std::size_t>(r)];
          spec_tasks += st.tasks.size();
          spec_total += st.load;
          input_tasks += input.tasks[static_cast<std::size_t>(r)].size();
          input_total += initial_loads[static_cast<std::size_t>(r)];
        }
        TLB_INVARIANT(spec_tasks == input_tasks,
                      "speculative placement conserves the task count");
        TLB_INVARIANT(std::abs(spec_total - input_total) <=
                          1e-9 * std::max(1.0, input_total),
                      "speculative placement conserves the total load");
      }

      // --- Algorithm 3 line 9: evaluate the proposed imbalance. ---
      std::vector<LoadType> spec_loads(static_cast<std::size_t>(p));
      for (RankId r = 0; r < p; ++r) {
        spec_loads[static_cast<std::size_t>(r)] =
            shared->states[static_cast<std::size_t>(r)].load;
      }
      bool eval_complete = true;
      auto const iter_stat =
          rt::allreduce_loads(rt, spec_loads, &eval_complete)[0];
      if (!eval_complete) {
        epoch_valid = false;
      }
      if (!epoch_valid) {
        // Abort this LB round: the epoch either failed its liveness
        // timeout or lost part of a reduction, so the proposed placement
        // cannot be trusted. The commit below falls back to the last
        // good snapshot (or, with none, to the current mapping).
        ++result.aborted_rounds;
        break;
      }
      double const proposed = iter_stat.max / l_ave - 1.0;
      if (introspection_ != nullptr) {
        introspection_->on_trial_iteration(trial, iter, proposed);
      }

      if (proposed < best_imbalance || (accept_always && !have_best)) {
        best_imbalance = std::min(best_imbalance, proposed);
        have_best = true;
        best_snapshot.assign(shared->states.size(), {});
        for (std::size_t r = 0; r < shared->states.size(); ++r) {
          best_snapshot[r] = shared->states[r].tasks;
        }
      }
    }
  }

  // --- Algorithm 3 line 13: realize the winning placement. ---
  if (have_best) {
    for (std::size_t r = 0; r < best_snapshot.size(); ++r) {
      for (SpecTask const& t : best_snapshot[r]) {
        if (t.origin != static_cast<RankId>(r)) {
          result.migrations.push_back(
              Migration{t.id, t.origin, static_cast<RankId>(r), t.load});
        }
      }
    }
    result.new_rank_loads = project_loads(input, result.migrations);
    result.achieved_imbalance = imbalance(result.new_rank_loads);
  }

  auto const stats_after = rt.stats();
  result.cost.lb_messages = stats_after.messages - stats_before.messages;
  result.cost.lb_bytes = stats_after.bytes - stats_before.bytes;
  result.cost.migration_count = result.migrations.size();
  for (Migration const& m : result.migrations) {
    result.cost.migrated_load += m.load;
  }
  return result;
}

} // namespace tlb::lb
