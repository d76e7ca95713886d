/// \file micro_gossip.cpp
/// M1/M8 — the gossip (inform) stage bench. Two modes in one binary:
///
/// * With any `--benchmark*` flag (e.g. `--benchmark_format=json` from
///   scripts/bench_perf.sh) it runs the google-benchmark micros: cost and
///   traffic of one epoch versus rank count and fanout, plus the coverage
///   the epidemic reaches — the O(P*f*k) bound the round-gated forwarding
///   guarantees. BM_KnowledgeMerge prices one delivery's merge per
///   incoming entry at P = 4096.
///
/// * Otherwise it runs the M8 delta-vs-full wire-plane comparison: for
///   each rank count, one seeded epoch under GossipWire::full and one
///   under GossipWire::delta (identical peer-selection stream, so the
///   message routing matches message-for-message and only the payload
///   encoding differs), reporting bytes/epoch, the full/delta split,
///   epoch wall time, and the bytes ratio. A second table replays the
///   full Algorithm 3 experiment under both wires and checks the
///   migration lists and imbalance trajectories are identical — the
///   delta plane is a transport optimization, not a protocol change.
///
/// Flags (comparison mode): --fanout --rounds --reps --seed --csv --json

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string_view>

#include "bench_json.hpp"
#include "lbaf/experiment.hpp"
#include "lb/knowledge.hpp"
#include "lbaf/gossip_sim.hpp"
#include "support/assert.hpp"
#include "lbaf/workload.hpp"
#include "runtime/serialize.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace tlb;

std::vector<LoadType> half_overloaded(int p) {
  std::vector<LoadType> loads(static_cast<std::size_t>(p), 0.0);
  for (int i = 0; i < p; i += 2) {
    loads[static_cast<std::size_t>(i)] = 2.0;
  }
  return loads;
}

void BM_GossipEpochVsRanks(benchmark::State& state) {
  auto const p = static_cast<int>(state.range(0));
  auto const loads = half_overloaded(p);
  std::uint64_t seed = 1;
  std::size_t messages = 0;
  for (auto _ : state) {
    Rng rng{seed++};
    lbaf::GossipStats stats;
    auto knowledge = lbaf::run_gossip(loads, 1.0, 6, 8, rng, &stats);
    benchmark::DoNotOptimize(knowledge);
    messages = stats.messages;
  }
  state.counters["messages"] = static_cast<double>(messages);
  state.counters["msg_bound"] = static_cast<double>(p) * 6 * 8;
}
BENCHMARK(BM_GossipEpochVsRanks)->RangeMultiplier(4)->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

void BM_GossipEpochVsFanout(benchmark::State& state) {
  auto const fanout = static_cast<int>(state.range(0));
  auto const loads = half_overloaded(512);
  std::uint64_t seed = 1;
  double coverage = 0.0;
  for (auto _ : state) {
    Rng rng{seed++};
    auto knowledge = lbaf::run_gossip(loads, 1.0, fanout, 6, rng);
    // Mean fraction of underloaded ranks known by overloaded ranks.
    double sum = 0.0;
    for (int i = 0; i < 512; i += 2) {
      sum += static_cast<double>(
                 knowledge[static_cast<std::size_t>(i)].size()) /
             256.0;
    }
    coverage = sum / 256.0;
    benchmark::DoNotOptimize(knowledge);
  }
  state.counters["coverage"] = coverage;
}
BENCHMARK(BM_GossipEpochVsFanout)->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMillisecond);

void BM_GossipEpochVsRounds(benchmark::State& state) {
  auto const rounds = static_cast<int>(state.range(0));
  auto const loads = half_overloaded(512);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng{seed++};
    auto knowledge = lbaf::run_gossip(loads, 1.0, 6, rounds, rng);
    benchmark::DoNotOptimize(knowledge);
  }
}
BENCHMARK(BM_GossipEpochVsRounds)->DenseRange(1, 10, 3)
    ->Unit(benchmark::kMillisecond);

/// One delivery's Knowledge::merge_packed at the lbaf-e2 scale: P = 4096
/// ranks, 1000 local entries, 250 incoming of which 50 are new to the
/// receiver (an E2 delivery averages ~940 local, ~250 incoming, ~48 new).
/// The payload arrives as packed bytes, as on the wire of both inform
/// drivers. With range(0) == 1 the timed region also settles the merged
/// tail, the cost the next sorted reader pays. `per_entry` is seconds per
/// incoming entry (printed with an SI prefix: 2.5n is 2.5 ns).
void BM_KnowledgeMerge(benchmark::State& state) {
  bool const settle = state.range(0) != 0;
  RankId const p = 4096;
  std::size_t const local_n = 1000;
  std::size_t const incoming_n = 250;
  std::size_t const fresh_n = 50;
  Rng rng{7};
  std::vector<RankId> ids(static_cast<std::size_t>(p));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<RankId>(i);
  }
  rng.shuffle(std::span<RankId>{ids});
  // ids[0, local_n) are known locally; the message repeats the first
  // incoming_n - fresh_n of them and brings fresh_n unknown ranks.
  lb::Knowledge base;
  for (std::size_t i = 0; i < local_n; ++i) {
    base.insert(ids[i], rng.uniform(0.0, 1.0));
  }
  lb::Knowledge incoming;
  for (std::size_t i = 0; i < incoming_n - fresh_n; ++i) {
    incoming.insert(ids[i], rng.uniform(0.0, 1.0));
  }
  for (std::size_t i = 0; i < fresh_n; ++i) {
    incoming.insert(ids[local_n + i], rng.uniform(0.0, 1.0));
  }
  benchmark::DoNotOptimize(base.entries().data());
  benchmark::DoNotOptimize(incoming.entries().data());
  rt::Packer packer;
  incoming.pack_full(packer);
  auto const bytes = std::move(packer).take();
  lb::Knowledge work = base;
  for (auto _ : state) {
    state.PauseTiming();
    work = base; // copy-assignment reuses work's capacity
    state.ResumeTiming();
    rt::Unpacker unpacker{bytes};
    work.merge_packed(unpacker, p);
    if (settle) {
      benchmark::DoNotOptimize(work.entries().data());
    }
    benchmark::ClobberMemory();
  }
  TLB_ASSERT(work.size() == local_n + fresh_n);
  state.counters["per_entry"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(incoming_n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_KnowledgeMerge)->ArgName("settle")->Arg(0)->Arg(1);

/// One forward's pack at the lbaf-e2 scale: a settled 1000-entry knowledge
/// over P = 4096 ranks packed whole (range(0) == 0, pack_full) or as the
/// delta of its 50 newest entries (range(0) == 1, pack_delta), into a
/// buffer that already has the capacity, as a pooled snapshot does.
/// `per_entry` is seconds per entry of the knowledge.
void BM_KnowledgePack(benchmark::State& state) {
  bool const delta = state.range(0) != 0;
  std::size_t const local_n = 1000;
  Rng rng{7};
  std::vector<RankId> ids(4096);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<RankId>(i);
  }
  rng.shuffle(std::span<RankId>{ids});
  lb::Knowledge k;
  for (std::size_t i = 0; i < local_n; ++i) {
    k.insert(ids[i], rng.uniform(0.0, 1.0));
  }
  benchmark::DoNotOptimize(k.entries().data());
  auto const since = delta ? k.version_mark() - 50 : 0u;
  std::vector<std::byte> buffer;
  buffer.reserve(lb::Knowledge::wire_capacity_bound(local_n));
  for (auto _ : state) {
    rt::Packer packer{buffer};
    k.pack_delta(packer, since);
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_entry"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(local_n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_KnowledgePack)->ArgName("delta")->Arg(0)->Arg(1);

// --- M8 comparison mode -------------------------------------------------

struct WireRun {
  lbaf::GossipStats stats;
  double micros_per_epoch = 0.0;
};

/// Time `reps` seeded epochs under `wire`; stats come from the first
/// (every rep re-seeds the Rng, so they are all identical).
WireRun run_wire(std::vector<LoadType> const& loads, int fanout, int rounds,
                 std::uint64_t seed, int reps, lb::GossipWire wire) {
  WireRun out;
  {
    Rng rng{seed};
    (void)lbaf::run_gossip(loads, 1.0, fanout, rounds, rng, &out.stats, 0,
                           wire);
  }
  auto const t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    Rng rng{seed};
    auto knowledge =
        lbaf::run_gossip(loads, 1.0, fanout, rounds, rng, nullptr, 0, wire);
    benchmark::DoNotOptimize(knowledge);
  }
  auto const t1 = std::chrono::steady_clock::now();
  out.micros_per_epoch =
      std::chrono::duration<double, std::micro>(t1 - t0).count() /
      static_cast<double>(reps);
  return out;
}

int run_comparison(Options const& opts) {
  auto const fanout = static_cast<int>(opts.get_int("fanout", 6));
  auto const rounds = static_cast<int>(opts.get_int("rounds", 10));
  auto const reps = static_cast<int>(opts.get_int("reps", 20));
  auto const seed = static_cast<std::uint64_t>(opts.get_int("seed", 2021));

  std::cout << "# M8: delta-encoded gossip wire plane vs full resend — "
               "identical routing, payload encoding only\n"
            << "# fanout=" << fanout << " rounds=" << rounds
            << " reps=" << reps << "\n";

  Table bytes_table{{"ranks", "full bytes/epoch", "delta bytes/epoch",
                     "bytes ratio", "full msgs", "delta msgs",
                     "full snapshots", "full us/epoch", "delta us/epoch"}};
  for (int const p : {64, 256, 1024, 4096}) {
    auto const loads = half_overloaded(p);
    auto const full =
        run_wire(loads, fanout, rounds, seed, reps, lb::GossipWire::full);
    auto const delta =
        run_wire(loads, fanout, rounds, seed, reps, lb::GossipWire::delta);
    // The per-epoch overlay makes routing knowledge-independent, so both
    // modes produce the exact same message graph — only payload encoding
    // differs.
    TLB_ASSERT(full.stats.messages == delta.stats.messages);
    bytes_table.begin_row()
        .add_cell(p)
        .add_cell(full.stats.bytes)
        .add_cell(delta.stats.bytes)
        .add_cell(static_cast<double>(full.stats.bytes) /
                      static_cast<double>(delta.stats.bytes),
                  2)
        .add_cell(full.stats.messages)
        .add_cell(delta.stats.messages)
        .add_cell(delta.stats.full_messages)
        .add_cell(full.micros_per_epoch, 1)
        .add_cell(delta.micros_per_epoch, 1);
  }

  // Decision equivalence: the whole iterative-refinement experiment under
  // both wires must produce the same migrations and the same imbalance
  // trajectory (the wire plane may only change how bytes are encoded).
  Table decisions_table{{"ranks", "best I (full)", "best I (delta)",
                         "migrations", "identical"}};
  for (RankId const p : {64, 256}) {
    lbaf::BimodalSpec const spec;
    auto const workload = lbaf::make_bimodal(
        p, std::max<RankId>(2, p / 16), 2000, spec, seed);
    auto params = lb::LbParams::tempered();
    params.fanout = fanout;
    params.rounds = rounds;
    params.num_iterations = 4;
    params.num_trials = 1;
    params.seed = seed ^ 0xabcdef;
    params.gossip_wire = lb::GossipWire::full;
    auto const rf = lbaf::run_experiment(params, workload);
    params.gossip_wire = lb::GossipWire::delta;
    auto const rd = lbaf::run_experiment(params, workload);
    bool identical = rf.best_migrations == rd.best_migrations &&
                     rf.best_imbalance == rd.best_imbalance;
    for (std::size_t i = 0; i < rf.records.size(); ++i) {
      identical = identical &&
                  rf.records[i].transfers == rd.records[i].transfers &&
                  rf.records[i].imbalance == rd.records[i].imbalance;
    }
    decisions_table.begin_row()
        .add_cell(static_cast<int>(p))
        .add_cell(rf.best_imbalance, 3)
        .add_cell(rd.best_imbalance, 3)
        .add_cell(rf.best_migrations.size())
        .add_cell(identical ? "yes" : "NO");
  }

  bool const csv = opts.get_bool("csv", false);
  for (auto const* t : {&bytes_table, &decisions_table}) {
    if (csv) {
      t->print_csv(std::cout);
    } else {
      t->print(std::cout);
    }
    std::cout << "\n";
  }
  if (auto const path = bench::json_output_path(opts, "micro_gossip");
      !path.empty()) {
    bench::write_bench_json(path, "micro_gossip", opts,
                            {{"wire_bytes", &bytes_table},
                             {"decision_equivalence", &decisions_table}});
    std::cout << "# wrote " << path << "\n";
  }
  std::cout << "# expected shape: delta mode ships each knowledge entry "
               "roughly once per receiver instead of once per message, so "
               "bytes/epoch drops well past 2x at 256+ ranks while "
               "decisions stay bit-identical\n";
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]}.starts_with("--benchmark")) {
      benchmark::Initialize(&argc, argv);
      benchmark::RunSpecifiedBenchmarks();
      benchmark::Shutdown();
      return 0;
    }
  }
  return run_comparison(tlb::Options::parse(argc, argv));
}
