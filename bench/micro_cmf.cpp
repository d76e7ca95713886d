/// \file micro_cmf.cpp
/// M2 — microbenchmarks of the CMF build and sampling paths. The
/// recompute-per-candidate change (§V-A change #3) multiplies BUILDCMF
/// calls by the number of candidate tasks, so its absolute cost matters.

#include <benchmark/benchmark.h>

#include "lb/cmf.hpp"
#include "lb/incremental_cmf.hpp"
#include "runtime/serialize.hpp"
#include "support/rng.hpp"

namespace {

using namespace tlb;
using namespace tlb::lb;

Knowledge make_knowledge(std::size_t n, std::uint64_t seed) {
  Knowledge k;
  Rng rng{seed};
  for (std::size_t i = 0; i < n; ++i) {
    k.insert(static_cast<RankId>(i + 1), rng.uniform(0.0, 0.95));
  }
  return k;
}

void BM_CmfBuild(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto const kind = state.range(1) == 0 ? CmfKind::original
                                        : CmfKind::modified;
  auto const k = make_knowledge(n, 42);
  for (auto _ : state) {
    Cmf cmf{kind, k.entries(), 1.0, 0};
    benchmark::DoNotOptimize(cmf);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CmfBuild)
    ->ArgsProduct({{16, 256, 4096}, {0, 1}});

void BM_CmfSample(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto const k = make_knowledge(n, 42);
  Cmf const cmf{CmfKind::modified, k.entries(), 1.0, 0};
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmf.sample(rng));
  }
}
BENCHMARK(BM_CmfSample)->Arg(16)->Arg(256)->Arg(4096);

/// One transfer-candidate step under CmfRefresh::recompute: rebuild the
/// CMF from n-rank knowledge, sample a recipient, and commit a speculative
/// delta — O(n) per candidate. Baseline for BM_CmfIncrementalUpdate. The
/// +d/−d delta pair keeps the state steady so the loop never saturates.
void BM_CmfRecomputeStep(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto k = make_knowledge(n, 42);
  Rng rng{7};
  for (auto _ : state) {
    Cmf const cmf{CmfKind::modified, k.entries(), 1.0, 0};
    RankId const target = cmf.sample(rng);
    k.add_load(target, 0.01);
    k.add_load(target, -0.01);
    benchmark::DoNotOptimize(k);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CmfRecomputeStep)->Arg(16)->Arg(256)->Arg(4096);

/// The same candidate step under CmfRefresh::incremental: sample via the
/// Fenwick prefix search and point-update the recipient's weight in place
/// — O(log n) per candidate. The acceptance bar is ≥10x over
/// BM_CmfRecomputeStep at 4096-rank knowledge.
void BM_CmfIncrementalUpdate(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto const k = make_knowledge(n, 42);
  IncrementalCmf inc{CmfKind::modified, k.entries(), 1.0, 0};
  Rng rng{7};
  for (auto _ : state) {
    RankId const target = inc.sample(rng);
    inc.add_load(target, 0.01);
    inc.add_load(target, -0.01);
    benchmark::DoNotOptimize(inc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CmfIncrementalUpdate)->Arg(16)->Arg(256)->Arg(4096);

void BM_KnowledgeMerge(benchmark::State& state) {
  auto const n = static_cast<std::size_t>(state.range(0));
  auto const a = make_knowledge(n, 1);
  // Interleaved rank ids force a full merge; b arrives packed, as it
  // would on the wire.
  Knowledge b;
  Rng rng{2};
  for (std::size_t i = 0; i < n; ++i) {
    b.insert(static_cast<RankId>(2 * i), rng.uniform(0.0, 1.0));
  }
  rt::Packer packer;
  b.pack_full(packer);
  for (auto _ : state) {
    Knowledge merged = a;
    rt::Unpacker unpacker{packer.bytes()};
    merged.merge_packed(unpacker, static_cast<RankId>(2 * n + 1));
    benchmark::DoNotOptimize(merged.entries().data());
  }
}
BENCHMARK(BM_KnowledgeMerge)->Arg(16)->Arg(256)->Arg(4096);

} // namespace
