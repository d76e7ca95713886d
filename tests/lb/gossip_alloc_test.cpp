/// \file gossip_alloc_test.cpp
/// Pins the inform plane's memory contract. Capacities grow by use:
/// warm-up epochs grow the knowledge vectors and bitmaps, the overlay
/// peer lists and the runtime mailboxes, and reset_epoch re-primes the
/// snapshot-pool buffers to fit the knowledge; after that, steady-state
/// inform rounds must perform zero heap allocations. Nothing is sized to
/// P up front: the bytes a plane allocates at construction, per rank,
/// must not grow with P.
///
/// The counter is a global operator new/delete override, which is why
/// this test lives in its own binary: the override is process-wide and
/// would skew any allocation-sensitive behavior in sibling tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "lb/strategy/inform_plane.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<bool> g_counting{false};

} // namespace

// Out of line, like the deletes below: once GCC inlines this into a caller
// it sees the std::malloc and warns (-Wmismatched-new-delete) at the
// matching delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

// Out of line, so GCC cannot inline a delete into its caller and then warn
// (-Wmismatched-new-delete) that std::free releases memory from new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tlb::lb {
namespace {

TEST(GossipAllocTest, SteadyStateInformRoundsDoNotAllocate) {
  RankId const p = 32;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.seed = 4242;
  // Pre-reserve the delivery path too: the plane's own buffers are sized
  // at construction, and this keeps mailbox bursts off the allocator.
  cfg.mailbox_reserve = 4096;
  rt::Runtime rt{cfg};

  std::vector<LoadType> loads(static_cast<std::size_t>(p));
  Rng gen{9};
  for (auto& l : loads) {
    l = gen.uniform(0.0, 2.0);
  }
  LoadType const l_ave = 1.0;

  auto plane = std::make_shared<InformPlane>(
      p, /*root_seed=*/cfg.seed, GossipWire::delta, /*fanout=*/6,
      /*rounds=*/10, /*max_knowledge=*/0, /*report=*/nullptr);

  auto run_epoch = [&] {
    plane->reset_epoch();
    rt.post_all([&plane, &loads, l_ave](rt::RankContext& ctx) {
      auto const load = loads[static_cast<std::size_t>(ctx.rank())];
      if (load < l_ave) {
        plane->seed_and_forward(ctx, load);
      }
    });
    ASSERT_TRUE(rt.run_until_quiescent());
  };

  // Warm-up: grow every capacity on both the plane and the runtime.
  for (int epoch = 0; epoch < 3; ++epoch) {
    run_epoch();
  }

  g_allocations.store(0);
  g_counting.store(true);
  for (int epoch = 0; epoch < 4; ++epoch) {
    run_epoch();
  }
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state inform rounds must reuse warm capacities";

  // Sanity-check the counter itself: it must see a real allocation.
  g_counting.store(true);
  auto* probe = new int{1};
  g_counting.store(false);
  EXPECT_GT(g_allocations.load(), 0u);
  delete probe;
}

TEST(GossipAllocTest, FullWireAlsoRunsAllocationFree) {
  // The zero-allocation property is a plane invariant, not a delta-mode
  // perk: full snapshots serialize into the same pooled buffers.
  RankId const p = 16;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.seed = 77;
  cfg.mailbox_reserve = 4096;
  rt::Runtime rt{cfg};
  std::vector<LoadType> loads(static_cast<std::size_t>(p), 0.0);
  for (RankId r = 0; r < p; r += 2) {
    loads[static_cast<std::size_t>(r)] = 2.0;
  }
  auto plane = std::make_shared<InformPlane>(p, cfg.seed, GossipWire::full,
                                             4, 6, 0, nullptr);
  auto run_epoch = [&] {
    plane->reset_epoch();
    rt.post_all([&plane, &loads](rt::RankContext& ctx) {
      auto const load = loads[static_cast<std::size_t>(ctx.rank())];
      if (load < 1.0) {
        plane->seed_and_forward(ctx, load);
      }
    });
    ASSERT_TRUE(rt.run_until_quiescent());
  };
  for (int epoch = 0; epoch < 3; ++epoch) {
    run_epoch();
  }
  g_allocations.store(0);
  g_counting.store(true);
  run_epoch();
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
}

/// Bytes requested from operator new while constructing a P-rank plane.
std::uint64_t construction_bytes(RankId p) {
  g_bytes.store(0);
  g_counting.store(true);
  auto plane = std::make_shared<InformPlane>(
      p, /*root_seed=*/11, GossipWire::delta, /*fanout=*/6, /*rounds=*/10,
      /*max_knowledge=*/0, /*report=*/nullptr);
  g_counting.store(false);
  return g_bytes.load();
}

TEST(GossipAllocTest, ConstructionBytesPerRankDoNotGrowWithRanks) {
  // A rank's knowledge averages a few dozen entries at P = 1024, so a
  // plane that reserves per rank in proportion to P (knowledge, receive
  // scratch, pool buffers at the P-entry wire bound) pays O(P^2) bytes
  // for a few hot bytes per rank. Construction may only cost a per-rank
  // constant: the slot itself and its f-entry peer list.
  auto const small = construction_bytes(256);
  auto const large = construction_bytes(1024);
  double const small_per_rank = static_cast<double>(small) / 256.0;
  double const large_per_rank = static_cast<double>(large) / 1024.0;
  EXPECT_LE(large_per_rank, small_per_rank)
      << small << " bytes at P = 256, " << large << " at P = 1024";
  EXPECT_LT(large_per_rank, 1024.0)
      << "a rank's share of the plane should be a few hundred bytes";
}

} // namespace
} // namespace tlb::lb
