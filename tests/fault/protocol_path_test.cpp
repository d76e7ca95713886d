/// \file protocol_path_test.cpp
/// The transfer stage and the migration commit run one protocol path
/// whether or not a fault plane is installed. Its fault-free traffic is
/// the minimal pattern — one notification per proposal, one bounce per
/// refusal, one driver post plus one payload send per migration, no
/// acknowledgements — so a plane that injects nothing must leave every
/// decision and every message count exactly as a run with no hook. Under
/// injected faults the dedup flags and the driver's take-back keep the
/// proposed placement conserving tasks.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"
#include "lb/strategy/gossip_strategy.hpp"
#include "obs/lb_report.hpp"
#include "runtime/object_store.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace tlb::fault {
namespace {

constexpr std::size_t kTransfer =
    static_cast<std::size_t>(rt::MessageKind::transfer);
constexpr std::size_t kMigration =
    static_cast<std::size_t>(rt::MessageKind::migration);

class Blob final : public rt::Migratable {
public:
  explicit Blob(std::size_t size) : size_{size} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return size_; }

private:
  std::size_t size_;
};

/// `loaded` ranks each hold `per_rank` tasks; every other rank is empty.
lb::StrategyInput clustered(RankId ranks, RankId loaded, int per_rank,
                            std::uint64_t seed) {
  lb::StrategyInput input;
  input.tasks.resize(static_cast<std::size_t>(ranks));
  Rng rng{seed};
  TaskId id = 0;
  for (RankId r = 0; r < loaded; ++r) {
    for (int i = 0; i < per_rank; ++i) {
      input.tasks[static_cast<std::size_t>(r)].push_back(
          {id++, rng.uniform(0.5, 1.5)});
    }
  }
  return input;
}

lb::LbParams small_tempered(bool nacks) {
  auto params = lb::LbParams::tempered();
  params.num_trials = 2;
  params.num_iterations = 3;
  params.use_nacks = nacks;
  return params;
}

struct CycleOutcome {
  std::vector<Migration> migrations;
  std::vector<std::vector<TaskId>> placement;
  std::uint64_t nacks = 0;
  std::array<std::size_t, rt::num_message_kinds> kind_messages{};
  std::array<std::size_t, rt::num_message_kinds> kind_bytes{};
};

/// One balance + migrate cycle at 32 ranks, with a `none`-profile fault
/// plane installed or with no hook at all.
CycleOutcome run_cycle(std::uint64_t seed, bool nacks, bool with_plane) {
  RankId const p = 32;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.seed = seed;
  rt::Runtime rt{cfg};
  rt::ObjectStore store{p};
  auto const input = clustered(p, 6, 24, derive_seed(seed, 0x7a5));
  for (std::size_t r = 0; r < input.tasks.size(); ++r) {
    for (auto const& t : input.tasks[r]) {
      store.create(static_cast<RankId>(r), t.id, std::make_unique<Blob>(40));
    }
  }
  std::unique_ptr<FaultPlane> plane;
  if (with_plane) {
    plane = install_fault_plane(rt, FaultConfig::none());
  }
  obs::LbReportBuilder report;
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  strategy.set_introspection(&report);
  auto const result = strategy.balance(rt, input, small_tempered(nacks));
  (void)store.migrate(rt, result.migrations);
  EXPECT_TRUE(store.failed_migrations().empty());
  rt.set_fault_hook(nullptr);

  CycleOutcome out;
  out.migrations = result.migrations;
  for (RankId r = 0; r < p; ++r) {
    out.placement.push_back(store.tasks_on(r));
  }
  out.nacks = report.finish(0).transfer_nacks;
  auto const stats = rt.stats();
  out.kind_messages = stats.kind_messages;
  out.kind_bytes = stats.kind_bytes;
  return out;
}

TEST(ProtocolPathTest, NoneProfilePlaneMatchesNoHook) {
  for (bool const nacks : {false, true}) {
    std::uint64_t nacks_seen = 0;
    for (std::uint64_t const seed : {0x11u, 0x2au, 0x5eedu, 0xbeefu}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " nacks=" + std::to_string(static_cast<int>(nacks)));
      auto const bare = run_cycle(seed, nacks, /*with_plane=*/false);
      auto const planed = run_cycle(seed, nacks, /*with_plane=*/true);
      EXPECT_FALSE(bare.migrations.empty());
      EXPECT_EQ(bare.migrations, planed.migrations);
      EXPECT_EQ(bare.placement, planed.placement);
      EXPECT_EQ(bare.nacks, planed.nacks);
      EXPECT_EQ(bare.kind_messages, planed.kind_messages);
      EXPECT_EQ(bare.kind_bytes, planed.kind_bytes);
      nacks_seen += bare.nacks;
    }
    if (nacks) {
      EXPECT_GT(nacks_seen, 0u) << "the bounce path was never exercised";
    }
  }
}

struct TransferRun {
  lb::StrategyResult result;
  obs::LbInvocationReport report;
  rt::NetworkStatsSnapshot stats;
};

TransferRun balance_under(FaultConfig const& faults, int max_attempts = 4) {
  RankId const p = 16;
  rt::RuntimeConfig cfg;
  cfg.num_ranks = p;
  cfg.seed = 0x90b;
  cfg.retry.max_attempts = max_attempts;
  rt::Runtime rt{cfg};
  auto plane = install_fault_plane(rt, faults);
  obs::LbReportBuilder report;
  lb::GossipStrategy strategy{lb::GossipStrategy::Flavor::tempered};
  strategy.set_introspection(&report);
  auto const input = clustered(p, 4, 30, 0xb0b);
  TransferRun run;
  run.result = strategy.balance(rt, input, small_tempered(/*nacks=*/true));
  run.report = report.finish(0);
  run.stats = rt.stats();
  rt.set_fault_hook(nullptr);
  return run;
}

TEST(ProtocolPathTest, DuplicatedBounceReturnsItsTaskOnce) {
  // Every transfer message — proposals and NACK bounces alike — is
  // duplicated. Each destination still decides each proposal once, and
  // each refused task comes home once: a second return would inflate its
  // origin's load and change the proposed imbalance of that iteration.
  FaultConfig dup;
  dup.name = "transfer-duplicates";
  dup.kinds[kTransfer].duplicate = 1.0;
  auto const clean = balance_under(FaultConfig::none());
  auto const duplicated = balance_under(dup);

  ASSERT_GT(clean.report.transfer_nacks, 0u);
  EXPECT_GT(duplicated.stats.kind_duplicated[kTransfer], 0u);
  EXPECT_EQ(duplicated.stats.kind_retried[kTransfer], 0u);
  EXPECT_EQ(duplicated.report.transfer_nacks, clean.report.transfer_nacks);
  EXPECT_EQ(duplicated.result.migrations, clean.result.migrations);
  ASSERT_EQ(duplicated.report.iterations.size(),
            clean.report.iterations.size());
  for (std::size_t i = 0; i < clean.report.iterations.size(); ++i) {
    EXPECT_EQ(duplicated.report.iterations[i].imbalance,
              clean.report.iterations[i].imbalance)
        << "iteration record " << i;
  }
}

TEST(ProtocolPathTest, TransferRetryBudgetCountsTotalAttempts) {
  // Every transfer message is lost, so every proposal uses its whole
  // budget: RetryPolicy::max_attempts counts the initial send, leaving
  // max_attempts - 1 retries per proposal before the driver takes the
  // task back. Taken back, every task is home again: each iteration
  // proposes the initial placement.
  FaultConfig blackhole;
  blackhole.name = "transfer-blackhole";
  blackhole.kinds[kTransfer].drop = 1.0;
  int const max_attempts = 3;
  auto const run = balance_under(blackhole, max_attempts);
  ASSERT_GT(run.report.transfers_accepted, 0u);
  EXPECT_EQ(run.stats.kind_retried[kTransfer],
            run.report.transfers_accepted *
                static_cast<std::uint64_t>(max_attempts - 1));
  EXPECT_EQ(run.report.transfer_nacks, 0u);
  EXPECT_TRUE(run.result.migrations.empty());
  ASSERT_FALSE(run.report.iterations.empty());
  for (auto const& iteration : run.report.iterations) {
    EXPECT_NEAR(iteration.imbalance, run.report.initial_imbalance, 1e-9);
  }
}

TEST(ProtocolPathTest, MigrationSendsNoAck) {
  // Fault-free, a migration is one driver post plus one payload send.
  rt::RuntimeConfig cfg;
  cfg.num_ranks = 4;
  rt::Runtime rt{cfg};
  rt::ObjectStore store{4};
  std::vector<Migration> batch;
  for (TaskId t = 0; t < 10; ++t) {
    store.create(0, t, std::make_unique<Blob>(24));
    batch.push_back(Migration{t, 0, static_cast<RankId>(1 + t % 3), 1.0});
  }
  auto plane = install_fault_plane(rt, FaultConfig::none());
  EXPECT_EQ(store.migrate(rt, batch), batch.size() * 24u);
  rt.set_fault_hook(nullptr);
  auto const stats = rt.stats();
  EXPECT_EQ(stats.kind_messages[kMigration], 2u * batch.size());
  EXPECT_EQ(stats.kind_bytes[kMigration], batch.size() * 24u);
  EXPECT_EQ(store.migration_count(), batch.size());
}

} // namespace
} // namespace tlb::fault
