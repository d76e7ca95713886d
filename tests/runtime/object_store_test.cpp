#include "runtime/object_store.hpp"

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/fault_plane.hpp"
#include "support/rng.hpp"

namespace tlb::rt {
namespace {

class Blob final : public Migratable {
public:
  explicit Blob(std::size_t size, int tag = 0) : size_{size}, tag_{tag} {}
  [[nodiscard]] std::size_t wire_bytes() const override { return size_; }
  [[nodiscard]] int tag() const { return tag_; }

private:
  std::size_t size_;
  int tag_;
};

RuntimeConfig config(RankId ranks, int threads = 1) {
  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.num_threads = threads;
  return cfg;
}

TEST(ObjectStore, CreateAndFind) {
  ObjectStore store{4};
  store.create(1, 100, std::make_unique<Blob>(64, 7));
  EXPECT_EQ(store.owner(100), 1);
  auto* blob = dynamic_cast<Blob*>(store.find(1, 100));
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->tag(), 7);
  EXPECT_EQ(store.find(0, 100), nullptr);
  EXPECT_EQ(store.owner(999), invalid_rank);
}

TEST(ObjectStore, TasksOnReportsSorted) {
  ObjectStore store{2};
  store.create(0, 5, std::make_unique<Blob>(1));
  store.create(0, 2, std::make_unique<Blob>(1));
  store.create(1, 3, std::make_unique<Blob>(1));
  auto const tasks = store.tasks_on(0);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0], 2);
  EXPECT_EQ(tasks[1], 5);
  EXPECT_EQ(store.total_tasks(), 3u);
}

TEST(ObjectStore, MigrateMovesPayload) {
  Runtime rt{config(4)};
  ObjectStore store{4};
  store.create(0, 10, std::make_unique<Blob>(128, 42));
  auto const bytes = store.migrate(rt, {Migration{10, 0, 3, 1.0}});
  EXPECT_EQ(bytes, 128u);
  EXPECT_EQ(store.owner(10), 3);
  EXPECT_EQ(store.find(0, 10), nullptr);
  auto* blob = dynamic_cast<Blob*>(store.find(3, 10));
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->tag(), 42);
}

TEST(ObjectStore, SelfMigrationIsNoop) {
  Runtime rt{config(2)};
  ObjectStore store{2};
  store.create(1, 7, std::make_unique<Blob>(32));
  auto const bytes = store.migrate(rt, {Migration{7, 1, 1, 1.0}});
  EXPECT_EQ(bytes, 0u);
  EXPECT_EQ(store.owner(7), 1);
  EXPECT_EQ(store.migration_count(), 0u);
}

TEST(ObjectStore, BatchMigrationAccounting) {
  Runtime rt{config(4)};
  ObjectStore store{4};
  store.create(0, 1, std::make_unique<Blob>(10));
  store.create(0, 2, std::make_unique<Blob>(20));
  store.create(1, 3, std::make_unique<Blob>(30));
  std::vector<Migration> const migrations{
      {1, 0, 2, 1.0}, {2, 0, 3, 1.0}, {3, 1, 0, 1.0}};
  auto const bytes = store.migrate(rt, migrations);
  EXPECT_EQ(bytes, 60u);
  EXPECT_EQ(store.migration_bytes(), 60u);
  EXPECT_EQ(store.migration_count(), 3u);
  EXPECT_EQ(store.owner(1), 2);
  EXPECT_EQ(store.owner(2), 3);
  EXPECT_EQ(store.owner(3), 0);
}

TEST(ObjectStore, ChainedMigrationsAcrossInvocations) {
  Runtime rt{config(3)};
  ObjectStore store{3};
  store.create(0, 1, std::make_unique<Blob>(8, 5));
  (void)store.migrate(rt, {Migration{1, 0, 1, 1.0}});
  (void)store.migrate(rt, {Migration{1, 1, 2, 1.0}});
  EXPECT_EQ(store.owner(1), 2);
  auto* blob = dynamic_cast<Blob*>(store.find(2, 1));
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->tag(), 5);
}

TEST(ObjectStore, MigrationTrafficVisibleInRuntimeStats) {
  Runtime rt{config(2)};
  ObjectStore store{2};
  store.create(0, 1, std::make_unique<Blob>(512));
  rt.reset_stats();
  (void)store.migrate(rt, {Migration{1, 0, 1, 1.0}});
  EXPECT_GE(rt.stats().bytes, 512u);
}

TEST(ObjectStoreDeath, DuplicateTaskIdAborts) {
  ObjectStore store{2};
  store.create(0, 1, std::make_unique<Blob>(1));
  EXPECT_DEATH(store.create(1, 1, std::make_unique<Blob>(1)),
               "precondition");
}

TEST(ObjectStore, UnknownIdsHaveNoOwnerAndNoPayload) {
  ObjectStore store{2};
  store.create(1, 4, std::make_unique<Blob>(1));
  for (TaskId const id : {TaskId{-1}, TaskId{-1000}, TaskId{2}, TaskId{5},
                          TaskId{1'000'000}}) {
    EXPECT_EQ(store.owner(id), invalid_rank) << id;
    EXPECT_EQ(store.find(0, id), nullptr) << id;
    EXPECT_EQ(store.find(1, id), nullptr) << id;
  }
}

struct DifferentialCase {
  int threads;
  bool chaos;
};

class ObjectStoreDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

// Random migration batches against a std::map reference model. Ids are
// sparse (gaps and one large id); under the chaos plane with a single
// attempt per migration some commits are lost and roll back, and the model
// takes those from failed_migrations().
TEST_P(ObjectStoreDifferential, MatchesMapModelAcrossMigrateBatches) {
  RankId const p = 6;
  auto cfg = config(p, GetParam().threads);
  cfg.seed = 77;
  cfg.retry.max_attempts = 1;
  Runtime rt{cfg};
  ObjectStore store{p};
  std::unique_ptr<fault::FaultPlane> plane;
  if (GetParam().chaos) {
    plane = fault::install_fault_plane(rt, fault::FaultConfig::chaos());
  }

  Rng rng{2024};
  std::map<TaskId, RankId> model;
  for (TaskId id = 0; id < 400; id += 1 + static_cast<TaskId>(rng.index(4))) {
    model[id] = static_cast<RankId>(rng.index(p));
  }
  model[50'000] = 2;
  for (auto const& [id, rank] : model) {
    store.create(rank, id, std::make_unique<Blob>(16, static_cast<int>(id)));
  }
  std::vector<TaskId> ids;
  for (auto const& [id, rank] : model) {
    ids.push_back(id);
  }

  auto expect_matches_model = [&](int batch) {
    SCOPED_TRACE(batch);
    ASSERT_EQ(store.total_tasks(), model.size());
    std::vector<std::vector<TaskId>> on_rank(static_cast<std::size_t>(p));
    for (auto const& [id, rank] : model) {
      on_rank[static_cast<std::size_t>(rank)].push_back(id);
      ASSERT_EQ(store.owner(id), rank) << id;
      for (RankId r = 0; r < p; ++r) {
        auto const* blob = dynamic_cast<Blob const*>(
            std::as_const(store).find(r, id));
        if (r == rank) {
          ASSERT_NE(blob, nullptr) << id;
          EXPECT_EQ(blob->tag(), id);
        } else {
          EXPECT_EQ(blob, nullptr) << id << " on " << r;
        }
      }
    }
    for (RankId r = 0; r < p; ++r) {
      EXPECT_EQ(store.tasks_on(r), on_rank[static_cast<std::size_t>(r)]);
    }
    // Gaps stay unknown.
    EXPECT_EQ(store.owner(401), invalid_rank);
    EXPECT_EQ(store.owner(49'999), invalid_rank);
  };

  expect_matches_model(-1);
  std::size_t rolled_back = 0;
  for (int batch = 0; batch < 12; ++batch) {
    rng.shuffle(std::span{ids});
    std::vector<Migration> migrations;
    for (std::size_t i = 0; i < ids.size() / 3; ++i) {
      TaskId const id = ids[i];
      migrations.push_back(
          {id, model[id], static_cast<RankId>(rng.index(p)), 1.0});
    }
    (void)store.migrate(rt, migrations);
    std::map<TaskId, RankId> failed;
    for (Migration const& m : store.failed_migrations()) {
      failed[m.task] = m.from;
    }
    rolled_back += failed.size();
    for (Migration const& m : migrations) {
      if (!failed.contains(m.task)) {
        model[m.task] = m.to;
      }
    }
    expect_matches_model(batch);
  }
  if (GetParam().chaos) {
    EXPECT_GT(rolled_back, 0u); // the rollback path was exercised
  } else {
    EXPECT_EQ(rolled_back, 0u);
  }
  if (plane != nullptr) {
    rt.set_fault_hook(nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DriversAndFaults, ObjectStoreDifferential,
    ::testing::Values(DifferentialCase{1, false}, DifferentialCase{1, true},
                      DifferentialCase{3, false}, DifferentialCase{3, true}),
    [](auto const& param_info) {
      return std::to_string(param_info.param.threads) + "threads" +
             (param_info.param.chaos ? "Chaos" : "Clean");
    });

TEST(ObjectStoreDeath, NegativeTaskIdAborts) {
  ObjectStore store{2};
  EXPECT_DEATH(store.create(0, -1, std::make_unique<Blob>(1)),
               "precondition");
}

TEST(ObjectStoreDeath, MigrateWithWrongSourceAborts) {
  Runtime rt{config(2)};
  ObjectStore store{2};
  store.create(0, 1, std::make_unique<Blob>(1));
  EXPECT_DEATH((void)store.migrate(rt, {Migration{1, 1, 0, 1.0}}),
               "precondition");
}

} // namespace
} // namespace tlb::rt
