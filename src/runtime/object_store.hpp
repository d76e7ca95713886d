#pragma once

/// \file object_store.hpp
/// The migratable-object (task) model: every task owns a payload that
/// moves with it when the load balancer reassigns it to another rank.
/// Payload movement is performed with active messages carrying the object,
/// so migration traffic is visible in the network statistics with the
/// payload's modeled serialized size.

#include <memory>
#include <vector>

#include "runtime/runtime.hpp"
#include "support/types.hpp"

namespace tlb::rt {

/// Base class for anything a task carries across ranks. Implementations
/// report their modeled serialized size for migration-cost accounting.
class Migratable {
public:
  virtual ~Migratable() = default;
  Migratable() = default;
  Migratable(Migratable const&) = delete;
  Migratable& operator=(Migratable const&) = delete;

  /// Modeled wire size of this object if it were serialized.
  [[nodiscard]] virtual std::size_t wire_bytes() const = 0;
};

/// Per-job store of migratable tasks. One flat table indexed by task id
/// holds each task's directory owner (standing in for the distributed
/// location service a real AMT runtime maintains), the rank its payload is
/// resident on, and the payload itself; a per-rank id-sorted list backs
/// tasks_on(). Task ids are dense and non-negative, so memory is O(max id).
///
/// Thread-safety: creation and the migration protocol are driver-level
/// operations executed between phases; handlers running concurrently
/// during a phase may only touch tasks local to their own rank. No lock
/// guards the store, so there is no capability to annotate
/// (support/thread_annotations.hpp) — the phase-discipline argument is
/// exercised by the TSan stress gate and the migration conservation
/// audits instead.
class ObjectStore {
public:
  explicit ObjectStore(RankId num_ranks);

  /// Register a new task on `rank`. Task ids must be unique and
  /// non-negative; the table grows to the largest id created.
  void create(RankId rank, TaskId id, std::unique_ptr<Migratable> payload);

  /// Current owner of a task; invalid_rank if unknown (including negative
  /// and past-the-end ids).
  [[nodiscard]] RankId owner(TaskId id) const;

  /// Payload access; null when the task is not on `rank`.
  [[nodiscard]] Migratable* find(RankId rank, TaskId id);
  [[nodiscard]] Migratable const* find(RankId rank, TaskId id) const;

  /// Task ids currently on `rank` (sorted).
  [[nodiscard]] std::vector<TaskId> tasks_on(RankId rank) const;

  [[nodiscard]] std::size_t total_tasks() const { return task_count_; }
  [[nodiscard]] RankId num_ranks() const {
    return static_cast<RankId>(local_.size());
  }

  /// Execute a batch of migrations via active messages on the runtime
  /// and run to quiescence: the driver extracts each payload into a commit
  /// slot and posts one send to the origin rank, which ships the payload
  /// to the target; the target installs it and marks the slot applied.
  /// Fault-free, that is one driver post plus one payload send per
  /// migration, with no acknowledgement.
  ///
  /// Preconditions (contract violations otherwise): every task is in the
  /// directory with `from` as its owner, its payload is resident at
  /// `from`, and no task appears twice in the batch.
  ///
  /// The commit is idempotent and retried: a duplicated payload message
  /// finds its slot applied and is a no-op, and a slot still unapplied at
  /// quiescence (every delivery lost) is resent with bounded exponential
  /// backoff per rt.config().retry. A migration whose attempt budget runs
  /// out is rolled back: the payload is reinstated at the origin, the
  /// directory keeps the origin as owner, and the migration is reported
  /// through failed_migrations(). Returns the payload bytes committed.
  std::size_t migrate(Runtime& rt, std::vector<Migration> const& migrations);

  /// Migrations from the most recent migrate() call whose commit could not
  /// be completed before the retry budget ran out (only possible when a
  /// fault plane loses messages). Their tasks remain resident at the
  /// origin rank.
  [[nodiscard]] std::vector<Migration> const& failed_migrations() const {
    return failed_;
  }

  /// Cumulative payload bytes moved by all migrate() calls.
  [[nodiscard]] std::size_t migration_bytes() const {
    return migration_bytes_;
  }
  [[nodiscard]] std::size_t migration_count() const {
    return migration_count_;
  }

private:
  struct Entry {
    /// Directory: the rank the task belongs to; invalid_rank for an id
    /// never created. Written only by the driver.
    RankId owner = invalid_rank;
    /// Rank holding the payload; invalid_rank while a migration holds it
    /// in a commit slot.
    RankId resident = invalid_rank;
    std::unique_ptr<Migratable> payload;
  };

  [[nodiscard]] Entry const* entry(TaskId id) const;
  /// Add `id` to / remove it from `rank`'s sorted residency list.
  void insert_local(RankId rank, TaskId id);
  void erase_local(RankId rank, TaskId id);

  /// Indexed by task id. Never resized inside migrate(): install handlers
  /// on different ranks write distinct entries concurrently.
  std::vector<Entry> entries_;
  /// Per rank, the ids resident there in ascending order.
  std::vector<std::vector<TaskId>> local_;
  std::size_t task_count_ = 0;
  std::vector<Migration> failed_;
  std::size_t migration_bytes_ = 0;
  std::size_t migration_count_ = 0;
};

} // namespace tlb::rt
