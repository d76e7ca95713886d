#include "runtime/object_store.hpp"

#include <cstdint>

#include "obs/tracer.hpp"
#include "support/assert.hpp"
#include "support/check.hpp"

namespace tlb::rt {

ObjectStore::ObjectStore(RankId num_ranks)
    : local_(static_cast<std::size_t>(num_ranks)) {
  TLB_EXPECTS(num_ranks > 0);
}

void ObjectStore::create(RankId rank, TaskId id,
                         std::unique_ptr<Migratable> payload) {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  TLB_EXPECTS(payload != nullptr);
  auto const [it, inserted] = directory_.emplace(id, rank);
  (void)it;
  TLB_EXPECTS(inserted);
  local_[static_cast<std::size_t>(rank)].emplace(id, std::move(payload));
}

RankId ObjectStore::owner(TaskId id) const {
  auto const it = directory_.find(id);
  return it == directory_.end() ? invalid_rank : it->second;
}

Migratable* ObjectStore::find(RankId rank, TaskId id) {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  auto& map = local_[static_cast<std::size_t>(rank)];
  auto const it = map.find(id);
  return it == map.end() ? nullptr : it->second.get();
}

Migratable const* ObjectStore::find(RankId rank, TaskId id) const {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  auto const& map = local_[static_cast<std::size_t>(rank)];
  auto const it = map.find(id);
  return it == map.end() ? nullptr : it->second.get();
}

std::vector<TaskId> ObjectStore::tasks_on(RankId rank) const {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  std::vector<TaskId> out;
  auto const& map = local_[static_cast<std::size_t>(rank)];
  out.reserve(map.size());
  for (auto const& [id, payload] : map) {
    out.push_back(id);
  }
  return out;
}

std::size_t ObjectStore::total_tasks() const { return directory_.size(); }

std::size_t ObjectStore::migrate(Runtime& rt,
                                 std::vector<Migration> const& migrations) {
  // Idempotent commit protocol. Timeouts are quiescence boundaries: after
  // run_until_quiescent an unapplied slot means the payload (or the driver
  // post carrying it) was provably lost, so the driver retries with
  // exponential backoff until the policy's attempt budget runs out, then
  // rolls the migration back.
  TLB_SPAN_ARG("rt", "migrate", "count", migrations.size());
  failed_.clear();
  [[maybe_unused]] std::size_t audit_tasks_before = 0;
  TLB_AUDIT_BLOCK { audit_tasks_before = directory_.size(); }
  RetryPolicy const& retry = rt.config().retry;

  struct CommitSlot {
    Migration mig;
    std::size_t bytes = 0;
    int attempts = 0;
    // Extracted payload. Owned here until the destination installs it, so
    // a dropped message never loses the task.
    std::unique_ptr<Migratable> payload;
    // Written only by the destination's install handler, so it is also
    // the dedup record: a duplicated (or retried-then-late-delivered)
    // commit finds it set and is a no-op. Read by the driver only after
    // quiescence.
    char applied = 0;
  };

  std::vector<CommitSlot> slots;
  slots.reserve(migrations.size());
  for (Migration const& m : migrations) {
    TLB_EXPECTS(m.to >= 0 && m.to < num_ranks());
    auto const dir = directory_.find(m.task);
    TLB_EXPECTS(dir != directory_.end());
    TLB_EXPECTS(dir->second == m.from);
    if (m.from == m.to) {
      continue;
    }
    auto& from_map = local_[static_cast<std::size_t>(m.from)];
    auto const it = from_map.find(m.task);
    // The payload must be resident at the origin; a task listed twice in
    // one batch was already extracted by its first entry.
    TLB_EXPECTS(it != from_map.end());
    CommitSlot slot;
    slot.mig = m;
    slot.bytes = it->second->wire_bytes();
    slot.payload = std::move(it->second);
    from_map.erase(it);
    slots.push_back(std::move(slot));
  }

  // `slots` is never resized below, so handlers may hold slot pointers.
  auto post_attempt = [this, &rt](CommitSlot* slot,
                                  std::uint64_t delay_polls) {
    ++slot->attempts;
    auto* store = this;
    rt.post_delayed(
        slot->mig.from,
        [store, slot](RankContext& ctx) {
          ctx.send(
              slot->mig.to, slot->bytes,
              [store, slot](RankContext& dest) {
                if (slot->applied != 0) {
                  return; // duplicate commit: idempotent no-op
                }
                store->local_[static_cast<std::size_t>(dest.rank())].emplace(
                    slot->mig.task, std::move(slot->payload));
                slot->applied = 1;
              },
              MessageKind::migration);
        },
        delay_polls, 0, MessageKind::migration);
  };

  for (CommitSlot& slot : slots) {
    post_attempt(&slot, 0);
  }
  rt.run_until_quiescent();

  int const max_attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  for (;;) {
    bool retried = false;
    for (CommitSlot& slot : slots) {
      if (slot.applied != 0 || slot.attempts >= max_attempts) {
        continue;
      }
      std::uint64_t backoff = retry.backoff_base_polls
                              << (static_cast<unsigned>(slot.attempts) - 1u);
      if (backoff > retry.max_backoff_polls) {
        backoff = retry.max_backoff_polls;
      }
      rt.record_retry(MessageKind::migration);
      post_attempt(&slot, backoff);
      retried = true;
    }
    if (!retried) {
      break;
    }
    rt.run_until_quiescent();
  }

  std::size_t moved_bytes = 0;
  for (CommitSlot& slot : slots) {
    if (slot.applied != 0) {
      // Commit: the destination holds the payload; only now does the
      // directory learn the new owner (a failed round must leave it
      // pointing at the origin).
      directory_[slot.mig.task] = slot.mig.to;
      moved_bytes += slot.bytes;
      ++migration_count_;
    } else {
      // Retry budget exhausted: roll back. The payload never left the
      // driver-held slot (every delivery attempt was dropped), so it is
      // reinstated at the origin and the directory stays untouched.
      TLB_ASSERT(slot.payload != nullptr);
      local_[static_cast<std::size_t>(slot.mig.from)].emplace(
          slot.mig.task, std::move(slot.payload));
      failed_.push_back(slot.mig);
    }
  }

  TLB_AUDIT_BLOCK {
    // Task conservation: a migration batch must neither create nor destroy
    // tasks (commits moved the payload, rollbacks reinstated it), every
    // payload must be resident on exactly one rank once the protocol
    // quiesces, and directory and residency must agree per commit or
    // rollback.
    TLB_INVARIANT(directory_.size() == audit_tasks_before,
                  "migration conserves the global task count");
    std::size_t resident = 0;
    for (auto const& rank_map : local_) {
      resident += rank_map.size();
    }
    TLB_INVARIANT(resident == directory_.size(),
                  "every task resident on exactly one rank after migrate");
    bool placement_agrees = true;
    for (CommitSlot const& slot : slots) {
      RankId const expect =
          slot.applied != 0 ? slot.mig.to : slot.mig.from;
      placement_agrees = placement_agrees &&
                         owner(slot.mig.task) == expect &&
                         find(expect, slot.mig.task) != nullptr;
    }
    TLB_INVARIANT(placement_agrees,
                  "directory and residency agree per commit/rollback");
  }
  migration_bytes_ += moved_bytes;
  return moved_bytes;
}

} // namespace tlb::rt
