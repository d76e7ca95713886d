#include "runtime/object_store.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

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
  TLB_EXPECTS(id >= 0);
  TLB_EXPECTS(payload != nullptr);
  auto const index = static_cast<std::size_t>(id);
  if (index >= entries_.size()) {
    entries_.resize(index + 1);
  }
  Entry& e = entries_[index];
  TLB_EXPECTS(e.owner == invalid_rank);
  e.owner = rank;
  e.resident = rank;
  e.payload = std::move(payload);
  insert_local(rank, id);
  ++task_count_;
}

ObjectStore::Entry const* ObjectStore::entry(TaskId id) const {
  // A negative id converts to a huge index, so one compare rejects both.
  auto const index = static_cast<std::size_t>(id);
  return index < entries_.size() ? &entries_[index] : nullptr;
}

void ObjectStore::insert_local(RankId rank, TaskId id) {
  auto& ids = local_[static_cast<std::size_t>(rank)];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

void ObjectStore::erase_local(RankId rank, TaskId id) {
  auto& ids = local_[static_cast<std::size_t>(rank)];
  auto const it = std::lower_bound(ids.begin(), ids.end(), id);
  TLB_ASSERT(it != ids.end() && *it == id);
  ids.erase(it);
}

RankId ObjectStore::owner(TaskId id) const {
  Entry const* e = entry(id);
  return e == nullptr ? invalid_rank : e->owner;
}

Migratable* ObjectStore::find(RankId rank, TaskId id) {
  return const_cast<Migratable*>(std::as_const(*this).find(rank, id));
}

Migratable const* ObjectStore::find(RankId rank, TaskId id) const {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  Entry const* e = entry(id);
  return e != nullptr && e->resident == rank ? e->payload.get() : nullptr;
}

std::vector<TaskId> ObjectStore::tasks_on(RankId rank) const {
  TLB_EXPECTS(rank >= 0 && rank < num_ranks());
  return local_[static_cast<std::size_t>(rank)];
}

std::size_t ObjectStore::migrate(Runtime& rt,
                                 std::vector<Migration> const& migrations) {
  // Idempotent commit protocol. Timeouts are quiescence boundaries: after
  // run_until_quiescent an unapplied slot means the payload (or the driver
  // post carrying it) was provably lost, so the driver retries with
  // exponential backoff until the policy's attempt budget runs out, then
  // rolls the migration back.
  TLB_SPAN_ARG("rt", "migrate", "count", migrations.size());
  failed_.clear();
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
    TLB_EXPECTS(owner(m.task) != invalid_rank);
    Entry& e = entries_[static_cast<std::size_t>(m.task)];
    TLB_EXPECTS(e.owner == m.from);
    if (m.from == m.to) {
      continue;
    }
    // The payload must be resident at the origin; a task listed twice in
    // one batch was already extracted by its first entry.
    TLB_EXPECTS(e.resident == m.from);
    CommitSlot slot;
    slot.mig = m;
    slot.bytes = e.payload->wire_bytes();
    slot.payload = std::move(e.payload);
    e.resident = invalid_rank;
    erase_local(m.from, m.task);
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
                // Touches only this task's entry and this rank's list.
                Entry& e =
                    store->entries_[static_cast<std::size_t>(slot->mig.task)];
                e.payload = std::move(slot->payload);
                e.resident = dest.rank();
                store->insert_local(dest.rank(), slot->mig.task);
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
      entries_[static_cast<std::size_t>(slot.mig.task)].owner = slot.mig.to;
      moved_bytes += slot.bytes;
      ++migration_count_;
    } else {
      // Retry budget exhausted: roll back. The payload never left the
      // driver-held slot (every delivery attempt was dropped), so it is
      // reinstated at the origin and the directory stays untouched.
      TLB_ASSERT(slot.payload != nullptr);
      Entry& e = entries_[static_cast<std::size_t>(slot.mig.task)];
      e.payload = std::move(slot.payload);
      e.resident = slot.mig.from;
      insert_local(slot.mig.from, slot.mig.task);
      failed_.push_back(slot.mig);
    }
  }

  TLB_AUDIT_BLOCK {
    // Task conservation: a migration batch must neither create nor destroy
    // tasks (commits moved the payload, rollbacks reinstated it), every
    // payload must be resident on exactly one rank once the protocol
    // quiesces, and directory and residency must agree per commit or
    // rollback. The directory, recounted from the table, must still hold
    // every task create() registered (migrate never touches task_count_).
    auto const tasks = static_cast<std::size_t>(
        std::count_if(entries_.begin(), entries_.end(), [](Entry const& e) {
          return e.owner != invalid_rank;
        }));
    TLB_INVARIANT(tasks == task_count_,
                  "migration conserves the global task count");
    // Each task listed on its resident rank, and the lists hold no more
    // ids than there are tasks: so each task is listed exactly once.
    std::size_t listed = 0;
    for (auto const& ids : local_) {
      listed += ids.size();
    }
    bool every_task_listed = true;
    for (std::size_t id = 0; id < entries_.size(); ++id) {
      Entry const& e = entries_[id];
      if (e.owner == invalid_rank) {
        continue;
      }
      every_task_listed =
          every_task_listed && e.payload != nullptr &&
          e.resident != invalid_rank &&
          std::binary_search(
              local_[static_cast<std::size_t>(e.resident)].begin(),
              local_[static_cast<std::size_t>(e.resident)].end(),
              static_cast<TaskId>(id));
    }
    TLB_INVARIANT(every_task_listed && listed == tasks,
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
