#include "runtime/phase.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace tlb::rt {

PhaseInstrumentation::PhaseInstrumentation(RankId num_ranks)
    : current_(static_cast<std::size_t>(num_ranks)),
      previous_(static_cast<std::size_t>(num_ranks)) {
  TLB_EXPECTS(num_ranks > 0);
}

void PhaseInstrumentation::start_phase() {
  // Swap and clear rather than reallocate: each rank's list keeps its
  // capacity for the phase after next.
  std::swap(previous_, current_);
  for (auto& entries : current_) {
    entries.clear();
  }
  ++phase_;
}

void PhaseInstrumentation::record(RankId rank, TaskId task, LoadType load) {
  TLB_EXPECTS(rank >= 0 &&
              static_cast<std::size_t>(rank) < current_.size());
  TLB_EXPECTS(load >= 0.0);
  auto& entries = current_[static_cast<std::size_t>(rank)];
  // Tasks usually arrive in ascending id, which is a plain append.
  if (entries.empty() || entries.back().id < task) {
    entries.push_back({task, load});
    return;
  }
  auto const it = std::lower_bound(
      entries.begin(), entries.end(), task,
      [](lb::TaskEntry const& e, TaskId id) { return e.id < id; });
  if (it != entries.end() && it->id == task) {
    it->load += load;
  } else {
    entries.insert(it, {task, load});
  }
}

std::vector<lb::TaskEntry>
PhaseInstrumentation::previous_tasks(RankId rank) const {
  TLB_EXPECTS(rank >= 0 &&
              static_cast<std::size_t>(rank) < previous_.size());
  return previous_[static_cast<std::size_t>(rank)];
}

std::vector<LoadType> PhaseInstrumentation::previous_rank_loads() const {
  std::vector<LoadType> out(previous_.size(), 0.0);
  for (std::size_t r = 0; r < previous_.size(); ++r) {
    for (lb::TaskEntry const& e : previous_[r]) {
      out[r] += e.load;
    }
  }
  return out;
}

std::vector<lb::TaskEntry>
PhaseInstrumentation::current_tasks(RankId rank) const {
  TLB_EXPECTS(rank >= 0 &&
              static_cast<std::size_t>(rank) < current_.size());
  return current_[static_cast<std::size_t>(rank)];
}

} // namespace tlb::rt
