/// \file knowledge_model_test.cpp
/// Differential test of lb::Knowledge (membership bitmap, unsorted merge
/// tail, settled on read) against SortedKnowledge, the plain sorted-vector
/// semantics restated: every operation keeps the list sorted, and merge
/// walks the whole local list. Seeded random sequences of
/// every mutation and reader run on both; after every step the real
/// knowledge must hold the same (rank, version, load) entries, the same
/// version mark and pack to the same bytes. The per-step comparison runs
/// on a copy, so the knowledge under test keeps its unsettled tail across
/// steps and several merges can pile up before a reader settles them.
/// Knowledge travels only as bytes, so every real merge is a wire merge
/// (Knowledge::merge_packed, decoding and merging in one pass), checked
/// against the model's unpack followed by its sorted-walk merge.

#include "lb/knowledge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "knowledge_wire.hpp"
#include "runtime/serialize.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

/// The sorted-vector Knowledge: every operation keeps the entries sorted
/// by rank, and merge walks the whole local list.
class SortedKnowledge {
public:
  void insert(RankId rank, LoadType load) {
    auto const it = lower_bound_rank(rank);
    if (it != entries_.end() && it->rank == rank) {
      it->load = load;
      it->version = next_version_++;
      return;
    }
    entries_.insert(it, KnownRank{rank, next_version_++, load});
  }

  void merge(SortedKnowledge const& other) {
    std::vector<KnownRank> out;
    auto a = entries_.begin();
    for (auto const& e : other.entries_) {
      while (a != entries_.end() && a->rank < e.rank) {
        out.push_back(*a++);
      }
      if (a != entries_.end() && a->rank == e.rank) {
        out.push_back(*a++); // local load wins
      } else {
        out.push_back(KnownRank{e.rank, next_version_++, e.load});
      }
    }
    out.insert(out.end(), a, entries_.end());
    entries_ = std::move(out);
  }

  void add_load(RankId rank, LoadType delta) {
    auto const it = lower_bound_rank(rank);
    ASSERT_TRUE(it != entries_.end() && it->rank == rank);
    it->load += delta;
    it->version = next_version_++;
  }

  [[nodiscard]] bool contains(RankId rank) const {
    auto const it = std::lower_bound(
        entries_.begin(), entries_.end(), rank,
        [](KnownRank const& e, RankId r) { return e.rank < r; });
    return it != entries_.end() && it->rank == rank;
  }

  [[nodiscard]] LoadType load_of(RankId rank) const {
    auto const it = std::lower_bound(
        entries_.begin(), entries_.end(), rank,
        [](KnownRank const& e, RankId r) { return e.rank < r; });
    return it->load;
  }

  void clear() {
    entries_.clear();
    next_version_ = 1;
    truncated_ = false;
  }

  void truncate_random(std::size_t cap, Rng& rng) {
    if (cap == 0 || entries_.size() <= cap) {
      return;
    }
    for (std::size_t i = 0; i < cap; ++i) {
      auto const j = i + rng.index(entries_.size() - i);
      std::swap(entries_[i], entries_[j]);
    }
    entries_.resize(cap);
    std::sort(entries_.begin(), entries_.end(), by_rank);
    truncated_ = true;
  }

  [[nodiscard]] std::uint32_t version_mark() const {
    return next_version_ - 1;
  }
  bool take_truncated() { return std::exchange(truncated_, false); }

  [[nodiscard]] SortedKnowledge delta_copy(std::uint32_t since) const {
    SortedKnowledge out;
    for (auto const& e : entries_) {
      if (e.version > since) {
        out.entries_.push_back(
            KnownRank{e.rank, out.next_version_++, e.load});
      }
    }
    return out;
  }

  void pack_since(rt::Packer& packer, std::uint32_t since) const {
    std::size_t count = 0;
    for (auto const& e : entries_) {
      count += e.version > since ? 1 : 0;
    }
    packer.pack_varint(count);
    RankId prev = -1;
    for (auto const& e : entries_) {
      if (e.version > since) {
        packer.pack_varint(static_cast<std::uint64_t>(e.rank - prev - 1));
        prev = e.rank;
      }
    }
    for (auto const& e : entries_) {
      if (e.version > since) {
        packer.pack(e.load);
      }
    }
  }

  void unpack_into(rt::Unpacker& unpacker) {
    auto const n = static_cast<std::size_t>(unpacker.unpack_varint());
    entries_.assign(n, KnownRank{});
    std::int64_t prev = -1;
    for (std::size_t i = 0; i < n; ++i) {
      prev = prev + 1 + static_cast<std::int64_t>(unpacker.unpack_varint());
      entries_[i].rank = static_cast<RankId>(prev);
      entries_[i].version = static_cast<std::uint32_t>(i) + 1;
    }
    for (auto& e : entries_) {
      e.load = unpacker.unpack<LoadType>();
    }
    next_version_ = static_cast<std::uint32_t>(n) + 1;
    truncated_ = false;
  }

  [[nodiscard]] std::vector<KnownRank> const& entries() const {
    return entries_;
  }

private:
  static bool by_rank(KnownRank const& a, KnownRank const& b) {
    return a.rank < b.rank;
  }
  std::vector<KnownRank>::iterator lower_bound_rank(RankId rank) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), rank,
        [](KnownRank const& e, RankId r) { return e.rank < r; });
  }

  std::vector<KnownRank> entries_;
  std::uint32_t next_version_ = 1;
  bool truncated_ = false;
};

using wire::packed;

std::vector<std::byte> packed(SortedKnowledge const& k,
                              std::uint32_t since) {
  rt::Packer p;
  k.pack_since(p, since);
  return std::move(p).take();
}

/// Same entries, stamps included (KnownRank's == ignores the stamp).
void expect_same_entries(std::span<KnownRank const> got,
                         std::vector<KnownRank> const& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].rank, want[i].rank) << "slot " << i;
    ASSERT_EQ(got[i].version, want[i].version) << "rank " << want[i].rank;
    ASSERT_EQ(got[i].load, want[i].load) << "rank " << want[i].rank;
  }
}

/// The full comparison, made on a copy so `real` keeps its tail.
void expect_matches(Knowledge const& real, SortedKnowledge const& model,
                    RankId rank_space) {
  ASSERT_EQ(real.size(), model.entries().size());
  ASSERT_EQ(real.version_mark(), model.version_mark());
  for (RankId r = 0; r < rank_space; ++r) {
    ASSERT_EQ(real.contains(r), model.contains(r)) << "rank " << r;
  }
  Knowledge const view = real;
  expect_same_entries(view.entries(), model.entries());
  ASSERT_EQ(packed(view, 0), packed(model, 0));
  auto const mid = model.version_mark() / 2;
  ASSERT_EQ(packed(view, mid), packed(model, mid));
}

/// A random payload, inserted in random rank order so the real one
/// arrives with an unsettled tail of its own.
void fill_random(Knowledge& real, SortedKnowledge& model, Rng& rng,
                 RankId rank_space) {
  auto const n = rng.index(static_cast<std::size_t>(rank_space) / 2 + 2);
  for (std::size_t i = 0; i < n; ++i) {
    auto const rank = static_cast<RankId>(
        rng.index(static_cast<std::size_t>(rank_space)));
    auto const load = rng.uniform(0.0, 4.0);
    real.insert(rank, load);
    model.insert(rank, load);
  }
}

RankId pick_known(SortedKnowledge const& model, Rng& rng) {
  return model.entries()[rng.index(model.entries().size())].rank;
}

class KnowledgeModel : public ::testing::TestWithParam<RankId> {};

TEST_P(KnowledgeModel, RandomSequencesMatchTheSortedVectorModel) {
  RankId const rank_space = GetParam();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng{seed * 7919 + static_cast<std::uint64_t>(rank_space)};
    Knowledge real;
    SortedKnowledge model;
    Knowledge inbox; // a receiver cleared and refilled across steps
    SortedKnowledge model_inbox;
    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      auto const op = rng.index(22);
      bool const known = !model.entries().empty();
      if (op < 5) {
        auto const rank = static_cast<RankId>(
            rng.index(static_cast<std::size_t>(rank_space)));
        auto const load = rng.uniform(0.0, 4.0);
        real.insert(rank, load);
        model.insert(rank, load);
      } else if (op < 11) {
        Knowledge incoming;
        SortedKnowledge model_incoming;
        fill_random(incoming, model_incoming, rng, rank_space);
        wire::merge(real, incoming);
        model.merge(model_incoming);
      } else if (op == 11 && known) {
        auto const rank = pick_known(model, rng);
        auto const delta = rng.uniform(-1.0, 1.0);
        real.add_load(rank, delta);
        model.add_load(rank, delta);
      } else if (op == 12) {
        auto const rank = static_cast<RankId>(
            rng.index(static_cast<std::size_t>(rank_space) + 70));
        ASSERT_EQ(real.contains(rank), model.contains(rank));
        if (model.contains(rank)) {
          ASSERT_EQ(real.load_of(rank), model.load_of(rank));
        }
      } else if (op == 13) {
        auto const cap = rng.index(model.entries().size() + 3);
        Rng real_rng{seed + static_cast<std::uint64_t>(step)};
        Rng model_rng = real_rng;
        real.truncate_random(cap, real_rng);
        model.truncate_random(cap, model_rng);
        ASSERT_EQ(real_rng.uniform_below(1u << 30),
                  model_rng.uniform_below(1u << 30));
      } else if (op == 14 && known) {
        // An insert that overwrites a known rank settles the tail first.
        auto const rank = pick_known(model, rng);
        auto const load = rng.uniform(0.0, 4.0);
        real.insert(rank, load);
        model.insert(rank, load);
      } else if (op == 15) {
        ASSERT_EQ(real.take_truncated(), model.take_truncated());
      } else if (op == 16) {
        // What a fresh receiver makes of a delta: the shipped entries,
        // restamped 1..n.
        auto const since = static_cast<std::uint32_t>(
            rng.index(static_cast<std::size_t>(model.version_mark()) + 1));
        expect_matches(wire::received(real, since), model.delta_copy(since),
                       rank_space + 200);
      } else if (op == 17) {
        // A forward and a delivery: pack (full or delta), decode into the
        // cleared, reused inbox, merge the inbox back in.
        auto const since =
            rng.index(2) == 0
                ? 0u
                : static_cast<std::uint32_t>(rng.index(
                      static_cast<std::size_t>(model.version_mark()) + 1));
        auto const bytes = packed(real, since);
        ASSERT_EQ(bytes, packed(model, since));
        inbox.clear();
        wire::merge_bytes(inbox, bytes);
        rt::Unpacker mu{bytes};
        model_inbox.unpack_into(mu);
        expect_matches(inbox, model_inbox, rank_space + 200);
        wire::merge(real, inbox);
        model.merge(model_inbox);
      } else if (op == 18 && rng.index(4) == 0) {
        real.clear();
        model.clear();
      } else if (op >= 20) {
        // A delivery merged straight from the wire: a peer's payload
        // (known and fresh ranks mixed) or an echo of our own delta.
        std::vector<std::byte> bytes;
        if (op == 20) {
          Knowledge incoming;
          SortedKnowledge model_incoming;
          fill_random(incoming, model_incoming, rng, rank_space);
          bytes = packed(incoming, 0);
        } else {
          bytes = packed(model,
                         static_cast<std::uint32_t>(rng.index(
                             static_cast<std::size_t>(model.version_mark()) +
                             1)));
        }
        rt::Unpacker u{bytes};
        real.merge_packed(u, rank_space + 200);
        ASSERT_TRUE(u.exhausted());
        rt::Unpacker mu{bytes};
        model_inbox.unpack_into(mu);
        model.merge(model_inbox);
      } else if (op == 19) {
        // Merging oneself learns nothing, tail or no tail.
        wire::merge(real, real);
        model.merge(SortedKnowledge{model});
      } else {
        // A payload from a peer past the rank space grows the bitmap.
        Knowledge incoming;
        SortedKnowledge model_incoming;
        auto const far = rank_space + static_cast<RankId>(rng.index(200));
        incoming.insert(far, 1.0);
        model_incoming.insert(far, 1.0);
        wire::merge(real, incoming);
        model.merge(model_incoming);
      }
      expect_matches(real, model, rank_space + 200);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankSpaces, KnowledgeModel,
                         ::testing::Values(5, 64, 130, 700));

} // namespace
} // namespace tlb::lb
