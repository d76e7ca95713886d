#include <gtest/gtest.h>

#include <set>

#include "knowledge_wire.hpp"
#include "lb/knowledge.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

Knowledge make_knowledge(int n) {
  Knowledge k;
  for (int i = 0; i < n; ++i) {
    k.insert(static_cast<RankId>(i), static_cast<LoadType>(n - i));
  }
  return k; // rank 0 heaviest (load n), rank n-1 lightest (load 1)
}

TEST(KnowledgeTruncate, ZeroCapIsNoop) {
  auto k = make_knowledge(10);
  Rng rng{1};
  k.truncate_random(0, rng);
  EXPECT_EQ(k.size(), 10u);
  EXPECT_FALSE(k.take_truncated());
}

TEST(KnowledgeTruncate, CapLargerThanSizeIsNoop) {
  auto k = make_knowledge(5);
  Rng rng{1};
  Rng const untouched = rng;
  k.truncate_random(10, rng);
  EXPECT_EQ(k.size(), 5u);
  EXPECT_EQ(rng(), Rng{untouched}()); // no draw spent
}

TEST(KnowledgeTruncate, SameStreamKeepsTheSameSubset) {
  // The sequential emulation's tables are seed-deterministic only if a
  // truncation is a function of the knowledge and the stream.
  auto a = make_knowledge(40);
  auto b = make_knowledge(40);
  Rng ra{3};
  Rng rb{3};
  a.truncate_random(9, ra);
  b.truncate_random(9, rb);
  ASSERT_EQ(a.size(), 9u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i], b.entries()[i]);
  }
  EXPECT_EQ(ra(), rb());
}

TEST(KnowledgeTruncate, ResultStaysSortedByRank) {
  auto k = make_knowledge(20);
  Rng rng{5};
  k.insert(25, 0.5); // an unsettled tail entry, settled by the truncation
  k.truncate_random(7, rng);
  auto const e = k.entries();
  ASSERT_EQ(e.size(), 7u);
  for (std::size_t i = 1; i < e.size(); ++i) {
    EXPECT_LT(e[i - 1].rank, e[i].rank);
  }
}

TEST(KnowledgeTruncate, DroppedRanksAreForgottenAndRelearned) {
  // Truncation clears the dropped ranks' membership bits, so a later
  // delivery re-learns them as fresh entries with fresh stamps.
  auto k = make_knowledge(12);
  Rng rng{9};
  k.truncate_random(4, rng);
  auto const mark = k.version_mark();
  std::size_t dropped = 0;
  for (RankId r = 0; r < 12; ++r) {
    dropped += k.contains(r) ? 0u : 1u;
  }
  EXPECT_EQ(dropped, 8u);
  wire::merge(k, make_knowledge(12));
  EXPECT_EQ(k.size(), 12u);
  EXPECT_EQ(k.version_mark(), mark + 8);
  EXPECT_EQ(wire::received(k, mark).size(), 8u);
}

TEST(KnowledgeTruncateRandom, SubsetOfOriginal) {
  auto const original = make_knowledge(30);
  Rng rng{7};
  auto k = original;
  k.truncate_random(10, rng);
  ASSERT_EQ(k.size(), 10u);
  for (auto const& e : k.entries()) {
    ASSERT_TRUE(original.contains(e.rank));
    EXPECT_DOUBLE_EQ(original.load_of(e.rank), e.load);
  }
  auto const entries = k.entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].rank, entries[i].rank);
  }
}

TEST(KnowledgeTruncateRandom, DifferentStreamsKeepDifferentSubsets) {
  // The whole point of random truncation: de-correlated target sets.
  auto const original = make_knowledge(100);
  Rng r1{1};
  Rng r2{2};
  auto a = original;
  auto b = original;
  a.truncate_random(10, r1);
  b.truncate_random(10, r2);
  std::set<RankId> sa;
  std::set<RankId> sb;
  for (auto const& e : a.entries()) {
    sa.insert(e.rank);
  }
  for (auto const& e : b.entries()) {
    sb.insert(e.rank);
  }
  EXPECT_NE(sa, sb);
}

TEST(KnowledgeTruncateRandom, UniformCoverageOverManyDraws) {
  auto const original = make_knowledge(20);
  Rng rng{11};
  std::vector<int> kept(20, 0);
  constexpr int draws = 4000;
  for (int d = 0; d < draws; ++d) {
    auto k = original;
    k.truncate_random(5, rng);
    for (auto const& e : k.entries()) {
      ++kept[static_cast<std::size_t>(e.rank)];
    }
  }
  // Each rank survives with probability 1/4: expect ~1000 each.
  for (int const c : kept) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

} // namespace
} // namespace tlb::lb
