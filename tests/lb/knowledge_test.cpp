#include "lb/knowledge.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "runtime/serialize.hpp"

namespace tlb::lb {
namespace {

TEST(Knowledge, InsertAndLookup) {
  Knowledge k;
  EXPECT_TRUE(k.empty());
  k.insert(3, 1.5);
  k.insert(1, 0.5);
  k.insert(2, 1.0);
  EXPECT_EQ(k.size(), 3u);
  EXPECT_TRUE(k.contains(1));
  EXPECT_TRUE(k.contains(2));
  EXPECT_TRUE(k.contains(3));
  EXPECT_FALSE(k.contains(0));
  EXPECT_DOUBLE_EQ(k.load_of(1), 0.5);
  EXPECT_DOUBLE_EQ(k.load_of(3), 1.5);
}

TEST(Knowledge, EntriesSortedByRank) {
  Knowledge k;
  k.insert(9, 1.0);
  k.insert(2, 2.0);
  k.insert(5, 3.0);
  auto const e = k.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].rank, 2);
  EXPECT_EQ(e[1].rank, 5);
  EXPECT_EQ(e[2].rank, 9);
}

TEST(Knowledge, InsertOverwritesExisting) {
  Knowledge k;
  k.insert(4, 1.0);
  k.insert(4, 2.0);
  EXPECT_EQ(k.size(), 1u);
  EXPECT_DOUBLE_EQ(k.load_of(4), 2.0);
}

TEST(Knowledge, MergeKeepsLocalLoadOnConflict) {
  Knowledge mine;
  mine.insert(1, 5.0); // locally updated (e.g. speculative transfer)
  Knowledge incoming;
  incoming.insert(1, 2.0); // stale gossiped value
  incoming.insert(2, 3.0); // new rank
  mine.merge(incoming);
  EXPECT_EQ(mine.size(), 2u);
  EXPECT_DOUBLE_EQ(mine.load_of(1), 5.0); // local wins
  EXPECT_DOUBLE_EQ(mine.load_of(2), 3.0);
}

TEST(Knowledge, MergeDisjointSets) {
  Knowledge a;
  a.insert(0, 1.0);
  a.insert(4, 2.0);
  Knowledge b;
  b.insert(2, 3.0);
  b.insert(6, 4.0);
  a.merge(b);
  ASSERT_EQ(a.size(), 4u);
  auto const e = a.entries();
  EXPECT_EQ(e[0].rank, 0);
  EXPECT_EQ(e[1].rank, 2);
  EXPECT_EQ(e[2].rank, 4);
  EXPECT_EQ(e[3].rank, 6);
}

TEST(Knowledge, MergeWithEmpty) {
  Knowledge a;
  a.insert(1, 1.0);
  Knowledge const empty;
  a.merge(empty);
  EXPECT_EQ(a.size(), 1u);

  Knowledge b;
  b.merge(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(b.load_of(1), 1.0);
}

TEST(Knowledge, AddLoadAccumulates) {
  Knowledge k;
  k.insert(2, 1.0);
  k.add_load(2, 0.5);
  k.add_load(2, 0.25);
  EXPECT_DOUBLE_EQ(k.load_of(2), 1.75);
}

TEST(Knowledge, ClearEmpties) {
  Knowledge k;
  k.insert(1, 1.0);
  k.clear();
  EXPECT_TRUE(k.empty());
  EXPECT_FALSE(k.contains(1));
}

TEST(Knowledge, WireBytesMatchesTheCompactEncoding) {
  // varint count + delta-varint rank ids + raw f64 loads — not
  // sizeof(KnownRank), which would bill struct padding to the network.
  Knowledge k;
  EXPECT_EQ(k.wire_bytes(), 1u); // just the zero count
  k.insert(1, 1.0);
  EXPECT_EQ(k.wire_bytes(), 1 + 1 + 8u);
  k.insert(2, 2.0);
  // Adjacent ranks delta-code to gap 0: one varint byte each.
  EXPECT_EQ(k.wire_bytes(), 1 + 2 + 16u);
  k.insert(100000, 3.0);
  // Gap 99997 needs a 3-byte varint.
  EXPECT_EQ(k.wire_bytes(), 1 + 2 + 3 + 24u);
}

TEST(KnowledgeDeath, LoadOfUnknownRankAborts) {
  Knowledge k;
  k.insert(1, 1.0);
  EXPECT_DEATH((void)k.load_of(9), "precondition");
}

TEST(KnowledgeDeath, AddLoadUnknownRankAborts) {
  Knowledge k;
  EXPECT_DEATH(k.add_load(0, 1.0), "precondition");
}

TEST(KnowledgeDeath, MergePackedRejectsIdsAtOrAboveTheRankCount) {
  Knowledge sender;
  sender.insert(3, 1.0);
  sender.insert(8, 2.0);
  rt::Packer p;
  sender.pack_full(p);
  Knowledge k;
  {
    rt::Unpacker u{p.bytes()};
    k.merge_packed(u, 9); // id 8 is the last of 9 ranks: accepted
    EXPECT_TRUE(u.exhausted());
  }
  EXPECT_EQ(k.size(), 2u);
  rt::Unpacker u{p.bytes()};
  EXPECT_DEATH(k.merge_packed(u, 8), "precondition");

  // An id at RankId's maximum would otherwise grow a 256 MB bitmap.
  rt::Packer far;
  far.pack_varint(1);
  far.pack_varint(static_cast<std::uint64_t>(
      std::numeric_limits<RankId>::max()));
  far.pack(1.0);
  rt::Unpacker fu{far.bytes()};
  Knowledge fresh;
  EXPECT_DEATH(fresh.merge_packed(fu, 1024), "precondition");
}

TEST(KnowledgeDeath, MergePackedRejectsATruncatedPayload) {
  rt::Packer p;
  p.pack_varint(3); // three entries announced, one id and no loads sent
  p.pack_varint(0);
  rt::Unpacker u{p.bytes()};
  Knowledge k;
  EXPECT_DEATH(k.merge_packed(u, 16), "precondition");
}

} // namespace
} // namespace tlb::lb
