#include "lb/knowledge.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <tuple>
#include <utility>
#include <vector>

#include "knowledge_wire.hpp"
#include "runtime/serialize.hpp"
#include "support/rng.hpp"

namespace tlb::lb {
namespace {

TEST(KnowledgeVersioning, EveryMutationAdvancesTheMark) {
  Knowledge k;
  EXPECT_EQ(k.version_mark(), 0u);
  k.insert(3, 1.0);
  EXPECT_EQ(k.version_mark(), 1u);
  k.insert(1, 0.5);
  EXPECT_EQ(k.version_mark(), 2u);
  k.insert(3, 2.0); // overwrite counts: the value changed
  EXPECT_EQ(k.version_mark(), 3u);
  k.add_load(1, 0.25);
  EXPECT_EQ(k.version_mark(), 4u);
}

TEST(KnowledgeVersioning, ClearResetsTheCounterAndTheFlag) {
  Knowledge k;
  k.insert(1, 1.0);
  k.insert(2, 2.0);
  Rng rng{3};
  k.truncate_random(1, rng);
  k.clear();
  EXPECT_EQ(k.version_mark(), 0u);
  EXPECT_FALSE(k.take_truncated());
  k.insert(5, 1.0);
  EXPECT_EQ(k.version_mark(), 1u); // counter restarted, not resumed
}

TEST(KnowledgeVersioning, MergeStampsOnlyTheFreshRanks) {
  Knowledge mine;
  mine.insert(1, 5.0);
  mine.insert(4, 2.0);
  auto const mark = mine.version_mark();

  Knowledge incoming;
  incoming.insert(1, 9.0); // already known: local value and stamp win
  incoming.insert(2, 3.0);
  incoming.insert(6, 4.0);
  wire::merge(mine, incoming);

  EXPECT_EQ(mine.version_mark(), mark + 2); // two new ranks stamped
  auto const fresh = wire::received(mine, mark);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_TRUE(fresh.contains(2));
  EXPECT_TRUE(fresh.contains(6));
  EXPECT_DOUBLE_EQ(mine.load_of(1), 5.0); // merge kept the local value
}

TEST(KnowledgeDelta, PackDeltaShipsExactlyTheEntriesAboveTheMark) {
  Knowledge k;
  k.insert(10, 1.0);
  k.insert(20, 2.0);
  auto const mark = k.version_mark();

  k.insert(5, 0.5);       // new rank
  k.add_load(20, 0.25);   // changed value
  auto const delta = wire::received(k, mark);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_TRUE(delta.contains(5));
  EXPECT_TRUE(delta.contains(20));
  EXPECT_DOUBLE_EQ(delta.load_of(20), 2.25);
  EXPECT_FALSE(delta.contains(10)); // untouched entry stays home
  // Nothing above the current mark: the delta drains to an empty
  // payload, a lone zero count.
  EXPECT_EQ(wire::packed(k, k.version_mark()).size(), 1u);
}

TEST(KnowledgeDelta, PackDeltaRoundTripsAndUndercutsTheFull) {
  Knowledge k;
  Rng rng{11};
  for (RankId r = 0; r < 30; ++r) {
    k.insert(r * 7, rng.uniform(0.0, 2.0));
  }
  auto const mark = k.version_mark();
  for (RankId r = 0; r < 10; ++r) {
    k.insert(r * 7 + 3, rng.uniform(0.0, 2.0));
  }

  auto const bytes = wire::packed(k, mark);
  // Ten entries: a count byte, ten one-byte id gaps (the first absolute,
  // 3; then 6 each), ten loads.
  EXPECT_EQ(bytes.size(), 1 + 10 + 80u);
  EXPECT_LT(bytes.size(), wire::packed(k).size()); // smaller than the full

  Knowledge back;
  wire::merge_bytes(back, bytes);
  ASSERT_EQ(back.size(), 10u);
  for (RankId r = 0; r < 10; ++r) {
    ASSERT_TRUE(back.contains(r * 7 + 3));
    EXPECT_DOUBLE_EQ(back.load_of(r * 7 + 3), k.load_of(r * 7 + 3));
  }
}

TEST(KnowledgeDelta, TruncationRaisesTheRecoveryFlagOnce) {
  Knowledge k;
  for (RankId r = 0; r < 16; ++r) {
    k.insert(r, 1.0 + r);
  }
  Rng rng{5};
  k.truncate_random(4, rng);
  EXPECT_EQ(k.size(), 4u);
  EXPECT_TRUE(k.take_truncated());
  EXPECT_FALSE(k.take_truncated()); // consumed

  // A truncation that drops nothing must not raise the flag: the next
  // forward can stay a delta.
  k.truncate_random(8, rng);
  EXPECT_FALSE(k.take_truncated());
}

TEST(KnowledgeDelta, FullSnapshotRecoversDroppedEntriesAfterTruncation) {
  // The protocol-level recovery rule, replayed at the container level:
  // after a truncation the sender's next payload is pack_full, and a
  // receiver that merged earlier deltas plus that snapshot ends with the
  // sender's surviving entries — nothing silently disappears from the
  // wire protocol even though the sender forgot some of what it shipped.
  Knowledge sender;
  for (RankId r = 0; r < 12; ++r) {
    sender.insert(r, 0.5 + r);
  }
  rt::Packer first;
  sender.pack_full(first);

  Knowledge receiver;
  wire::merge_bytes(receiver, first.bytes());

  sender.insert(20, 9.0);
  Rng rng{7};
  sender.truncate_random(6, rng);
  ASSERT_TRUE(sender.take_truncated());

  // Recovery: the post-truncation forward ships everything, not the
  // (now meaningless) delta above the stale high-water mark.
  rt::Packer second;
  sender.pack_full(second);
  wire::merge_bytes(receiver, second.bytes());

  // The receiver holds the union of everything it was ever shipped: the
  // 12 originals from the first snapshot plus whatever survived the
  // truncation (rank 20 may or may not be among the survivors).
  for (auto const& e : sender.entries()) {
    ASSERT_TRUE(receiver.contains(e.rank)) << e.rank;
    EXPECT_DOUBLE_EQ(receiver.load_of(e.rank), e.load);
  }
  for (RankId r = 0; r < 12; ++r) {
    ASSERT_TRUE(receiver.contains(r)) << r;
  }
  EXPECT_EQ(receiver.size(), sender.contains(20) ? 13u : 12u);
}

TEST(KnowledgeDelta, ReceiverRestampsFromOne) {
  Knowledge k;
  k.insert(2, 2.0);
  k.insert(1, 1.0);
  k.add_load(2, 0.5); // sender stamps 1..3, none of which travel

  Knowledge inbox;
  inbox.insert(9, 9.0);
  inbox.clear(); // a cleared receiver restarts its counter
  wire::merge_bytes(inbox, wire::packed(k));
  EXPECT_EQ(inbox.version_mark(), 2u); // stamped 1..n in rank order
  EXPECT_EQ(inbox.entries()[0].version, 1u);
  EXPECT_EQ(inbox.entries()[1].version, 2u);
  EXPECT_FALSE(inbox.contains(9));
}

/// The bytes pack_delta emits for `entries` (rank, load), given in rank
/// order: varint count, delta-coded varint ids, raw f64 loads.
std::vector<std::byte> wire(
    std::initializer_list<std::pair<RankId, LoadType>> entries) {
  rt::Packer p;
  p.pack_varint(entries.size());
  RankId prev = -1;
  for (auto const& [rank, load] : entries) {
    p.pack_varint(static_cast<std::uint64_t>(rank - prev - 1));
    prev = rank;
  }
  for (auto const& [rank, load] : entries) {
    p.pack(load);
  }
  return std::move(p).take();
}

std::vector<std::byte> forward(Knowledge const& k, std::uint32_t hwm) {
  rt::Packer p;
  k.pack_delta(p, hwm);
  return std::move(p).take();
}

/// Rank, stamp and load of every entry, in the order entries() yields.
std::vector<std::tuple<RankId, std::uint32_t, LoadType>> stamped(
    Knowledge const& k) {
  std::vector<std::tuple<RankId, std::uint32_t, LoadType>> out;
  for (auto const& e : k.entries()) {
    out.emplace_back(e.rank, e.version, e.load);
  }
  return out;
}

using Stamped = std::vector<std::tuple<RankId, std::uint32_t, LoadType>>;

TEST(KnowledgeMergeBetweenForwards, NoFreshEntriesLeavesOrderAndStamps) {
  Knowledge k;
  k.insert(5, 0.5);
  k.insert(1, 0.1);
  k.insert(3, 0.3);
  EXPECT_EQ(forward(k, 0), wire({{1, 0.1}, {3, 0.3}, {5, 0.5}}));
  auto const hwm = k.version_mark();

  Knowledge incoming;
  incoming.insert(5, 9.0);
  incoming.insert(1, 9.0);
  wire::merge(k, incoming);

  EXPECT_EQ(k.version_mark(), hwm);
  EXPECT_EQ(forward(k, hwm), wire({})); // an empty delta
  EXPECT_EQ(stamped(k), (Stamped{{1, 2, 0.1}, {3, 3, 0.3}, {5, 1, 0.5}}));
}

TEST(KnowledgeMergeBetweenForwards, AllFreshEntriesAreStampedInRankOrder) {
  Knowledge k;
  k.insert(8, 0.8);
  k.insert(2, 0.2);
  EXPECT_EQ(forward(k, 0), wire({{2, 0.2}, {8, 0.8}}));
  auto const hwm = k.version_mark();

  // Two merges land before the next forward; the second payload arrives
  // with an unsettled tail of its own.
  Knowledge first;
  first.insert(9, 0.9);
  first.insert(5, 0.5);
  wire::merge(k, first);
  Knowledge second;
  second.insert(7, 0.7);
  second.insert(0, 0.0);
  wire::merge(k, second);

  EXPECT_EQ(k.version_mark(), hwm + 4);
  EXPECT_EQ(forward(k, hwm),
            wire({{0, 0.0}, {5, 0.5}, {7, 0.7}, {9, 0.9}}));
  EXPECT_EQ(stamped(k), (Stamped{{0, 5, 0.0},
                                 {2, 2, 0.2},
                                 {5, 3, 0.5},
                                 {7, 6, 0.7},
                                 {8, 1, 0.8},
                                 {9, 4, 0.9}}));
}

TEST(KnowledgeMergeBetweenForwards, AddLoadSettlesTheTailMidSequence) {
  Knowledge k;
  k.insert(4, 0.4);
  EXPECT_EQ(forward(k, 0), wire({{4, 0.4}}));
  auto const hwm = k.version_mark();

  Knowledge first;
  first.insert(6, 0.25);
  first.insert(2, 0.2);
  wire::merge(k, first); // 2 -> stamp 2, 6 -> stamp 3, both in the tail
  k.add_load(6, 0.5); // settles the tail, restamps 6 -> 4
  Knowledge second;
  second.insert(7, 0.7);
  second.insert(3, 0.3);
  second.insert(4, 9.0); // known: local load and stamp win
  wire::merge(k, second); // 3 -> stamp 5, 7 -> stamp 6, a new tail

  EXPECT_EQ(k.version_mark(), hwm + 5);
  EXPECT_EQ(forward(k, hwm),
            wire({{2, 0.2}, {3, 0.3}, {6, 0.75}, {7, 0.7}}));
  EXPECT_EQ(stamped(k), (Stamped{{2, 2, 0.2},
                                 {3, 5, 0.3},
                                 {4, 1, 0.4},
                                 {6, 4, 0.75},
                                 {7, 6, 0.7}}));
}

TEST(KnowledgeMergeBetweenForwards, WireMergesStampFreshRanksInRankOrder) {
  Knowledge k;
  k.insert(6, 0.6);
  k.insert(2, 0.2);
  EXPECT_EQ(forward(k, 0), wire({{2, 0.2}, {6, 0.6}}));
  auto const hwm = k.version_mark();

  // Two payloads merged straight from the bytes before the next forward;
  // known ranks keep their local load and stamp, and the fresh ones pile
  // up as a tail across both merges.
  auto const first = wire({{1, 0.1}, {2, 9.0}, {6, 9.0}, {9, 0.9}});
  rt::Unpacker u1{first};
  k.merge_packed(u1, 10);
  EXPECT_TRUE(u1.exhausted());
  auto const second = wire({{0, 0.0}, {1, 9.0}, {4, 0.4}, {9, 9.0}});
  rt::Unpacker u2{second};
  k.merge_packed(u2, 10);
  EXPECT_TRUE(u2.exhausted());

  EXPECT_EQ(k.version_mark(), hwm + 4);
  EXPECT_EQ(forward(k, hwm),
            wire({{0, 0.0}, {1, 0.1}, {4, 0.4}, {9, 0.9}}));
  EXPECT_EQ(stamped(k), (Stamped{{0, 5, 0.0},
                                 {1, 3, 0.1},
                                 {2, 2, 0.2},
                                 {4, 6, 0.4},
                                 {6, 1, 0.6},
                                 {9, 4, 0.9}}));
}

} // namespace
} // namespace tlb::lb
