#include "runtime/serialize.hpp"

#include <gtest/gtest.h>

#include "lb/knowledge.hpp"
#include "support/rng.hpp"

namespace tlb::rt {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  Packer p;
  p.pack(42);
  p.pack(3.25);
  p.pack(std::int64_t{-7});
  Unpacker u{p.bytes()};
  EXPECT_EQ(u.unpack<int>(), 42);
  EXPECT_DOUBLE_EQ(u.unpack<double>(), 3.25);
  EXPECT_EQ(u.unpack<std::int64_t>(), -7);
  EXPECT_TRUE(u.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  Packer p;
  std::vector<double> const values{1.0, -2.5, 1e300};
  p.pack(values);
  Unpacker u{p.bytes()};
  EXPECT_EQ(u.unpack_vector<double>(), values);
  EXPECT_TRUE(u.exhausted());
}

TEST(Serialize, EmptyVector) {
  Packer p;
  p.pack(std::vector<int>{});
  Unpacker u{p.bytes()};
  EXPECT_TRUE(u.unpack_vector<int>().empty());
  EXPECT_TRUE(u.exhausted());
}

TEST(Serialize, StringRoundTrip) {
  Packer p;
  p.pack(std::string{"hello\0world", 11});
  p.pack(std::string{});
  Unpacker u{p.bytes()};
  EXPECT_EQ(u.unpack_string(), (std::string{"hello\0world", 11}));
  EXPECT_EQ(u.unpack_string(), "");
  EXPECT_TRUE(u.exhausted());
}

struct Pod {
  int a;
  double b;
  friend bool operator==(Pod const&, Pod const&) = default;
};

TEST(Serialize, MixedSequencePreservesOrder) {
  Packer p;
  p.pack(Pod{1, 2.0});
  p.pack(std::vector<int>{3, 4});
  p.pack(std::string{"x"});
  p.pack(Pod{5, 6.0});
  Unpacker u{p.bytes()};
  EXPECT_EQ(u.unpack<Pod>(), (Pod{1, 2.0}));
  EXPECT_EQ(u.unpack_vector<int>(), (std::vector<int>{3, 4}));
  EXPECT_EQ(u.unpack_string(), "x");
  EXPECT_EQ(u.unpack<Pod>(), (Pod{5, 6.0}));
  EXPECT_TRUE(u.exhausted());
}

TEST(Serialize, ConsumedTracksOffset) {
  Packer p;
  p.pack(std::uint32_t{1});
  Unpacker u{p.bytes()};
  EXPECT_EQ(u.consumed(), 0u);
  (void)u.unpack<std::uint32_t>();
  EXPECT_EQ(u.consumed(), 4u);
}

TEST(Serialize, TakeMovesBuffer) {
  Packer p;
  p.pack(7);
  auto const bytes = std::move(p).take();
  EXPECT_EQ(bytes.size(), sizeof(int));
}

TEST(SerializeDeath, UnderflowAborts) {
  Packer p;
  p.pack(std::uint16_t{1});
  Unpacker u{p.bytes()};
  EXPECT_DEATH((void)u.unpack<std::uint64_t>(), "precondition");
}

TEST(SerializeDeath, TruncatedVectorAborts) {
  Packer p;
  p.pack(std::uint64_t{1000}); // lie: claims 1000 elements, provides none
  Unpacker u{p.bytes()};
  EXPECT_DEATH((void)u.unpack_vector<double>(), "precondition");
}

TEST(SerializeVarint, RoundTripsRepresentativeAndBoundaryValues) {
  // Every 7-bit length boundary on both sides, plus interior values.
  std::vector<std::uint64_t> values{0, 1, 100, 127, 128, 300, 16383, 16384,
                                    (1ull << 21) - 1, 1ull << 21,
                                    (1ull << 32) - 1, 1ull << 32,
                                    (1ull << 56) - 1, 1ull << 56,
                                    (1ull << 63) - 1, 1ull << 63,
                                    ~std::uint64_t{0}};
  Packer p;
  std::size_t expected_size = 0;
  for (auto const v : values) {
    p.pack_varint(v);
    expected_size += varint_size(v);
  }
  // The emitted bytes and the size function must agree per value.
  EXPECT_EQ(p.size(), expected_size);
  Unpacker u{p.bytes()};
  for (auto const v : values) {
    EXPECT_EQ(u.unpack_varint(), v);
  }
  EXPECT_TRUE(u.exhausted());
}

TEST(SerializeVarint, SizeFunctionMatchesLengthBoundaries) {
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(16383), 2u);
  EXPECT_EQ(varint_size(16384), 3u);
  EXPECT_EQ(varint_size(~std::uint64_t{0}), 10u);
}

TEST(SerializeVarintDeath, OverflowingEncodingAborts) {
  // 10 continuation bytes with payload bits beyond bit 63.
  Packer p;
  for (int i = 0; i < 9; ++i) {
    p.pack(static_cast<std::uint8_t>(0xff));
  }
  p.pack(static_cast<std::uint8_t>(0x7f)); // final byte: payload too large
  Unpacker u{p.bytes()};
  EXPECT_DEATH((void)u.unpack_varint(), "precondition");
}

TEST(SerializeScratch, ScratchPackerReusesCapacityAndKeepsBytes) {
  std::vector<std::byte> scratch;
  {
    Packer p{scratch};
    p.pack(std::uint64_t{41});
    EXPECT_EQ(scratch.size(), sizeof(std::uint64_t));
  }
  auto const cap = scratch.capacity();
  auto const* data = scratch.data();
  {
    Packer p{scratch}; // clears but keeps capacity
    EXPECT_EQ(p.size(), 0u);
    p.pack(std::uint32_t{7});
    Unpacker u{p.bytes()};
    EXPECT_EQ(u.unpack<std::uint32_t>(), 7u);
  }
  EXPECT_EQ(scratch.capacity(), cap);
  EXPECT_EQ(scratch.data(), data); // no reallocation happened
}

TEST(SerializeScratchDeath, TakeFromScratchPackerAborts) {
  std::vector<std::byte> scratch;
  Packer p{scratch};
  p.pack(1);
  EXPECT_DEATH((void)std::move(p).take(), "precondition");
}

TEST(SnapshotPoolTest, RecyclesSlotsOnceReleased) {
  SnapshotPool pool;
  auto a = pool.acquire();
  a->bytes.resize(64);
  auto b = pool.acquire(); // `a` still held: must be a distinct slot
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(pool.size(), 2u);
  auto const* recycled = a.get();
  a.reset();
  auto c = pool.acquire(); // `a` released: its slot comes back, cleared...
  EXPECT_EQ(c.get(), recycled);
  EXPECT_TRUE(c->bytes.empty());
  EXPECT_GE(c->bytes.capacity(), 64u); // ...with its capacity intact
  EXPECT_EQ(pool.size(), 2u);          // steady state: no new slots
}

TEST(SerializeKnowledge, RoundTripPreservesEntries) {
  lb::Knowledge k;
  Rng rng{5};
  for (int i = 0; i < 40; ++i) {
    k.insert(static_cast<RankId>(i * 3), rng.uniform(0.0, 2.0));
  }
  Packer p;
  k.pack_full(p);
  // A count byte, 40 one-byte id gaps (0, then 2 each), 40 raw loads.
  EXPECT_EQ(p.size(), 1 + 40 + 40 * 8u);
  Unpacker u{p.bytes()};
  lb::Knowledge back;
  back.merge_packed(u, 120);
  EXPECT_TRUE(u.exhausted());
  ASSERT_EQ(back.size(), k.size());
  for (auto const& e : k.entries()) {
    ASSERT_TRUE(back.contains(e.rank));
    EXPECT_DOUBLE_EQ(back.load_of(e.rank), e.load);
  }
}

TEST(SerializeKnowledge, CompactEncodingBeatsTheOldStructCopy) {
  // 256 dense small-id entries: delta-varint ids cost 1 byte each, so the
  // whole message sits near 9 bytes/entry against the old 16 (struct
  // padding included) plus its 8-byte length prefix.
  lb::Knowledge k;
  for (RankId r = 0; r < 256; ++r) {
    k.insert(r, 1.0);
  }
  std::size_t const old_format = 256 * sizeof(lb::KnownRank) + 8;
  Packer p;
  k.pack_full(p);
  EXPECT_LT(p.size(), old_format * 3 / 5);
}

TEST(SerializeKnowledge, EmptyKnowledge) {
  lb::Knowledge const k;
  Packer p;
  k.pack_full(p);
  EXPECT_EQ(p.size(), 1u); // a lone zero count
  Unpacker u{p.bytes()};
  lb::Knowledge back;
  back.merge_packed(u, 1);
  EXPECT_TRUE(u.exhausted());
  EXPECT_TRUE(back.empty());
}

TEST(SerializeKnowledge, ClearedReceiverRefillsWithoutReallocating) {
  lb::Knowledge big;
  for (RankId r = 0; r < 100; ++r) {
    big.insert(r, 0.5);
  }
  Packer p;
  big.pack_full(p);

  lb::Knowledge inbox = [] {
    lb::Knowledge k;
    for (RankId r = 0; r < 200; ++r) {
      k.insert(r, 1.0); // pre-grow capacity past the incoming size
    }
    return k;
  }();
  auto const* const storage = inbox.entries().data();
  inbox.clear();
  Unpacker u{p.bytes()};
  inbox.merge_packed(u, 200);
  EXPECT_TRUE(u.exhausted());
  ASSERT_EQ(inbox.size(), 100u);
  EXPECT_EQ(inbox.entries().data(), storage); // capacity reused
  for (RankId r = 0; r < 100; ++r) {
    EXPECT_DOUBLE_EQ(inbox.load_of(r), 0.5);
  }
}

} // namespace
} // namespace tlb::rt
