#pragma once

/// Test helpers that move a Knowledge through its wire format, the only
/// way knowledge travels between ranks: pack_full/pack_delta on the
/// sender, Knowledge::merge_packed on the receiver.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lb/knowledge.hpp"
#include "runtime/serialize.hpp"

namespace tlb::lb::wire {

/// Accept any non-negative id: the rank space a test's payloads live in.
inline constexpr RankId kAnyRank = std::numeric_limits<RankId>::max();

/// The bytes a forward of `k` ships: entries stamped after `since`
/// (pack_delta), every entry when since == 0 (pack_full).
inline std::vector<std::byte> packed(Knowledge const& k,
                                     std::uint32_t since = 0) {
  rt::Packer p;
  k.pack_delta(p, since);
  return std::move(p).take();
}

/// Merge a packed payload into `into`, checking every byte is consumed.
inline void merge_bytes(Knowledge& into, std::span<std::byte const> bytes,
                        RankId num_ranks = kAnyRank) {
  rt::Unpacker u{bytes};
  into.merge_packed(u, num_ranks);
  EXPECT_TRUE(u.exhausted());
}

/// Deliver `from`'s full snapshot to `into`.
inline void merge(Knowledge& into, Knowledge const& from) {
  merge_bytes(into, packed(from));
}

/// What a receiver with no knowledge makes of `k`'s forward since
/// `since`: the shipped entries, stamped 1..n in rank order.
inline Knowledge received(Knowledge const& k, std::uint32_t since = 0) {
  Knowledge out;
  merge_bytes(out, packed(k, since));
  return out;
}

} // namespace tlb::lb::wire
