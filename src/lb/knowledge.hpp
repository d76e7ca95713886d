#pragma once

/// \file knowledge.hpp
/// The partial-information state a rank accumulates during the gossip
/// stage: the set S^p of known (initially underloaded) ranks and the
/// LOAD^p() map of their last-known loads (Algorithm 1). Readers see the
/// entries sorted by rank id, so every traversal is deterministic and
/// lookups are O(log n).
///
/// Merges cost time in proportion to the incoming payload, not to the
/// local list: a membership bitmap over rank ids finds the fresh ranks
/// at one bit test per incoming entry, and fresh entries are appended
/// as an unsorted tail behind the sorted prefix. The first reader that
/// needs sorted order (entries(), load_of, add_load, an overwriting
/// insert, packing, truncation) settles the tail with one in-place
/// permutation pass; see settle(). Knowledge travels only as bytes: a
/// packed payload merges straight from the wire (merge_packed), with no
/// intermediate Knowledge.
///
/// Entries carry an owner-local, monotone *version stamp*: every insert,
/// overwrite, load update, or merge-in of a previously unknown rank
/// stamps the affected entry with the next value of the owner's version
/// counter. Versions never travel on the wire (each owner stamps its own
/// copy); they exist so a forwarding event can ship only the entries that
/// are new or changed since its last forwarding event — the delta-encoded
/// gossip wire plane (see DESIGN.md "Gossip wire plane").
///
/// Wire format (pack_full/pack_delta, shared layout):
///
///   varint n                       entry count
///   n x varint                     rank ids, delta-coded over the sorted
///                                  list: first absolute, then
///                                  rank[i] - rank[i-1] - 1 (ids strictly
///                                  increase, so the -1 tightens density)
///   n x f64                        raw little-endian loads, same order
///
/// The packed size is the byte accounting: a message's modeled traffic is
/// the size of the buffer it ships, so the two cannot drift apart.

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/serialize.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tlb::lb {

/// One entry of LOAD^p(): a known peer, its last-known load, and the
/// owner-local version stamp of the last change to this entry.
struct KnownRank {
  KnownRank() = default;
  KnownRank(RankId r, LoadType l) : rank{r}, load{l} {}
  KnownRank(RankId r, std::uint32_t v, LoadType l)
      : rank{r}, version{v}, load{l} {}

  RankId rank = invalid_rank;
  /// Monotone per-owner change stamp (not semantic state: two knowledge
  /// sets with the same ranks and loads are equal regardless of the
  /// insertion order that produced them, so == ignores it).
  std::uint32_t version = 0;
  LoadType load = 0.0;

  friend bool operator==(KnownRank const& a, KnownRank const& b) {
    return a.rank == b.rank && a.load == b.load;
  }
};
static_assert(sizeof(KnownRank) == 16,
              "version must live in what used to be struct padding");

/// Collection of known peers, read in rank order. Invariant: ranks are
/// distinct (|S^p| == |LOAD^p()| by construction, the paper's Require)
/// and entries() is strictly increasing in rank.
///
/// Thread confinement: the const readers that settle the tail write the
/// entry storage, so a Knowledge must not be read from two threads at
/// once. Each inform-plane rank owns its knowledge and only that rank's
/// handlers touch it.
class Knowledge {
public:
  Knowledge() = default;

  /// Insert or overwrite the load for a rank. Stamps the entry. A new
  /// rank is appended to the unsorted tail; an overwrite settles first.
  /// Precondition: rank >= 0.
  void insert(RankId rank, LoadType load);

  /// Merge another rank's packed knowledge (pack_full/pack_delta bytes),
  /// decoded and merged in one pass. An entry takes the *incoming* load
  /// only when we did not already know the rank: a rank's own local
  /// updates (speculative transfers it directed at the peer) are fresher
  /// than gossiped initial loads. Newly learned entries are stamped in
  /// ascending rank order and appended to the unsorted tail, so a merge
  /// costs O(payload) whatever the local size: one bit test per id, no
  /// intermediate Knowledge. Allocation-free once the entry capacity and
  /// the bitmap suffice. Every id must be below `num_ranks`
  /// (precondition), so a corrupt payload cannot grow the bitmap past
  /// the rank space.
  void merge_packed(rt::Unpacker& unpacker, RankId num_ranks);

  /// Add `delta` to a known rank's load. Precondition: rank is known.
  /// Stamps the entry (its value changed).
  void add_load(RankId rank, LoadType delta);

  /// One bitmap test; never settles.
  [[nodiscard]] bool contains(RankId rank) const {
    auto const word = static_cast<std::size_t>(rank) >> 6;
    return rank >= 0 && word < bits_.size() &&
           ((bits_[word] >> (static_cast<unsigned>(rank) & 63)) & 1) != 0;
  }
  /// Last-known load; precondition: rank is known.
  [[nodiscard]] LoadType load_of(RankId rank) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Entries the knowledge can hold before it next allocates.
  [[nodiscard]] std::size_t capacity() const { return entries_.capacity(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Every entry, strictly sorted by rank. Settles the tail.
  [[nodiscard]] std::span<KnownRank const> entries() const {
    settle();
    return entries_;
  }

  /// Forget everything: entries, version counter, truncation flag.
  /// Capacity (entries and bitmap) is retained, so a cleared-and-refilled
  /// knowledge allocates only while growing past its historical maximum.
  void clear();

  /// Bound the knowledge to a uniformly random `cap`-subset; cap == 0
  /// means unlimited (no-op). This is the footnote-2 bounded-knowledge
  /// variant: random subsets keep per-rank target sets de-correlated (the
  /// footnote's random-graph connectivity argument), avoiding the
  /// thundering-herd failure of keeping the lightest entries everywhere.
  void truncate_random(std::size_t cap, Rng& rng);

  // --- Versioning (the delta wire plane's bookkeeping) ---

  /// The stamp covering every current entry: entries with
  /// version > version_mark() cannot exist. A forwarding event records
  /// this as its high-water mark after packing.
  [[nodiscard]] std::uint32_t version_mark() const {
    return next_version_ - 1;
  }

  /// True when truncation dropped entries since the
  /// flag was last consumed; reading clears it. Forwarding events use
  /// this to fall back to a full snapshot after truncation, the recovery
  /// rule that keeps bounded-knowledge (footnote 2) runs re-offering
  /// dropped entries instead of silently never mentioning them again.
  [[nodiscard]] bool take_truncated() {
    bool const t = truncated_;
    truncated_ = false;
    return t;
  }

  // --- Wire format ---

  /// An upper bound on the bytes any packed payload of up to `n` entries
  /// can occupy: a 5-byte count varint plus, per entry, a 5-byte id gap
  /// and a raw f64 load. Deliberately loose (real gap varints are almost
  /// always one byte) — its job is to let a buffer sized for a knowledge
  /// of capacity `n` hold any payload packed from it, not to model
  /// traffic; the packed size stays the accountant.
  [[nodiscard]] static constexpr std::size_t wire_capacity_bound(
      std::size_t n) {
    return 5 + n * (5 + sizeof(double));
  }

  /// Serialize every entry; the distributed gossip ships knowledge
  /// through real bytes so the protocol is proven serialization-clean.
  void pack_full(rt::Packer& packer) const { pack_since(packer, 0); }

  /// Serialize only the entries stamped after `since` (the delta since a
  /// forwarding event whose high-water mark was `since`).
  void pack_delta(rt::Packer& packer, std::uint32_t since) const {
    pack_since(packer, since);
  }

private:
  /// After a merge appended entries from `old_size` on in ascending rank
  /// order: extend the sorted prefix over them when nothing breaks it.
  void extend_sorted(std::size_t old_size);

  /// Two passes over the settled entries: one sizes the payload (count
  /// and id-block length), one writes id i and load i side by side.
  void pack_since(rt::Packer& packer, std::uint32_t since) const;

  /// Grow the bitmap to cover `rank`.
  void cover(RankId rank);
  void set_bit(RankId rank) {
    bits_[static_cast<std::size_t>(rank) >> 6] |=
        std::uint64_t{1} << (static_cast<unsigned>(rank) & 63);
  }
  void reset_bit(RankId rank) {
    bits_[static_cast<std::size_t>(rank) >> 6] &=
        ~(std::uint64_t{1} << (static_cast<unsigned>(rank) & 63));
  }
  /// Clear every bit (the entries are about to be dropped).
  void reset_bits();
  /// Restore sorted order: move every tail entry, and every prefix entry
  /// it displaces, to its final slot (its rank's index among the bitmap's
  /// set bits) in one in-place permutation pass. No sort: O(bitmap words
  /// + moved entries); allocation-free once the per-word counts fit.
  void settle() const;

  /// Entries [0, sorted_) are strictly rank-sorted; [sorted_, size()) is
  /// the unsorted tail of merge/insert appends. Mutable because the
  /// const readers settle it.
  mutable std::vector<KnownRank> entries_;
  mutable std::size_t sorted_ = 0;
  /// Membership bitmap: bit r set iff rank r is known.
  std::vector<std::uint64_t> bits_;
  /// settle()'s scratch: per bitmap word, the known ranks below it.
  mutable std::vector<std::uint32_t> below_;
  /// Next stamp to hand out; 0 is reserved as "before everything".
  std::uint32_t next_version_ = 1;
  /// Set when truncation actually dropped entries; consumed by
  /// take_truncated().
  bool truncated_ = false;
};

} // namespace tlb::lb
