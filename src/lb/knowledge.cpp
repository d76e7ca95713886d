#include "lb/knowledge.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

#include "support/assert.hpp"

namespace tlb::lb {

namespace {

template <typename It>
It lower_bound_rank(It first, It last, RankId rank) {
  return std::lower_bound(
      first, last, rank,
      [](KnownRank const& e, RankId r) { return e.rank < r; });
}

bool by_rank(KnownRank const& a, KnownRank const& b) {
  return a.rank < b.rank;
}

/// Length of a payload's id block: the bytes up to and including the
/// n-th varint terminator (a byte with the high bit clear). Counts the
/// terminators eight bytes at a time while the block surely runs past
/// them, then byte by byte.
std::size_t id_block_length(std::span<std::byte const> bytes,
                            std::uint64_t n) {
  std::size_t len = 0;
  std::uint64_t ends = 0;
  for (; len + 8 <= bytes.size(); len += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + len, sizeof(word));
    auto const terminators = static_cast<std::uint64_t>(
        std::popcount(~word & 0x8080'8080'8080'8080ull));
    if (ends + terminators >= n) {
      break;
    }
    ends += terminators;
  }
  for (; ends < n; ++len) {
    TLB_EXPECTS(len < bytes.size());
    ends += (std::to_integer<unsigned>(bytes[len]) & 0x80u) == 0 ? 1u : 0u;
  }
  return len;
}

/// rt::varint_size for an id gap (0 <= gap < 2^31), without the loop.
std::size_t id_varint_size(RankId gap) {
  auto const g = static_cast<std::uint32_t>(gap);
  return 1 + std::size_t{g >= (1u << 7)} + std::size_t{g >= (1u << 14)} +
         std::size_t{g >= (1u << 21)} + std::size_t{g >= (1u << 28)};
}

} // namespace

void Knowledge::cover(RankId rank) {
  TLB_EXPECTS(rank >= 0);
  auto const words = (static_cast<std::size_t>(rank) >> 6) + 1;
  if (bits_.size() < words) {
    bits_.resize(words, 0);
  }
}

void Knowledge::reset_bits() {
  // Whichever touches less memory: the whole bitmap or one bit per entry.
  if (bits_.size() <= entries_.size()) {
    std::fill(bits_.begin(), bits_.end(), 0);
    return;
  }
  for (auto const& e : entries_) {
    reset_bit(e.rank);
  }
}

void Knowledge::clear() {
  reset_bits();
  entries_.clear();
  sorted_ = 0;
  next_version_ = 1;
  truncated_ = false;
}

void Knowledge::insert(RankId rank, LoadType load) {
  if (!contains(rank)) {
    cover(rank);
    set_bit(rank);
    if (sorted_ == entries_.size() &&
        (entries_.empty() || entries_.back().rank < rank)) {
      ++sorted_; // lands past the last sorted rank: no tail yet
    }
    entries_.push_back(KnownRank{rank, next_version_++, load});
    return;
  }
  settle();
  auto const it = lower_bound_rank(entries_.begin(), entries_.end(), rank);
  it->load = load;
  it->version = next_version_++;
}

void Knowledge::extend_sorted(std::size_t old_size) {
  if (sorted_ == old_size && entries_.size() > old_size &&
      (old_size == 0 ||
       entries_[old_size - 1].rank < entries_[old_size].rank)) {
    sorted_ = entries_.size(); // the fresh run extends the sorted prefix
  }
}

void Knowledge::merge_packed(rt::Unpacker& unpacker, RankId num_ranks) {
  TLB_EXPECTS(num_ranks > 0);
  auto const n = unpacker.unpack_varint();
  // The id block is n varints, each ending at a byte with the high bit
  // clear (and each at least one byte, which bounds n); the load block
  // follows it. Split the two so id i and load i are read side by side.
  auto const rest = unpacker.remaining();
  TLB_EXPECTS(n <= rest.size());
  auto const* id = unpacker.take(id_block_length(rest, n)).data();
  auto const* load = unpacker.take(n * sizeof(LoadType)).data();
  auto const old_size = entries_.size();
  // Ids strictly increase, so the fresh ones are appended, and stamped,
  // in ascending rank order.
  std::uint64_t next = 0; // the smallest id the next gap can name
  for (std::uint64_t i = 0; i < n; ++i, load += sizeof(LoadType)) {
    // The block holds exactly n terminated varints, so decoding cannot
    // run past it; almost every gap is a single byte.
    std::uint64_t gap = std::to_integer<std::uint64_t>(*id++);
    if (gap >= 0x80) {
      gap &= 0x7f;
      for (unsigned shift = 7;; shift += 7) {
        // A gap below num_ranks fits 31 bits: five bytes at most.
        TLB_EXPECTS(shift <= 28);
        auto const byte = std::to_integer<std::uint64_t>(*id++);
        gap |= (byte & 0x7f) << shift;
        if (byte < 0x80) {
          break;
        }
      }
    }
    auto const rank = next + gap;
    next = rank + 1;
    // cover(), inlined: this loop runs once per id of every delivery.
    // Growing the bitmap is the one step through which a corrupt id could
    // cost memory, so the rank space is checked before it; an id inside
    // the bitmap is checked by the bound on the last id below.
    auto const word = static_cast<std::size_t>(rank >> 6);
    if (word >= bits_.size()) {
      TLB_EXPECTS(rank < static_cast<std::uint64_t>(num_ranks));
      bits_.resize(word + 1, 0);
    }
    // Only a fresh rank writes the bitmap, so known ranks (most of a
    // payload) leave no store for the next id's test to wait on.
    auto& bits = bits_[word];
    auto const bit = std::uint64_t{1} << (rank & 63);
    if ((bits & bit) == 0) {
      bits |= bit;
      LoadType value;
      std::memcpy(&value, load, sizeof(LoadType));
      entries_.push_back(
          KnownRank{static_cast<RankId>(rank), next_version_++, value});
    }
  }
  // Ids strictly increase, so bounding the last bounds them all.
  TLB_EXPECTS(next <= static_cast<std::uint64_t>(num_ranks));
  extend_sorted(old_size);
}

void Knowledge::settle() const {
  auto const n = entries_.size();
  if (sorted_ == n) {
    return;
  }
  // Prefix entries below the smallest tail rank already sit in their
  // final slots; everything from `first` on may move.
  auto const tail = entries_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  RankId const lo = std::min_element(tail, entries_.end(), by_rank)->rank;
  auto const first = static_cast<std::size_t>(
      lower_bound_rank(entries_.begin(), tail, lo) - entries_.begin());
  // 1. Overwrite each moving entry's rank with its final slot: its rank's
  //    index among the bitmap's set bits, i.e. the known ranks below its
  //    word (a running count per word from lo's word on, starting from
  //    the `first` ranks below lo) plus those below it in its word. The
  //    rank is not lost: slot i holds the i-th known rank, which step 3
  //    reads back off the bitmap.
  auto const lo_word = static_cast<std::size_t>(lo) >> 6;
  auto const below_lo =
      (std::uint64_t{1} << (static_cast<unsigned>(lo) & 63)) - 1;
  auto below = first - static_cast<std::size_t>(
                           std::popcount(bits_[lo_word] & below_lo));
  below_.resize(bits_.size());
  for (auto w = lo_word; w < bits_.size(); ++w) {
    below_[w] = static_cast<std::uint32_t>(below);
    below += static_cast<std::size_t>(std::popcount(bits_[w]));
  }
  for (auto i = first; i < n; ++i) {
    auto const r = static_cast<std::size_t>(entries_[i].rank);
    auto const below_r = (std::uint64_t{1} << (r & 63)) - 1;
    entries_[i].rank = static_cast<RankId>(
        below_[r >> 6] + static_cast<std::uint32_t>(
                             std::popcount(bits_[r >> 6] & below_r)));
  }
  // 2. Cycle-leader permutation: each store puts one entry in its final
  //    slot, so every entry moves at most once and nothing is sorted.
  for (auto i = first; i < n; ++i) {
    auto slot = static_cast<std::size_t>(entries_[i].rank);
    if (slot == i) {
      continue;
    }
    KnownRank moving = entries_[i];
    do {
      KnownRank const displaced = entries_[slot];
      entries_[slot] = moving;
      moving = displaced;
      slot = static_cast<std::size_t>(moving.rank);
    } while (slot != i);
    entries_[i] = moving;
  }
  // 3. Restore the ranks: the known ranks from lo upward, in order.
  auto i = first;
  for (auto w = lo_word; i < n; ++w) {
    auto word = bits_[w] & ~(w == lo_word ? below_lo : 0);
    for (; word != 0; word &= word - 1) {
      entries_[i++].rank = static_cast<RankId>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
  sorted_ = n;
}

void Knowledge::add_load(RankId rank, LoadType delta) {
  TLB_EXPECTS(contains(rank));
  settle();
  auto const it = lower_bound_rank(entries_.begin(), entries_.end(), rank);
  it->load += delta;
  it->version = next_version_++;
}

void Knowledge::truncate_random(std::size_t cap, Rng& rng) {
  if (cap == 0 || entries_.size() <= cap) {
    return;
  }
  // Partial Fisher-Yates over the settled order: move a random survivor
  // into each of the first `cap` slots, then restore the sorted-by-rank
  // invariant.
  settle();
  for (std::size_t i = 0; i < cap; ++i) {
    auto const j = i + rng.index(entries_.size() - i);
    using std::swap;
    swap(entries_[i], entries_[j]);
  }
  for (std::size_t i = cap; i < entries_.size(); ++i) {
    reset_bit(entries_[i].rank);
  }
  entries_.resize(cap);
  std::sort(entries_.begin(), entries_.end(), by_rank);
  sorted_ = cap;
  truncated_ = true;
}

LoadType Knowledge::load_of(RankId rank) const {
  TLB_EXPECTS(contains(rank));
  settle();
  return lower_bound_rank(entries_.begin(), entries_.end(), rank)->load;
}

void Knowledge::pack_since(rt::Packer& packer, std::uint32_t since) const {
  settle();
  // Pass 1 sizes the payload, so the buffer grows once: the entry count
  // and the length of the id block.
  std::size_t count = 0;
  std::size_t id_len = 0;
  RankId prev = -1; // first selected id is encoded absolute (prev + 1 == 0)
  for (auto const& e : entries_) {
    if (e.version > since) {
      id_len += id_varint_size(e.rank - prev - 1);
      prev = e.rank;
      ++count;
    }
  }
  auto const out = packer.extend(rt::varint_size(count) + id_len +
                                 count * sizeof(LoadType));
  // Pass 2 writes id i and load i side by side. If it ever disagrees
  // with pass 1 the byte accounting (the buffer's size) is a lie, so
  // fail loudly.
  auto* id = rt::put_varint(out.data(), count);
  auto* const id_end = id + id_len;
  auto* load = id_end;
  prev = -1;
  for (auto const& e : entries_) {
    if (e.version > since) {
      id = rt::put_varint(id, static_cast<std::uint64_t>(e.rank - prev - 1));
      prev = e.rank;
      std::memcpy(load, &e.load, sizeof(LoadType));
      load += sizeof(LoadType);
    }
  }
  TLB_ENSURES(id == id_end && load == out.data() + out.size());
}

} // namespace tlb::lb
