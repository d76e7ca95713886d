#include "lb/knowledge.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>

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

} // namespace

void Knowledge::cover(RankId rank) {
  TLB_EXPECTS(rank >= 0);
  auto const words = (static_cast<std::size_t>(rank) >> 6) + 1;
  if (bits_.size() < words) {
    bits_.resize(words, 0);
  }
}

void Knowledge::index_sorted() {
  sorted_ = entries_.size();
  if (entries_.empty()) {
    return;
  }
  cover(entries_.back().rank);
  for (auto const& e : entries_) {
    set_bit(e.rank);
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

void Knowledge::merge(Knowledge const& other) {
  auto const incoming = other.entries();
  if (incoming.empty()) {
    return;
  }
  // Incoming ranks ascend, so the fresh ones are appended, and stamped,
  // in ascending rank order: what repeated insert() calls in rank order
  // would have produced. A known rank is skipped: local load wins.
  cover(incoming.back().rank);
  auto const old_size = entries_.size();
  for (auto const& e : incoming) {
    if (learn(e.rank)) {
      entries_.push_back(KnownRank{e.rank, next_version_++, e.load});
    }
  }
  extend_sorted(old_size);
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
  std::size_t id_len = 0;
  for (std::uint64_t ends = 0; ends < n; ++id_len) {
    TLB_EXPECTS(id_len < rest.size());
    ends += (std::to_integer<unsigned>(rest[id_len]) & 0x80u) == 0 ? 1u : 0u;
  }
  rt::Unpacker ids{unpacker.take(id_len)};
  auto const* load = unpacker.take(n * sizeof(LoadType)).data();
  auto const old_size = entries_.size();
  // Ids strictly increase, so the fresh ones are appended, and stamped,
  // in ascending rank order, as merge() does.
  std::uint64_t next = 0; // the smallest id the next gap can name
  for (std::uint64_t i = 0; i < n; ++i, load += sizeof(LoadType)) {
    auto const gap = ids.unpack_varint();
    TLB_EXPECTS(gap < static_cast<std::uint64_t>(num_ranks) - next);
    auto const rank = static_cast<RankId>(next + gap);
    next += gap + 1;
    // cover(), inlined: this loop runs once per id of every delivery.
    auto const word = static_cast<std::size_t>(rank) >> 6;
    if (word >= bits_.size()) {
      bits_.resize(word + 1, 0);
    }
    if (learn(rank)) {
      LoadType value;
      std::memcpy(&value, load, sizeof(LoadType));
      entries_.push_back(KnownRank{rank, next_version_++, value});
    }
  }
  extend_sorted(old_size);
}

void Knowledge::settle() const {
  auto const n = entries_.size();
  if (sorted_ == n) {
    return;
  }
  auto const tail = entries_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(tail, entries_.end(), by_rank);
  // Prefix entries below the smallest tail rank already sit in their
  // final slots; everything from `first` on may move.
  RankId const lo = tail->rank;
  auto const first = static_cast<std::size_t>(
      lower_bound_rank(entries_.begin(), tail, lo) - entries_.begin());
  // 1. Merge walk: overwrite each moving entry's rank with its final
  //    slot. The rank is not lost: slot i holds the i-th known rank,
  //    which step 3 reads back off the bitmap.
  {
    auto a = first;
    auto b = sorted_;
    auto slot = first;
    while (b < n) {
      auto& next = a < sorted_ && entries_[a].rank < entries_[b].rank
                       ? entries_[a++]
                       : entries_[b++];
      next.rank = static_cast<RankId>(slot++);
    }
    for (; a < sorted_; ++a) {
      entries_[a].rank = static_cast<RankId>(slot++);
    }
  }
  // 2. Cycle-leader permutation: each store puts one entry in its final
  //    slot, so every entry moves at most once and no buffer is needed.
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
  for (auto w = static_cast<std::size_t>(lo) >> 6; i < n; ++w) {
    auto word = bits_[w];
    if ((w << 6) < static_cast<std::size_t>(lo)) {
      word &= ~std::uint64_t{0} << (static_cast<unsigned>(lo) & 63);
    }
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

void Knowledge::truncate_to(std::size_t cap) {
  if (cap == 0 || entries_.size() <= cap) {
    return;
  }
  settle();
  std::vector<KnownRank> by_load = entries_;
  std::nth_element(by_load.begin(),
                   by_load.begin() + static_cast<std::ptrdiff_t>(cap),
                   by_load.end(),
                   [](KnownRank const& a, KnownRank const& b) {
                     if (a.load != b.load) {
                       return a.load < b.load;
                     }
                     return a.rank < b.rank;
                   });
  for (std::size_t i = cap; i < by_load.size(); ++i) {
    reset_bit(by_load[i].rank);
  }
  by_load.resize(cap);
  std::sort(by_load.begin(), by_load.end(), by_rank);
  entries_ = std::move(by_load);
  sorted_ = cap;
  truncated_ = true;
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

std::size_t Knowledge::delta_count(std::uint32_t since) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [since](KnownRank const& e) { return e.version > since; }));
}

Knowledge Knowledge::delta_copy(std::uint32_t since) const {
  settle();
  Knowledge out;
  out.entries_.reserve(delta_count(since));
  for (auto const& e : entries_) {
    if (e.version > since) {
      out.entries_.push_back(KnownRank{e.rank, out.next_version_++, e.load});
    }
  }
  out.index_sorted();
  return out;
}

std::size_t Knowledge::encoded_bytes(std::uint32_t since) const {
  settle();
  std::size_t count = 0;
  std::size_t id_bytes = 0;
  RankId prev = -1; // first selected id is encoded absolute (prev + 1 == 0)
  for (auto const& e : entries_) {
    if (e.version <= since) {
      continue;
    }
    id_bytes +=
        rt::varint_size(static_cast<std::uint64_t>(e.rank - prev - 1));
    prev = e.rank;
    ++count;
  }
  return rt::varint_size(count) + id_bytes + count * sizeof(LoadType);
}

void Knowledge::pack_since(rt::Packer& packer, std::uint32_t since) const {
  settle();
  // The byte accountant sizes the payload, so the buffer grows once; the
  // writer must then fill it exactly. If the two ever disagree the
  // modeled traffic is a lie, so fail loudly.
  auto const out = packer.extend(encoded_bytes(since));
  auto* p = rt::put_varint(out.data(), delta_count(since));
  RankId prev = -1;
  for (auto const& e : entries_) {
    if (e.version <= since) {
      continue;
    }
    p = rt::put_varint(p, static_cast<std::uint64_t>(e.rank - prev - 1));
    prev = e.rank;
  }
  for (auto const& e : entries_) {
    if (e.version <= since) {
      continue;
    }
    std::memcpy(p, &e.load, sizeof(LoadType));
    p += sizeof(LoadType);
  }
  TLB_ENSURES(p == out.data() + out.size());
}

Knowledge Knowledge::unpack(rt::Unpacker& unpacker) {
  Knowledge k;
  k.unpack_into(unpacker);
  return k;
}

void Knowledge::unpack_into(rt::Unpacker& unpacker) {
  clear();
  merge_packed(unpacker, std::numeric_limits<RankId>::max());
}

} // namespace tlb::lb
