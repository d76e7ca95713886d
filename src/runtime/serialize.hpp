#pragma once

/// \file serialize.hpp
/// A small byte-oriented serialization layer. The in-process runtime
/// could pass payloads by reference, but the protocols in this library
/// ship their data through Packer/Unpacker so that (a) the modeled wire
/// sizes are the *actual* serialized sizes and (b) the code is proven to
/// survive a real serialize/ship/deserialize boundary — what running over
/// MPI would require.
///
/// Format: little-endian host representation of trivially copyable types,
/// length-prefixed containers. Not portable across heterogeneous
/// architectures (neither are most HPC wire formats); bounds-checked on
/// the read side.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace tlb::rt {

/// Encoded size of `value` under LEB128 (7 bits per byte): 1 byte for
/// values below 128, up to 10 bytes for the full u64 range. The single
/// size function shared by the packer, the unpacker, and every byte
/// accountant — so modeled wire sizes cannot drift from emitted ones.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

/// Write `value` as a LEB128 varint at `out` (varint_size(value) bytes)
/// and return one past the last byte written.
inline std::byte* put_varint(std::byte* out, std::uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<std::byte>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<std::byte>(value);
  return out;
}

class Packer {
public:
  /// Owning mode: pack into an internal buffer (allocates as it grows).
  Packer() : buffer_{&owned_} {}

  /// Scratch mode: pack into `scratch`, which is cleared first but keeps
  /// its capacity — the zero-allocation path for steady-state protocol
  /// rounds that recycle their buffers (see SnapshotPool).
  explicit Packer(std::vector<std::byte>& scratch) : buffer_{&scratch} {
    scratch.clear();
  }

  /// Serialize a trivially copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pack(T const& value) {
    std::memcpy(extend(sizeof(T)).data(), &value, sizeof(T));
  }

  /// Serialize a vector of trivially copyable elements (u64 length
  /// prefix + raw elements).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pack(std::vector<T> const& values) {
    pack(static_cast<std::uint64_t>(values.size()));
    auto const out = extend(values.size() * sizeof(T));
    if (!values.empty()) {
      std::memcpy(out.data(), values.data(), out.size());
    }
  }

  void pack(std::string const& value) {
    pack(static_cast<std::uint64_t>(value.size()));
    auto const out = extend(value.size());
    if (!value.empty()) {
      std::memcpy(out.data(), value.data(), out.size());
    }
  }

  /// LEB128 unsigned varint: 7 payload bits per byte, high bit = "more".
  void pack_varint(std::uint64_t value) {
    put_varint(extend(varint_size(value)).data(), value);
  }

  /// Grow the buffer by `n` bytes in one step and hand them back to be
  /// filled. A payload whose size is known up front (Knowledge's wire
  /// format) pays one resize instead of one per field.
  [[nodiscard]] std::span<std::byte> extend(std::size_t n) {
    auto const offset = buffer_->size();
    buffer_->resize(offset + n);
    return std::span<std::byte>{*buffer_}.subspan(offset);
  }

  [[nodiscard]] std::size_t size() const { return buffer_->size(); }
  [[nodiscard]] std::span<std::byte const> bytes() const { return *buffer_; }

  /// Surrender the buffer (e.g. to move into a message closure). Only
  /// meaningful in owning mode: a scratch-backed packer's bytes belong to
  /// the pool that lent them.
  [[nodiscard]] std::vector<std::byte> take() && {
    TLB_EXPECTS(buffer_ == &owned_);
    return std::move(owned_);
  }

private:
  std::vector<std::byte> owned_;
  std::vector<std::byte>* buffer_;
};

class Unpacker {
public:
  explicit Unpacker(std::span<std::byte const> bytes) : bytes_{bytes} {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T unpack() {
    TLB_EXPECTS(offset_ + sizeof(T) <= bytes_.size());
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] std::vector<T> unpack_vector() {
    auto const n = unpack<std::uint64_t>();
    TLB_EXPECTS(offset_ + n * sizeof(T) <= bytes_.size());
    std::vector<T> values(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(values.data(), bytes_.data() + offset_,
                  static_cast<std::size_t>(n) * sizeof(T));
    }
    offset_ += static_cast<std::size_t>(n) * sizeof(T);
    return values;
  }

  [[nodiscard]] std::string unpack_string() {
    auto const n = unpack<std::uint64_t>();
    TLB_EXPECTS(offset_ + n <= bytes_.size());
    std::string value(reinterpret_cast<char const*>(bytes_.data() + offset_),
                      static_cast<std::size_t>(n));
    offset_ += static_cast<std::size_t>(n);
    return value;
  }

  /// Inverse of Packer::pack_varint. Rejects encodings that overflow 64
  /// bits (more than 10 bytes, or payload bits past bit 63).
  [[nodiscard]] std::uint64_t unpack_varint() {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      auto const byte = unpack<std::uint8_t>();
      auto const payload = static_cast<std::uint64_t>(byte & 0x7f);
      TLB_EXPECTS(shift < 63 || payload <= 1); // bits past 63 would be lost
      value |= payload << shift;
      if ((byte & 0x80) == 0) {
        return value;
      }
    }
    TLB_EXPECTS(false && "varint longer than 10 bytes");
    return value;
  }

  /// Consume the next `n` bytes and hand them back (bounds-checked): a
  /// decoder that walks two blocks of a payload side by side reads them
  /// through their own spans.
  [[nodiscard]] std::span<std::byte const> take(std::size_t n) {
    TLB_EXPECTS(n <= bytes_.size() - offset_);
    auto const out = bytes_.subspan(offset_, n);
    offset_ += n;
    return out;
  }

  /// The bytes not consumed yet.
  [[nodiscard]] std::span<std::byte const> remaining() const {
    return bytes_.subspan(offset_);
  }

  /// Bytes consumed so far.
  [[nodiscard]] std::size_t consumed() const { return offset_; }
  /// True when every byte has been consumed (a useful postcondition).
  [[nodiscard]] bool exhausted() const { return offset_ == bytes_.size(); }

private:
  std::span<std::byte const> bytes_;
  std::size_t offset_ = 0;
};

/// A recycling pool of shared, refcounted byte buffers for messages whose
/// payload is serialized once and fanned out to several destinations (the
/// gossip forward pattern). acquire() hands back a Lease on a slot whose
/// buffer a scratch-mode Packer can fill; the handler closures copy the
/// lease, and once the last message destructs the slot's lease count
/// drops back to the pool's own, making it reusable — the slot, its
/// vector header, and byte capacity all survive, so steady-state rounds
/// perform zero heap allocations.
///
/// Thread-confined: each protocol rank owns its pool and only that rank's
/// handlers call acquire(). The leases held by in-flight messages are
/// dropped under the destination rank's drain, on another worker thread:
/// dropping one is a release decrement and acquire() reads the count with
/// acquire ordering, so a receiver's reads of the buffer happen-before the
/// owner's next clear() of it. A dropped message drops its lease too.
class SnapshotPool {
public:
  struct Slot {
    std::vector<std::byte> bytes;
    /// Leases on this slot, the pool's own included.
    std::atomic<std::size_t> leases{0};
  };

  /// A counted reference to a slot. Copies share the slot; whichever
  /// lease goes last (the pool's or a message's) frees it.
  class Lease {
  public:
    Lease() = default;
    Lease(Lease const& other) noexcept : slot_{other.slot_} {
      if (slot_ != nullptr) {
        slot_->leases.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Lease(Lease&& other) noexcept
        : slot_{std::exchange(other.slot_, nullptr)} {}
    Lease& operator=(Lease other) noexcept {
      std::swap(slot_, other.slot_);
      return *this;
    }
    ~Lease() { reset(); }

    void reset() noexcept {
      Slot* const slot = std::exchange(slot_, nullptr);
      if (slot != nullptr &&
          slot->leases.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete slot;
      }
    }
    [[nodiscard]] Slot* get() const noexcept { return slot_; }
    Slot* operator->() const noexcept { return slot_; }

  private:
    friend class SnapshotPool;
    explicit Lease(Slot* slot) noexcept : slot_{slot} {
      slot_->leases.fetch_add(1, std::memory_order_relaxed);
    }

    Slot* slot_ = nullptr;
  };

  /// Pre-create `depth` slots and grow each free slot to `capacity`
  /// bytes. A depth at or above the peak number of concurrently in-flight
  /// payloads and a capacity at or above the largest payload make every
  /// subsequent acquire() allocation-free (the zero-allocation contract
  /// the inform plane pins with its counter test). May be called again to
  /// grow the pool; a slot some message still leases is left alone, since
  /// a reader on another worker may be reading its bytes.
  void prime(std::size_t depth, std::size_t capacity) {
    while (slots_.size() < depth) {
      slots_.push_back(Lease{new Slot});
    }
    for (auto& slot : slots_) {
      if (slot->leases.load(std::memory_order_acquire) == 1) {
        slot->bytes.reserve(capacity);
      }
    }
  }

  /// Fetch a slot with no other leases, cleared but with its capacity
  /// intact. Allocates only when every pooled slot is still leased by an
  /// in-flight message.
  [[nodiscard]] Lease acquire() {
    for (auto& slot : slots_) {
      if (slot->leases.load(std::memory_order_acquire) == 1) {
        slot->bytes.clear();
        return slot;
      }
    }
    slots_.push_back(Lease{new Slot});
    return slots_.back();
  }

  /// Pool depth (for tests: steady state should stop growing).
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

private:
  std::vector<Lease> slots_;
};

} // namespace tlb::rt
