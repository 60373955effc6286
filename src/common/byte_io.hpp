#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/sim_time.hpp"

namespace hdc {

// ---- field vocabulary --------------------------------------------------------
//
// Every persisted type lists its fields once, in wire order, as a template
// over the I/O object: `fields(self, io)`, with `self` const when saving.
// `ByteWriter` drives it to save and `ByteReader` to load, through the same
// calls:
//
//   io.pod(x)                 arithmetic value, raw little-endian bytes
//   io.pod(x, as<W>)          integer held as another type, stored as W
//   io.flag(b)                bool as u8
//   io.duration(d)            SimDuration as double seconds
//   io.enumeration(e, max)    enum as u8; load rejects values above `max`
//   io.vec(v, cap)            u64 length + elements; load rejects length > cap
//   io.str(s, cap)            u32 length + bytes; load rejects length > cap
//   io.fixed(v)               u64 length + elements; load requires the length
//                             of the vector it was constructed with
//   io.raw(c)                 elements only: the shape is known to both sides
//   io.seq(items, cap, min, f)  count (of cap's type), then f(item) for each
//                             item; load bounds the count by cap and by
//                             `fits` (`min` bytes at least per item)
//   io.object(x)              a nested type's own field list
//   io.maybe(opt)             u8 presence flag, then the object
//   io.blob(x, save, load)    a nested sealed buffer, u64 length-prefixed
//
// A type built from a config lists its config fields first. Its reader bounds
// the shapes they imply with `fits`, constructs the object, then visits the
// state fields; `Io::kLoading` marks that step.

/// Wire type of an integer field held in memory as another type.
template <typename Wire>
inline constexpr std::type_identity<Wire> as{};

// Window shapes and ring heads (std::size_t) go on the wire as u64.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

inline constexpr std::uint64_t kMaxVectorElements = 1ULL << 32;
/// A u32 count bounded only by the bytes left (`fits`).
inline constexpr std::uint32_t kAnyCount = 0xFFFFFFFFU;
inline constexpr std::size_t kMaxStringBytes = 1U << 20;

/// Append-only little-endian byte sink used by the model serializers.
class ByteWriter {
 public:
  static constexpr bool kLoading = false;

  template <typename T>
  void write(T value) {
    static_assert(std::is_trivially_copyable_v<T>, "write requires a POD type");
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  void write_bytes(const void* data, std::size_t size) {
    const auto* src = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), src, src + size);
  }

  /// Length-prefixed (u32) UTF-8 string.
  void write_string(const std::string& value) {
    write<std::uint32_t>(static_cast<std::uint32_t>(value.size()));
    write_bytes(value.data(), value.size());
  }

  template <typename T>
  void write_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    write<std::uint64_t>(values.size());
    write_bytes(values.data(), values.size() * sizeof(T));
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return buffer_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

  /// Overwrite a previously written u32 (e.g. a checksum patched in at the end).
  void patch_u32(std::size_t offset, std::uint32_t value) {
    HDC_CHECK(offset + sizeof(value) <= buffer_.size(), "patch beyond buffer end");
    std::memcpy(buffer_.data() + offset, &value, sizeof(value));
  }

  // ---- field vocabulary (see the top of this file) ----
  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_arithmetic_v<T>);
    write(value);
  }
  template <typename Wire, typename T>
  void pod(const T& value, std::type_identity<Wire>) {
    write(static_cast<Wire>(value));
  }
  void flag(bool value) { write<std::uint8_t>(value ? 1 : 0); }
  void duration(SimDuration value) { write(value.to_seconds()); }
  template <typename E>
  void enumeration(E value, E /*max*/) {
    write(static_cast<std::uint8_t>(value));
  }
  template <typename T>
  void vec(const std::vector<T>& values, std::uint64_t /*cap*/ = kMaxVectorElements) {
    write_vector(values);
  }
  void str(const std::string& value, std::size_t /*cap*/ = kMaxStringBytes) {
    write_string(value);
  }
  template <typename T>
  void fixed(const std::vector<T>& values) {
    write_vector(values);
  }
  template <typename Container>
  void raw(const Container& values) {
    write_bytes(values.data(), values.size() * sizeof(values[0]));
  }
  template <typename Count, typename Seq, typename Element>
  void seq(const Seq& items, Count /*cap*/, std::uint64_t /*min_element_bytes*/,
           Element&& element) {
    write(static_cast<Count>(items.size()));
    for (const auto& item : items) {
      element(item);
    }
  }
  template <typename T>
  void object(const T& value) {
    if constexpr (requires { T::fields(value, *this); }) {
      T::fields(value, *this);
    } else {
      value.serialize(*this);
    }
  }
  template <typename T>
  void maybe(const std::optional<T>& value) {
    flag(value.has_value());
    if (value.has_value()) {
      object(*value);
    }
  }
  template <typename T, typename Save, typename Load>
  void blob(const T& value, Save&& save, Load&& /*load*/) {
    write_vector(save(value));
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked reader over a serialized buffer. Every primitive read
/// validates remaining size, so malformed files raise hdc::Error rather than
/// reading out of bounds.
class ByteReader {
 public:
  static constexpr bool kLoading = true;

  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>, "read requires a POD type");
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  std::string read_string(std::size_t max_size = kMaxStringBytes) {
    const auto size = read<std::uint32_t>();
    HDC_CHECK(size <= max_size, "string length exceeds sanity bound");
    require(size);
    std::string value(reinterpret_cast<const char*>(data_.data() + cursor_), size);
    cursor_ += size;
    return value;
  }

  template <typename T>
  std::vector<T> read_vector(std::size_t max_elements = kMaxVectorElements) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = read<std::uint64_t>();
    HDC_CHECK(count <= max_elements, "vector length exceeds sanity bound");
    require(count * sizeof(T));
    std::vector<T> values(count);
    read_into(values.data(), count * sizeof(T));
    return values;
  }

  /// Checks that `count` serialized elements of at least `min_element_bytes`
  /// each fit in the bytes left, so a corrupted count or size fails here
  /// instead of sizing an allocation. Returns `count`.
  std::uint64_t fits(std::uint64_t count, std::uint64_t min_element_bytes) const {
    HDC_CHECK(count <= remaining() / min_element_bytes,
              "serialized element count exceeds the bytes left");
    return count;
  }

  std::size_t cursor() const noexcept { return cursor_; }
  std::size_t remaining() const noexcept { return data_.size() - cursor_; }
  bool exhausted() const noexcept { return cursor_ == data_.size(); }

  void skip(std::size_t count) {
    require(count);
    cursor_ += count;
  }

  // ---- field vocabulary (see the top of this file) ----
  template <typename T>
  void pod(T& value) {
    static_assert(std::is_arithmetic_v<T>);
    value = read<T>();
  }
  template <typename Wire, typename T>
  void pod(T& value, std::type_identity<Wire>) {
    value = static_cast<T>(read<Wire>());
  }
  void flag(bool& value) { value = read<std::uint8_t>() != 0; }
  void duration(SimDuration& value) { value = SimDuration::seconds(read<double>()); }
  template <typename E>
  void enumeration(E& value, E max) {
    const auto raw = read<std::uint8_t>();
    HDC_CHECK(raw <= static_cast<std::uint8_t>(max), "serialized enum value out of range");
    value = static_cast<E>(raw);
  }
  template <typename T>
  void vec(std::vector<T>& values, std::uint64_t cap = kMaxVectorElements) {
    values = read_vector<T>(cap);
  }
  void str(std::string& value, std::size_t cap = kMaxStringBytes) { value = read_string(cap); }
  template <typename T>
  void fixed(std::vector<T>& values) {
    HDC_CHECK(read<std::uint64_t>() == values.size(),
              "serialized vector does not match its configured shape");
    raw(values);
  }
  template <typename Container>
  void raw(Container& values) {
    const std::size_t size = values.size() * sizeof(values[0]);
    require(size);
    read_into(values.data(), size);
  }
  template <typename Count, typename Seq, typename Element>
  void seq(Seq& items, Count cap, std::uint64_t min_element_bytes, Element&& element) {
    const auto count = read<Count>();
    HDC_CHECK(count <= cap, "serialized element count exceeds its bound");
    fits(count, min_element_bytes);
    items.clear();
    for (Count i = 0; i < count; ++i) {
      element(items.emplace_back());
    }
  }
  /// A type whose shape comes from its owner's config exposes its field list
  /// (`T::fields`) and is restored in place; any other is rebuilt by its
  /// factory (`T::deserialize`).
  template <typename T>
  void object(T& value) {
    if constexpr (requires { T::fields(value, *this); }) {
      T::fields(value, *this);
    } else {
      value = T::deserialize(*this);
    }
  }
  template <typename T>
  void object(std::optional<T>& value) {
    value.emplace(T::deserialize(*this));
  }
  template <typename T>
  void maybe(std::optional<T>& value) {
    bool present = false;
    flag(present);
    value.reset();
    if (present) {
      object(value);
    }
  }
  template <typename T, typename Save, typename Load>
  void blob(std::optional<T>& value, Save&& /*save*/, Load&& load) {
    value.emplace(load(read_vector<std::uint8_t>()));
  }

 private:
  void require(std::size_t count) const {
    HDC_CHECK(count <= remaining(), "serialized buffer truncated");
  }
  /// Copies `size` checked bytes out; an empty destination's data() may be
  /// null, so nothing is copied to or from it.
  void read_into(void* dest, std::size_t size) {
    if (size > 0) {
      std::memcpy(dest, data_.data() + cursor_, size);
      cursor_ += size;
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t cursor_ = 0;
};

// ---- the envelope every persisted format shares -----------------------------

/// Magic, version, the payload `fields(writer)` writes, then the CRC32 of
/// everything before it.
template <typename Fields>
std::vector<std::uint8_t> seal(std::uint32_t magic, std::uint32_t version, Fields&& fields) {
  ByteWriter writer;
  writer.write(magic);
  writer.write(version);
  fields(writer);
  writer.write(crc32(writer.bytes().data(), writer.size()));
  return writer.take();
}

/// Checks size, CRC32, magic and version; returns a reader over the payload.
/// `what` names the buffer in errors ("classifier buffer").
ByteReader open_envelope(std::span<const std::uint8_t> bytes, std::uint32_t magic,
                         std::uint32_t version, const std::string& what);

/// Opens what `seal` wrote and reads the payload with `fields(reader)`,
/// which must consume it exactly.
template <typename Fields>
void open_sealed(std::span<const std::uint8_t> bytes, std::uint32_t magic,
                 std::uint32_t version, const std::string& what, Fields&& fields) {
  ByteReader reader = open_envelope(bytes, magic, version, what);
  fields(reader);
  HDC_CHECK(reader.exhausted(), "trailing bytes after " + what + " payload");
}

/// Whole-file helpers (throw hdc::Error on I/O failure).
std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);

}  // namespace hdc
