#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace hdc {

/// Append-only little-endian byte sink used by the model serializers.
class ByteWriter {
 public:
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

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked reader over a serialized buffer. Every primitive read
/// validates remaining size, so malformed files raise hdc::Error rather than
/// reading out of bounds.
class ByteReader {
 public:
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

  std::string read_string(std::size_t max_size = 1U << 20) {
    const auto size = read<std::uint32_t>();
    HDC_CHECK(size <= max_size, "string length exceeds sanity bound");
    require(size);
    std::string value(reinterpret_cast<const char*>(data_.data() + cursor_), size);
    cursor_ += size;
    return value;
  }

  template <typename T>
  std::vector<T> read_vector(std::size_t max_elements = 1ULL << 32) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = read<std::uint64_t>();
    HDC_CHECK(count <= max_elements, "vector length exceeds sanity bound");
    require(count * sizeof(T));
    std::vector<T> values(count);
    if (count == 0) {
      return values;  // an empty vector's data() may be null: no memcpy from or to it
    }
    std::memcpy(values.data(), data_.data() + cursor_, count * sizeof(T));
    cursor_ += count * sizeof(T);
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

  /// Reads a u32 element count, checked with `fits`.
  std::uint32_t read_count(std::uint64_t min_element_bytes) {
    return static_cast<std::uint32_t>(fits(read<std::uint32_t>(), min_element_bytes));
  }

  std::size_t cursor() const noexcept { return cursor_; }
  std::size_t remaining() const noexcept { return data_.size() - cursor_; }
  bool exhausted() const noexcept { return cursor_ == data_.size(); }

  void skip(std::size_t count) {
    require(count);
    cursor_ += count;
  }

 private:
  void require(std::size_t count) const {
    HDC_CHECK(cursor_ + count <= data_.size(), "serialized buffer truncated");
  }

  std::span<const std::uint8_t> data_;
  std::size_t cursor_ = 0;
};

/// Whole-file helpers (throw hdc::Error on I/O failure).
std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);

}  // namespace hdc
