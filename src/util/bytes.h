// Byte-buffer serialization used for all on-the-wire message encodings in
// the simulated network: fixed-width little-endian integers, IEEE doubles,
// length-prefixed strings and vectors. Readers are bounds-checked and
// return Status rather than throwing, so malformed frames degrade into
// protocol errors (which NTCP treats as transient faults).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace nees::util {

/// Append-only encoder. Every field is one capacity check plus one store
/// (fixed-width values) or one memcpy (strings, byte runs, double vectors);
/// when the buffer must grow it at least doubles, starting from
/// kMinCapacity, so a small frame never regrows byte by byte.
///
/// Hot paths start the writer from storage that already has capacity: a
/// recycled frame (util::AcquireFrame) whose bytes Take() hands to a
/// message that returns it to the pool after delivery, or a member buffer
/// the owner moves in and takes back with Take() after each use. Steady
/// state then runs with zero heap allocation per frame.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopts `buffer` as backing storage: contents are discarded, capacity
  /// is kept. Pairs with util::AcquireFrame for allocation-free encoding.
  explicit ByteWriter(std::vector<std::uint8_t> buffer)
      : data_(std::move(buffer)) {
    data_.clear();
  }

  /// Smallest capacity a growing writer allocates.
  static constexpr std::size_t kMinCapacity = 64;

  /// Ensures total capacity for `bytes` bytes.
  void Reserve(std::size_t bytes) { data_.reserve(bytes); }

  void WriteU8(std::uint8_t value);
  void WriteU16(std::uint16_t value);
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteI64(std::int64_t value);
  void WriteDouble(double value);
  void WriteBool(bool value);
  /// Length-prefixed (u32) string.
  void WriteString(std::string_view value);
  /// Length-prefixed (u32) raw bytes.
  void WriteBytes(const std::vector<std::uint8_t>& value);
  void WriteBytes(const std::uint8_t* data, std::size_t size);
  void WriteBytes(std::span<const std::uint8_t> value);
  /// Length-prefixed (u32) vector of doubles.
  void WriteDoubleVector(const std::vector<double>& values);

  const std::vector<std::uint8_t>& data() const { return data_; }
  std::vector<std::uint8_t> Take() { return std::move(data_); }
  std::size_t size() const { return data_.size(); }

 private:
  /// Appends `size` raw bytes after one capacity check.
  void Put(const void* bytes, std::size_t size) {
    if (data_.capacity() - data_.size() < size) Grow(size);
    const auto* first = static_cast<const std::uint8_t*>(bytes);
    data_.insert(data_.end(), first, first + size);
  }
  void Grow(std::size_t extra);

  std::vector<std::uint8_t> data_;
};

/// Bounds-checked decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& data)
      : data_(data.data()), size_(data.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  Result<std::uint8_t> ReadU8();
  Result<std::uint16_t> ReadU16();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  Result<std::int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  /// Zero-copy variant of ReadString: a view into the borrowed buffer,
  /// valid only while the underlying frame lives and is unmodified.
  Result<std::string_view> ReadStringView();
  Result<std::vector<std::uint8_t>> ReadBytes();
  /// Zero-copy variant: a view into the borrowed buffer, valid only while
  /// the underlying frame lives and is unmodified.
  Result<std::span<const std::uint8_t>> ReadBytesView();
  Result<std::vector<double>> ReadDoubleVector();
  /// Decode into existing storage, keeping its capacity: a caller that
  /// decodes the same shape every step allocates nothing once warm.
  Status ReadStringInto(std::string& out);
  Status ReadDoubleVectorInto(std::vector<double>& out);

  std::size_t remaining() const { return size_ - offset_; }
  bool AtEnd() const { return offset_ == size_; }
  /// Cursor position and borrowed base pointer, for callers that checksum
  /// the raw byte range a structured decode just consumed.
  std::size_t offset() const { return offset_; }
  const std::uint8_t* base() const { return data_; }

 private:
  Status Need(std::size_t bytes) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace nees::util
