#include "util/bytes.h"

#include <algorithm>
#include <array>

namespace nees::util {

namespace {

// Little-endian byte image of an unsigned value, independent of host order.
template <typename T>
std::array<std::uint8_t, sizeof(T)> LittleEndian(T value) {
  std::array<std::uint8_t, sizeof(T)> out;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return out;
}

}  // namespace

void ByteWriter::Grow(std::size_t extra) {
  data_.reserve(std::max({data_.size() + extra, 2 * data_.capacity(),
                          kMinCapacity}));
}

void ByteWriter::WriteU8(std::uint8_t value) { Put(&value, 1); }

void ByteWriter::WriteU16(std::uint16_t value) {
  const auto bytes = LittleEndian(value);
  Put(bytes.data(), bytes.size());
}

void ByteWriter::WriteU32(std::uint32_t value) {
  const auto bytes = LittleEndian(value);
  Put(bytes.data(), bytes.size());
}

void ByteWriter::WriteU64(std::uint64_t value) {
  const auto bytes = LittleEndian(value);
  Put(bytes.data(), bytes.size());
}

void ByteWriter::WriteI64(std::int64_t value) {
  WriteU64(static_cast<std::uint64_t>(value));
}

void ByteWriter::WriteDouble(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteBool(bool value) { WriteU8(value ? 1 : 0); }

void ByteWriter::WriteString(std::string_view value) {
  WriteBytes(reinterpret_cast<const std::uint8_t*>(value.data()),
             value.size());
}

void ByteWriter::WriteBytes(const std::vector<std::uint8_t>& value) {
  WriteBytes(value.data(), value.size());
}

void ByteWriter::WriteBytes(const std::uint8_t* data, std::size_t size) {
  if (data_.capacity() - data_.size() < 4 + size) Grow(4 + size);
  WriteU32(static_cast<std::uint32_t>(size));
  if (size > 0) Put(data, size);
}

void ByteWriter::WriteBytes(std::span<const std::uint8_t> value) {
  WriteBytes(value.data(), value.size());
}

void ByteWriter::WriteDoubleVector(const std::vector<double>& values) {
  const std::size_t bytes = 8 * values.size();
  if (data_.capacity() - data_.size() < 4 + bytes) Grow(4 + bytes);
  WriteU32(static_cast<std::uint32_t>(values.size()));
  const std::size_t at = data_.size();
  data_.resize(at + bytes);
  std::uint8_t* out = data_.data() + at;
  for (double value : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    const auto image = LittleEndian(bits);
    std::memcpy(out, image.data(), image.size());
    out += image.size();
  }
}

Status ByteReader::Need(std::size_t bytes) const {
  if (size_ - offset_ < bytes) {
    return DataLoss("byte reader underrun: need " + std::to_string(bytes) +
                    " bytes, have " + std::to_string(size_ - offset_));
  }
  return OkStatus();
}

Result<std::uint8_t> ByteReader::ReadU8() {
  NEES_RETURN_IF_ERROR(Need(1));
  return data_[offset_++];
}

Result<std::uint16_t> ByteReader::ReadU16() {
  NEES_RETURN_IF_ERROR(Need(2));
  std::uint16_t value = static_cast<std::uint16_t>(data_[offset_]) |
                        static_cast<std::uint16_t>(data_[offset_ + 1]) << 8;
  offset_ += 2;
  return value;
}

Result<std::uint32_t> ByteReader::ReadU32() {
  NEES_RETURN_IF_ERROR(Need(4));
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return value;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  NEES_RETURN_IF_ERROR(Need(8));
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return value;
}

Result<std::int64_t> ByteReader::ReadI64() {
  NEES_ASSIGN_OR_RETURN(std::uint64_t bits, ReadU64());
  return static_cast<std::int64_t>(bits);
}

Result<double> ByteReader::ReadDouble() {
  NEES_ASSIGN_OR_RETURN(std::uint64_t bits, ReadU64());
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<bool> ByteReader::ReadBool() {
  NEES_ASSIGN_OR_RETURN(std::uint8_t byte, ReadU8());
  return byte != 0;
}

Result<std::string> ByteReader::ReadString() {
  std::string value;
  NEES_RETURN_IF_ERROR(ReadStringInto(value));
  return value;
}

Result<std::string_view> ByteReader::ReadStringView() {
  NEES_ASSIGN_OR_RETURN(std::span<const std::uint8_t> bytes, ReadBytesView());
  return std::string_view(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
}

Status ByteReader::ReadStringInto(std::string& out) {
  NEES_ASSIGN_OR_RETURN(std::uint32_t length, ReadU32());
  NEES_RETURN_IF_ERROR(Need(length));
  out.assign(reinterpret_cast<const char*>(data_ + offset_), length);
  offset_ += length;
  return OkStatus();
}

Result<std::vector<std::uint8_t>> ByteReader::ReadBytes() {
  NEES_ASSIGN_OR_RETURN(std::uint32_t length, ReadU32());
  NEES_RETURN_IF_ERROR(Need(length));
  std::vector<std::uint8_t> value(data_ + offset_, data_ + offset_ + length);
  offset_ += length;
  return value;
}

Result<std::span<const std::uint8_t>> ByteReader::ReadBytesView() {
  NEES_ASSIGN_OR_RETURN(std::uint32_t length, ReadU32());
  NEES_RETURN_IF_ERROR(Need(length));
  std::span<const std::uint8_t> view(data_ + offset_, length);
  offset_ += length;
  return view;
}

Result<std::vector<double>> ByteReader::ReadDoubleVector() {
  std::vector<double> values;
  NEES_RETURN_IF_ERROR(ReadDoubleVectorInto(values));
  return values;
}

Status ByteReader::ReadDoubleVectorInto(std::vector<double>& out) {
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, ReadU32());
  NEES_RETURN_IF_ERROR(Need(static_cast<std::size_t>(count) * 8));
  out.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    for (int b = 0; b < 8; ++b) {
      bits |= static_cast<std::uint64_t>(data_[offset_ + b]) << (8 * b);
    }
    std::memcpy(&out[i], &bits, sizeof(bits));
    offset_ += 8;
  }
  return OkStatus();
}

}  // namespace nees::util
