#include "wal/wal.h"

#include <array>
#include <cstring>

#if !defined(_WIN32)
#include <unistd.h>  // fsync / fileno
#endif

#include "util/crc32.h"
#include "util/strings.h"

namespace nees::wal {
namespace {

constexpr std::size_t kHeaderBytes = 8;  // u32 length + u32 crc32

std::uint32_t ReadLittleU32(const std::uint8_t* data) {
  return static_cast<std::uint32_t>(data[0]) |
         (static_cast<std::uint32_t>(data[1]) << 8) |
         (static_cast<std::uint32_t>(data[2]) << 16) |
         (static_cast<std::uint32_t>(data[3]) << 24);
}

void StoreLittleU32(std::uint8_t* out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  return util::Crc32(data, size);
}

// --- MemoryStorage ----------------------------------------------------------

util::Status MemoryStorage::Append(std::span<const std::uint8_t> bytes) {
  if (crashed_) return util::OkStatus();  // dead processes write nothing
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  return util::OkStatus();
}

util::Status MemoryStorage::Sync() {
  if (crashed_) return util::OkStatus();
  synced_size_ = bytes_.size();
  return util::OkStatus();
}

util::Result<std::vector<std::uint8_t>> MemoryStorage::Load() {
  return bytes_;
}

util::Status MemoryStorage::Truncate(std::size_t size) {
  if (crashed_) return util::OkStatus();
  if (size < bytes_.size()) bytes_.resize(size);
  if (synced_size_ > bytes_.size()) synced_size_ = bytes_.size();
  return util::OkStatus();
}

void MemoryStorage::Crash() {
  bytes_.resize(synced_size_);  // the kernel loses the unsynced tail
  crashed_ = true;
}

void MemoryStorage::Revive() { crashed_ = false; }

void MemoryStorage::CorruptByte(std::size_t offset) {
  if (offset < bytes_.size()) bytes_[offset] ^= 0x40;
  if (synced_size_ < bytes_.size()) synced_size_ = bytes_.size();
}

void MemoryStorage::ForceTruncate(std::size_t size) {
  if (size < bytes_.size()) bytes_.resize(size);
  if (synced_size_ > bytes_.size()) synced_size_ = bytes_.size();
}

// --- FileStorage ------------------------------------------------------------

FileStorage::FileStorage(std::string path) : path_(std::move(path)) {}

FileStorage::~FileStorage() {
  if (file_ != nullptr) std::fclose(file_);
}

util::Status FileStorage::EnsureOpen() {
  if (file_ != nullptr) return util::OkStatus();
  // a+b: create if missing, never clobber an existing log, append-only.
  file_ = std::fopen(path_.c_str(), "a+b");
  if (file_ == nullptr) {
    return util::Internal("cannot open WAL file: " + path_);
  }
  return util::OkStatus();
}

util::Status FileStorage::Append(std::span<const std::uint8_t> bytes) {
  NEES_RETURN_IF_ERROR(EnsureOpen());
  if (bytes.empty()) return util::OkStatus();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return util::DataLoss("short write to WAL file: " + path_);
  }
  return util::OkStatus();
}

util::Status FileStorage::Sync() {
  NEES_RETURN_IF_ERROR(EnsureOpen());
  if (std::fflush(file_) != 0) {
    return util::DataLoss("fflush failed on WAL file: " + path_);
  }
#if defined(_WIN32)
  // No fsync on this toolchain; fflush is the best available barrier.
#else
  if (fsync(fileno(file_)) != 0) {
    return util::DataLoss("fsync failed on WAL file: " + path_);
  }
#endif
  return util::OkStatus();
}

util::Result<std::vector<std::uint8_t>> FileStorage::Load() {
  NEES_RETURN_IF_ERROR(EnsureOpen());
  if (std::fflush(file_) != 0) {
    return util::DataLoss("fflush failed on WAL file: " + path_);
  }
  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) {
    return util::Internal("cannot re-open WAL file for read: " + path_);
  }
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 4096> chunk;
  std::size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), in)) > 0) {
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + got);
  }
  const bool failed = std::ferror(in) != 0;
  std::fclose(in);
  if (failed) return util::DataLoss("error reading WAL file: " + path_);
  return bytes;
}

util::Status FileStorage::Truncate(std::size_t size) {
  // Rewrite-in-place: load the prefix, close, recreate. Torn tails are
  // small and truncation happens once, at open.
  NEES_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes, Load());
  if (size >= bytes.size()) return util::OkStatus();
  bytes.resize(size);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::FILE* out = std::fopen(path_.c_str(), "wb");
  if (out == nullptr) {
    return util::Internal("cannot rewrite WAL file: " + path_);
  }
  const bool ok =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  std::fclose(out);
  if (!ok) return util::DataLoss("short rewrite of WAL file: " + path_);
  return util::OkStatus();
}

// --- Log --------------------------------------------------------------------

util::Result<std::vector<Record>> Log::Open() {
  open_stats_ = {};
  NEES_ASSIGN_OR_RETURN(std::vector<std::uint8_t> bytes, storage_->Load());

  std::vector<Record> records;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const std::size_t remaining = bytes.size() - offset;
    if (remaining < kHeaderBytes) break;  // torn header
    const std::uint32_t length = ReadLittleU32(&bytes[offset]);
    const std::uint32_t crc = ReadLittleU32(&bytes[offset + 4]);
    if (length == 0) {
      return util::DataLoss(util::Format(
          "WAL record at byte %zu has zero length (header corrupt)", offset));
    }
    if (remaining - kHeaderBytes < length) break;  // torn body
    const std::uint8_t* body = &bytes[offset + kHeaderBytes];
    const std::uint32_t actual = Crc32(body, length);
    if (actual != crc) {
      return util::DataLoss(util::Format(
          "WAL record at byte %zu fails its CRC check (stored 0x%08x, "
          "computed 0x%08x over %u bytes): log is corrupt, refusing to "
          "recover past it",
          offset, crc, actual, length));
    }
    Record record;
    record.type = body[0];
    record.payload.assign(body + 1, body + length);
    records.push_back(std::move(record));
    offset += kHeaderBytes + length;
  }

  if (offset < bytes.size()) {
    // Torn tail: the crash landed between append and sync. Drop it.
    open_stats_.truncated_bytes = bytes.size() - offset;
    NEES_RETURN_IF_ERROR(storage_->Truncate(offset));
  }
  open_stats_.records = records.size();
  open_stats_.bytes = offset;
  return records;
}

util::Status Log::Append(std::uint8_t type,
                         std::span<const std::uint8_t> payload) {
  // [u32 length][u32 crc][u8 type]: the CRC runs over the type byte, then
  // continues over the payload, so no contiguous body is ever built.
  std::array<std::uint8_t, kHeaderBytes + 1> head;
  head[kHeaderBytes] = type;
  const std::uint32_t crc = util::Crc32(
      payload.data(), payload.size(), util::Crc32(&head[kHeaderBytes], 1));
  StoreLittleU32(&head[0], static_cast<std::uint32_t>(1 + payload.size()));
  StoreLittleU32(&head[4], crc);
  NEES_RETURN_IF_ERROR(storage_->Append(head));
  if (!payload.empty()) NEES_RETURN_IF_ERROR(storage_->Append(payload));
  ++appended_;
  return util::OkStatus();
}

util::Status Log::Sync() { return storage_->Sync(); }

}  // namespace nees::wal
