// Write-ahead log used by the NTCP servers and the MOST coordinator to
// survive process crashes (the transaction-replay discipline of Krafft's
// ad-hoc-grid simulation work, applied to the paper's Fig. 1 state
// machine): every durable state transition is appended and synced *before*
// the reply that discloses it leaves the process, so a restarted process
// can reconstruct exactly what it had promised.
//
// Framing: each record is [u32 length][u32 crc32][u8 type][payload...],
// little-endian, where `length` counts the type byte plus the payload and
// the CRC covers the same bytes. Open() walks the frames and distinguishes
// the two corruption cases a crash can leave behind:
//
//   * torn tail  — the final frame has fewer bytes than its header (or the
//                  header itself is cut short): the process died mid-append
//                  before the sync point. Open() truncates the tail and
//                  recovers everything before it; this is NOT an error.
//   * bad CRC    — a *complete* frame whose checksum does not match: the
//                  storage itself is damaged (bit rot, overwrite). Open()
//                  aborts with kDataLoss and a byte offset; recovery must
//                  not guess past silent corruption.
//
// The Storage interface is the fsync-point abstraction: Append() buffers,
// Sync() makes everything appended so far durable. MemoryStorage models a
// process crash for the deterministic fuzzer — Crash() discards the
// unsynced tail (exactly what the kernel would lose) and swallows all
// further writes (a dead process cannot write); Revive() re-admits writes
// for the next incarnation. FileStorage maps Sync() to fflush+fsync.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/result.h"

namespace nees::wal {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `size` bytes.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);

/// Append-only durable byte store with an explicit sync point.
class Storage {
 public:
  virtual ~Storage() = default;

  /// Appends bytes to the (possibly volatile) write buffer.
  virtual util::Status Append(std::span<const std::uint8_t> bytes) = 0;
  /// Makes every byte appended so far durable (the fsync point).
  virtual util::Status Sync() = 0;
  /// Reads the full current contents (durable + buffered tail).
  virtual util::Result<std::vector<std::uint8_t>> Load() = 0;
  /// Discards everything at and after byte `size` (torn-tail cleanup).
  virtual util::Status Truncate(std::size_t size) = 0;
};

/// In-memory storage with an explicit durability line, for tests and the
/// deterministic fuzzer's crash/restart fault class.
class MemoryStorage final : public Storage {
 public:
  util::Status Append(std::span<const std::uint8_t> bytes) override;
  util::Status Sync() override;
  util::Result<std::vector<std::uint8_t>> Load() override;
  util::Status Truncate(std::size_t size) override;

  /// Process death: the unsynced tail is lost and, until Revive(), every
  /// further Append/Sync is silently swallowed (a dead process cannot
  /// write, and its zombie stack frames must not observe errors either).
  void Crash();
  /// Re-admits writes for the next process incarnation.
  void Revive();

  bool crashed() const { return crashed_; }
  std::size_t size() const { return bytes_.size(); }
  std::size_t synced_size() const { return synced_size_; }

  /// Test hook: flips one bit so CRC validation has something to catch.
  void CorruptByte(std::size_t offset);
  /// Test hook: drops every byte at and after `size` regardless of sync
  /// state (models a filesystem that lost part of a synced file).
  void ForceTruncate(std::size_t size);

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t synced_size_ = 0;
  bool crashed_ = false;
};

/// File-backed storage; Sync() is fflush + fsync. The file is created on
/// first Append/Sync and re-read in full by Load().
class FileStorage final : public Storage {
 public:
  explicit FileStorage(std::string path);
  ~FileStorage() override;

  util::Status Append(std::span<const std::uint8_t> bytes) override;
  util::Status Sync() override;
  util::Result<std::vector<std::uint8_t>> Load() override;
  util::Status Truncate(std::size_t size) override;

  const std::string& path() const { return path_; }

 private:
  util::Status EnsureOpen();

  std::string path_;
  std::FILE* file_ = nullptr;
};

/// One decoded log record. `type` is owned by the layer above (the NTCP
/// server and the coordinator each define their own record vocabulary).
struct Record {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

struct OpenStats {
  std::size_t records = 0;
  std::size_t bytes = 0;            // valid log bytes after tail cleanup
  std::size_t truncated_bytes = 0;  // torn tail discarded by Open()
};

/// Framed record log over a Storage. Open() first, then Append()/Sync().
class Log {
 public:
  explicit Log(Storage* storage) : storage_(storage) {}

  /// Scans the storage, truncating a torn final record (a crash between
  /// append and sync) and returning every intact record in order. A
  /// complete record with a CRC mismatch aborts with kDataLoss — the log
  /// is damaged, not merely torn, and replaying past silent corruption
  /// would resurrect arbitrary state.
  util::Result<std::vector<Record>> Open();

  /// Appends one framed record (not yet durable): the header and type are
  /// framed on the stack and written, with the payload, straight to the
  /// storage tail.
  util::Status Append(std::uint8_t type,
                      std::span<const std::uint8_t> payload);
  /// Durability point: everything appended so far survives a crash.
  util::Status Sync();

  const OpenStats& open_stats() const { return open_stats_; }
  std::size_t appended() const { return appended_; }

 private:
  Storage* storage_;
  OpenStats open_stats_;
  std::size_t appended_ = 0;
};

}  // namespace nees::wal
