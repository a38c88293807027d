// The NTCP server's transaction table: records keyed by transaction id.
//
// Each record lives in its own heap block, so its address is stable for its
// lifetime: the expiry index and an execute in progress hold pointers to
// records while other transactions are inserted. Lookup hashes the id bytes
// once and probes an open-addressed index of (hash, record) slots, comparing
// the full id only on a hash match, so an operation is O(1). The ids share a
// long "<run>-s<step>-a<attempt>-<site>" prefix, which made every level of
// the std::map this replaces pay a long string compare. The index grows with
// the table (load below 3/4) and is never pre-sized.
//
// The index keeps no order. A caller whose output order can be observed
// sorts (SortedById); the rest iterate with ForEach (DESIGN.md decision 24).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "ntcp/types.h"

namespace nees::ntcp {

class TransactionTable {
 public:
  static std::uint64_t Hash(std::string_view id) {
    return std::hash<std::string_view>{}(id);
  }

  std::size_t size() const { return size_; }

  /// The record whose id is `id`, or null. `hash` is Hash(id).
  TransactionRecord* Find(std::string_view id, std::uint64_t hash) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.record == nullptr) return nullptr;
      if (slot.hash == hash && slot.record->proposal.transaction_id == id) {
        return slot.record.get();
      }
    }
  }
  TransactionRecord* Find(std::string_view id) const {
    return Find(id, Hash(id));
  }

  /// Adds a kProposed record holding `proposal`, whose transaction id must
  /// not be in the table yet, and returns it. `hash` is Hash(that id).
  TransactionRecord& Insert(std::uint64_t hash, Proposal&& proposal) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(std::max<std::size_t>(8, slots_.size() * 2));
    }
    auto owned = std::make_unique<TransactionRecord>();
    owned->proposal = std::move(proposal);
    TransactionRecord& stored = *owned;
    Place(Slot{hash, std::move(owned)});
    ++size_;
    return stored;
  }

  /// Frees every record `erase(record)` returns true for, and returns how
  /// many. O(table).
  template <typename Pred>
  std::size_t EraseIf(Pred&& erase) {
    std::size_t erased = 0;
    for (Slot& slot : slots_) {
      if (slot.record != nullptr && erase(*slot.record)) {
        slot.record.reset();
        ++erased;
      }
    }
    size_ -= erased;
    // A freed slot can cut a probe run short; re-placing the survivors
    // mends every run.
    if (erased > 0) Rehash(slots_.size());
    return erased;
  }

  /// Calls fn(record) for every record, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.record != nullptr) fn(*slot.record);
    }
  }

  /// Every record, in id order.
  std::vector<TransactionRecord*> SortedById() const {
    std::vector<TransactionRecord*> records;
    records.reserve(size_);
    ForEach([&records](TransactionRecord& record) {
      records.push_back(&record);
    });
    SortById(records);
    return records;
  }

  static void SortById(std::vector<TransactionRecord*>& records) {
    std::sort(records.begin(), records.end(),
              [](const TransactionRecord* a, const TransactionRecord* b) {
                return a->proposal.transaction_id < b->proposal.transaction_id;
              });
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::unique_ptr<TransactionRecord> record;  // null: the slot is free
  };

  /// Moves `slot` into the first free slot of its probe run.
  void Place(Slot slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot.hash & mask;
    while (slots_[i].record != nullptr) i = (i + 1) & mask;
    slots_[i] = std::move(slot);
  }

  void Rehash(std::size_t slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(slot_count);
    for (Slot& slot : old) {
      if (slot.record != nullptr) Place(std::move(slot));
    }
  }

  std::vector<Slot> slots_;  // a power of two in size, or empty
  std::size_t size_ = 0;
};

}  // namespace nees::ntcp
