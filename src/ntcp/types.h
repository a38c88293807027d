// NTCP (NEESgrid Teleoperation Control Protocol) data model, after
// NEESgrid TR-2003-07 as summarized in the paper (§2.1).
//
// A *proposal* names a transaction and requests actions on control points
// (geometric boundary DOFs of a substructure): target displacements and/or
// forces. The transaction then walks the Fig. 1 state machine:
//
//    Proposed --accept--> Accepted --execute--> Executing --> Completed
//        \--reject--> Rejected        \--cancel--> Cancelled      \--> Failed
//
// plus Expired for transactions whose proposal timeout lapses before
// execution. Every state change is timestamped and published as an OGSI
// service data element, so any participant can inspect any transaction.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/intern.h"
#include "util/bytes.h"
#include "util/result.h"

namespace nees::ntcp {

/// Requested action on one control point.
struct ControlPointRequest {
  std::string control_point;           // e.g. "column-top-x"
  std::vector<double> target_displacement;  // meters, per DOF
  std::vector<double> target_force;         // newtons, per DOF (may be empty)

  bool operator==(const ControlPointRequest&) const = default;
};

struct Proposal {
  std::string transaction_id;  // client-chosen: the at-most-once key
  std::vector<ControlPointRequest> actions;
  std::int64_t timeout_micros = 60'000'000;  // proposal validity window
  std::int64_t step_index = -1;  // PSD step this belongs to (-1 if N/A)

  bool operator==(const Proposal&) const = default;
};

/// Measured state of one control point after execution.
struct ControlPointResult {
  std::string control_point;
  std::vector<double> measured_displacement;
  std::vector<double> measured_force;

  bool operator==(const ControlPointResult&) const = default;
};

struct TransactionResult {
  std::vector<ControlPointResult> results;

  bool operator==(const TransactionResult&) const = default;

  const ControlPointResult* Find(const std::string& control_point) const;
};

enum class TransactionState : std::uint8_t {
  kProposed = 0,
  kAccepted = 1,
  kRejected = 2,
  kExecuting = 3,
  kCompleted = 4,
  kCancelled = 5,
  kFailed = 6,
  kExpired = 7,
};

std::string_view TransactionStateName(TransactionState state);

/// The state's name as a trace atom: the value of the from/to tags of an
/// "ntcp.txn" event.
obs::Atom TransactionStateAtom(TransactionState state);
/// The state whose atom is `atom`, if any. Compares ids, never text.
std::optional<TransactionState> TransactionStateFromAtom(obs::Atom atom);
/// The from-tag atom of a creation event ("none").
obs::Atom NoTransactionStateAtom();

/// True if `from` -> `to` is a legal Fig. 1 transition.
bool IsLegalTransition(TransactionState from, TransactionState to);

/// Terminal states admit no further transitions.
bool IsTerminal(TransactionState state);

/// The state named `name`, if any.
std::optional<TransactionState> TransactionStateFromName(std::string_view name);

/// state -> micros timestamps: one fixed slot per TransactionState plus a
/// presence mask, so stamping and reading a state are O(1) and a record
/// holds its timestamps without a heap allocation. ForEach visits the
/// stamped states in name order, the order the wire encoding has always
/// used.
class StateTimestamps {
 public:
  void Set(TransactionState state, std::int64_t micros) {
    micros_[Index(state)] = micros;
    present_ |= Bit(state);
  }
  bool contains(TransactionState state) const {
    return (present_ & Bit(state)) != 0;
  }
  /// The stamp of `state`; `state` must be stamped.
  std::int64_t at(TransactionState state) const {
    return micros_[Index(state)];
  }
  std::size_t size() const { return std::popcount(present_); }
  bool empty() const { return present_ == 0; }

  /// Calls fn(state, micros) for every stamped state, in name order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (TransactionState state : kNameOrder) {
      if (contains(state)) fn(state, at(state));
    }
  }

  friend bool operator==(const StateTimestamps&,
                         const StateTimestamps&) = default;

 private:
  static constexpr std::size_t kStates =
      static_cast<std::size_t>(TransactionState::kExpired) + 1;
  // TransactionStateName order: accepted < cancelled < completed <
  // executing < expired < failed < proposed < rejected.
  static constexpr TransactionState kNameOrder[kStates] = {
      TransactionState::kAccepted,  TransactionState::kCancelled,
      TransactionState::kCompleted, TransactionState::kExecuting,
      TransactionState::kExpired,   TransactionState::kFailed,
      TransactionState::kProposed,  TransactionState::kRejected};

  static std::size_t Index(TransactionState state) {
    return static_cast<std::size_t>(state);
  }
  static std::uint8_t Bit(TransactionState state) {
    return static_cast<std::uint8_t>(1u << Index(state));
  }

  // Unstamped slots stay 0, so the defaulted == compares stamps only.
  std::int64_t micros_[kStates] = {};
  std::uint8_t present_ = 0;
};

/// Full server-side record of a transaction (also the getTransaction reply).
struct TransactionRecord {
  Proposal proposal;
  TransactionState state = TransactionState::kProposed;
  std::string detail;  // rejection reason / failure message
  TransactionResult result;                    // valid when kCompleted
  StateTimestamps state_timestamps;            // state -> micros
  /// End of the proposal window, fixed when kProposed is stamped; -1 for
  /// none. Read it through ProposalDeadlineMicros.
  std::int64_t deadline_micros = -1;
};

/// Stamps `record`'s entry into `state` at `micros`. Stamping kProposed also
/// fixes the proposal deadline (the proposal's timeout after the stamp, or
/// -1 without a timeout), so the stamp and the deadline never disagree.
void StampState(TransactionRecord& record, TransactionState state,
                std::int64_t micros);

/// Absolute sim-clock deadline of `record`'s proposal window, or -1 when the
/// proposal carries no timeout (or was never stamped kProposed). The single
/// source of truth for expiry: the execute-path check and the ExpireStale
/// sweep both go through here so the two comparisons cannot drift.
inline std::int64_t ProposalDeadlineMicros(const TransactionRecord& record) {
  return record.deadline_micros;
}

/// True when `now_micros` is strictly past the proposal window.
bool ProposalWindowLapsed(const TransactionRecord& record,
                          std::int64_t now_micros);

// Wire encodings -------------------------------------------------------------

void EncodeProposal(const Proposal& proposal, util::ByteWriter& writer);
util::Result<Proposal> DecodeProposal(util::ByteReader& reader);
/// DecodeProposal into `proposal`, reusing its strings' and vectors'
/// storage (a backend decodes one proposal per poll cycle).
util::Status DecodeProposalInto(util::ByteReader& reader, Proposal& proposal);

void EncodeTransactionResult(const TransactionResult& result,
                             util::ByteWriter& writer);
/// Decodes into `result`, reusing the storage of its entries (a
/// coordinator decodes the same shape every step, an MPlugin decodes into
/// its pending slot).
util::Status DecodeTransactionResultInto(util::ByteReader& reader,
                                         TransactionResult& result);

void EncodeTransactionRecord(const TransactionRecord& record,
                             util::ByteWriter& writer);
util::Result<TransactionRecord> DecodeTransactionRecord(
    util::ByteReader& reader);

}  // namespace nees::ntcp
