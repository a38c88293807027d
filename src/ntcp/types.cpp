#include "ntcp/types.h"

#include <array>

namespace nees::ntcp {

const ControlPointResult* TransactionResult::Find(
    const std::string& control_point) const {
  for (const ControlPointResult& result : results) {
    if (result.control_point == control_point) return &result;
  }
  return nullptr;
}

std::string_view TransactionStateName(TransactionState state) {
  switch (state) {
    case TransactionState::kProposed: return "proposed";
    case TransactionState::kAccepted: return "accepted";
    case TransactionState::kRejected: return "rejected";
    case TransactionState::kExecuting: return "executing";
    case TransactionState::kCompleted: return "completed";
    case TransactionState::kCancelled: return "cancelled";
    case TransactionState::kFailed: return "failed";
    case TransactionState::kExpired: return "expired";
  }
  return "unknown";
}

namespace {

constexpr int kStateCount = static_cast<int>(TransactionState::kExpired) + 1;

const std::array<obs::Atom, kStateCount>& StateAtoms() {
  static const std::array<obs::Atom, kStateCount> atoms = [] {
    std::array<obs::Atom, kStateCount> out;
    for (int i = 0; i < kStateCount; ++i) {
      out[i] = obs::Atom(
          TransactionStateName(static_cast<TransactionState>(i)));
    }
    return out;
  }();
  return atoms;
}

}  // namespace

obs::Atom TransactionStateAtom(TransactionState state) {
  return StateAtoms()[static_cast<int>(state)];
}

std::optional<TransactionState> TransactionStateFromAtom(obs::Atom atom) {
  const std::array<obs::Atom, kStateCount>& atoms = StateAtoms();
  for (int i = 0; i < kStateCount; ++i) {
    if (atoms[i] == atom) return static_cast<TransactionState>(i);
  }
  return std::nullopt;
}

std::optional<TransactionState> TransactionStateFromName(
    std::string_view name) {
  for (int i = 0; i < kStateCount; ++i) {
    const auto state = static_cast<TransactionState>(i);
    if (TransactionStateName(state) == name) return state;
  }
  return std::nullopt;
}

obs::Atom NoTransactionStateAtom() {
  static const obs::Atom none("none");
  return none;
}

bool IsTerminal(TransactionState state) {
  switch (state) {
    case TransactionState::kRejected:
    case TransactionState::kCompleted:
    case TransactionState::kCancelled:
    case TransactionState::kFailed:
    case TransactionState::kExpired:
      return true;
    default:
      return false;
  }
}

bool IsLegalTransition(TransactionState from, TransactionState to) {
  using S = TransactionState;
  switch (from) {
    case S::kProposed:
      return to == S::kAccepted || to == S::kRejected || to == S::kCancelled ||
             to == S::kExpired;
    case S::kAccepted:
      return to == S::kExecuting || to == S::kCancelled || to == S::kExpired;
    case S::kExecuting:
      return to == S::kCompleted || to == S::kFailed;
    default:
      return false;  // terminal states
  }
}

void StampState(TransactionRecord& record, TransactionState state,
                std::int64_t micros) {
  record.state_timestamps.Set(state, micros);
  if (state != TransactionState::kProposed) return;
  record.deadline_micros = record.proposal.timeout_micros > 0
                               ? micros + record.proposal.timeout_micros
                               : -1;
}

bool ProposalWindowLapsed(const TransactionRecord& record,
                          std::int64_t now_micros) {
  const std::int64_t deadline = ProposalDeadlineMicros(record);
  return deadline >= 0 && now_micros > deadline;
}

namespace {

void EncodeControlPointRequest(const ControlPointRequest& request,
                               util::ByteWriter& writer) {
  writer.WriteString(request.control_point);
  writer.WriteDoubleVector(request.target_displacement);
  writer.WriteDoubleVector(request.target_force);
}

util::Status DecodeControlPointRequestInto(util::ByteReader& reader,
                                          ControlPointRequest& request) {
  NEES_RETURN_IF_ERROR(reader.ReadStringInto(request.control_point));
  NEES_RETURN_IF_ERROR(
      reader.ReadDoubleVectorInto(request.target_displacement));
  return reader.ReadDoubleVectorInto(request.target_force);
}

void EncodeControlPointResult(const ControlPointResult& result,
                              util::ByteWriter& writer) {
  writer.WriteString(result.control_point);
  writer.WriteDoubleVector(result.measured_displacement);
  writer.WriteDoubleVector(result.measured_force);
}

}  // namespace

void EncodeProposal(const Proposal& proposal, util::ByteWriter& writer) {
  writer.WriteString(proposal.transaction_id);
  writer.WriteU32(static_cast<std::uint32_t>(proposal.actions.size()));
  for (const ControlPointRequest& action : proposal.actions) {
    EncodeControlPointRequest(action, writer);
  }
  writer.WriteI64(proposal.timeout_micros);
  writer.WriteI64(proposal.step_index);
}

util::Result<Proposal> DecodeProposal(util::ByteReader& reader) {
  Proposal proposal;
  NEES_RETURN_IF_ERROR(DecodeProposalInto(reader, proposal));
  return proposal;
}

util::Status DecodeProposalInto(util::ByteReader& reader, Proposal& proposal) {
  NEES_RETURN_IF_ERROR(reader.ReadStringInto(proposal.transaction_id));
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  // Grows one entry at a time, so a corrupt count fails on the frame's end
  // instead of sizing the vector first.
  for (std::uint32_t i = 0; i < count; ++i) {
    if (i == proposal.actions.size()) proposal.actions.emplace_back();
    NEES_RETURN_IF_ERROR(
        DecodeControlPointRequestInto(reader, proposal.actions[i]));
  }
  proposal.actions.resize(count);
  NEES_ASSIGN_OR_RETURN(proposal.timeout_micros, reader.ReadI64());
  NEES_ASSIGN_OR_RETURN(proposal.step_index, reader.ReadI64());
  return util::OkStatus();
}

void EncodeTransactionResult(const TransactionResult& result,
                             util::ByteWriter& writer) {
  writer.WriteU32(static_cast<std::uint32_t>(result.results.size()));
  for (const ControlPointResult& entry : result.results) {
    EncodeControlPointResult(entry, writer);
  }
}

util::Status DecodeTransactionResultInto(util::ByteReader& reader,
                                         TransactionResult& result) {
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  // Grows one entry at a time, so a corrupt count fails on the frame's end
  // instead of sizing the vector first.
  for (std::uint32_t i = 0; i < count; ++i) {
    if (i == result.results.size()) result.results.emplace_back();
    ControlPointResult& entry = result.results[i];
    NEES_RETURN_IF_ERROR(reader.ReadStringInto(entry.control_point));
    NEES_RETURN_IF_ERROR(
        reader.ReadDoubleVectorInto(entry.measured_displacement));
    NEES_RETURN_IF_ERROR(reader.ReadDoubleVectorInto(entry.measured_force));
  }
  result.results.resize(count);
  return util::OkStatus();
}

void EncodeTransactionRecord(const TransactionRecord& record,
                             util::ByteWriter& writer) {
  EncodeProposal(record.proposal, writer);
  writer.WriteU8(static_cast<std::uint8_t>(record.state));
  writer.WriteString(record.detail);
  EncodeTransactionResult(record.result, writer);
  writer.WriteU32(static_cast<std::uint32_t>(record.state_timestamps.size()));
  record.state_timestamps.ForEach(
      [&writer](TransactionState state, std::int64_t micros) {
        writer.WriteString(TransactionStateName(state));
        writer.WriteI64(micros);
      });
}

util::Result<TransactionRecord> DecodeTransactionRecord(
    util::ByteReader& reader) {
  TransactionRecord record;
  NEES_ASSIGN_OR_RETURN(record.proposal, DecodeProposal(reader));
  NEES_ASSIGN_OR_RETURN(std::uint8_t state, reader.ReadU8());
  if (state > static_cast<std::uint8_t>(TransactionState::kExpired)) {
    return util::DataLoss("invalid transaction state byte");
  }
  record.state = static_cast<TransactionState>(state);
  NEES_ASSIGN_OR_RETURN(record.detail, reader.ReadString());
  NEES_RETURN_IF_ERROR(DecodeTransactionResultInto(reader, record.result));
  NEES_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadU32());
  std::string key;
  for (std::uint32_t i = 0; i < count; ++i) {
    NEES_RETURN_IF_ERROR(reader.ReadStringInto(key));
    NEES_ASSIGN_OR_RETURN(std::int64_t micros, reader.ReadI64());
    const std::optional<TransactionState> state = TransactionStateFromName(key);
    if (!state.has_value()) {
      return util::DataLoss("timestamp names no transaction state: " + key);
    }
    StampState(record, *state, micros);
  }
  return record;
}

}  // namespace nees::ntcp
