// Tests for the NTCP core: the Fig. 1 state machine, proposal negotiation,
// at-most-once semantics under duplicated/lost messages, timeouts, SDE
// publication, OGSI inspection of transactions, and client retry recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "grid/container.h"
#include "net/network.h"
#include "ntcp/client.h"
#include "ntcp/server.h"
#include "ntcp/types.h"
#include "obs/trace.h"
#include "plugins/simulation_plugin.h"
#include "structural/substructure.h"
#include "util/clock.h"
#include "util/sha256.h"
#include "util/strings.h"

namespace nees::ntcp {
namespace {

using util::ErrorCode;

Proposal MakeProposal(const std::string& id, double displacement,
                      std::int64_t timeout_micros = 60'000'000) {
  Proposal proposal;
  proposal.transaction_id = id;
  ControlPointRequest action;
  action.control_point = "cp";
  action.target_displacement = {displacement};
  proposal.actions.push_back(std::move(action));
  proposal.timeout_micros = timeout_micros;
  return proposal;
}

std::unique_ptr<plugins::SimulationPlugin> MakeElasticPlugin(
    double stiffness = 1000.0) {
  auto plugin = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = stiffness;
  plugin->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(k));
  return plugin;
}

// --- state machine (pure) -----------------------------------------------------

TEST(StateMachineTest, LegalTransitionsMatchFigure1) {
  using S = TransactionState;
  EXPECT_TRUE(IsLegalTransition(S::kProposed, S::kAccepted));
  EXPECT_TRUE(IsLegalTransition(S::kProposed, S::kRejected));
  EXPECT_TRUE(IsLegalTransition(S::kProposed, S::kCancelled));
  EXPECT_TRUE(IsLegalTransition(S::kAccepted, S::kExecuting));
  EXPECT_TRUE(IsLegalTransition(S::kAccepted, S::kCancelled));
  EXPECT_TRUE(IsLegalTransition(S::kAccepted, S::kExpired));
  EXPECT_TRUE(IsLegalTransition(S::kExecuting, S::kCompleted));
  EXPECT_TRUE(IsLegalTransition(S::kExecuting, S::kFailed));
}

TEST(StateMachineTest, IllegalTransitionsRejected) {
  using S = TransactionState;
  EXPECT_FALSE(IsLegalTransition(S::kProposed, S::kExecuting));  // must accept
  EXPECT_FALSE(IsLegalTransition(S::kProposed, S::kCompleted));
  EXPECT_FALSE(IsLegalTransition(S::kExecuting, S::kCancelled));  // no undo
  EXPECT_FALSE(IsLegalTransition(S::kCompleted, S::kExecuting));
  EXPECT_FALSE(IsLegalTransition(S::kRejected, S::kAccepted));
  EXPECT_FALSE(IsLegalTransition(S::kCancelled, S::kExecuting));
}

TEST(StateMachineTest, TerminalStates) {
  using S = TransactionState;
  for (S state : {S::kRejected, S::kCompleted, S::kCancelled, S::kFailed,
                  S::kExpired}) {
    EXPECT_TRUE(IsTerminal(state));
    // Exhaustive: no transition leaves a terminal state.
    for (int to = 0; to <= static_cast<int>(S::kExpired); ++to) {
      EXPECT_FALSE(IsLegalTransition(state, static_cast<S>(to)));
    }
  }
  EXPECT_FALSE(IsTerminal(S::kProposed));
  EXPECT_FALSE(IsTerminal(S::kAccepted));
  EXPECT_FALSE(IsTerminal(S::kExecuting));
}

TEST(StateMachineTest, AllStatesHaveNames) {
  for (int s = 0; s <= static_cast<int>(TransactionState::kExpired); ++s) {
    EXPECT_NE(TransactionStateName(static_cast<TransactionState>(s)),
              "unknown");
  }
}

// --- state-timestamp flat map ------------------------------------------------

TEST(StateTimestampsTest, InsertsStaySortedAndUpdatesOverwrite) {
  using S = TransactionState;
  StateTimestamps stamps;
  EXPECT_TRUE(stamps.empty());
  // Stamped in reverse name order, visited in name order.
  stamps.Set(S::kProposed, 1);
  stamps.Set(S::kExecuting, 3);
  stamps.Set(S::kCompleted, 4);
  stamps.Set(S::kAccepted, 2);
  EXPECT_EQ(stamps.size(), 4u);
  std::vector<std::string> order;
  stamps.ForEach([&order](S state, std::int64_t) {
    order.emplace_back(TransactionStateName(state));
  });
  EXPECT_EQ(order, (std::vector<std::string>{"accepted", "completed",
                                             "executing", "proposed"}));
  EXPECT_EQ(stamps.at(S::kExecuting), 3);
  stamps.Set(S::kExecuting, 30);  // update, not duplicate
  EXPECT_EQ(stamps.size(), 4u);
  EXPECT_EQ(stamps.at(S::kExecuting), 30);
}

TEST(StateTimestampsTest, ForEachVisitsEveryStateInNameOrder) {
  // The encoding's key order: every state, sorted by name.
  StateTimestamps stamps;
  std::vector<std::string> names;
  for (int s = 0; s <= static_cast<int>(TransactionState::kExpired); ++s) {
    const auto state = static_cast<TransactionState>(s);
    stamps.Set(state, s);
    names.emplace_back(TransactionStateName(state));
  }
  std::sort(names.begin(), names.end());
  std::vector<std::string> order;
  stamps.ForEach([&order](TransactionState state, std::int64_t micros) {
    EXPECT_EQ(micros, static_cast<int>(state));
    order.emplace_back(TransactionStateName(state));
  });
  EXPECT_EQ(order, names);
}

TEST(StateTimestampsTest, FindAndContainsMissBetweenKeys) {
  using S = TransactionState;
  StateTimestamps stamps;
  stamps.Set(S::kAccepted, 2);
  stamps.Set(S::kProposed, 1);
  EXPECT_TRUE(stamps.contains(S::kAccepted));
  EXPECT_FALSE(stamps.contains(S::kCancelled));  // sorts between the two
  EXPECT_EQ(TransactionStateFromName("cancelled"), S::kCancelled);
  EXPECT_FALSE(TransactionStateFromName("").has_value());
  EXPECT_FALSE(TransactionStateFromName("unknown").has_value());
}

TEST(StateTimestampsTest, EqualityIsOrderInsensitiveByConstruction) {
  using S = TransactionState;
  StateTimestamps a;
  a.Set(S::kProposed, 1);
  a.Set(S::kAccepted, 2);
  StateTimestamps b;
  b.Set(S::kAccepted, 2);
  b.Set(S::kProposed, 1);
  EXPECT_EQ(a, b);  // one slot per state, so stamping order cannot leak
  b.Set(S::kAccepted, 99);
  EXPECT_FALSE(a == b);
  StateTimestamps c = a;
  c.Set(S::kExpired, 0);  // a zero stamp still counts
  EXPECT_FALSE(a == c);
}

// --- wire encodings -------------------------------------------------------------

TEST(WireTest, ProposalRoundTrip) {
  Proposal original = MakeProposal("txn-7", 0.0123, 5'000'000);
  original.step_index = 42;
  original.actions[0].target_force = {100.0, -50.0};
  util::ByteWriter writer;
  EncodeProposal(original, writer);
  util::ByteReader reader(writer.data());
  auto decoded = DecodeProposal(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(WireTest, TransactionRecordRoundTrip) {
  TransactionRecord record;
  record.proposal = MakeProposal("t", 0.01);
  record.state = TransactionState::kCompleted;
  record.detail = "ok";
  ControlPointResult cp;
  cp.control_point = "cp";
  cp.measured_displacement = {0.0099};
  cp.measured_force = {9.9};
  record.result.results.push_back(cp);
  StampState(record, TransactionState::kProposed, 100);
  StampState(record, TransactionState::kCompleted, 500);

  util::ByteWriter writer;
  EncodeTransactionRecord(record, writer);
  util::ByteReader reader(writer.data());
  auto decoded = DecodeTransactionRecord(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->proposal, record.proposal);
  EXPECT_EQ(decoded->state, record.state);
  EXPECT_EQ(decoded->result, record.result);
  EXPECT_EQ(decoded->state_timestamps, record.state_timestamps);
  // The proposal deadline is fixed again from the decoded kProposed stamp.
  EXPECT_EQ(ProposalDeadlineMicros(*decoded), 100 + 60'000'000);
}

TEST(WireTest, CorruptRecordRejected) {
  util::ByteWriter writer;
  EncodeProposal(MakeProposal("t", 0.01), writer);
  writer.WriteU8(99);  // invalid state byte
  writer.WriteString("");
  writer.WriteU32(0);
  writer.WriteU32(0);
  util::ByteReader reader(writer.data());
  EXPECT_FALSE(DecodeTransactionRecord(reader).ok());
}

TEST(WireTest, UnknownTimestampStateRejected) {
  // A timestamp key must name a Fig. 1 state: a record carrying any other
  // key is not one this protocol wrote.
  util::ByteWriter writer;
  EncodeProposal(MakeProposal("t", 0.01), writer);
  writer.WriteU8(static_cast<std::uint8_t>(TransactionState::kAccepted));
  writer.WriteString("");
  writer.WriteU32(0);  // no results
  writer.WriteU32(1);  // one timestamp, under a name that is no state
  writer.WriteString("approved");
  writer.WriteI64(100);
  util::ByteReader reader(writer.data());
  EXPECT_EQ(DecodeTransactionRecord(reader).status().code(),
            ErrorCode::kDataLoss);
}

// --- server core -----------------------------------------------------------------

class NtcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_.SetClock(&clock_);
    server_ = std::make_unique<NtcpServer>(&network_, "ntcp.test",
                                           MakeElasticPlugin(), &clock_);
    ASSERT_TRUE(server_->Start().ok());
  }

  util::SimClock clock_{1'000'000};
  net::Network network_;
  std::unique_ptr<NtcpServer> server_;
};

TEST_F(NtcpServerTest, ProposeExecuteLifecycle) {
  const auto outcome = server_->Propose(MakeProposal("t1", 0.02));
  EXPECT_TRUE(outcome.accepted);

  auto record = server_->GetTransaction("t1");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kAccepted);
  EXPECT_TRUE(record->state_timestamps.contains(TransactionState::kProposed));
  EXPECT_TRUE(record->state_timestamps.contains(TransactionState::kAccepted));

  auto result = server_->Execute("t1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), 1u);
  EXPECT_NEAR(result->results[0].measured_force[0], 20.0, 1e-9);  // k=1000

  record = server_->GetTransaction("t1");
  EXPECT_EQ(record->state, TransactionState::kCompleted);
  EXPECT_TRUE(record->state_timestamps.contains(TransactionState::kExecuting));
  EXPECT_TRUE(record->state_timestamps.contains(TransactionState::kCompleted));
}

TEST_F(NtcpServerTest, InvalidProposalRejected) {
  Proposal bad = MakeProposal("t2", 0.02);
  bad.actions[0].control_point = "nonexistent";
  const auto outcome = server_->Propose(bad);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.reason.find("unknown control point"), std::string::npos);
  EXPECT_EQ(server_->GetTransaction("t2")->state, TransactionState::kRejected);
  // Executing a rejected transaction fails.
  EXPECT_EQ(server_->Execute("t2").status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(NtcpServerTest, EmptyTransactionIdRejected) {
  EXPECT_FALSE(server_->Propose(MakeProposal("", 0.02)).accepted);
}

TEST_F(NtcpServerTest, DuplicateProposalIdempotent) {
  const Proposal proposal = MakeProposal("t3", 0.02);
  EXPECT_TRUE(server_->Propose(proposal).accepted);
  EXPECT_TRUE(server_->Propose(proposal).accepted);  // re-send: same answer
  EXPECT_EQ(server_->stats().duplicate_proposals, 1u);
  EXPECT_EQ(server_->stats().accepted, 1u);
}

TEST_F(NtcpServerTest, ConflictingProposalUnderSameIdRejected) {
  EXPECT_TRUE(server_->Propose(MakeProposal("t4", 0.02)).accepted);
  const auto outcome = server_->Propose(MakeProposal("t4", 0.05));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.reason.find("already in use"), std::string::npos);
}

TEST_F(NtcpServerTest, DuplicateExecuteReturnsCachedResultWithoutRerun) {
  // At-most-once: the second execute must not move the specimen again.
  auto plugin = MakeElasticPlugin();
  auto* plugin_raw = plugin.get();
  NtcpServer server(&network_, "ntcp.amo", std::move(plugin), &clock_);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(server.Propose(MakeProposal("t5", 0.02)).accepted);
  auto first = server.Execute("t5");
  auto second = server.Execute("t5");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(plugin_raw->executions(), 1u);
  EXPECT_EQ(server.stats().executions, 1u);
  EXPECT_EQ(server.stats().duplicate_executes, 1u);
}

TEST_F(NtcpServerTest, ExecuteUnknownTransaction) {
  EXPECT_EQ(server_->Execute("ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(NtcpServerTest, CancelAcceptedTransaction) {
  ASSERT_TRUE(server_->Propose(MakeProposal("t6", 0.02)).accepted);
  EXPECT_TRUE(server_->Cancel("t6").ok());
  EXPECT_EQ(server_->GetTransaction("t6")->state,
            TransactionState::kCancelled);
  EXPECT_EQ(server_->Execute("t6").status().code(),
            ErrorCode::kFailedPrecondition);
  // Cancel is idempotent.
  EXPECT_TRUE(server_->Cancel("t6").ok());
}

TEST_F(NtcpServerTest, CannotCancelCompletedTransaction) {
  ASSERT_TRUE(server_->Propose(MakeProposal("t7", 0.02)).accepted);
  ASSERT_TRUE(server_->Execute("t7").ok());
  EXPECT_EQ(server_->Cancel("t7").code(), ErrorCode::kFailedPrecondition);
}

TEST_F(NtcpServerTest, ProposalTimeoutExpiresBeforeExecute) {
  ASSERT_TRUE(server_->Propose(MakeProposal("t8", 0.02, 1'000'000)).accepted);
  clock_.Advance(2'000'000);
  EXPECT_EQ(server_->Execute("t8").status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server_->GetTransaction("t8")->state, TransactionState::kExpired);
}

TEST_F(NtcpServerTest, ExpireStaleSweepsOldProposals) {
  ASSERT_TRUE(server_->Propose(MakeProposal("a", 0.01, 1'000'000)).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("b", 0.01, 10'000'000)).accepted);
  clock_.Advance(5'000'000);
  EXPECT_EQ(server_->ExpireStale(), 1);
  EXPECT_EQ(server_->GetTransaction("a")->state, TransactionState::kExpired);
  EXPECT_EQ(server_->GetTransaction("b")->state, TransactionState::kAccepted);
}

// The ids of the transactions the trace shows entering kExpired, in order.
std::vector<std::string> ExpiredTxnEvents(obs::Tracer& tracer) {
  std::vector<std::string> ids;
  for (const obs::SpanRecord& span : tracer.TakeSpans()) {
    if (span.name != obs::Atom("ntcp.txn")) continue;
    const obs::Tag* to = span.FindTag("to");
    const obs::Tag* txn = span.FindTag("txn");
    if (to == nullptr || txn == nullptr) continue;
    if (to->ValueText() == "expired") ids.push_back(txn->ValueText());
  }
  return ids;
}

TEST_F(NtcpServerTest, ExpiryIndexExpiresLapsedTransactionsInIdOrder) {
  obs::Tracer tracer(&clock_);
  server_->set_tracer(&tracer);
  // Created c, a, b; deadlines fall in the order c, b, a; ids sort a, b, c.
  ASSERT_TRUE(server_->Propose(MakeProposal("c", 0.01, 1'000'000)).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("a", 0.01, 3'000'000)).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("b", 0.01, 2'000'000)).accepted);
  ASSERT_TRUE(
      server_->Propose(MakeProposal("later", 0.01, 60'000'000)).accepted);
  clock_.Advance(5'000'000);
  EXPECT_EQ(server_->ExpireStale(), 3);
  // One sweep expires them in id order, as a walk of the table would.
  EXPECT_EQ(ExpiredTxnEvents(tracer),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(server_->GetTransaction("later")->state,
            TransactionState::kAccepted);
  EXPECT_EQ(server_->stats().expired, 3u);
}

TEST_F(NtcpServerTest, ExpirySweepsVisitOnlyLapsedIndexEntries) {
  constexpr int kTransactions = 40;
  for (int i = 0; i < kTransactions; ++i) {
    const std::string id = "done-" + std::to_string(i);
    ASSERT_TRUE(server_->Propose(MakeProposal(id, 0.01, 10'000'000)).accepted);
    ASSERT_TRUE(server_->Execute(id).ok());
  }
  // Before the deadlines a sweep examines nothing, however many run.
  for (int sweep = 0; sweep < 1000; ++sweep) {
    EXPECT_EQ(server_->ExpireStale(), 0);
    clock_.Advance(1'000);
  }
  EXPECT_EQ(server_->stats().expiry_visits, 0u);
  // Past them, one sweep drops each completed transaction's entry once.
  clock_.Advance(20'000'000);
  EXPECT_EQ(server_->ExpireStale(), 0);
  EXPECT_EQ(server_->stats().expiry_visits,
            static_cast<std::uint64_t>(kTransactions));
  EXPECT_EQ(server_->ExpireStale(), 0);
  EXPECT_EQ(server_->stats().expiry_visits,
            static_cast<std::uint64_t>(kTransactions));
}

TEST_F(NtcpServerTest, UnsweptExpiryIndexStaysBounded) {
  // Nothing sweeps this server (a kImmediate tenant never arms the expiry
  // timer), so the entries of finished transactions must be dropped as
  // they accumulate. Every tenth transaction stays open.
  constexpr int kTransactions = 10'000;
  std::uint64_t open = 0;
  std::uint64_t peak = 0;
  for (int i = 0; i < kTransactions; ++i) {
    const std::string id = "t-" + std::to_string(100'000 + i);
    ASSERT_TRUE(server_->Propose(MakeProposal(id, 0.01, 10'000'000)).accepted);
    if (i % 10 == 0) {
      ++open;
    } else {
      ASSERT_TRUE(server_->Execute(id).ok());
    }
    const std::uint64_t entries = server_->stats().expiry_index_entries;
    peak = std::max(peak, entries);
    ASSERT_LE(entries, 2 * open + NtcpServer::kExpirySlack) << "after " << id;
  }
  EXPECT_GE(peak, open);
  // The open transactions still expire, once each, in id order.
  clock_.Advance(20'000'000);
  EXPECT_EQ(server_->ExpireStale(), static_cast<int>(open));
  EXPECT_EQ(server_->stats().expired, open);
  EXPECT_EQ(server_->GetTransaction("t-100000")->state,
            TransactionState::kExpired);
  EXPECT_EQ(server_->GetTransaction("t-100001")->state,
            TransactionState::kCompleted);
  EXPECT_EQ(server_->stats().expiry_index_entries, 0u);
}

TEST_F(NtcpServerTest, GarbageCollectLeavesNoDanglingExpiryEntry) {
  // "done" completes long before its deadline, so its index entry is still
  // queued when GarbageCollect erases the record.
  ASSERT_TRUE(server_->Propose(MakeProposal("done", 0.01)).accepted);
  ASSERT_TRUE(server_->Execute("done").ok());
  ASSERT_TRUE(server_->Propose(MakeProposal("open", 0.01, 30'000'000)).accepted);
  clock_.Advance(2'000'000);
  EXPECT_EQ(server_->GarbageCollect(1'000'000), 1);
  clock_.Advance(100'000'000);
  EXPECT_EQ(server_->ExpireStale(), 1);
  EXPECT_EQ(server_->GetTransaction("open")->state, TransactionState::kExpired);
  // Only the surviving open transaction's entry was left to examine.
  EXPECT_EQ(server_->stats().expiry_visits, 1u);
}

TEST_F(NtcpServerTest, FailedExecutionIsCachedNotRetriedIntoPlugin) {
  class FailingPlugin : public ControlPlugin {
   public:
    util::Status Validate(const Proposal&) override { return util::OkStatus(); }
    util::Result<TransactionResult> Execute(const Proposal&) override {
      ++attempts;
      return util::Unavailable("backend hiccup");
    }
    std::string_view kind() const override { return "failing"; }
    int attempts = 0;
  };
  auto plugin = std::make_unique<FailingPlugin>();
  auto* plugin_raw = plugin.get();
  NtcpServer server(&network_, "ntcp.fail", std::move(plugin), &clock_);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(server.Propose(MakeProposal("t9", 0.02)).accepted);
  EXPECT_EQ(server.Execute("t9").status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.GetTransaction("t9")->state, TransactionState::kFailed);
  // A re-sent execute gets the cached failure; the rig is NOT driven again.
  EXPECT_EQ(server.Execute("t9").status().code(), ErrorCode::kAborted);
  EXPECT_EQ(plugin_raw->attempts, 1);
}

TEST_F(NtcpServerTest, GarbageCollectDropsOldTerminalTransactions) {
  ASSERT_TRUE(server_->Propose(MakeProposal("old", 0.01)).accepted);
  ASSERT_TRUE(server_->Execute("old").ok());
  clock_.Advance(100'000'000);
  ASSERT_TRUE(server_->Propose(MakeProposal("new", 0.01)).accepted);
  ASSERT_TRUE(server_->Execute("new").ok());

  EXPECT_EQ(server_->GarbageCollect(50'000'000), 1);
  EXPECT_EQ(server_->GetTransaction("old").status().code(),
            ErrorCode::kNotFound);
  EXPECT_TRUE(server_->GetTransaction("new").ok());
  // The SDE is gone too.
  EXPECT_FALSE(server_->service_data().GetServiceData("txn.old").has_value());
}

TEST_F(NtcpServerTest, SdePublishedPerTransactionAndLastChanged) {
  ASSERT_TRUE(server_->Propose(MakeProposal("t10", 0.02)).accepted);
  auto sde = server_->service_data().GetServiceData("txn.t10");
  ASSERT_TRUE(sde.has_value());
  EXPECT_EQ(sde->Get("state"), "accepted");
  EXPECT_FALSE(sde->Get("t_proposed").empty());
  EXPECT_FALSE(sde->Get("t_accepted").empty());

  ASSERT_TRUE(server_->Execute("t10").ok());
  sde = server_->service_data().GetServiceData("txn.t10");
  EXPECT_EQ(sde->Get("state"), "completed");
  EXPECT_EQ(sde->Get("results"), "1");

  auto last = server_->service_data().GetServiceData("lastChanged");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->Get("transaction"), "t10");
  EXPECT_EQ(last->Get("state"), "completed");

  // Server-wide statistics are published alongside.
  auto stats = server_->service_data().GetServiceData("serverStats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->Get("proposals"), "1");
  EXPECT_EQ(stats->Get("executions"), "1");
  EXPECT_EQ(stats->Get("open_transactions"), "1");
}

TEST_F(NtcpServerTest, HousekeepingSweepExpiresAndCollects) {
  // The deployment pattern: one housekeeping sweep expires stale proposals
  // and garbage-collects old terminal transactions.
  ASSERT_TRUE(server_->Propose(MakeProposal("stale", 0.01, 1000)).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("done", 0.01)).accepted);
  ASSERT_TRUE(server_->Execute("done").ok());
  clock_.Advance(10'000'000);

  server_->ExpireStale();
  server_->GarbageCollect(5'000'000);

  EXPECT_EQ(server_->GetTransaction("stale")->state,
            TransactionState::kExpired);
  EXPECT_EQ(server_->GetTransaction("done").status().code(),
            util::ErrorCode::kNotFound);
}

TEST_F(NtcpServerTest, ListTransactions) {
  ASSERT_TRUE(server_->Propose(MakeProposal("x", 0.01)).accepted);
  ASSERT_TRUE(server_->Propose(MakeProposal("y", 0.01)).accepted);
  EXPECT_EQ(server_->ListTransactions().size(), 2u);
}

TEST_F(NtcpServerTest, ListTransactionsReturnsIdsInSortedOrder) {
  // Ids share the coordinator's long "<run>-s<step>-a<attempt>-<site>"
  // prefix and arrive out of order; the listing is in id order whatever
  // order the table keeps them in.
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(util::Format("run-s%d-a1-site%d", (i * 17) % 40, i % 3));
  }
  for (const std::string& id : ids) {
    ASSERT_TRUE(server_->Propose(MakeProposal(id, 0.01)).accepted);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(server_->ListTransactions(), ids);
}

TEST_F(NtcpServerTest, FlushNotifiesALateSubscriberInIdOrder) {
  // Transitions with no subscriber only mark the SDEs dirty; a subscriber
  // that joins before the next OGSI read is notified by the flush, once
  // per transaction, in id order.
  std::vector<std::string> ids;
  for (int i = 0; i < 24; ++i) {
    ids.push_back(util::Format("run-s%d-a1-site%d", (i * 7) % 24, i % 2));
  }
  for (const std::string& id : ids) {
    ASSERT_TRUE(server_->Propose(MakeProposal(id, 0.01)).accepted);
  }
  std::vector<std::string> notified;
  server_->service_data().SubscribeSde(
      "txn.", [&notified](const std::string& key, const grid::SdeValue&) {
        notified.push_back(key.substr(4));
      });
  ASSERT_TRUE(server_->service_data().GetServiceData("serverStats"));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(notified, ids);
}

// Counts the reads of a SimClock's time.
class CountingClock final : public util::Clock {
 public:
  std::int64_t NowMicros() const override {
    ++reads_;
    return base_.NowMicros();
  }
  void SleepMicros(std::int64_t micros) override { base_.Advance(micros); }
  int TakeReads() { return std::exchange(reads_, 0); }

 private:
  util::SimClock base_{1'000'000};
  mutable int reads_ = 0;
};

TEST(NtcpServerClockTest, ReadsTheClockOncePerProposeAndTwicePerExecute) {
  CountingClock clock;
  net::Network network;
  NtcpServer server(&network, "ntcp.clock", MakeElasticPlugin(), &clock);
  ASSERT_TRUE(server.Start().ok());
  for (const char* id : {"c1", "c2"}) {
    clock.TakeReads();
    ASSERT_TRUE(server.Propose(MakeProposal(id, 0.01)).accepted);
    EXPECT_EQ(clock.TakeReads(), 1) << "propose " << id;
    ASSERT_TRUE(server.Execute(id).ok());
    // Once before the plugin moves the specimen, once after it returns.
    EXPECT_EQ(clock.TakeReads(), 2) << "execute " << id;
  }
  ASSERT_TRUE(server.Execute("c1").ok());  // served from the cache
  EXPECT_EQ(clock.TakeReads(), 0);
}

// --- client over the network -------------------------------------------------------

class NtcpClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_.SetClock(&clock_);
    server_ = std::make_unique<NtcpServer>(&network_, "ntcp.site",
                                           MakeElasticPlugin(), &clock_);
    ASSERT_TRUE(server_->Start().ok());
    rpc_ = std::make_unique<net::RpcClient>(&network_, "coordinator");
    client_ = std::make_unique<NtcpClient>(rpc_.get(), "ntcp.site",
                                           RetryPolicy(), &clock_);
  }

  util::SimClock clock_{1'000'000};
  net::Network network_;
  std::unique_ptr<NtcpServer> server_;
  std::unique_ptr<net::RpcClient> rpc_;
  std::unique_ptr<NtcpClient> client_;
};

TEST_F(NtcpClientTest, FullRemoteLifecycle) {
  ASSERT_TRUE(client_->Propose(MakeProposal("r1", 0.03)).ok());
  auto result = client_->Execute("r1");
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->results[0].measured_force[0], 30.0, 1e-9);

  auto record = client_->GetTransaction("r1");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kCompleted);

  auto ids = client_->ListTransactions();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, std::vector<std::string>{"r1"});
}

TEST_F(NtcpClientTest, GetTransactionReplyBytesArePinned) {
  // Pins the getTransaction reply bytes of a completed, a rejected and a
  // cancelled transaction: the record encoding, its timestamps in state-name
  // order, and their values. Any change to what a remote inspector reads
  // fails here, however the server keeps its table.
  ASSERT_TRUE(client_->Propose(MakeProposal("p1", 0.03)).ok());
  clock_.Advance(1'200);
  ASSERT_TRUE(client_->Execute("p1").ok());
  clock_.Advance(800);
  Proposal bad = MakeProposal("p2", 0.01);
  bad.actions[0].control_point = "nope";
  ASSERT_FALSE(client_->Propose(bad).ok());
  clock_.Advance(500);
  ASSERT_TRUE(client_->Propose(MakeProposal("p3", -0.02, 9'000'000)).ok());
  clock_.Advance(300);
  ASSERT_TRUE(client_->Cancel("p3").ok());
  net::Bytes replies;
  for (const char* id : {"p1", "p2", "p3"}) {
    util::ByteWriter request;
    request.WriteString(id);
    auto reply = rpc_->Call(net::EndpointId("ntcp.site"),
                            net::MethodId("ntcp.getTransaction"),
                            request.data());
    ASSERT_TRUE(reply.ok()) << id;
    replies.insert(replies.end(), reply->begin(), reply->end());
  }
  EXPECT_EQ(util::ToHex(util::Sha256::Hash(replies)),
            "76d8f37c85f9b9b0b171b9b971f7b989ad4bc51e5d5ae9d4d9526b7d7b995101");
}

TEST_F(NtcpClientTest, RejectionSurfacesAsPolicyViolation) {
  Proposal bad = MakeProposal("r2", 0.03);
  bad.actions[0].control_point = "nope";
  const util::Status status = client_->Propose(bad);
  EXPECT_EQ(status.code(), ErrorCode::kPolicyViolation);
}

TEST_F(NtcpClientTest, LostProposeRequestRecoveredByRetry) {
  network_.DropNext("coordinator", "ntcp.site", 1);
  EXPECT_TRUE(client_->Propose(MakeProposal("r3", 0.03)).ok());
  EXPECT_EQ(client_->stats().retries, 1u);
  EXPECT_EQ(client_->stats().recovered, 1u);
}

TEST_F(NtcpClientTest, LostExecuteReplyDoesNotDoubleExecute) {
  // The execute reaches the server but the *reply* is lost. The client
  // retries; the server must serve the cached result (at-most-once).
  ASSERT_TRUE(client_->Propose(MakeProposal("r4", 0.03)).ok());
  network_.DropNext("ntcp.site", "coordinator", 1);
  auto result = client_->Execute("r4");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(server_->stats().executions, 1u);
  EXPECT_EQ(server_->stats().duplicate_executes, 1u);
}

TEST_F(NtcpClientTest, RepeatedLossExhaustsRetries) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  NtcpClient client(rpc_.get(), "ntcp.site", policy, &clock_);
  network_.SetLinkUp("coordinator", "ntcp.site", false);
  const util::Status status = client.Propose(MakeProposal("r5", 0.03));
  EXPECT_EQ(status.code(), ErrorCode::kTimeout);
  EXPECT_EQ(client.stats().gave_up, 1u);
  // Backoff slept on the (virtual) clock between attempts.
  EXPECT_GT(clock_.NowMicros(), 1'000'000 + 200'000);
}

TEST_F(NtcpClientTest, DefinitiveErrorsAreNotRetried) {
  Proposal bad = MakeProposal("r6", 0.03);
  bad.actions[0].control_point = "nope";
  ASSERT_FALSE(client_->Propose(bad).ok());
  EXPECT_EQ(client_->stats().retries, 0u);
}

TEST_F(NtcpClientTest, TransientOutageMidExperimentRecovered) {
  // A short bidirectional outage; the retry loop rides it out (the several
  // transient failures MOST recovered from, §3.4).
  for (int step = 0; step < 10; ++step) {
    if (step == 5) {
      network_.DropNext("coordinator", "ntcp.site", 2);
      network_.DropNext("ntcp.site", "coordinator", 1);
    }
    const std::string id = "step-" + std::to_string(step);
    ASSERT_TRUE(client_->Propose(MakeProposal(id, 0.001 * step)).ok())
        << "step " << step;
    ASSERT_TRUE(client_->Execute(id).ok()) << "step " << step;
  }
  EXPECT_GE(client_->stats().retries, 1u);
  EXPECT_EQ(server_->stats().executions, 10u);
}

// --- asynchronous client operations ----------------------------------------------

TEST_F(NtcpClientTest, AsyncLifecycleMatchesSynchronous) {
  NtcpClient::AsyncOp propose = client_->ProposeAsync(MakeProposal("a1", 0.03));
  ASSERT_TRUE(NtcpClient::FinishPropose(propose).ok());
  NtcpClient::AsyncOp execute = client_->ExecuteAsync("a1");
  TransactionResult result;
  ASSERT_TRUE(NtcpClient::FinishExecute(execute, result).ok());
  EXPECT_NEAR(result.results[0].measured_force[0], 30.0, 1e-9);
}

TEST_F(NtcpClientTest, ConcurrentInFlightOpsToSameSite) {
  // Several operations against one site, all in flight before any is
  // awaited — the shape a multi-control-point coordinator produces.
  std::vector<NtcpClient::AsyncOp> ops;
  for (int i = 0; i < 4; ++i) {
    ops.push_back(
        client_->ProposeAsync(MakeProposal(util::Format("c%d", i), 0.01)));
  }
  NtcpClient::AwaitAll(ops);
  for (NtcpClient::AsyncOp& op : ops) {
    EXPECT_TRUE(NtcpClient::FinishPropose(op).ok());
  }
  std::vector<NtcpClient::AsyncOp> executes;
  for (int i = 0; i < 4; ++i) {
    executes.push_back(client_->ExecuteAsync(util::Format("c%d", i)));
  }
  NtcpClient::AwaitAll(executes);
  for (NtcpClient::AsyncOp& op : executes) {
    TransactionResult result;
    EXPECT_TRUE(NtcpClient::FinishExecute(op, result).ok());
  }
  EXPECT_EQ(server_->stats().executions, 4u);
}

TEST_F(NtcpClientTest, AsyncRetryRecoversDroppedRequest) {
  network_.DropNext("coordinator", "ntcp.site", 1);
  NtcpClient::AsyncOp op = client_->ProposeAsync(MakeProposal("a2", 0.03));
  ASSERT_TRUE(NtcpClient::FinishPropose(op).ok());
  EXPECT_EQ(client_->stats().retries, 1u);
  EXPECT_EQ(client_->stats().recovered, 1u);
}

TEST_F(NtcpClientTest, AsyncExecuteDroppedReplyStaysAtMostOnce) {
  NtcpClient::AsyncOp propose = client_->ProposeAsync(MakeProposal("a3", 0.03));
  ASSERT_TRUE(NtcpClient::FinishPropose(propose).ok());
  network_.DropNext("ntcp.site", "coordinator", 1);
  NtcpClient::AsyncOp execute = client_->ExecuteAsync("a3");
  TransactionResult result;
  ASSERT_TRUE(NtcpClient::FinishExecute(execute, result).ok());
  // The retry hit the server's result cache, not the plugin.
  EXPECT_EQ(server_->stats().executions, 1u);
  EXPECT_EQ(server_->stats().duplicate_executes, 1u);
}

TEST_F(NtcpClientTest, AsyncOutageExhaustsRetries) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  NtcpClient client(rpc_.get(), "ntcp.site", policy, &clock_);
  network_.SetLinkUp("coordinator", "ntcp.site", false);
  NtcpClient::AsyncOp op = client.ProposeAsync(MakeProposal("a4", 0.03));
  EXPECT_EQ(NtcpClient::FinishPropose(op).code(), ErrorCode::kTimeout);
  EXPECT_EQ(client.stats().gave_up, 1u);
}

TEST_F(NtcpClientTest, BogusCorrelationResponseIsIgnored) {
  // A response whose correlation id matches nothing in flight (a duplicate
  // of an already-resolved call, or a stray) must not disturb later calls.
  net::Message bogus;
  bogus.from = "ntcp.site";
  bogus.to = "coordinator";
  bogus.kind = net::MessageKind::kResponse;
  bogus.correlation_id = 0xdeadbeef;
  bogus.payload = net::EncodeResponseEnvelope(util::OkStatus(), {});
  (void)network_.Send(std::move(bogus));
  NtcpClient::AsyncOp op = client_->ProposeAsync(MakeProposal("a5", 0.03));
  EXPECT_TRUE(NtcpClient::FinishPropose(op).ok());
  EXPECT_EQ(client_->stats().retries, 0u);
}

// Scripted "ntcp.propose" endpoint for the credential-refresh rule: each
// call takes the next step of the script. kTimeout is played by dropping
// the reply, so the client sees a genuine transport timeout.
class ScriptedProposeServer {
 public:
  ScriptedProposeServer(net::Network* network, std::vector<ErrorCode> script)
      : network_(network), server_(network, "ntcp.scripted"),
        script_(std::move(script)) {
    EXPECT_TRUE(server_.Start().ok());
    server_.RegisterMethod(
        "ntcp.propose",
        [this](const net::CallContext& context,
               const net::Bytes&) -> util::Result<net::Bytes> {
          const ErrorCode step =
              calls_ < script_.size() ? script_[calls_] : ErrorCode::kOk;
          ++calls_;
          if (step == ErrorCode::kTimeout) {
            network_->DropNext("ntcp.scripted", context.caller_endpoint, 1);
          } else if (step != ErrorCode::kOk) {
            return util::Status(step, "token expired");
          }
          util::ByteWriter writer;
          writer.WriteBool(true);
          writer.WriteString("");
          return writer.Take();
        });
  }
  std::size_t calls() const { return calls_; }

 private:
  net::Network* network_;
  net::RpcServer server_;
  std::vector<ErrorCode> script_;
  std::size_t calls_ = 0;
};

TEST_F(NtcpClientTest, AuthRejectionRightAfterRefreshIsFinal) {
  // A rejection of the freshly refreshed credential is an authorization
  // answer, not staleness: the operation fails without a second refresh.
  ScriptedProposeServer server(
      &network_, {ErrorCode::kUnauthenticated, ErrorCode::kUnauthenticated});
  NtcpClient client(rpc_.get(), "ntcp.scripted", RetryPolicy(), &clock_);
  int refreshes = 0;
  client.set_auth_refresher([&] {
    ++refreshes;
    return util::OkStatus();
  });
  EXPECT_EQ(client.Propose(MakeProposal("au1", 0.01)).code(),
            ErrorCode::kUnauthenticated);
  EXPECT_EQ(refreshes, 1);
  EXPECT_EQ(server.calls(), 2u);
}

TEST_F(NtcpClientTest, AuthRefreshRearmsAfterInterveningTimeout) {
  // Rejected, refreshed, the retry times out behind a slow site, and by the
  // next retry the refreshed token has expired too. That rejection did not
  // follow a refresh, so it earns another one and the operation completes.
  ScriptedProposeServer server(
      &network_, {ErrorCode::kUnauthenticated, ErrorCode::kTimeout,
                  ErrorCode::kUnauthenticated});
  NtcpClient client(rpc_.get(), "ntcp.scripted", RetryPolicy(), &clock_);
  int refreshes = 0;
  client.set_auth_refresher([&] {
    ++refreshes;
    return util::OkStatus();
  });
  EXPECT_TRUE(client.Propose(MakeProposal("au2", 0.01)).ok());
  EXPECT_EQ(refreshes, 2);
  EXPECT_EQ(server.calls(), 4u);
  EXPECT_EQ(client.stats().auth_refreshes, 2u);
}

TEST_F(NtcpClientTest, AuthRefreshesAreBoundedByMaxAttempts) {
  // Refresh, timeout, refresh, timeout, ...: every refresh spends an
  // attempt, so the alternation ends when the attempts run out — even
  // when a refresh carries the operation past max_attempts (the second
  // refresh here turns attempt 3 into attempt 4).
  std::vector<ErrorCode> script;
  for (int i = 0; i < 10; ++i) {
    script.push_back(ErrorCode::kUnauthenticated);
    script.push_back(ErrorCode::kTimeout);
  }
  ScriptedProposeServer server(&network_, script);
  RetryPolicy policy;
  policy.max_attempts = 3;
  NtcpClient client(rpc_.get(), "ntcp.scripted", policy, &clock_);
  int refreshes = 0;
  client.set_auth_refresher([&] {
    ++refreshes;
    return util::OkStatus();
  });
  EXPECT_EQ(client.Propose(MakeProposal("au3", 0.01)).code(),
            ErrorCode::kTimeout);
  EXPECT_EQ(server.calls(), 4u);
  EXPECT_EQ(refreshes, 2);
  EXPECT_EQ(client.stats().gave_up, 1u);
}

TEST(NtcpAsyncScheduledTest, OverlappedOpsAndRetriesOverRealLatency) {
  // Latency-scheduled delivery in virtual time: ops to two sites overlap
  // their round trips, and a dropped request recovers by retry driven from
  // AwaitAll's multiplexed wait. Every phase cost is exact, in modeled
  // microseconds.
  net::Network network(net::DeliveryMode::kVirtual);
  net::LinkModel wan;
  wan.latency_micros = 2'000;
  network.SetDefaultLink(wan);
  NtcpServer site_a(&network, "site.a", MakeElasticPlugin(), network.clock());
  NtcpServer site_b(&network, "site.b", MakeElasticPlugin(), network.clock());
  ASSERT_TRUE(site_a.Start().ok());
  ASSERT_TRUE(site_b.Start().ok());
  net::RpcClient rpc(&network, "coordinator");
  RetryPolicy policy;
  policy.initial_backoff_micros = 1'000;
  policy.rpc_timeout_micros = 30'000;  // keep the dropped attempt cheap
  NtcpClient client_a(&rpc, "site.a", policy, network.clock());
  NtcpClient client_b(&rpc, "site.b", policy, network.clock());
  constexpr std::int64_t kRtt = 4'000;

  network.DropNext("coordinator", "site.b", 1);  // forces one async retry
  for (int step = 0; step < 3; ++step) {
    const std::string id = "sched-" + std::to_string(step);
    std::int64_t t0 = network.clock()->NowMicros();
    std::vector<NtcpClient::AsyncOp> proposes;
    proposes.push_back(client_a.ProposeAsync(MakeProposal(id + "-a", 0.01)));
    proposes.push_back(client_b.ProposeAsync(MakeProposal(id + "-b", 0.01)));
    NtcpClient::AwaitAll(proposes);
    for (NtcpClient::AsyncOp& op : proposes) {
      ASSERT_TRUE(NtcpClient::FinishPropose(op).ok()) << "step " << step;
    }
    // Step 0: site.b's first request is lost, so the phase is its timeout,
    // one backoff, and the retry's round trip. Otherwise one overlapped RTT.
    const std::int64_t propose_cost =
        step == 0 ? policy.rpc_timeout_micros + 1'000 + kRtt : kRtt;
    EXPECT_EQ(network.clock()->NowMicros() - t0, propose_cost)
        << "step " << step;
    t0 = network.clock()->NowMicros();
    std::vector<NtcpClient::AsyncOp> executes;
    executes.push_back(client_a.ExecuteAsync(id + "-a"));
    executes.push_back(client_b.ExecuteAsync(id + "-b"));
    NtcpClient::AwaitAll(executes);
    for (NtcpClient::AsyncOp& op : executes) {
      TransactionResult result;
      ASSERT_TRUE(NtcpClient::FinishExecute(op, result).ok())
          << "step " << step;
    }
    EXPECT_EQ(network.clock()->NowMicros() - t0, kRtt) << "step " << step;
  }
  EXPECT_EQ(client_b.stats().retries, 1u);
  EXPECT_EQ(site_a.stats().executions, 3u);
  EXPECT_EQ(site_b.stats().executions, 3u);
}

// --- OGSI inspection of a live NTCP server -------------------------------------------

TEST(NtcpInspectionTest, RemoteFindServiceDataSeesTransactions) {
  util::SimClock clock(1'000'000);
  net::Network network;
  network.SetClock(&clock);

  grid::ServiceContainer container(&network, "container.uiuc", &clock);
  ASSERT_TRUE(container.Start().ok());

  NtcpServer server(&network, "ntcp.uiuc", MakeElasticPlugin(), &clock);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.PublishTo(container).ok());

  ASSERT_TRUE(server.Propose(MakeProposal("insp-1", 0.02)).accepted);
  ASSERT_TRUE(server.Execute("insp-1").ok());

  grid::ContainerClient observer(&network, "observer");
  auto services = observer.ListServices("container.uiuc");
  ASSERT_TRUE(services.ok());
  EXPECT_EQ(*services, std::vector<std::string>{"ntcp.uiuc"});

  auto sdes = observer.FindServiceData("container.uiuc", "ntcp.uiuc", "txn.");
  ASSERT_TRUE(sdes.ok());
  ASSERT_EQ(sdes->size(), 1u);
  EXPECT_EQ((*sdes)[0].first, "txn.insp-1");
  EXPECT_EQ((*sdes)[0].second.Get("state"), "completed");

  // Remote subscription to transaction changes.
  std::vector<std::string> events;
  ASSERT_TRUE(observer
                  .Subscribe("container.uiuc", "ntcp.uiuc", "txn.",
                             [&](const std::string&, const std::string& key,
                                 const grid::SdeValue& value) {
                               events.push_back(key + ":" +
                                                value.Get("state"));
                             })
                  .ok());
  ASSERT_TRUE(server.Propose(MakeProposal("insp-2", 0.01)).accepted);
  ASSERT_TRUE(server.Execute("insp-2").ok());
  // proposed->accepted, executing, completed all publish.
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.back(), "txn.insp-2:completed");
}

// --- write-ahead log recovery (docs/RECOVERY.md) --------------------------------------

/// Byte offset where the last complete WAL frame starts, so tests can chop
/// the log exactly at a record boundary (frame: [u32 len][u32 crc][body]).
std::size_t LastFrameOffset(const std::vector<std::uint8_t>& bytes) {
  std::size_t offset = 0;
  std::size_t last = 0;
  while (offset + 8 <= bytes.size()) {
    const std::uint32_t length = static_cast<std::uint32_t>(bytes[offset]) |
                                 static_cast<std::uint32_t>(bytes[offset + 1])
                                     << 8 |
                                 static_cast<std::uint32_t>(bytes[offset + 2])
                                     << 16 |
                                 static_cast<std::uint32_t>(bytes[offset + 3])
                                     << 24;
    if (offset + 8 + length > bytes.size()) break;
    last = offset;
    offset += 8 + length;
  }
  return last;
}

// --- expiry tick grid (kVirtual) --------------------------------------------
// ArmExpiryTimer queues a tick only while a transaction can lapse. Ticks
// still fall on the grid arm time + k * period, so the ticks it skips are
// exactly those that would have found nothing to expire.

constexpr std::int64_t kExpiryPeriod = 300'000;

// Network time of the first expiry tick at which a transaction proposed at
// `proposed_at` with `timeout` lapses on `site_time`'s clock.
template <typename SiteTime>
std::int64_t FirstLapsingTick(std::int64_t armed_at, std::int64_t proposed_at,
                              std::int64_t timeout, SiteTime site_time) {
  std::int64_t tick = armed_at + kExpiryPeriod;
  while (tick <= proposed_at || site_time(tick) <= proposed_at + timeout) {
    tick += kExpiryPeriod;
  }
  return tick;
}

TEST(NtcpExpiryGridTest, ArmedServerWithNothingOpenFiresNoTimer) {
  net::Network network(net::DeliveryMode::kVirtual);
  NtcpServer server(&network, "ntcp.grid", MakeElasticPlugin(),
                    network.clock());
  ASSERT_TRUE(server.Start().ok());
  server.ArmExpiryTimer(&network, kExpiryPeriod);
  network.AdvanceTo(network.clock()->NowMicros() + 60'000'000);
  EXPECT_EQ(network.virtual_stats().timers_fired, 0u);

  // A transaction that completes leaves nothing open: the tick its propose
  // queued fires once and does not re-arm.
  ASSERT_TRUE(server.Propose(MakeProposal("done", 0.01)).accepted);
  ASSERT_TRUE(server.Execute("done").ok());
  network.AdvanceTo(network.clock()->NowMicros() + 60'000'000);
  EXPECT_EQ(network.virtual_stats().timers_fired, 1u);
  EXPECT_EQ(server.stats().expired, 0u);
  server.Stop();
  EXPECT_EQ(network.RunUntilQuiescent(), 0u);
}

TEST(NtcpExpiryGridTest, UnexecutedTransactionExpiresOnFirstLapsedGridTick) {
  net::Network network(net::DeliveryMode::kVirtual);
  NtcpServer server(&network, "ntcp.grid", MakeElasticPlugin(),
                    network.clock());
  ASSERT_TRUE(server.Start().ok());
  const std::int64_t armed_at = network.clock()->NowMicros();
  server.ArmExpiryTimer(&network, kExpiryPeriod);
  network.AdvanceTo(armed_at + 1'234'567);  // off the grid

  constexpr std::int64_t kTimeout = 1'000'000;
  const std::int64_t proposed_at = network.clock()->NowMicros();
  ASSERT_TRUE(server.Propose(MakeProposal("late", 0.01, kTimeout)).accepted);
  network.AdvanceTo(proposed_at + 60'000'000);

  const std::int64_t want = FirstLapsingTick(
      armed_at, proposed_at, kTimeout, [](std::int64_t t) { return t; });
  const auto record = server.GetTransaction("late");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kExpired);
  EXPECT_EQ(record->state_timestamps.at(TransactionState::kExpired), want);
  // One tick per grid point from the propose to the expiry, none after.
  EXPECT_EQ(network.virtual_stats().timers_fired,
            static_cast<std::uint64_t>((want - armed_at) / kExpiryPeriod -
                                       (proposed_at - armed_at) /
                                           kExpiryPeriod));
  server.Stop();
}

TEST(NtcpExpiryGridTest, ForwardSkewJumpExpiresOnTheSameGridTick) {
  // The site clock jumps forward inside the proposal window. Expiry reads
  // the site clock but ticks on the network clock, so the first tick after
  // the jump at which the site clock is past the deadline expires it.
  net::Network network(net::DeliveryMode::kVirtual);
  util::SkewedClock site_clock(network.clock());
  NtcpServer server(&network, "ntcp.grid", MakeElasticPlugin(), &site_clock);
  ASSERT_TRUE(server.Start().ok());
  const std::int64_t armed_at = network.clock()->NowMicros();
  server.ArmExpiryTimer(&network, kExpiryPeriod);
  network.AdvanceTo(armed_at + 450'000);

  constexpr std::int64_t kTimeout = 2'000'000;
  constexpr std::int64_t kJump = 1'100'000;
  const std::int64_t proposed_at = network.clock()->NowMicros();
  const std::int64_t jump_at = proposed_at + 510'000;  // off the grid
  network.ScheduleAt(jump_at, [&site_clock] {
    site_clock.AdvanceOffset(kJump);
  });
  ASSERT_TRUE(server.Propose(MakeProposal("skew", 0.01, kTimeout)).accepted);
  network.AdvanceTo(proposed_at + 60'000'000);

  const std::int64_t want = FirstLapsingTick(
      armed_at, proposed_at, kTimeout,
      [&](std::int64_t t) { return t >= jump_at ? t + kJump : t; });
  ASSERT_LT(want, proposed_at + kTimeout);  // the jump moved it earlier
  const auto record = server.GetTransaction("skew");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kExpired);
  EXPECT_EQ(record->state_timestamps.at(TransactionState::kExpired),
            want + kJump);
  server.Stop();
}

TEST(NtcpExpiryGridTest, RecoveredOpenTransactionRearmsTheTick) {
  net::Network network(net::DeliveryMode::kVirtual);
  wal::MemoryStorage storage;
  constexpr std::int64_t kTimeout = 1'000'000;
  std::int64_t proposed_at = 0;
  {
    wal::Log log(&storage);
    NtcpServer first(&network, "ntcp.grid", MakeElasticPlugin(),
                     network.clock());
    ASSERT_TRUE(first.Start().ok());
    ASSERT_TRUE(first.AttachWal(&log).ok());
    first.ArmExpiryTimer(&network, kExpiryPeriod);
    proposed_at = network.clock()->NowMicros();
    ASSERT_TRUE(first.Propose(MakeProposal("open", 0.01, kTimeout)).accepted);
  }  // the process dies; its queued tick becomes a no-op
  network.AdvanceTo(proposed_at + 100'000);

  wal::Log log(&storage);
  NtcpServer second(&network, "ntcp.grid", MakeElasticPlugin(),
                    network.clock());
  ASSERT_TRUE(second.Start().ok());
  ASSERT_TRUE(second.AttachWal(&log).ok());
  const std::int64_t armed_at = network.clock()->NowMicros();
  second.ArmExpiryTimer(&network, kExpiryPeriod);
  network.AdvanceTo(armed_at + 60'000'000);

  const auto record = second.GetTransaction("open");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kExpired);
  EXPECT_EQ(record->state_timestamps.at(TransactionState::kExpired),
            FirstLapsingTick(armed_at, proposed_at, kTimeout,
                             [](std::int64_t t) { return t; }));
  second.Stop();
}

class NtcpWalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { network_.SetClock(&clock_); }

  /// Builds a fresh server incarnation over `storage_` and replays the log.
  std::unique_ptr<NtcpServer> Restart(WalRecovery* recovery,
                                      plugins::SimulationPlugin** plugin_out =
                                          nullptr) {
    auto plugin = MakeElasticPlugin();
    if (plugin_out != nullptr) *plugin_out = plugin.get();
    auto server = std::make_unique<NtcpServer>(&network_, "ntcp.wal",
                                               std::move(plugin), &clock_);
    EXPECT_TRUE(server->Start().ok());
    logs_.push_back(std::make_unique<wal::Log>(&storage_));
    auto recovered = server->AttachWal(logs_.back().get());
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (recovery != nullptr && recovered.ok()) *recovery = *recovered;
    return server;
  }

  /// Writes a log by hand in the docs/RECOVERY.md grammar: a TxnCreate per
  /// id, in the given order, then each id's `transitions` in turn.
  void AppendLog(const std::vector<std::string>& ids,
                 const std::vector<TransactionState>& transitions) {
    wal::Log log(&storage_);
    ASSERT_TRUE(log.Open().ok());
    for (const std::string& id : ids) {
      util::ByteWriter writer;
      EncodeProposal(MakeProposal(id, 0.02), writer);
      writer.WriteI64(clock_.NowMicros());
      ASSERT_TRUE(log.Append(1, writer.data()).ok());
    }
    for (const std::string& id : ids) {
      for (TransactionState to : transitions) {
        util::ByteWriter writer;
        writer.WriteString(id);
        writer.WriteU8(static_cast<std::uint8_t>(to));
        writer.WriteI64(clock_.NowMicros());
        writer.WriteString("");
        writer.WriteBool(false);
        ASSERT_TRUE(log.Append(2, writer.data()).ok());
      }
    }
    ASSERT_TRUE(log.Sync().ok());
  }

  util::SimClock clock_{1'000'000};
  net::Network network_;
  wal::MemoryStorage storage_;
  std::vector<std::unique_ptr<wal::Log>> logs_;
};

TEST_F(NtcpWalRecoveryTest, RestartRebuildsTransactionTable) {
  WalRecovery recovery;
  auto first = Restart(&recovery);
  EXPECT_EQ(recovery.records_replayed, 0u);  // empty log: fresh state
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());
  ASSERT_TRUE(first->Propose(MakeProposal("t2", 0.03)).accepted);
  first.reset();  // process exits; only the WAL survives

  plugins::SimulationPlugin* plugin = nullptr;
  auto second = Restart(&recovery, &plugin);
  EXPECT_EQ(recovery.transactions_recovered, 2u);
  EXPECT_EQ(recovery.inflight_failed, 0u);
  EXPECT_EQ(second->GetTransaction("t1")->state, TransactionState::kCompleted);
  EXPECT_EQ(second->GetTransaction("t2")->state, TransactionState::kAccepted);

  // At-most-once across the restart: a retried execute is served from the
  // recovered result cache, never re-run into the plugin.
  auto replayed = second->Execute("t1");
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->results.size(), 1u);
  EXPECT_NEAR(replayed->results[0].measured_force[0], 20.0, 1e-9);
  EXPECT_EQ(plugin->executions(), 0u);
  EXPECT_EQ(second->stats().duplicate_executes, 1u);

  // A retried propose for a recovered transaction deduplicates too.
  EXPECT_TRUE(second->Propose(MakeProposal("t2", 0.03)).accepted);
  EXPECT_EQ(second->stats().duplicate_proposals, 1u);

  // The still-accepted transaction remains executable on the new incarnation.
  EXPECT_TRUE(second->Execute("t2").ok());
  EXPECT_EQ(plugin->executions(), 1u);
}

TEST_F(NtcpWalRecoveryTest, RecoveredAcceptedTransactionStillExpires) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02, 1'000'000)).accepted);
  ASSERT_TRUE(first->Propose(MakeProposal("t2", 0.02, 1'000'000)).accepted);
  ASSERT_TRUE(first->Execute("t2").ok());
  first.reset();

  auto second = Restart(nullptr);
  EXPECT_EQ(second->GetTransaction("t1")->state, TransactionState::kAccepted);
  clock_.Advance(2'000'000);
  // AttachWal rebuilt the expiry index: the recovered deadline still fires.
  EXPECT_EQ(second->ExpireStale(), 1);
  EXPECT_EQ(second->GetTransaction("t1")->state, TransactionState::kExpired);
  EXPECT_EQ(second->GetTransaction("t2")->state,
            TransactionState::kCompleted);
}

TEST_F(NtcpWalRecoveryTest, InflightExecutionIsCrashMarkedFailed) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());
  first.reset();

  // Drop the final (kCompleted) record: the process died after the durable
  // "executing" intent but before the completion reached the log.
  auto bytes = storage_.Load();
  ASSERT_TRUE(bytes.ok());
  storage_.ForceTruncate(LastFrameOffset(*bytes));

  WalRecovery recovery;
  auto second = Restart(&recovery);
  EXPECT_EQ(recovery.transactions_recovered, 1u);
  EXPECT_EQ(recovery.inflight_failed, 1u);
  auto record = second->GetTransaction("t1");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, TransactionState::kFailed);
  EXPECT_NE(record->detail.find("crash"), std::string::npos);

  // The coordinator's retry observes the failure instead of re-executing: the
  // specimen may or may not have moved, and only a fresh transaction may act.
  auto retried = second->Execute("t1");
  ASSERT_FALSE(retried.ok());
  EXPECT_EQ(retried.status().code(), ErrorCode::kAborted);
  EXPECT_EQ(second->stats().duplicate_executes, 1u);
}

TEST_F(NtcpWalRecoveryTest, TornTailIsDiscardedOnRestart) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());
  first.reset();

  // Tear the final record mid-frame (crash between append and sync).
  auto bytes = storage_.Load();
  ASSERT_TRUE(bytes.ok());
  storage_.ForceTruncate(LastFrameOffset(*bytes) + 3);

  WalRecovery recovery;
  auto second = Restart(&recovery);
  EXPECT_GT(recovery.torn_bytes_truncated, 0u);
  // The torn completion is gone, so the transaction crash-marks kFailed.
  EXPECT_EQ(recovery.inflight_failed, 1u);
  EXPECT_EQ(second->GetTransaction("t1")->state, TransactionState::kFailed);
}

TEST_F(NtcpWalRecoveryTest, DoubleRecoveryIsIdempotent) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  ASSERT_TRUE(first->Propose(MakeProposal("t2", 0.03)).accepted);
  ASSERT_TRUE(first->Execute("t1").ok());  // t1's completion is the last frame
  first.reset();
  auto bytes = storage_.Load();
  ASSERT_TRUE(bytes.ok());
  storage_.ForceTruncate(LastFrameOffset(*bytes));  // t1 left kExecuting

  WalRecovery recovery;
  auto second = Restart(&recovery);
  EXPECT_EQ(recovery.inflight_failed, 1u);
  second.reset();

  // The crash-mark itself was logged, so a second recovery replays it as a
  // plain transition: same table, nothing new to crash-mark.
  auto third = Restart(&recovery);
  EXPECT_EQ(recovery.transactions_recovered, 2u);
  EXPECT_EQ(recovery.inflight_failed, 0u);
  EXPECT_EQ(third->GetTransaction("t1")->state, TransactionState::kFailed);
  EXPECT_EQ(third->GetTransaction("t2")->state, TransactionState::kAccepted);
}

TEST_F(NtcpWalRecoveryTest, CorruptLogRefusesToRecover) {
  auto first = Restart(nullptr);
  ASSERT_TRUE(first->Propose(MakeProposal("t1", 0.02)).accepted);
  first.reset();
  storage_.CorruptByte(9);  // inside the first frame's body

  auto plugin = MakeElasticPlugin();
  auto server = std::make_unique<NtcpServer>(&network_, "ntcp.wal",
                                             std::move(plugin), &clock_);
  ASSERT_TRUE(server->Start().ok());
  wal::Log log(&storage_);
  auto recovered = server->AttachWal(&log);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), ErrorCode::kDataLoss);
}

TEST_F(NtcpWalRecoveryTest, CrashMarksFollowIdOrder) {
  // A log whose in-flight transactions were created out of id order,
  // written in the docs/RECOVERY.md grammar.
  const std::vector<std::string> ids = {"t5", "t2", "t7", "t0",
                                        "t3", "t6", "t1", "t4"};
  AppendLog(ids, {TransactionState::kAccepted, TransactionState::kExecuting});
  WalRecovery recovery;
  auto server = Restart(&recovery);
  EXPECT_EQ(recovery.inflight_failed, ids.size());
  // The crash-marks were logged after the replayed records, in id order.
  wal::Log reread(&storage_);
  auto records = reread.Open();
  ASSERT_TRUE(records.ok());
  ASSERT_GE(records->size(), ids.size());
  std::vector<std::string> marked;
  for (std::size_t i = records->size() - ids.size(); i < records->size();
       ++i) {
    util::ByteReader reader((*records)[i].payload);
    auto id = reader.ReadString();
    ASSERT_TRUE(id.ok());
    marked.push_back(*id);
  }
  std::vector<std::string> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(marked, sorted);
}

TEST_F(NtcpWalRecoveryTest, RecoveryLeavesLastChangedOnGreatestId) {
  std::vector<std::string> ids;
  for (int i = 0; i < 24; ++i) {
    ids.push_back(util::Format("run-s%d-a1-site%d", (i * 7) % 24, i % 2));
  }
  AppendLog(ids, {TransactionState::kAccepted});
  auto server = Restart(nullptr);
  // The recovered table is republished in id order, so the last write of
  // the lastChanged SDE names the greatest id.
  const auto last = server->service_data().GetServiceData("lastChanged");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->Get("transaction"),
            *std::max_element(ids.begin(), ids.end()));
}

TEST_F(NtcpWalRecoveryTest, WalBytesMatchPinnedDigest) {
  // Pins the exact log bytes a fixed propose/execute/cancel sequence writes
  // (record framing, CRCs, payload encodings, timestamps). The digest was
  // taken from the byte-wise encoder and framer; any change to what reaches
  // storage fails here, however the bytes are produced.
  auto server = Restart(nullptr);
  ASSERT_TRUE(server->Propose(MakeProposal("w1", 0.02)).accepted);
  clock_.Advance(1'500);
  ASSERT_TRUE(server->Execute("w1").ok());
  clock_.Advance(2'500);
  ASSERT_TRUE(server->Propose(MakeProposal("w2", -0.01)).accepted);
  clock_.Advance(700);
  ASSERT_TRUE(server->Cancel("w2").ok());
  clock_.Advance(300);
  ASSERT_TRUE(server->Execute("w1").ok());  // cached: logs nothing
  auto bytes = storage_.Load();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(util::ToHex(util::Sha256::Hash(*bytes)),
            "a7ca75a1681166288a5353b986b423a265d1f63d7cb6d18cd17fd6fa1010242f");
}

}  // namespace
}  // namespace nees::ntcp
