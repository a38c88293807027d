// E1 + E2 — Fig. 1 (NTCP state machine) and Fig. 2 (server + plugin).
//
// Prints the regenerated state-transition table, then measures the
// transaction lifecycle and the per-plugin dispatch overhead with
// google-benchmark.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "net/network.h"
#include "ntcp/client.h"
#include "ntcp/server.h"
#include "plugins/mplugin.h"
#include "plugins/policy_plugin.h"
#include "plugins/simulation_plugin.h"
#include "structural/substructure.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace nees;

namespace {

std::unique_ptr<plugins::SimulationPlugin> ElasticPlugin(double stiffness) {
  auto plugin = std::make_unique<plugins::SimulationPlugin>();
  structural::Matrix k(1, 1);
  k(0, 0) = stiffness;
  plugin->AddControlPoint(
      "cp", std::make_unique<structural::ElasticSubstructure>(k));
  return plugin;
}

ntcp::Proposal MakeProposal(const std::string& id, double d) {
  ntcp::Proposal proposal;
  proposal.transaction_id = id;
  proposal.actions.push_back({"cp", {d}, {}});
  return proposal;
}

void PrintTransitionTable() {
  std::printf("==== E1 (Fig. 1): NTCP transaction state transitions ====\n");
  util::TextTable table({"from \\ to", "proposed", "accepted", "rejected",
                         "executing", "completed", "cancelled", "failed",
                         "expired"});
  for (int from = 0; from <= static_cast<int>(ntcp::TransactionState::kExpired);
       ++from) {
    std::vector<std::string> row;
    row.push_back(std::string(ntcp::TransactionStateName(
        static_cast<ntcp::TransactionState>(from))));
    for (int to = 0; to <= static_cast<int>(ntcp::TransactionState::kExpired);
         ++to) {
      row.push_back(
          ntcp::IsLegalTransition(static_cast<ntcp::TransactionState>(from),
                                  static_cast<ntcp::TransactionState>(to))
              ? "yes"
              : ".");
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
}

// --- lifecycle micro-benchmarks ----------------------------------------------

void BM_ProposeExecuteLifecycle(benchmark::State& state) {
  net::Network network;
  ntcp::NtcpServer server(&network, "ntcp.bench", ElasticPlugin(1e6));
  (void)server.Start();
  net::RpcClient rpc(&network, "client");
  ntcp::NtcpClient client(&rpc, "ntcp.bench");
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string id = util::Format("t%zu", i++);
    benchmark::DoNotOptimize(client.Propose(MakeProposal(id, 0.001)));
    benchmark::DoNotOptimize(client.Execute(id));
    if (i % 4096 == 0) {
      state.PauseTiming();
      server.GarbageCollect(0);  // keep the table bounded
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProposeExecuteLifecycle);

void BM_ProposeOnly(benchmark::State& state) {
  net::Network network;
  ntcp::NtcpServer server(&network, "ntcp.bench", ElasticPlugin(1e6));
  (void)server.Start();
  net::RpcClient rpc(&network, "client");
  ntcp::NtcpClient client(&rpc, "ntcp.bench");
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.Propose(MakeProposal(util::Format("t%zu", i++), 0.001)));
    if (i % 4096 == 0) {
      state.PauseTiming();
      server.GarbageCollect(0);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProposeOnly);

void BM_GetTransaction(benchmark::State& state) {
  net::Network network;
  ntcp::NtcpServer server(&network, "ntcp.bench", ElasticPlugin(1e6));
  (void)server.Start();
  net::RpcClient rpc(&network, "client");
  ntcp::NtcpClient client(&rpc, "ntcp.bench");
  (void)client.Propose(MakeProposal("t", 0.001));
  (void)client.Execute("t");
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.GetTransaction("t"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetTransaction);

// E2: dispatch overhead per plugin configuration (server-side only, no
// network) — the cost of the Fig. 2 plugin boundary itself.
void BM_PluginDispatch_Simulation(benchmark::State& state) {
  net::Network network;
  ntcp::NtcpServer server(&network, "ntcp.bench", ElasticPlugin(1e6));
  (void)server.Start();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string id = util::Format("t%zu", i++);
    server.Propose(MakeProposal(id, 0.001));
    benchmark::DoNotOptimize(server.Execute(id));
    if (i % 4096 == 0) {
      state.PauseTiming();
      server.GarbageCollect(0);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PluginDispatch_Simulation);

void BM_PluginDispatch_PolicyWrapped(benchmark::State& state) {
  net::Network network;
  ntcp::NtcpServer server(
      &network, "ntcp.bench",
      std::make_unique<plugins::LimitPolicyPlugin>(plugins::SitePolicy{},
                                                   ElasticPlugin(1e6)));
  (void)server.Start();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string id = util::Format("t%zu", i++);
    server.Propose(MakeProposal(id, 0.001));
    benchmark::DoNotOptimize(server.Execute(id));
    if (i % 4096 == 0) {
      state.PauseTiming();
      server.GarbageCollect(0);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PluginDispatch_PolicyWrapped);

// The Fig. 9 pull path in-process: Execute enqueues, the work notifier runs
// the PollingBackend's poll -> compute -> post inline on this thread, and
// Execute returns the posted result without parking. The gap to
// BM_PluginDispatch_Simulation is the buffering and hand-off cost.
void BM_PluginDispatch_MpluginPollingBackend(benchmark::State& state) {
  net::Network network;
  auto mplugin = std::make_unique<plugins::MPlugin>();
  auto* mplugin_raw = mplugin.get();
  ntcp::NtcpServer server(&network, "ntcp.bench", std::move(mplugin));
  (void)server.Start();
  auto models = std::make_shared<std::map<
      std::string, std::unique_ptr<structural::SubstructureModel>>>();
  structural::Matrix k(1, 1);
  k(0, 0) = 1e6;
  (*models)["cp"] = std::make_unique<structural::ElasticSubstructure>(k);
  plugins::PollingBackend backend(mplugin_raw,
                                  plugins::MakeSimulationCompute(models));
  backend.Start();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string id = util::Format("t%zu", i++);
    server.Propose(MakeProposal(id, 0.001));
    benchmark::DoNotOptimize(server.Execute(id));
    if (i % 4096 == 0) {
      state.PauseTiming();
      server.GarbageCollect(0);
      state.ResumeTiming();
    }
  }
  backend.Stop();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PluginDispatch_MpluginPollingBackend);

// E2: negotiation — rejection rates under tightening site policy.
void PrintNegotiationTable() {
  std::printf("==== E2 (Fig. 2): proposal negotiation under site policy ====\n");
  util::TextTable table({"site limit [m]", "commands", "accepted", "rejected",
                         "reject %"});
  for (double limit : {0.15, 0.10, 0.05, 0.02}) {
    net::Network network;
    plugins::SitePolicy policy;
    policy.max_abs_displacement_m = limit;
    ntcp::NtcpServer server(
        &network, "ntcp.bench",
        std::make_unique<plugins::LimitPolicyPlugin>(policy,
                                                     ElasticPlugin(1e6)));
    (void)server.Start();
    util::Rng rng(7);
    const int commands = 2000;
    int accepted = 0;
    for (int i = 0; i < commands; ++i) {
      // Command amplitudes drawn from the MOST drift distribution scale.
      const double d = rng.Gaussian(0.0, 0.05);
      if (server.Propose(MakeProposal(util::Format("t%d", i), d)).accepted) {
        ++accepted;
      }
    }
    table.AddRow({util::Format("%.2f", limit), std::to_string(commands),
                  std::to_string(accepted),
                  std::to_string(commands - accepted),
                  util::Format("%.1f", 100.0 * (commands - accepted) /
                                           commands)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  PrintTransitionTable();
  PrintNegotiationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
