// E3 — Fig. 3: the data and metadata repository.
//
// Regenerates: GridFTP-sim transfer throughput vs parallel-stream count
// under a bandwidth-limited WAN (the reason GridFTP stripes transfers),
// transfer integrity under loss, NMDS metadata operation rates, and NFMS
// negotiation cost.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "net/network.h"
#include "repo/facade.h"
#include "repo/gridftp.h"
#include "repo/nfms.h"
#include "repo/nmds.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace nees;

namespace {

repo::Bytes RandomContent(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  repo::Bytes content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng.NextU64());
  return content;
}

void PrintStreamSweep() {
  std::printf("==== E3 (Fig. 3): GridFTP-sim throughput vs stream count "
              "(modeled, kVirtual) ====\n\n");
  // Virtual-time network with a bandwidth-limited, latency-bearing link:
  // the per-chunk RTT dominates a single stream; striping amortizes it.
  // Time and goodput are modeled (read from the network's virtual clock);
  // the host wall time the simulation took sits next to them.
  util::TextTable table({"streams", "file [KiB]", "modeled [ms]",
                         "goodput [MiB/s]", "chunks", "verified",
                         "host wall [ms]"});
  const std::size_t file_size = 512 * 1024;
  for (const int streams : {1, 2, 4, 8}) {
    net::Network network(net::DeliveryMode::kVirtual);
    net::LinkModel wan;
    wan.latency_micros = 300;               // 0.3 ms one way
    wan.bytes_per_second = 200.0 * 1024 * 1024;
    network.SetDefaultLink(wan);

    repo::FileStore store;
    store.Put("big.bin", RandomContent(file_size, 7));
    repo::GridFtpServer server(&network, "gftp", &store);
    if (!server.Start().ok()) return;
    net::RpcClient rpc(&network, "client");
    repo::TransferOptions options;
    options.streams = streams;
    options.chunk_bytes = 32 * 1024;
    repo::GridFtpClient client(&rpc, options);

    const util::Stopwatch host;
    const std::int64_t t0 = network.clock()->NowMicros();
    auto content = client.Download("gftp", "big.bin");
    const double ms = (network.clock()->NowMicros() - t0) / 1000.0;
    const double host_ms = host.ElapsedMicros() / 1000.0;
    if (!content.ok()) return;
    table.AddRow({std::to_string(streams),
                  std::to_string(file_size / 1024),
                  util::Format("%.2f", ms),
                  util::Format("%.1f", file_size / 1048576.0 / (ms / 1000.0)),
                  std::to_string(client.last_report().chunks), "sha256 ok",
                  util::Format("%.2f", host_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void PrintLossyTransferTable() {
  std::printf("==== E3b: transfer integrity under loss ====\n\n");
  util::TextTable table({"loss rate", "outcome", "chunks", "retried chunks"});
  for (const double loss : {0.0, 0.02, 0.10}) {
    net::Network network(net::DeliveryMode::kImmediate, 11);
    repo::FileStore store;
    store.Put("f.bin", RandomContent(256 * 1024, 9));
    repo::GridFtpServer server(&network, "gftp", &store);
    if (!server.Start().ok()) return;
    net::LinkModel lossy;
    lossy.drop_probability = loss;
    network.SetLink("client", "gftp", lossy);
    network.SetLink("gftp", "client", lossy);
    net::RpcClient rpc(&network, "client");
    repo::TransferOptions options;
    options.chunk_retries = 10;
    repo::GridFtpClient client(&rpc, options);
    auto content = client.Download("gftp", "f.bin");
    table.AddRow({util::Format("%.2f", loss),
                  content.ok() ? "complete, checksum ok"
                               : content.status().ToString(),
                  std::to_string(client.last_report().chunks),
                  std::to_string(client.last_report().retried_chunks)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

// --- metadata micro-benchmarks -------------------------------------------------

void BM_NmdsPut(benchmark::State& state) {
  repo::NmdsService nmds;
  std::size_t i = 0;
  for (auto _ : state) {
    repo::MetadataObject object;
    object.id = "obj" + std::to_string(i++);
    object.type = "daq-data";
    object.fields["site"] = "UIUC";
    object.fields["samples"] = "1500";
    benchmark::DoNotOptimize(nmds.Put(object, "bench"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NmdsPut);

void BM_NmdsPutWithSchemaValidation(benchmark::State& state) {
  repo::NmdsService nmds;
  repo::MetadataObject schema;
  schema.id = "schema.daq";
  schema.type = "schema";
  schema.fields["field.site"] = "string";
  schema.fields["field.samples"] = "number";
  (void)nmds.Put(schema, "admin");
  std::size_t i = 0;
  for (auto _ : state) {
    repo::MetadataObject object;
    object.id = "obj" + std::to_string(i++);
    object.type = "daq-data";
    object.fields["schema"] = "schema.daq";
    object.fields["site"] = "UIUC";
    object.fields["samples"] = "1500";
    benchmark::DoNotOptimize(nmds.Put(object, "bench"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NmdsPutWithSchemaValidation);

void BM_NmdsGetLatest(benchmark::State& state) {
  repo::NmdsService nmds;
  repo::MetadataObject object;
  // std::string temporaries take the move-assign path, dodging a GCC 12 -O3
  // -Wrestrict false positive in basic_string::assign(const char*).
  object.id = std::string("hot");
  object.type = std::string("t");
  for (int version = 0; version < 50; ++version) {
    (void)nmds.Put(object, "bench");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nmds.Get("hot"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NmdsGetLatest);

void BM_NfmsNegotiate(benchmark::State& state) {
  repo::NfmsService nfms;
  for (int i = 0; i < 1000; ++i) {
    repo::FileEntry entry;
    entry.logical_name = "most/daq/file" + std::to_string(i);
    entry.server_endpoint = "gftp";
    entry.physical_path = "phys/" + std::to_string(i);
    nfms.RegisterFile(entry);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nfms.Negotiate("most/daq/file500"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NfmsNegotiate);

void BM_FacadeIngestSmallFile(benchmark::State& state) {
  net::Network network;
  repo::RepositoryFacade facade(&network, "repo");
  (void)facade.Start();
  const repo::Bytes content = RandomContent(4096, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(facade.Ingest(
        "bench/f" + std::to_string(i++), content, "daq-data", {}));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_FacadeIngestSmallFile);

}  // namespace

int main(int argc, char** argv) {
  PrintStreamSweep();
  PrintLossyTransferTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
