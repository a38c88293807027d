// Tests for the data/metadata repository: FileStore, GridFTP-sim transfers
// (integrity, striping, fault recovery), NMDS (schemas as first-class
// objects, versioning, authorization), NFMS (logical names, negotiation,
// transport plugins), the facade, ingestion from DAQ drops, and the https
// bridge.
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "daq/daq.h"
#include "net/network.h"
#include "repo/facade.h"
#include "repo/filestore.h"
#include "repo/gridftp.h"
#include "repo/nfms.h"
#include "repo/nmds.h"
#include "util/rng.h"

namespace nees::repo {
namespace {

using util::ErrorCode;

Bytes RandomContent(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng.NextU64());
  return content;
}

// --- FileStore -----------------------------------------------------------------

TEST(FileStoreTest, PutGetListRemove) {
  FileStore store;
  store.Put("a/x", {1, 2, 3});
  store.Put("a/y", {4});
  store.Put("b/z", {5});
  EXPECT_TRUE(store.Exists("a/x"));
  EXPECT_EQ(store.Get("a/x")->size(), 3u);
  EXPECT_EQ(*store.Size("a/y"), 1u);
  EXPECT_EQ(store.List("a/").size(), 2u);
  EXPECT_EQ(store.count(), 3u);
  EXPECT_EQ(store.total_bytes(), 5u);
  EXPECT_TRUE(store.Remove("b/z").ok());
  EXPECT_EQ(store.Remove("b/z").code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.Get("b/z").status().code(), ErrorCode::kNotFound);
}

// --- GridFTP-sim ----------------------------------------------------------------

class GridFtpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<GridFtpServer>(&network_, "gftp.ncsa",
                                              &store_);
    ASSERT_TRUE(server_->Start().ok());
    rpc_ = std::make_unique<net::RpcClient>(&network_, "client");
  }

  net::Network network_;
  FileStore store_;
  std::unique_ptr<GridFtpServer> server_;
  std::unique_ptr<net::RpcClient> rpc_;
};

TEST_F(GridFtpTest, DownloadRoundTrip) {
  const Bytes content = RandomContent(100'000, 1);
  store_.Put("data/run1.bin", content);
  GridFtpClient client(rpc_.get());
  auto downloaded = client.Download("gftp.ncsa", "data/run1.bin");
  ASSERT_TRUE(downloaded.ok());
  EXPECT_EQ(*downloaded, content);
  EXPECT_EQ(client.last_report().bytes, content.size());
  EXPECT_GT(client.last_report().chunks, 1);
}

TEST_F(GridFtpTest, UploadRoundTrip) {
  const Bytes content = RandomContent(50'000, 2);
  GridFtpClient client(rpc_.get());
  ASSERT_TRUE(client.Upload("gftp.ncsa", "up/f.bin", content).ok());
  EXPECT_EQ(*store_.Get("up/f.bin"), content);
  EXPECT_EQ(server_->pending_uploads(), 0u);
}

TEST_F(GridFtpTest, EmptyFileTransfers) {
  store_.Put("empty", {});
  GridFtpClient client(rpc_.get());
  auto downloaded = client.Download("gftp.ncsa", "empty");
  ASSERT_TRUE(downloaded.ok());
  EXPECT_TRUE(downloaded->empty());
  ASSERT_TRUE(client.Upload("gftp.ncsa", "empty2", {}).ok());
  EXPECT_TRUE(store_.Exists("empty2"));
}

TEST_F(GridFtpTest, MissingFileIsNotFound) {
  GridFtpClient client(rpc_.get());
  EXPECT_EQ(client.Download("gftp.ncsa", "nope").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(GridFtpTest, ChunkRetriesRideOutTransientLoss) {
  const Bytes content = RandomContent(200'000, 3);
  store_.Put("flaky.bin", content);
  // 10% random loss on both directions.
  net::LinkModel lossy;
  lossy.drop_probability = 0.10;
  network_.SetLink("client", "gftp.ncsa", lossy);
  network_.SetLink("gftp.ncsa", "client", lossy);

  TransferOptions options;
  options.chunk_retries = 10;
  GridFtpClient client(rpc_.get(), options);
  auto downloaded = client.Download("gftp.ncsa", "flaky.bin");
  ASSERT_TRUE(downloaded.ok());
  EXPECT_EQ(*downloaded, content);
  EXPECT_GT(client.last_report().retried_chunks, 0);
}

TEST_F(GridFtpTest, StreamCountAffectsChunkInterleaving) {
  const Bytes content = RandomContent(64 * 1024, 4);
  store_.Put("striped.bin", content);
  for (int streams : {1, 2, 8}) {
    TransferOptions options;
    options.streams = streams;
    options.chunk_bytes = 4096;
    GridFtpClient client(rpc_.get(), options);
    auto downloaded = client.Download("gftp.ncsa", "striped.bin");
    ASSERT_TRUE(downloaded.ok()) << "streams=" << streams;
    EXPECT_EQ(*downloaded, content) << "streams=" << streams;
    EXPECT_EQ(client.last_report().chunks, 16);
  }
}

TEST(GridFtpVirtualTest, StripedStreamsOverlapRoundTripsInModeledTime) {
  // Over a 5 ms one-way WAN in virtual time, the stripe window overlaps the
  // per-chunk round trips: 4 streams finish in fewer modeled microseconds
  // than 1, and the content (checked against its SHA-256) arrives intact.
  const Bytes content = RandomContent(64 * 1024, 5);
  auto transfer_micros = [&](int streams) -> std::int64_t {
    net::Network network(net::DeliveryMode::kVirtual);
    net::LinkModel wan;
    wan.latency_micros = 5'000;
    network.SetDefaultLink(wan);
    FileStore store;
    GridFtpServer server(&network, "gftp.wan", &store);
    EXPECT_TRUE(server.Start().ok());
    net::RpcClient rpc(&network, "client");
    TransferOptions options;
    options.streams = streams;
    options.chunk_bytes = 4096;
    GridFtpClient client(&rpc, options);
    const std::int64_t t0 = network.clock()->NowMicros();
    EXPECT_TRUE(client.Upload("gftp.wan", "f.bin", content).ok()) << streams;
    auto downloaded = client.Download("gftp.wan", "f.bin");
    const std::int64_t elapsed = network.clock()->NowMicros() - t0;
    EXPECT_TRUE(downloaded.ok()) << streams;
    if (downloaded.ok()) {
      EXPECT_EQ(*downloaded, content) << streams;
    }
    EXPECT_EQ(client.last_report().chunks, 16) << streams;
    return elapsed;
  };
  constexpr std::int64_t kRtt = 10'000;
  const std::int64_t one = transfer_micros(1);
  const std::int64_t four = transfer_micros(4);
  // open + 16 chunks + commit, then stat + 16 chunks: one RTT per call.
  EXPECT_EQ(one, (1 + 16 + 1 + 1 + 16) * kRtt);
  // Four stripes: 16 chunks take 4 overlapped round trips each way.
  EXPECT_EQ(four, (1 + 4 + 1 + 1 + 4) * kRtt);
}

TEST_F(GridFtpTest, UploadChecksumMismatchRejected) {
  // Open a transfer claiming one digest, send different bytes: commit fails
  // and nothing is installed.
  util::ByteWriter open_writer;
  open_writer.WriteString("target");
  open_writer.WriteU64(3);
  open_writer.WriteString(ContentDigest({9, 9, 9}));
  auto open_reply = rpc_->Call("gftp.ncsa", "gftp.openWrite",
                               open_writer.Take());
  ASSERT_TRUE(open_reply.ok());
  util::ByteReader open_reader(*open_reply);
  const std::string transfer_id = *open_reader.ReadString();

  util::ByteWriter chunk_writer;
  chunk_writer.WriteString(transfer_id);
  chunk_writer.WriteU64(0);
  chunk_writer.WriteBytes({1, 2, 3});
  ASSERT_TRUE(
      rpc_->Call("gftp.ncsa", "gftp.writeChunk", chunk_writer.Take()).ok());

  util::ByteWriter commit_writer;
  commit_writer.WriteString(transfer_id);
  auto commit =
      rpc_->Call("gftp.ncsa", "gftp.commit", commit_writer.Take());
  EXPECT_EQ(commit.status().code(), ErrorCode::kDataLoss);
  EXPECT_FALSE(store_.Exists("target"));
}

TEST_F(GridFtpTest, ChunkPastDeclaredSizeRejected) {
  util::ByteWriter open_writer;
  open_writer.WriteString("t2");
  open_writer.WriteU64(2);
  open_writer.WriteString(ContentDigest({1, 2}));
  auto open_reply =
      rpc_->Call("gftp.ncsa", "gftp.openWrite", open_writer.Take());
  ASSERT_TRUE(open_reply.ok());
  util::ByteReader reader(*open_reply);
  const std::string transfer_id = *reader.ReadString();

  util::ByteWriter chunk_writer;
  chunk_writer.WriteString(transfer_id);
  chunk_writer.WriteU64(1);
  chunk_writer.WriteBytes({7, 7, 7});  // 1+3 > 2
  EXPECT_EQ(rpc_->Call("gftp.ncsa", "gftp.writeChunk", chunk_writer.Take())
                .status()
                .code(),
            ErrorCode::kOutOfRange);
}

// --- NMDS -----------------------------------------------------------------------

TEST(NmdsTest, PutGetAndVersionHistory) {
  NmdsService nmds;
  MetadataObject object;
  object.id = "most.experiment";
  object.type = "experiment";
  object.fields["title"] = "MOST";
  ASSERT_EQ(*nmds.Put(object, "/O=NEES/CN=spencer"), 1);

  object.fields["title"] = "MOST (revised)";
  ASSERT_EQ(*nmds.Put(object, "/O=NEES/CN=spencer"), 2);

  auto latest = nmds.Get("most.experiment");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->fields.at("title"), "MOST (revised)");
  EXPECT_EQ(latest->version, 2);
  EXPECT_EQ(latest->owner, "/O=NEES/CN=spencer");

  auto v1 = nmds.GetVersion("most.experiment", 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->fields.at("title"), "MOST");
  EXPECT_EQ(nmds.VersionCount("most.experiment"), 2);
  EXPECT_EQ(nmds.GetVersion("most.experiment", 3).status().code(),
            ErrorCode::kOutOfRange);
}

TEST(NmdsTest, PerObjectAuthorization) {
  NmdsService nmds;
  MetadataObject object;
  object.id = "obj";
  object.type = "t";
  ASSERT_TRUE(nmds.Put(object, "alice").ok());

  // Non-owner cannot update.
  EXPECT_EQ(nmds.Put(object, "bob").status().code(),
            ErrorCode::kPermissionDenied);
  // Owner grants write; bob can now update.
  EXPECT_EQ(nmds.GrantWrite("obj", "bob", "carol").code(),
            ErrorCode::kPermissionDenied);  // only owner may grant
  ASSERT_TRUE(nmds.GrantWrite("obj", "alice", "bob").ok());
  EXPECT_TRUE(nmds.Put(object, "bob").ok());
  // Ownership does not transfer.
  EXPECT_EQ(nmds.Get("obj")->owner, "alice");
}

TEST(NmdsTest, SchemasAreFirstClassVersionedObjects) {
  NmdsService nmds;
  MetadataObject schema;
  schema.id = "schema.daq";
  schema.type = "schema";
  schema.fields["field.site"] = "string";
  schema.fields["field.samples"] = "number";
  schema.fields["field.note"] = "optional-string";
  ASSERT_TRUE(nmds.Put(schema, "admin").ok());

  MetadataObject good;
  good.id = "data1";
  good.type = "daq-data";
  good.fields["schema"] = "schema.daq";
  good.fields["site"] = "UIUC";
  good.fields["samples"] = "1500";
  EXPECT_TRUE(nmds.Put(good, "ingest").ok());

  MetadataObject missing_field = good;
  missing_field.id = "data2";
  missing_field.fields.erase("site");
  EXPECT_EQ(nmds.Put(missing_field, "ingest").status().code(),
            ErrorCode::kFailedPrecondition);

  MetadataObject bad_number = good;
  bad_number.id = "data3";
  bad_number.fields["samples"] = "lots";
  EXPECT_EQ(nmds.Put(bad_number, "ingest").status().code(),
            ErrorCode::kFailedPrecondition);

  // Evolve the schema (new version relaxes nothing, adds a field) — the
  // schema object itself is versioned like any other.
  schema.fields["field.units"] = "optional-string";
  ASSERT_EQ(*nmds.Put(schema, "admin"), 2);
  EXPECT_EQ(nmds.VersionCount("schema.daq"), 2);

  // Validation uses the latest schema version.
  MetadataObject with_units = good;
  with_units.id = "data4";
  with_units.fields["units"] = "m";
  EXPECT_TRUE(nmds.Put(with_units, "ingest").ok());
}

TEST(NmdsTest, UnknownSchemaRejected) {
  NmdsService nmds;
  MetadataObject object;
  object.id = "x";
  object.type = "t";
  object.fields["schema"] = "schema.none";
  EXPECT_EQ(nmds.Put(object, "a").status().code(), ErrorCode::kNotFound);
}

TEST(NmdsTest, QueryByType) {
  NmdsService nmds;
  for (int i = 0; i < 3; ++i) {
    MetadataObject object;
    object.id = "d" + std::to_string(i);
    object.type = i < 2 ? "daq-data" : "experiment";
    ASSERT_TRUE(nmds.Put(object, "a").ok());
  }
  EXPECT_EQ(nmds.Query("daq-data").size(), 2u);
  EXPECT_EQ(nmds.Query("").size(), 3u);
}

TEST(NmdsTest, RpcSurfaceCarriesSubject) {
  net::Network network;
  net::RpcServer server(&network, "repo.nmds");
  ASSERT_TRUE(server.Start().ok());
  server.SetAuthenticator(
      [](const std::string& token, const std::string&)
          -> util::Result<std::string> { return token; });  // token = subject
  NmdsService nmds;
  nmds.BindRpc(server);

  net::RpcClient alice_rpc(&network, "alice.rpc");
  alice_rpc.SetAuthToken("alice");
  NmdsClient alice(&alice_rpc, "repo.nmds");
  MetadataObject object;
  object.id = "remote.obj";
  object.type = "t";
  ASSERT_TRUE(alice.Put(object).ok());

  net::RpcClient bob_rpc(&network, "bob.rpc");
  bob_rpc.SetAuthToken("bob");
  NmdsClient bob(&bob_rpc, "repo.nmds");
  EXPECT_EQ(bob.Put(object).status().code(), ErrorCode::kPermissionDenied);
  auto fetched = bob.Get("remote.obj");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->owner, "alice");
}

// --- NFMS -----------------------------------------------------------------------

class NfmsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<net::RpcServer>(&network_, "repo.nfms");
    ASSERT_TRUE(server_->Start().ok());
    nfms_.BindRpc(*server_);
    gftp_server_ = std::make_unique<GridFtpServer>(&network_, "gftp.repo",
                                                   &store_);
    ASSERT_TRUE(gftp_server_->Start().ok());
    rpc_ = std::make_unique<net::RpcClient>(&network_, "app");
  }

  FileEntry MakeEntry(const std::string& logical, const Bytes& content) {
    store_.Put("phys/" + logical, content);
    FileEntry entry;
    entry.logical_name = logical;
    entry.server_endpoint = "gftp.repo";
    entry.physical_path = "phys/" + logical;
    entry.size_bytes = content.size();
    entry.sha256hex = ContentDigest(content);
    return entry;
  }

  net::Network network_;
  NfmsService nfms_;
  FileStore store_;
  std::unique_ptr<net::RpcServer> server_;
  std::unique_ptr<GridFtpServer> gftp_server_;
  std::unique_ptr<net::RpcClient> rpc_;
};

TEST_F(NfmsTest, NegotiateAndFetchThroughPlugin) {
  const Bytes content = RandomContent(10'000, 5);
  nfms_.RegisterFile(MakeEntry("most/data.csv", content));

  NfmsClient client(rpc_.get(), "repo.nfms");
  client.RegisterTransport(std::make_unique<GridFtpTransport>(rpc_.get()));
  auto fetched = client.Fetch("most/data.csv");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, content);
}

TEST_F(NfmsTest, UnknownLogicalNameFails) {
  NfmsClient client(rpc_.get(), "repo.nfms");
  client.RegisterTransport(std::make_unique<GridFtpTransport>(rpc_.get()));
  EXPECT_EQ(client.Fetch("nope").status().code(), ErrorCode::kNotFound);
}

TEST_F(NfmsTest, NegotiationRejectsUnsupportedProtocol) {
  nfms_.RegisterFile(MakeEntry("f", {1}));
  auto ticket = nfms_.Negotiate("f", {"carrier-pigeon"});
  EXPECT_EQ(ticket.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(nfms_.Negotiate("f", {"gridftp-sim"}).ok());
  EXPECT_TRUE(nfms_.Negotiate("f", {}).ok());
}

TEST_F(NfmsTest, TransportPluginApiAllowsAlternateProtocols) {
  // A custom in-memory transport demonstrates the plug-in API.
  class LoopbackTransport final : public TransportPlugin {
   public:
    explicit LoopbackTransport(FileStore* store) : store_(store) {}
    util::Result<Bytes> Fetch(const TransferTicket& ticket) override {
      return store_->Get(ticket.physical_path);
    }
    util::Status Store(const TransferTicket& ticket,
                       const Bytes& content) override {
      store_->Put(ticket.physical_path, content);
      return util::OkStatus();
    }
    std::string_view protocol() const override { return "loopback"; }

   private:
    FileStore* store_;
  };

  FileEntry entry = MakeEntry("alt", {42});
  entry.protocol = "loopback";
  nfms_.RegisterFile(entry);

  NfmsClient client(rpc_.get(), "repo.nfms");
  client.RegisterTransport(std::make_unique<LoopbackTransport>(&store_));
  auto fetched = client.Fetch("alt");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, Bytes{42});
}

TEST_F(NfmsTest, ListByPrefix) {
  nfms_.RegisterFile(MakeEntry("most/a", {1}));
  nfms_.RegisterFile(MakeEntry("most/b", {2}));
  nfms_.RegisterFile(MakeEntry("mini/c", {3}));
  NfmsClient client(rpc_.get(), "repo.nfms");
  auto listed = client.List("most/");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);
}

// --- Facade / ingestion / https bridge ----------------------------------------------

class FacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    facade_ = std::make_unique<RepositoryFacade>(&network_, "repo.ncsa");
    ASSERT_TRUE(facade_->Start().ok());
    rpc_ = std::make_unique<net::RpcClient>(&network_, "tool");
  }

  net::Network network_;
  std::unique_ptr<RepositoryFacade> facade_;
  std::unique_ptr<net::RpcClient> rpc_;
};

TEST_F(FacadeTest, IngestThenFetch) {
  const Bytes content = RandomContent(5000, 6);
  ASSERT_TRUE(facade_
                  ->Ingest("most/run1.csv", content, "daq-data",
                           {{"site", "UIUC"}})
                  .ok());
  auto fetched = facade_->Fetch("most/run1.csv");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, content);

  auto metadata = facade_->nmds().Get("file:most/run1.csv");
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(metadata->fields.at("site"), "UIUC");
  EXPECT_EQ(metadata->fields.at("sha256"), ContentDigest(content));
}

TEST_F(FacadeTest, IngestionToolUploadsDaqDropFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "nees-ingest";
  std::filesystem::remove_all(dir);
  daq::DaqSystem daq;
  daq.AddChannel({"uiuc.lvdt", "m", 100.0});
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(daq.Record("uiuc.lvdt", i, i).ok());
  ASSERT_TRUE(daq.Flush(dir, "most").ok());

  IngestionTool tool(rpc_.get(), "repo.ncsa", "most", "uiuc");
  daq::Harvester harvester(
      dir, [&](const std::filesystem::path& file,
               const std::vector<nsds::DataSample>& samples) {
        return tool.IngestDropFile(file, samples);
      });
  ASSERT_EQ(*harvester.ScanOnce(), 1);
  EXPECT_EQ(tool.files_ingested(), 1u);

  // The file and its metadata are in the repository.
  auto files = facade_->nfms().List("most/daq/uiuc/");
  ASSERT_EQ(files.size(), 1u);
  auto fetched = facade_->Fetch(files[0].logical_name);
  ASSERT_TRUE(fetched.ok());
  auto metadata = facade_->nmds().Get("file:" + files[0].logical_name);
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(metadata->fields.at("samples"), "20");
  EXPECT_EQ(metadata->fields.at("experiment"), "most");
  std::filesystem::remove_all(dir);
}

TEST_F(FacadeTest, HttpsBridgeFetchesLogicalFiles) {
  const Bytes content = RandomContent(2000, 7);
  ASSERT_TRUE(facade_->Ingest("most/web.csv", content, "daq-data", {}).ok());

  HttpsBridge bridge(&network_, "https.nees", "repo.ncsa");
  ASSERT_TRUE(bridge.Start().ok());

  net::RpcClient browser(&network_, "browser");
  auto fetched = HttpsGet(&browser, "https.nees", "most/web.csv");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, content);

  EXPECT_EQ(HttpsGet(&browser, "https.nees", "missing").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(FacadeTest, FetchDetectsCorruptedStore) {
  const Bytes content = RandomContent(100, 8);
  ASSERT_TRUE(facade_->Ingest("f", content, "t", {}).ok());
  // Corrupt the stored bytes behind the facade's back.
  Bytes tampered = content;
  tampered[0] ^= 0xFF;
  facade_->store().Put("files/f", tampered);
  EXPECT_EQ(facade_->Fetch("f").status().code(), ErrorCode::kDataLoss);
}

}  // namespace
}  // namespace nees::repo
