// GridFTP-sim: secure, checksummed, multi-stream file transport over the
// simulated network — the reproduction's stand-in for GridFTP [3], which
// the NEESgrid repository used for all file movement (§2.3, §3.2).
//
// The protocol is pull/push in fixed-size chunks. A logical transfer is
// striped across up to `streams` outstanding chunk calls (an async window
// on one RpcClient); over a latency-bearing link their round trips overlap,
// which models GridFTP's parallel-stream behaviour (bench E3 sweeps stream
// count in modeled time). Every completed transfer is verified against its
// SHA-256 digest; a mismatch fails with kDataLoss.
//
// RPC surface:
//   gftp.stat        {path} -> {size, sha256hex}
//   gftp.read        {path, offset, length} -> bytes
//   gftp.openWrite   {path, size, sha256hex} -> {transfer_id}
//   gftp.writeChunk  {transfer_id, offset, bytes} -> {}
//   gftp.commit      {transfer_id} -> {}    (verifies checksum, installs)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "util/mutex.h"

#include "net/rpc.h"
#include "repo/filestore.h"
#include "util/result.h"

namespace nees::repo {

class GridFtpServer {
 public:
  GridFtpServer(net::Network* network, std::string endpoint,
                FileStore* store);

  util::Status Start();
  void Stop();

  const std::string& endpoint() const { return rpc_server_.endpoint(); }
  net::RpcServer& rpc() { return rpc_server_; }

  /// Incomplete uploads currently buffered.
  std::size_t pending_uploads() const;

 private:
  struct PendingUpload {
    std::string path;
    std::string sha256hex;
    Bytes buffer;
    std::size_t received = 0;
  };

  net::RpcServer rpc_server_;
  FileStore* store_;
  mutable util::Mutex mu_{"repo.GridFtpServer"};
  std::map<std::string, PendingUpload> uploads_;
  std::uint64_t next_transfer_id_ = 1;
};

struct TransferOptions {
  std::size_t chunk_bytes = 16 * 1024;
  int streams = 4;           // outstanding chunk calls (the stripe window)
  int chunk_retries = 3;     // transient-failure retries per chunk
  std::int64_t rpc_timeout_micros = 5'000'000;
};

struct TransferReport {
  std::size_t bytes = 0;
  int chunks = 0;
  int retried_chunks = 0;
};

class GridFtpClient {
 public:
  GridFtpClient(net::RpcClient* rpc, TransferOptions options = {});

  /// Downloads a remote file, verifying its checksum.
  util::Result<Bytes> Download(const std::string& server,
                               const std::string& path);

  /// Uploads and commits; the server verifies the checksum before install.
  util::Status Upload(const std::string& server, const std::string& path,
                      const Bytes& content);

  const TransferReport& last_report() const { return last_report_; }

 private:
  util::Result<net::Bytes> CallChunked(const std::string& server,
                                       const std::string& method,
                                       const net::Bytes& body);
  /// Sends chunk calls 0..count-1 to `method` through a window of at most
  /// options_.streams outstanding CallAsync calls, harvested with
  /// WaitAnyUntil: under kVirtual the stripes' round trips overlap in
  /// modeled time; under kImmediate the window resolves in issue order. A
  /// transient failure re-issues the same chunk, up to chunk_retries times.
  /// `request(index)` builds a chunk's body and `consume(index, reply)`
  /// takes a successful answer. After the first error no new chunk is
  /// issued; the error is returned once the window has drained.
  util::Status RunChunks(
      const std::string& server, const std::string& method,
      std::size_t count,
      const std::function<net::Bytes(std::size_t index)>& request,
      const std::function<util::Status(std::size_t index, net::Bytes reply)>&
          consume);

  net::RpcClient* rpc_;
  TransferOptions options_;
  TransferReport last_report_;
  int chunks_ = 0;
  int retried_ = 0;
};

/// Lowercase hex SHA-256 of a byte buffer (shared by client and server).
std::string ContentDigest(const Bytes& content);

}  // namespace nees::repo
