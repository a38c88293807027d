#include "repo/gridftp.h"

#include <algorithm>
#include <limits>

#include "util/sha256.h"

namespace nees::repo {

std::string ContentDigest(const Bytes& content) {
  return util::ToHex(util::Sha256::Hash(content));
}

GridFtpServer::GridFtpServer(net::Network* network, std::string endpoint,
                             FileStore* store)
    : rpc_server_(network, std::move(endpoint)), store_(store) {}

util::Status GridFtpServer::Start() {
  NEES_RETURN_IF_ERROR(rpc_server_.Start());
  rpc_server_.RegisterMethod(
      "gftp.stat",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string path, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(Bytes content, store_->Get(path));
        util::ByteWriter writer;
        writer.WriteU64(content.size());
        writer.WriteString(ContentDigest(content));
        return writer.Take();
      });
  rpc_server_.RegisterMethod(
      "gftp.read",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string path, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint64_t offset, reader.ReadU64());
        NEES_ASSIGN_OR_RETURN(std::uint64_t length, reader.ReadU64());
        NEES_ASSIGN_OR_RETURN(Bytes content, store_->Get(path));
        if (offset > content.size()) {
          return util::OutOfRange("read past end of file");
        }
        const std::size_t take =
            std::min<std::size_t>(length, content.size() - offset);
        util::ByteWriter writer;
        writer.WriteBytes(
            Bytes(content.begin() + offset, content.begin() + offset + take));
        return writer.Take();
      });
  rpc_server_.RegisterMethod(
      "gftp.openWrite",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string path, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint64_t size, reader.ReadU64());
        NEES_ASSIGN_OR_RETURN(std::string digest, reader.ReadString());
        util::MutexLock lock(mu_);
        const std::string id = "xfer-" + std::to_string(next_transfer_id_++);
        PendingUpload upload;
        upload.path = path;
        upload.sha256hex = digest;
        upload.buffer.resize(size);
        uploads_[id] = std::move(upload);
        util::ByteWriter writer;
        writer.WriteString(id);
        return writer.Take();
      });
  rpc_server_.RegisterMethod(
      "gftp.writeChunk",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
        NEES_ASSIGN_OR_RETURN(std::uint64_t offset, reader.ReadU64());
        NEES_ASSIGN_OR_RETURN(Bytes chunk, reader.ReadBytes());
        util::MutexLock lock(mu_);
        auto it = uploads_.find(id);
        if (it == uploads_.end()) {
          return util::NotFound("unknown transfer: " + id);
        }
        if (offset + chunk.size() > it->second.buffer.size()) {
          return util::OutOfRange("chunk past declared size");
        }
        std::copy(chunk.begin(), chunk.end(),
                  it->second.buffer.begin() + offset);
        it->second.received += chunk.size();
        return net::Bytes{};
      });
  rpc_server_.RegisterMethod(
      "gftp.commit",
      [this](const net::CallContext&,
             const net::Bytes& body) -> util::Result<net::Bytes> {
        util::ByteReader reader(body);
        NEES_ASSIGN_OR_RETURN(std::string id, reader.ReadString());
        PendingUpload upload;
        {
          util::MutexLock lock(mu_);
          auto it = uploads_.find(id);
          if (it == uploads_.end()) {
            return util::NotFound("unknown transfer: " + id);
          }
          upload = std::move(it->second);
          uploads_.erase(it);
        }
        if (ContentDigest(upload.buffer) != upload.sha256hex) {
          return util::DataLoss("upload checksum mismatch for " + upload.path);
        }
        store_->Put(upload.path, std::move(upload.buffer));
        return net::Bytes{};
      });
  return util::OkStatus();
}

void GridFtpServer::Stop() { rpc_server_.Stop(); }

std::size_t GridFtpServer::pending_uploads() const {
  util::MutexLock lock(mu_);
  return uploads_.size();
}

GridFtpClient::GridFtpClient(net::RpcClient* rpc, TransferOptions options)
    : rpc_(rpc), options_(options) {}

util::Result<net::Bytes> GridFtpClient::CallChunked(const std::string& server,
                                                    const std::string& method,
                                                    const net::Bytes& body) {
  util::Status last = util::Internal("chunk retry loop did not run");
  for (int attempt = 0; attempt <= options_.chunk_retries; ++attempt) {
    auto result =
        rpc_->Call(server, method, body, options_.rpc_timeout_micros);
    if (result.ok()) {
      if (attempt > 0) ++retried_;
      return result;
    }
    last = result.status();
    if (!last.transient()) return last;
  }
  return last;
}

util::Status GridFtpClient::RunChunks(
    const std::string& server, const std::string& method, std::size_t count,
    const std::function<net::Bytes(std::size_t index)>& request,
    const std::function<util::Status(std::size_t index, net::Bytes reply)>&
        consume) {
  struct InFlight {
    std::size_t index;
    int attempt;
    net::RpcClient::AsyncCall call;
  };
  const std::size_t window =
      static_cast<std::size_t>(std::max(options_.streams, 1));
  const net::MethodId method_id(method);
  std::vector<InFlight> in_flight;
  std::vector<net::RpcClient::AsyncCall*> handles;
  auto issue = [&](std::size_t index, int attempt) {
    in_flight.push_back({index, attempt,
                         rpc_->CallAsync(server, method_id, request(index),
                                         options_.rpc_timeout_micros)});
  };
  util::Status first_error;
  std::size_t next = 0;
  for (;;) {
    while (first_error.ok() && next < count && in_flight.size() < window) {
      issue(next++, 0);
    }
    if (in_flight.empty()) return first_error;
    handles.clear();
    for (InFlight& entry : in_flight) handles.push_back(&entry.call);
    rpc_->WaitAnyUntil(handles, std::numeric_limits<std::int64_t>::max());
    // Harvest every resolved call in issue order. A retry is appended to
    // the window, so a kImmediate reissue (resolved inline) is harvested in
    // this same pass.
    for (std::size_t i = 0; i < in_flight.size();) {
      util::Result<net::Bytes> result = util::Internal("unresolved");
      if (!in_flight[i].call.TryResolve(&result)) {
        ++i;
        continue;
      }
      const std::size_t index = in_flight[i].index;
      const int attempt = in_flight[i].attempt;
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
      util::Status status = result.status();
      if (status.ok()) {
        status = consume(index, *std::move(result));
        if (status.ok()) {
          ++chunks_;
          if (attempt > 0) ++retried_;
        }
      } else if (status.transient() && attempt < options_.chunk_retries &&
                 first_error.ok()) {
        issue(index, attempt + 1);
        continue;
      }
      if (!status.ok() && first_error.ok()) first_error = status;
    }
  }
}

util::Result<Bytes> GridFtpClient::Download(const std::string& server,
                                            const std::string& path) {
  last_report_ = {};
  chunks_ = 0;
  retried_ = 0;
  util::ByteWriter stat_writer;
  stat_writer.WriteString(path);
  NEES_ASSIGN_OR_RETURN(net::Bytes stat_reply,
                        CallChunked(server, "gftp.stat", stat_writer.Take()));
  util::ByteReader stat_reader(stat_reply);
  NEES_ASSIGN_OR_RETURN(std::uint64_t size, stat_reader.ReadU64());
  NEES_ASSIGN_OR_RETURN(std::string digest, stat_reader.ReadString());

  Bytes content(size);
  const std::size_t chunk = options_.chunk_bytes;
  const std::size_t total_chunks = size == 0 ? 0 : (size + chunk - 1) / chunk;

  // Stripe the chunks through the async window: over a latency-bearing WAN
  // the per-chunk round trips overlap, which is exactly why GridFTP
  // stripes transfers.
  auto read_request = [&](std::size_t index) {
    const std::size_t offset = index * chunk;
    util::ByteWriter read_writer;
    read_writer.WriteString(path);
    read_writer.WriteU64(offset);
    read_writer.WriteU64(std::min(chunk, size - offset));
    return read_writer.Take();
  };
  auto store_piece = [&](std::size_t index,
                         net::Bytes reply) -> util::Status {
    const std::size_t offset = index * chunk;
    util::ByteReader reply_reader(reply);
    NEES_ASSIGN_OR_RETURN(Bytes piece, reply_reader.ReadBytes());
    if (piece.size() != std::min(chunk, size - offset)) {
      return util::DataLoss("short read at offset " + std::to_string(offset));
    }
    std::copy(piece.begin(), piece.end(), content.begin() + offset);
    return util::OkStatus();
  };
  NEES_RETURN_IF_ERROR(
      RunChunks(server, "gftp.read", total_chunks, read_request, store_piece));
  last_report_.bytes = content.size();
  last_report_.chunks = chunks_;
  last_report_.retried_chunks = retried_;

  if (ContentDigest(content) != digest) {
    return util::DataLoss("download checksum mismatch for " + path);
  }
  return content;
}

util::Status GridFtpClient::Upload(const std::string& server,
                                   const std::string& path,
                                   const Bytes& content) {
  last_report_ = {};
  chunks_ = 0;
  retried_ = 0;
  util::ByteWriter open_writer;
  open_writer.WriteString(path);
  open_writer.WriteU64(content.size());
  open_writer.WriteString(ContentDigest(content));
  NEES_ASSIGN_OR_RETURN(
      net::Bytes open_reply,
      CallChunked(server, "gftp.openWrite", open_writer.Take()));
  util::ByteReader open_reader(open_reply);
  NEES_ASSIGN_OR_RETURN(std::string transfer_id, open_reader.ReadString());

  const std::size_t chunk = options_.chunk_bytes;
  const std::size_t total_chunks =
      content.empty() ? 0 : (content.size() + chunk - 1) / chunk;
  auto write_request = [&](std::size_t index) {
    const std::size_t offset = index * chunk;
    const std::size_t take = std::min(chunk, content.size() - offset);
    util::ByteWriter chunk_writer;
    chunk_writer.WriteString(transfer_id);
    chunk_writer.WriteU64(offset);
    chunk_writer.WriteBytes(Bytes(content.begin() + offset,
                                  content.begin() + offset + take));
    return chunk_writer.Take();
  };
  NEES_RETURN_IF_ERROR(RunChunks(
      server, "gftp.writeChunk", total_chunks, write_request,
      [](std::size_t, net::Bytes) { return util::OkStatus(); }));
  last_report_.bytes = content.size();
  last_report_.chunks = chunks_;
  last_report_.retried_chunks = retried_;

  util::ByteWriter commit_writer;
  commit_writer.WriteString(transfer_id);
  return CallChunked(server, "gftp.commit", commit_writer.Take()).status();
}

}  // namespace nees::repo
