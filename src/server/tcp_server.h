#ifndef XPLAIN_SERVER_TCP_SERVER_H_
#define XPLAIN_SERVER_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "server/request_shell.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace xplain {
namespace server {

class Reactor;

/// Transport knobs for TcpServer.
/// Thread-safety: plain data, externally synchronized.
struct TcpServerOptions {
  /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port (read
  /// it back via port()).
  int port = 0;
  /// listen(2) backlog.
  int backlog = 64;
  /// Epoll event-loop threads sharing the connection load; 0 = hardware
  /// concurrency. Accepted connections are sharded round-robin.
  int num_reactors = 0;
  /// Request lines longer than this get an ok:false response (the
  /// connection survives).
  size_t max_line_bytes = 1 << 20;
  /// Per-connection buffered-write budget before the reactor applies read
  /// backpressure (stops reading until the peer drains responses).
  size_t max_write_buffer_bytes = 4 << 20;
  /// Grace period for flushing buffered responses on Stop.
  int stop_flush_timeout_ms = 5000;
};

/// A non-blocking newline-delimited-JSON listener on 127.0.0.1: one accept
/// thread shards incoming connections round-robin across N epoll reactor
/// threads (server/reactor.h), each running a per-connection read/write
/// state machine that frames pipelined NDJSON requests, dispatches them to
/// the LineService (an xplaind engine or a cluster coordinator) without
/// ever blocking on the handler, and writes
/// responses back in request order per connection (DESIGN.md §8).
///
/// Lifecycle: Start binds, listens, and spawns the acceptor + reactors;
/// Stop (or the destructor) closes the listener, flushes buffered
/// responses (bounded grace), closes every connection, and joins all
/// transport threads. The referenced service must outlive the server.
///
/// Thread-safety: safe — port() and Stop() may be called from any thread;
/// Stop is idempotent.
class TcpServer {
 public:
  /// Binds 127.0.0.1:port, starts listening, and spawns the acceptor and
  /// reactor threads. Does not take ownership of `service`.
  [[nodiscard]] static Result<std::unique_ptr<TcpServer>> Start(
      LineService* service, const TcpServerOptions& options);

  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolves port 0 to the kernel's choice).
  int port() const { return port_; }

  /// Open connections across all reactors (also published as the
  /// server.connections_active gauge).
  int64_t active_connections() const {
    return active_connections_->load(std::memory_order_relaxed);
  }

  /// Closes the listener, drains buffered responses (bounded by
  /// stop_flush_timeout_ms), closes every open connection, and joins the
  /// acceptor and reactor threads. Idempotent.
  void Stop();

 private:
  TcpServer(LineService* service, int listen_fd, int port);

  void AcceptLoop();

  LineService* service_;
  int listen_fd_;
  int port_;

  std::shared_ptr<std::atomic<int64_t>> active_connections_;
  std::vector<std::shared_ptr<Reactor>> reactors_;
  size_t next_reactor_ = 0;  // acceptor thread only (round-robin shard)

  std::thread accept_thread_;
  Mutex mu_;
  bool stopping_ XPLAIN_GUARDED_BY(mu_) = false;
};

}  // namespace server
}  // namespace xplain

#endif  // XPLAIN_SERVER_TCP_SERVER_H_
