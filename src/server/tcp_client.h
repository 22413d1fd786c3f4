#ifndef XPLAIN_SERVER_TCP_CLIENT_H_
#define XPLAIN_SERVER_TCP_CLIENT_H_

#include <string>
#include <utility>

#include "util/result.h"

namespace xplain {
namespace server {

/// Timeout knobs for TcpClient. Timeouts surface as kUnavailable (the
/// retryable class), never kInternal.
/// Thread-safety: plain data, externally synchronized.
struct TcpClientOptions {
  /// Milliseconds to wait for connect(2); 0 = the OS default (blocking).
  int connect_timeout_ms = 10000;
  /// Milliseconds to wait for each recv(2) while reading a response; 0 =
  /// block indefinitely.
  int recv_timeout_ms = 0;
};

/// Bounded reconnect policy for ConnectWithRetry / Reconnect: up to
/// `max_attempts` dials, sleeping `backoff_ms << (attempt-1)` between them
/// (exponential, capped at `max_backoff_ms`). Only kUnavailable failures
/// retry — anything else (bad address, internal errors) fails immediately.
/// Thread-safety: plain data, externally synchronized.
struct RetryOptions {
  int max_attempts = 3;
  int backoff_ms = 50;
  int max_backoff_ms = 2000;
};

/// A blocking newline-delimited-JSON client for xplaind's TCP transport.
/// Call sends one request line and reads back one response line; the
/// Send/ReadResponse split supports pipelining — many requests written
/// before the first response is read, with responses returned in request
/// order (the server's per-connection ordering guarantee). Used by
/// tools/xplain_client, the TCP tests, and xbench's load generator.
///
/// All socket calls retry on EINTR. Connect and read timeouts map to
/// Status::Unavailable so callers can distinguish "server slow or gone"
/// (retryable) from protocol failures.
///
/// Thread-safety: each TcpClient is used by one thread (one in-order
/// request/response stream per connection); open one client per thread.
class TcpClient {
 public:
  /// Connects to host:port (host is a dotted-quad, e.g. "127.0.0.1").
  /// Times out with kUnavailable after options.connect_timeout_ms.
  [[nodiscard]] static Result<TcpClient> Connect(
      const std::string& host, int port,
      const TcpClientOptions& options = TcpClientOptions());

  /// Connect with the bounded backoff policy of `retry`: retries
  /// kUnavailable dial failures (server not up yet, connect timeout) and
  /// returns the last failure when attempts run out. Shared by
  /// xplain_client --connect-retries and the cluster coordinator
  /// (DESIGN.md §13).
  [[nodiscard]] static Result<TcpClient> ConnectWithRetry(
      const std::string& host, int port,
      const TcpClientOptions& options = TcpClientOptions(),
      const RetryOptions& retry = RetryOptions());

  /// Drops the current socket (if any) and re-dials the endpoint this
  /// client was connected to, with the same options and `retry` policy.
  /// Any pipelined-but-unread responses are lost — callers resend their
  /// in-flight requests after a successful Reconnect.
  [[nodiscard]] Status Reconnect(const RetryOptions& retry = RetryOptions());

  const std::string& host() const { return host_; }
  int port() const { return port_; }

  ~TcpClient();

  TcpClient(TcpClient&& other) noexcept
      : fd_(other.fd_),
        buffer_(std::move(other.buffer_)),
        host_(std::move(other.host_)),
        port_(other.port_),
        options_(other.options_) {
    other.fd_ = -1;
    other.buffer_.clear();
  }
  TcpClient& operator=(TcpClient&& other) noexcept {
    std::swap(fd_, other.fd_);
    std::swap(buffer_, other.buffer_);
    std::swap(host_, other.host_);
    std::swap(port_, other.port_);
    std::swap(options_, other.options_);
    return *this;
  }
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Sends `line` (a newline is appended) without waiting for a response.
  /// Pipelining: any number of Sends may precede the matching
  /// ReadResponse calls.
  [[nodiscard]] Status Send(const std::string& line);

  /// Blocks for the next response line, in request order. Fails with
  /// kUnavailable on a read timeout and kInternal when the server closes
  /// the connection mid-stream.
  [[nodiscard]] Result<std::string> ReadResponse();

  /// Send + ReadResponse: one synchronous request/response round trip.
  [[nodiscard]] Result<std::string> Call(const std::string& line);

 private:
  explicit TcpClient(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;  // bytes received past the last response line
  // The dialed endpoint, remembered for Reconnect.
  std::string host_;
  int port_ = 0;
  TcpClientOptions options_;
};

}  // namespace server
}  // namespace xplain

#endif  // XPLAIN_SERVER_TCP_CLIENT_H_
