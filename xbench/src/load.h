#ifndef XBENCH_LOAD_H_
#define XBENCH_LOAD_H_

// Load generation over real loopback TCP connections (TcpClient): closed
// loops of readers and an open-loop writer, recording one Sample per
// attempted request.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

namespace xbench {

/// One attempted request as the client saw it. Times are steady-clock
/// nanoseconds (NowNanos). For closed-loop requests `due_ns` equals
/// `send_ns`; for open-loop ones it is the scheduled send time, and the
/// request's latency counts from it.
struct Sample {
  uint64_t id = 0;
  /// Index of the request body in the workload's body list (-1 = none).
  int64_t slot = -1;
  /// Reader connection index; -1 for the open-loop writer.
  int conn = 0;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  Outcome outcome = Outcome::kOk;
  /// The response line (kept only when the load asked to capture it).
  std::string response;

  double latency_ms() const {
    return static_cast<double>(recv_ns - due_ns) / 1e6;
  }
};

/// Client socket knobs shared by every load connection.
struct LoadOptions {
  /// A response slower than this counts as timed out (and the connection
  /// is re-dialed).
  int recv_timeout_ms = 30000;
  /// Keep every response line in its Sample.
  bool capture = false;
  /// When set, each round trip is also recorded here as a "client.rtt"
  /// span (the traced run's client-side spans).
  SpanLog* spans = nullptr;
};

/// The next request of a closed-loop connection: its body and slot.
struct Pick {
  std::string body;
  int64_t slot = -1;
};

/// Runs `connections` closed-loop clients against 127.0.0.1:`port`, each
/// sending its next request (from `next`, called with the connection
/// index) only after the previous response arrived, until `end_ns`.
/// Requests take ids from `ids`. Returns every attempted request.
std::vector<Sample> RunClosedLoop(int port, int connections, int64_t end_ns,
                                  const std::function<Pick(int conn)>& next,
                                  std::atomic<uint64_t>* ids,
                                  const LoadOptions& options);

/// Runs one open-loop writer connection: request i is due at
/// `first_due_ns + i * period_ns` and is sent then (or as soon as the
/// previous response arrived, if that is later), for every due time before
/// `end_ns` and at most `max_count` requests. `next_body(i, last)` builds
/// request i from the previous response line (empty for i == 0).
std::vector<Sample> RunOpenLoop(
    int port, int64_t first_due_ns, int64_t period_ns, int64_t end_ns,
    size_t max_count,
    const std::function<std::string(size_t i, const std::string& last)>&
        next_body,
    std::atomic<uint64_t>* ids, const LoadOptions& options);

/// Sends each body once, spread over `connections` closed-loop clients
/// (used for warm-up and for post-run read passes). Samples are returned
/// in body order.
std::vector<Sample> RunEach(int port, int connections,
                            const std::vector<std::string>& bodies,
                            std::atomic<uint64_t>* ids,
                            const LoadOptions& options);

}  // namespace xbench

#endif  // XBENCH_LOAD_H_
