#include "load.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "questions.h"
#include "server/tcp_client.h"

namespace xbench {

namespace {

using xplain::server::TcpClient;

TcpClient Dial(int port, const LoadOptions& options) {
  xplain::server::TcpClientOptions client_options;
  client_options.recv_timeout_ms = options.recv_timeout_ms;
  return Check(TcpClient::ConnectWithRetry("127.0.0.1", port, client_options),
               "connect to 127.0.0.1:" + std::to_string(port));
}

/// One request/response round trip. Fills the sample's send/recv times,
/// outcome and (when kept) response. A transport failure re-dials, since
/// a late response could otherwise be read as the next request's.
void RoundTrip(TcpClient* client, const std::string& line,
               const LoadOptions& options, bool keep, Sample* sample) {
  sample->send_ns = NowNanos();
  const xplain::Status sent = client->Send(line);
  xplain::Result<std::string> response =
      sent.ok() ? client->ReadResponse() : xplain::Result<std::string>(sent);
  sample->recv_ns = NowNanos();
  if (options.spans != nullptr) {
    options.spans->Record("client.rtt", sample->id, sample->send_ns / 1000,
                          sample->recv_ns / 1000,
                          static_cast<uint32_t>(sample->conn + 1));
  }
  if (response.ok()) {
    sample->outcome = ClassifyResponse(*response);
    if (keep) sample->response = *std::move(response);
    return;
  }
  sample->outcome = ClassifyTransportFailure(response.status());
  // A failed re-dial leaves the client disconnected: its next Send fails
  // at once and counts as refused, and the next round trip dials again.
  const xplain::Status redialed = client->Reconnect();
  (void)redialed;
}

/// Runs `body(c)` on `n` threads, joins them all, and rethrows the first
/// failure.
void RunThreads(int n, const std::function<void(int)>& body) {
  std::vector<std::string> errors(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&body, &errors, c] {
      try {
        body(c);
      } catch (const std::exception& e) {
        errors[static_cast<size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw BenchError(error);
  }
}

}  // namespace

std::vector<Sample> RunClosedLoop(int port, int connections, int64_t end_ns,
                                  const std::function<Pick(int conn)>& next,
                                  std::atomic<uint64_t>* ids,
                                  const LoadOptions& options) {
  std::vector<std::vector<Sample>> per_conn(static_cast<size_t>(connections));
  RunThreads(connections, [&](int c) {
    TcpClient client = Dial(port, options);
    std::vector<Sample>& out = per_conn[static_cast<size_t>(c)];
    while (NowNanos() < end_ns) {
      Pick pick = next(c);
      Sample sample;
      sample.id = ids->fetch_add(1);
      sample.slot = pick.slot;
      sample.conn = c;
      RoundTrip(&client, MakeLine(sample.id, pick.body), options,
                options.capture, &sample);
      sample.due_ns = sample.send_ns;
      out.push_back(std::move(sample));
    }
  });
  std::vector<Sample> all;
  for (std::vector<Sample>& samples : per_conn) {
    for (Sample& s : samples) all.push_back(std::move(s));
  }
  std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
    return a.send_ns < b.send_ns;
  });
  return all;
}

std::vector<Sample> RunOpenLoop(
    int port, int64_t first_due_ns, int64_t period_ns, int64_t end_ns,
    size_t max_count,
    const std::function<std::string(size_t i, const std::string& last)>&
        next_body,
    std::atomic<uint64_t>* ids, const LoadOptions& options) {
  TcpClient client = Dial(port, options);
  std::vector<Sample> samples;
  std::string last;
  for (size_t i = 0; i < max_count; ++i) {
    const int64_t due = first_due_ns + static_cast<int64_t>(i) * period_ns;
    if (due >= end_ns) break;
    const int64_t now = NowNanos();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    Sample sample;
    sample.id = ids->fetch_add(1);
    sample.slot = static_cast<int64_t>(i);
    sample.due_ns = due;
    sample.conn = -1;
    RoundTrip(&client, MakeLine(sample.id, next_body(i, last)), options,
              true, &sample);
    last = sample.response;
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<Sample> RunEach(int port, int connections,
                            const std::vector<std::string>& bodies,
                            std::atomic<uint64_t>* ids,
                            const LoadOptions& options) {
  std::vector<Sample> samples(bodies.size());
  std::atomic<size_t> next{0};
  RunThreads(connections, [&](int c) {
    TcpClient client = Dial(port, options);
    for (size_t i = next.fetch_add(1); i < bodies.size();
         i = next.fetch_add(1)) {
      Sample& sample = samples[i];
      sample.id = ids->fetch_add(1);
      sample.slot = static_cast<int64_t>(i);
      sample.conn = c;
      RoundTrip(&client, MakeLine(sample.id, bodies[i]), options,
                options.capture, &sample);
      sample.due_ns = sample.send_ns;
    }
  });
  return samples;
}

}  // namespace xbench
