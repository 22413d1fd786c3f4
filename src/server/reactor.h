#ifndef XPLAIN_SERVER_REACTOR_H_
#define XPLAIN_SERVER_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/request_shell.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace xplain {
namespace server {

struct Connection;

/// Knobs for one reactor event loop; filled in by TcpServer from its own
/// TcpServerOptions.
/// Thread-safety: plain data, externally synchronized.
struct ReactorOptions {
  /// Request lines longer than this are rejected with an ok:false response
  /// (the connection survives; see LineDecoder).
  size_t max_line_bytes = 1 << 20;
  /// Per-connection buffered-write budget. When the kernel send buffer is
  /// full and this many bytes are queued, the reactor stops reading from
  /// the connection (backpressure) until the buffer drains.
  size_t max_write_buffer_bytes = 4 << 20;
  /// Grace period for flushing buffered responses during Stop before
  /// connections are closed anyway (stuck peers must not wedge shutdown).
  int stop_flush_timeout_ms = 5000;
  /// Process-wide open-connection count shared across reactors; feeds the
  /// server.connections_active gauge.
  std::shared_ptr<std::atomic<int64_t>> active_connections;
};

/// One epoll event-loop thread of the multi-reactor TCP transport
/// (DESIGN.md §8). A reactor owns a set of connections exclusively: it
/// performs all reads, NDJSON framing (LineDecoder), request dispatch into
/// the LineService, response ordering (ResponseSequencer), and all
/// writes for them. Cross-thread work arrives through a mutex-guarded task
/// queue plus an eventfd wakeup: the acceptor hands over new connection
/// fds, and service workers hand back completed responses, which the
/// owning reactor writes in per-connection request order.
///
/// Reactors never block on the handler: a request line is dispatched with
/// LineService::SubmitLineWith and the reactor moves on; synchronous
/// completions (cache hits, protocol errors, STATS) are detected by thread
/// identity and delivered inline without a queue round-trip.
///
/// Lifecycle: Start spawns the loop thread; RequestStop begins shutdown
/// (stop reading, flush buffered responses until drained or the flush
/// deadline, close everything); Join waits for the thread. Worker
/// callbacks hold shared ownership, so a response completing after
/// shutdown is dropped safely instead of touching freed state.
///
/// Thread-safety: safe — AddConnection, PostResponse, RequestStop, and
/// Join may be called from any thread; connection state is only ever
/// touched by the loop thread.
class Reactor {
 public:
  /// Spawns the event-loop thread. Does not take ownership of `service`,
  /// which must outlive every callback (i.e. until the service drains).
  [[nodiscard]] static Result<std::shared_ptr<Reactor>> Start(
      LineService* service, const ReactorOptions& options);

  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Transfers ownership of a connected, not-yet-registered socket to this
  /// reactor. The fd is made non-blocking by the loop thread.
  void AddConnection(int fd) XPLAIN_EXCLUDES(tasks_mu_);

  /// Delivers the response line for request `seq` on connection `conn_id`.
  /// Called by service workers (queued + wakeup) or inline on the loop
  /// thread (direct delivery). Responses for closed connections are
  /// dropped.
  void PostResponse(uint64_t conn_id, uint64_t seq, std::string line)
      XPLAIN_EXCLUDES(tasks_mu_);

  /// Begins shutdown: the loop stops reading, flushes buffered responses
  /// (bounded by stop_flush_timeout_ms), closes every connection, and
  /// exits. Idempotent; returns without waiting — use Join().
  void RequestStop() XPLAIN_EXCLUDES(tasks_mu_);

  /// Joins the loop thread (idempotent).
  void Join();

 private:
  Reactor(LineService* service, const ReactorOptions& options);

  struct Task;

  void Wake();
  void Loop();
  void ProcessTasks();
  void RegisterConnection(int fd);
  /// Reads until EAGAIN (bounded per wakeup), framing and dispatching
  /// request lines; applies read backpressure when the write buffer is
  /// over budget.
  void HandleReadable(Connection* conn);
  void DispatchLine(Connection* conn, bool oversized, std::string line);
  /// Sequences one completed response into the connection's write buffer.
  void Deliver(Connection* conn, uint64_t seq, std::string line);
  /// Writes buffered bytes until EAGAIN or empty; arms EPOLLOUT on
  /// EAGAIN. Returns false when the connection was closed (write error,
  /// or fully drained after EOF/stop).
  bool FlushWrites(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void CloseAll();
  /// True when every connection has flushed all in-flight responses (the
  /// stop-phase exit condition).
  bool FullyFlushed() const;
  static void PublishActiveConnections(int64_t count);

  LineService* service_;
  ReactorOptions options_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::thread thread_;
  /// Loop-thread id for inline-delivery detection; reset when the loop
  /// exits so a recycled OS thread id can never alias it.
  std::atomic<std::thread::id> loop_thread_id_{};
  /// Self reference handed to worker callbacks (set by Start).
  std::weak_ptr<Reactor> self_;

  Mutex tasks_mu_{kMutexRankReactor};
  std::vector<Task> tasks_ XPLAIN_GUARDED_BY(tasks_mu_);
  bool stop_enqueued_ XPLAIN_GUARDED_BY(tasks_mu_) = false;

  // --- loop-thread state (touched only by the loop thread; no lock) ---
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;  // 0 is the wakeup fd's epoll tag
  bool stopping_ = false;
  std::chrono::steady_clock::time_point flush_deadline_{};
};

}  // namespace server
}  // namespace xplain

#endif  // XPLAIN_SERVER_REACTOR_H_
