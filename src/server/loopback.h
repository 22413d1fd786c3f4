#ifndef XPLAIN_SERVER_LOOPBACK_H_
#define XPLAIN_SERVER_LOOPBACK_H_

#include <future>
#include <string>

#include "server/request_shell.h"

namespace xplain {
namespace server {

/// Deterministic in-process transport over a request shell (an xplaind
/// service or a cluster coordinator): each Call is one request line and
/// yields exactly the response line a TCP client would read back. Tests
/// and benches use it to exercise the full protocol/admission/cache path
/// without sockets.
///
/// Thread-safety: safe — Call/CallAsync may run concurrently from any
/// number of threads (they forward to the service, which is safe). The
/// referenced service must outlive the transport.
class LoopbackTransport {
 public:
  /// Does not take ownership of `service`.
  explicit LoopbackTransport(LineService* service) : service_(service) {}

  /// Blocks until the response line is ready; never throws.
  std::string Call(const std::string& line) {
    return service_->HandleLine(line);
  }

  /// Asynchronous form: admission happens on the caller, execution on the
  /// service pool. The future always becomes ready.
  std::future<std::string> CallAsync(const std::string& line) {
    return service_->SubmitLine(line);
  }

 private:
  LineService* service_;
};

}  // namespace server
}  // namespace xplain

#endif  // XPLAIN_SERVER_LOOPBACK_H_
