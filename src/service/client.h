// Minimal NDJSON client for the fastofd service: one blocking request /
// response call at a time over a UNIX-domain or TCP connection. Used by the
// `fastofd client` subcommand, the service tests, and bench_serve.

#ifndef FASTOFD_SERVICE_CLIENT_H_
#define FASTOFD_SERVICE_CLIENT_H_

#include <string>

#include "common/status.h"
#include "service/json.h"

namespace fastofd {

class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  static Result<ServiceClient> ConnectUnix(const std::string& path);
  static Result<ServiceClient> ConnectTcp(int port);

  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;

  /// Sends one request line and blocks for the next response line. Safe
  /// with a single outstanding request (the next line must answer it), but
  /// pipelining clients should match responses to requests by `id`: the
  /// per-session strands preserve FIFO for mutating ops, while
  /// rejections, shed 503s, and concurrent snapshot reads (verify/discover)
  /// may complete out of order relative to other outstanding requests.
  Result<Json> Call(const Json& request);

  /// Sends a request without waiting for the response (fire-and-forget
  /// writes; pair with ReadResponse to pipeline).
  Status Send(const Json& request);

  /// Blocks for the next response line.
  Result<Json> ReadResponse();

  bool connected() const { return fd_ != -1; }
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace fastofd

#endif  // FASTOFD_SERVICE_CLIENT_H_
