// Wire protocol constants for the fastofd cleaning service.
//
// The service speaks newline-delimited JSON over a UNIX-domain or TCP
// socket: one request object per line in, one response object per line out.
// docs/protocol.md documents every request/response shape; this header pins
// the op names and error codes both sides compile against.
//
// Request envelope:  {"id": <any>, "op": "<name>", ...op fields}
// Response envelope: {"id": <echoed>, "ok": true, ...}            on success
//                    {"id": <echoed>, "ok": false,
//                     "code": <int>, "error": "<message>"}        on failure

#ifndef FASTOFD_SERVICE_PROTOCOL_H_
#define FASTOFD_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <string>

namespace fastofd {

/// HTTP-flavoured error codes carried in failure responses.
enum ServiceCode {
  kCodeBadRequest = 400,       // Malformed JSON / missing or invalid fields,
                               // or a request line over kMaxRequestLineBytes
                               // (the server then closes the connection).
  kCodeNotFound = 404,         // Unknown session or attribute name.
  kCodeConflict = 409,         // Session name already loaded.
  kCodeOverloaded = 503,       // Wait list full, server draining, or the
                               // request was shed from the wait list because
                               // its deadline could no longer be met.
  kCodeDeadlineExceeded = 504, // Deadline elapsed while queued (the request
                               // reached the pool, too late to run).
  kCodeInternal = 500,         // Library-level failure.
};

/// Request op names.
namespace ops {
inline constexpr char kPing[] = "ping";         // Liveness probe.
inline constexpr char kLoad[] = "load";         // Open a session from files.
inline constexpr char kUnload[] = "unload";     // Drop a session.
inline constexpr char kList[] = "list";         // Enumerate sessions.
inline constexpr char kVerify[] = "verify";     // Verify Σ against a session.
inline constexpr char kDiscover[] = "discover"; // Run OFD discovery.
inline constexpr char kClean[] = "clean";       // Run OFDClean (read-only).
inline constexpr char kUpdate[] = "update";     // Apply cell updates online.
inline constexpr char kStats[] = "stats";       // Metrics + latency quantiles.
inline constexpr char kSleep[] = "sleep";       // Debug: hold a pool worker.
inline constexpr char kShutdown[] = "shutdown"; // Begin graceful drain.
}  // namespace ops

/// Longest request line the server buffers. Requests carry file paths, not
/// file contents, so real ones are a few KiB at most.
inline constexpr size_t kMaxRequestLineBytes = size_t{16} << 20;

/// True for ops a session's strand may run as concurrent snapshot reads:
/// they never mutate the named session, so any number of them can run
/// against its quiescent state while writers are excluded. Everything else
/// (including sessionless ops like `list`, which serialize on the "" key)
/// executes exclusively. See docs/architecture.md "Service layer".
inline bool IsSnapshotReadOp(const std::string& op) {
  return op == ops::kVerify || op == ops::kDiscover;
}

/// True for the O(|Σ|) and O(1) ops a connection's reader thread runs itself
/// when their session's strand is idle, instead of handing them to the pool:
/// the handoff would cost more than the request. Everything else (`load`,
/// `unload`, `discover`, `clean`, `sleep`, `shutdown`), and these too when
/// their strand is busy, runs on the shared pool.
inline bool IsReaderOp(const std::string& op) {
  return op == ops::kPing || op == ops::kVerify || op == ops::kUpdate ||
         op == ops::kList || op == ops::kStats;
}

}  // namespace fastofd

#endif  // FASTOFD_SERVICE_PROTOCOL_H_
