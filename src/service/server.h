// The fastofd cleaning service: a resident daemon answering NDJSON requests
// over a UNIX-domain or TCP socket.
//
// Threading model (see docs/protocol.md for the wire format and
// docs/architecture.md "Service layer" for the strand diagram):
//
//   listener ──accept──► one reader thread per connection
//                              │  parse line → Request → Admit
//                              ▼
//        admission (one mutex): queue_depth admitted-not-started,
//                               max_parked parked behind them
//                              │
//        ┌─ strand "a" ──────┐ ┌─ strand "b" ──────┐  one per active
//        │ mailbox (FIFO)    │ │ mailbox (FIFO)    │  session, erased
//        │ readers / writer  │ │ readers / writer  │  when idle
//        └────────┬──────────┘ └────────┬──────────┘
//                 ├──── submit ─────────┴──► shared work-stealing ThreadPool
//                 └──── idle strand, reader op ──► run on the reader itself
//
// Admission (reader thread): a request enters its session's strand while
// fewer than queue_depth requests are admitted but not started and nobody
// is parked; otherwise it is *parked* in one server-wide wait list, and
// rejected 503 only when the wait list is also full (or the server is
// draining). Parked requests are promoted in arrival order as requests
// start, and shed 503 once their deadline has passed — checked at every
// admission and every request start, so no timer or poll is needed.
//
// Execution on the reader: `ping`, `verify`, `update`, `list` and `stats`
// (IsReaderOp) cost O(|Σ|) or O(1), less than a wake-up of a pool worker.
// When one would enter the queue and its strand is absent — or, for a read,
// holds only readers and an empty mailbox — the reader takes the strand
// as a pool task would, runs the request, releases the strand (dispatching
// whatever queued behind it meanwhile), and only then writes the response,
// so a client that stops reading blocks its own reader, never a strand.
// Nothing of the session is queued, parked or writing at that moment, so
// per-session FIFO holds.
//
// Execution (pool tasks): a strand submits its head to the pool as soon as
// it may run. Reads (`verify`/`discover`) at the head go at once and run
// concurrently with each other; a write at the head waits until the
// strand's readers reach zero, then holds the strand alone, with a run of
// consecutive `update`s submitted as one batch. Whichever holder releases
// the strand last dispatches the next head, so no worker ever blocks
// waiting for another request. Session::version() seqlock-audits that no
// read overlaps a writer of its session.
//
// Graceful drain: NotifyShutdown() (async-signal-safe; SIGTERM handlers and
// the `shutdown` op call it) stops the listener and closes admission so new
// requests are rejected with 503, waits for every admitted request —
// queued, parked, or running — to be answered, and only then tears
// connections down (requests running on readers included). Wait() returns
// once the drain completes; the caller then flushes metrics.
//
// Observability: per-op request counters and latency histograms
// (p50/p95/p99 via `stats`; every op outside ops:: shares the `unknown`
// names, so clients cannot grow the registry), queue-wait and batch-size
// histograms, and rejection/shed/deadline/reader-path counters, all in the
// shared MetricsRegistry under `serve.*`.

#ifndef FASTOFD_SERVICE_SERVER_H_
#define FASTOFD_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "relation/partition.h"
#include "service/json.h"
#include "service/session.h"

namespace fastofd {

/// Service tunables, mirrored by `fastofd serve` flags.
struct ServerConfig {
  /// Path for a UNIX-domain socket; empty selects TCP.
  std::string unix_socket;
  /// TCP port on 127.0.0.1 (0 = ephemeral, see ServiceServer::port()).
  int tcp_port = 0;
  /// Parallel kernel threads. The shared pool gets threads + 1 workers (at
  /// least 2): one request body may hold a worker while reads keep
  /// `threads` for their kernels. `load`, `unload`, `discover`, `clean`,
  /// `sleep` and `shutdown` always run on the pool; `ping`, `verify`,
  /// `update`, `list` and `stats` run on their connection's reader thread
  /// when their session's strand is idle, and on the pool otherwise.
  int threads = 1;
  /// Admission control: maximum admitted requests not yet started, across
  /// all sessions.
  int queue_depth = 64;
  /// Bounded wait list: requests that find the queue full park here until
  /// capacity frees or their deadline passes (shed 503). 0 disables parking
  /// (hard 503 at queue_depth).
  int max_parked = 1024;
  /// Default per-request deadline in ms (0 = none); requests may override
  /// with a `deadline_ms` field. The deadline covers time spent queued.
  double default_deadline_ms = 0.0;
  /// Partition-cache budget per session, in bytes.
  int64_t cache_budget_bytes = PartitionCache::kUnbounded;
  /// Directory for compiled session snapshots (service/snapshot.h); empty
  /// disables them. When set, `load` first tries
  /// `<dir>/<session>.fofdsnap` (falling back to a cold compile when the
  /// snapshot is absent, stale, or invalid) and writes a fresh snapshot
  /// after every cold load. Only session names matching
  /// [A-Za-z0-9_.-]+ participate (anything else cold-loads, so a hostile
  /// name can never escape the directory).
  std::string snapshot_dir;
};

class ServiceServer {
 public:
  /// `metrics` must outlive the server.
  ServiceServer(ServerConfig config, MetricsRegistry* metrics);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens, and spawns the listener thread.
  Status Start();

  /// Begins a graceful drain. Async-signal-safe (writes one byte to an
  /// internal pipe); idempotent.
  void NotifyShutdown();

  /// Blocks until the drain completes and all threads are joined.
  void Wait();

  /// Bound TCP port (valid after Start() when configured for TCP).
  int port() const { return port_; }

  /// Executes one request inline on the calling thread, bypassing the
  /// socket and the strands — the deterministic core the wire path wraps.
  /// Exposed for tests and the in-process bench. Not safe concurrently
  /// with itself or with a started server's traffic.
  Json Execute(const Json& request);

 private:
  // write_mu serializes writers and guards fd against the reader's close.
  // Lock order: always taken *inside* conns_mu_ (Wait() iterates conns_
  // under conns_mu_ and locks each write_mu nested) — not expressible as an
  // attribute across classes, so stated here. The owning reader snapshots
  // fd into a local for its recv loop: it is the only thread that ever
  // closes the fd, so the snapshot cannot go stale under it.
  struct Connection {
    Mutex write_mu;
    int fd GUARDED_BY(write_mu) = -1;
  };

  struct Request {
    Json msg;
    std::string op;
    std::string session;
    std::shared_ptr<Connection> conn;
    double enqueue_seconds = 0.0;
    double deadline_seconds = 0.0;  // Absolute; 0 = none.
  };

  /// One session's strand: its admitted requests in arrival order, and who
  /// holds it. Reads run while no writer does; a writer runs alone.
  struct Strand {
    std::deque<Request> mailbox;
    int readers = 0;
    bool writer = false;
  };

  void ListenerLoop();
  /// `self` is this reader's handle in readers_; on exit the reader moves it
  /// to finished_readers_ for the listener (or Wait) to join.
  void ReaderLoop(std::shared_ptr<Connection> conn,
                  std::list<std::thread>::iterator self);
  void BeginDrain();
  /// Joins every reader thread that has finished its loop. Cheap: joined
  /// threads have already exited.
  void ReapFinishedReaders();

  enum class Admission {
    kRejected,  // Answer 503; the request is untouched.
    kQueued,    // Moved into its strand or the wait list.
    kOnReader,  // Holds its strand; the caller must RunOnReader it.
  };
  /// Admission (reader threads): take an idle strand for a reader op, else
  /// queue, else park, else reject. The request is only moved from when
  /// queued, so a rejected one can still build its 503 (echoing the id).
  /// Also sheds expired parked requests as a side effect.
  Admission Admit(Request& request) EXCLUDES(mu_);
  /// Takes the request's strand for it when IsReaderOp(op) and the strand
  /// is absent, or (for a read) holds only readers and an empty mailbox.
  bool TakeIdleStrandLocked(const Request& request) REQUIRES(mu_);
  /// Runs a request admitted kOnReader on the calling reader: executes it,
  /// releases its strand, then writes the response.
  void RunOnReader(Request& request) EXCLUDES(mu_);
  /// Appends an admitted request to its session's strand and dispatches.
  void EnqueueLocked(Request&& request) REQUIRES(mu_);
  /// Submits every request at the head of the session's strand that may
  /// start now: reads while no writer holds the strand, a write (with the
  /// run of updates behind it) once the readers reach zero. Erases the
  /// strand when it is idle.
  void DispatchLocked(const std::string& session) REQUIRES(mu_);
  /// Drops one hold on the session's strand (a reader's, or the writer's)
  /// and dispatches what may now start.
  void ReleaseStrandLocked(const std::string& session, bool read)
      REQUIRES(mu_);
  /// Moves parked requests whose deadline has passed into *shed.
  void ShedExpiredLocked(std::vector<Request>* shed) REQUIRES(mu_);
  /// Writes the 503 shed responses. Call without mu_ held.
  void RespondShed(std::vector<Request>& shed) EXCLUDES(mu_);
  /// Pool task body: releases the batch's queue slots (shedding and
  /// promoting parked requests), executes it, writing responses in order,
  /// then releases its hold on the strand and dispatches the next head.
  void RunTask(std::vector<Request>& batch) EXCLUDES(mu_);

  void WriteResponse(Connection& conn, const Json& response);
  /// One request of a batch: queue-wait accounting, deadline check
  /// (expired → 504), Execute, latency observation. Returns the response.
  Json Respond(Request& request);

  /// Deep invariant audit (common/audit.h): a dispatched batch is
  /// non-empty, within the micro-batch bound, every request carries a live
  /// connection and an op matching its message, and multi-request batches
  /// are runs of same-session updates — the shape DispatchLocked promises.
  Status AuditBatchShape(std::span<const Request> batch) const;

  /// Snapshot file for a session name, or "" when snapshots are disabled
  /// or the name contains characters unsafe for a filename.
  std::string SnapshotPathFor(const std::string& session) const;

  // --- Handlers (pool workers, or readers for IsReaderOp) ---
  Json HandlePing(const Json& request);
  Json HandleLoad(const Json& request);
  Json HandleUnload(const Json& request);
  Json HandleList(const Json& request);
  Json HandleVerify(const Json& request);
  Json HandleDiscover(const Json& request);
  Json HandleClean(const Json& request);
  Json HandleUpdate(const Json& request);
  Json HandleStats(const Json& request);
  Json HandleSleep(const Json& request);

  const ServerConfig config_;
  MetricsRegistry* const metrics_;
  ThreadPool pool_;
  // Long-lived group for every request task. Declared after pool_ so its
  // destructor (which waits for the tasks) runs before the pool's.
  TaskGroup tasks_;
  SessionRegistry sessions_;

  // Admission and strand state. Tasks are submitted and reader-path
  // requests counted under mu_, and draining_ is set under it too, so once
  // the drain begins, waiting for on_reader_ to reach 0 and then for
  // tasks_ covers every admitted request. Invariant after each critical
  // section: a non-empty mailbox has a task or a reader holding its strand,
  // and parked_ is empty unless queued_ >= queue_depth.
  Mutex mu_;
  std::unordered_map<std::string, Strand> strands_ GUARDED_BY(mu_);
  std::deque<Request> parked_ GUARDED_BY(mu_);
  size_t queued_ GUARDED_BY(mu_) = 0;  // Admitted, not started.
  // Requests admitted kOnReader whose response is not yet written.
  int on_reader_ GUARDED_BY(mu_) = 0;
  CondVar on_reader_cv_;

  // listen_fd_ is single-threaded by phase: written by Start() before any
  // thread exists, then owned by the listener thread (ListenerLoop /
  // BeginDrain), and read by the destructor only after every thread joined.
  int listen_fd_ = -1;
  int port_ = 0;
  int shutdown_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};  // Written under mu_.
  std::atomic<bool> shutdown_requested_{false};

  std::thread listener_;

  // Guards the connection registry and reader-thread accounting. Lock order:
  // conns_mu_ before any Connection::write_mu (see Connection above).
  Mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);
  // Reader threads are joined, never detached: live handles sit in readers_,
  // and each reader moves its own handle to finished_readers_ on exit.
  std::list<std::thread> readers_ GUARDED_BY(conns_mu_);
  std::list<std::thread> finished_readers_ GUARDED_BY(conns_mu_);
  int readers_active_ GUARDED_BY(conns_mu_) = 0;
  CondVar readers_cv_;

  bool started_ = false;
  bool joined_ = false;
};

}  // namespace fastofd

#endif  // FASTOFD_SERVICE_SERVER_H_
