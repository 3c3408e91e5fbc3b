#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "clean/repair.h"
#include "common/audit.h"
#include "common/csv.h"
#include "common/parse.h"
#include "discovery/fastofd.h"
#include "ofd/incremental.h"
#include "ofd/sigma_io.h"
#include "service/net_util.h"
#include "service/protocol.h"

namespace fastofd {

namespace {

/// Maximum consecutive same-session `update` requests coalesced into one
/// pool task.
constexpr size_t kMaxUpdateBatch = 64;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Hands the heap's free pages back to the OS. Any pool worker may run a
/// load or an unload, and glibc keeps what a thread frees in that thread's
/// arena: without this, what stays resident after a load (its parse and
/// build temporaries) or an unload (the session itself) depends on which
/// workers ran them and on when a later free happens to trim an arena.
void ReleaseFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// The metric names of one op, built once. `op` comes from the client, so
/// every op outside ops:: shares the `unknown` names: otherwise each new op
/// string would add three registry entries (and `stats` output) for good.
struct OpMetricNames {
  explicit OpMetricNames(const std::string& op)
      : requests("serve.requests." + op),
        exec("serve.exec." + op + ".seconds"),
        latency("serve.latency." + op) {}
  std::string requests;  // Counter: requests read off the wire.
  std::string exec;      // Timer: Execute.
  std::string latency;   // Histogram: admission to response.
};

const OpMetricNames& MetricNamesFor(const std::string& op) {
  static const std::unordered_map<std::string, OpMetricNames> kKnown = [] {
    std::unordered_map<std::string, OpMetricNames> names;
    for (const char* name :
         {ops::kPing, ops::kLoad, ops::kUnload, ops::kList, ops::kVerify,
          ops::kDiscover, ops::kClean, ops::kUpdate, ops::kStats, ops::kSleep,
          ops::kShutdown}) {
      names.emplace(name, OpMetricNames(name));
    }
    return names;
  }();
  static const OpMetricNames kUnknown("unknown");
  auto it = kKnown.find(op);
  return it != kKnown.end() ? it->second : kUnknown;
}

Json OkResponse(const Json& request) {
  Json response = Json::Object();
  response.Set("id", request.Get("id"));
  response.Set("ok", Json::Bool(true));
  return response;
}

Json ErrResponse(const Json& request, int code, const std::string& message) {
  Json response = Json::Object();
  response.Set("id", request.Get("id"));
  response.Set("ok", Json::Bool(false));
  response.Set("code", Json::Int(code));
  response.Set("error", Json::Str(message));
  return response;
}

/// Deep invariant audit (common/audit.h) for the seqlock snapshot protocol:
/// a read must run entirely against a quiescent session — version even at
/// entry and unchanged at exit (a writer holds its strand alone and starts
/// only once the readers drain, so any motion here is a strand bug).
[[maybe_unused]] Status AuditSnapshotStable(const Session& session,
                                            uint64_t entry_version) {
  auto fail = [](const std::string& message) {
    return audit::internal::Counted(Status::Error("snapshot audit: " + message));
  };
  if ((entry_version & 1) != 0) {
    return fail("read started at odd version " +
                std::to_string(entry_version) + " (writer mid-mutation)");
  }
  uint64_t exit_version = session.version();
  if (exit_version != entry_version) {
    return fail("session version moved " + std::to_string(entry_version) +
                " -> " + std::to_string(exit_version) + " under a read");
  }
  return audit::internal::Counted(Status::Ok());
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle.

ServiceServer::ServiceServer(ServerConfig config, MetricsRegistry* metrics)
    : config_(std::move(config)),
      metrics_(metrics),
      // A running request holds its worker, so one worker beyond `threads`
      // keeps `threads` of them for a read's parallel kernels while a serial
      // write (a load) runs. A 1-thread pool would run tasks inline on the
      // submitter, which here is a connection reader.
      pool_(std::max(2, config_.threads + 1)),
      tasks_(&pool_) {
  // Register the fleet-facing counters at zero so the first `stats` or
  // metrics flush shows them even before traffic arrives.
  metrics_->Add("serve.rejected", 0);
  metrics_->Add("serve.shed", 0);
  metrics_->Add("serve.snapshot_reads", 0);
  metrics_->Add("serve.inline", 0);
  metrics_->Add("serve.deadline_exceeded", 0);
  metrics_->Add("serve.responses.ok", 0);
  metrics_->Add("serve.responses.error", 0);
  metrics_->Set("serve.queue_depth", 0);
}

ServiceServer::~ServiceServer() {
  if (started_ && !joined_) {
    NotifyShutdown();
    Wait();
  }
  for (int fd : shutdown_pipe_) {
    if (fd != -1) ::close(fd);
  }
  // Still open when Start() failed between socket() and listen(): the
  // listener thread (whose BeginDrain normally closes it) never spawned.
  if (listen_fd_ != -1) ::close(listen_fd_);
}

Status ServiceServer::Start() {
  if (::pipe(shutdown_pipe_) != 0) {
    return Status::Error("pipe: " + ErrnoString(errno));
  }
  if (!config_.unix_socket.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Error("socket: failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_socket.size() >= sizeof(addr.sun_path)) {
      return Status::Error("socket path too long: " + config_.unix_socket);
    }
    std::strncpy(addr.sun_path, config_.unix_socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_socket.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::Error("bind " + config_.unix_socket + ": " +
                           ErrnoString(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Error("socket: failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(config_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::Error("bind port " + std::to_string(config_.tcp_port) +
                           ": " + ErrnoString(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::Error("listen: " + ErrnoString(errno));
  }
  listener_ = std::thread([this] { ListenerLoop(); });
  started_ = true;
  return Status::Ok();
}

void ServiceServer::NotifyShutdown() {
  if (shutdown_requested_.exchange(true)) return;
  char byte = 'x';
  // Signal-safe: a single write to the self-pipe.
  [[maybe_unused]] ssize_t n = ::write(shutdown_pipe_[1], &byte, 1);
}

void ServiceServer::Wait() {
  if (!started_ || joined_) return;
  if (listener_.joinable()) listener_.join();
  // The listener closed admission, so no request starts on a reader any
  // more; the ones running there answer, dispatching what queued behind
  // them, before the count drops.
  {
    MutexLock lock(mu_);
    while (on_reader_ != 0) on_reader_cv_.Wait(mu_);
  }
  // Every admitted request is now in a task or behind one (parked entries
  // are promoted or shed, never dropped), and each task dispatches its
  // successors before it completes.
  tasks_.Wait();
  // All responses are written; now tear down connections.
  {
    MutexLock lock(conns_mu_);
    for (auto& conn : conns_) {
      MutexLock wlock(conn->write_mu);
      if (conn->fd != -1) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  {
    MutexLock lock(conns_mu_);
    while (readers_active_ != 0) readers_cv_.Wait(conns_mu_);
  }
  // Every reader has moved its handle to finished_readers_; join them all.
  ReapFinishedReaders();
  if (!config_.unix_socket.empty()) ::unlink(config_.unix_socket.c_str());
  joined_ = true;
}

void ServiceServer::BeginDrain() {
  {
    MutexLock lock(mu_);
    draining_.store(true);
  }
  if (listen_fd_ != -1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Listener + readers.

void ServiceServer::ListenerLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {shutdown_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // Shutdown requested.
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    {
      MutexLock wlock(conn->write_mu);
      conn->fd = fd;
    }
    ReapFinishedReaders();  // Connection churn must not accumulate handles.
    {
      MutexLock lock(conns_mu_);
      conns_.push_back(conn);
      ++readers_active_;
      auto self = readers_.emplace(readers_.end());
      *self = std::thread([this, conn, self] { ReaderLoop(conn, self); });
    }
    metrics_->Add("serve.connections", 1);
  }
  BeginDrain();
}

void ServiceServer::ReapFinishedReaders() {
  std::list<std::thread> finished;
  {
    MutexLock lock(conns_mu_);
    finished.swap(finished_readers_);
  }
  for (std::thread& reader : finished) reader.join();
}

void ServiceServer::ReaderLoop(std::shared_ptr<Connection> conn,
                               std::list<std::thread>::iterator self) {
  std::string buffer;
  char chunk[65536];
  // Snapshot the fd once: this reader is the only thread that ever closes
  // it (below, under write_mu), so the local cannot go stale — and the recv
  // loop must not hold write_mu, or a blocked recv would wedge every writer.
  // Wait() unblocks the recv with ::shutdown, not ::close.
  int read_fd;
  {
    MutexLock wlock(conn->write_mu);
    read_fd = conn->fd;
  }
  for (;;) {
    ssize_t n = ::recv(read_fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) continue;

      auto parsed = Json::Parse(line);
      if (!parsed.ok()) {
        WriteResponse(*conn, ErrResponse(Json::Object(), kCodeBadRequest,
                                         parsed.status().message()));
        continue;
      }
      Request request;
      request.msg = std::move(parsed).value();
      request.op = request.msg.Get("op").AsString();
      request.session = request.msg.Get("session").AsString();
      request.conn = conn;
      request.enqueue_seconds = NowSeconds();
      double deadline_ms = request.msg.Has("deadline_ms")
                               ? request.msg.Get("deadline_ms").AsDouble()
                               : config_.default_deadline_ms;
      if (deadline_ms > 0) {
        request.deadline_seconds = request.enqueue_seconds + deadline_ms / 1e3;
      }
      metrics_->Add(MetricNamesFor(request.op).requests, 1);
      switch (Admit(request)) {
        case Admission::kQueued:
          break;
        case Admission::kOnReader:
          RunOnReader(request);
          break;
        case Admission::kRejected:
          metrics_->Add("serve.rejected", 1);
          WriteResponse(*conn, ErrResponse(
                                   request.msg, kCodeOverloaded,
                                   draining_.load()
                                       ? "server draining"
                                       : "request queue and wait list full"));
          break;
      }
    }
    buffer.erase(0, start);
    // What is left is one unterminated line: cap it, or a client that never
    // sends '\n' grows this buffer without bound.
    if (buffer.size() > kMaxRequestLineBytes) {
      WriteResponse(*conn, ErrResponse(Json::Object(), kCodeBadRequest,
                                       "request line exceeds " +
                                           std::to_string(kMaxRequestLineBytes) +
                                           " bytes"));
      break;
    }
  }
  {
    MutexLock wlock(conn->write_mu);
    if (conn->fd != -1) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  MutexLock lock(conns_mu_);
  // Drop our registry entry so a long-running daemon with connection churn
  // does not grow conns_ without bound. Queued responses still reach the
  // client through the shared_ptr each Request holds.
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn), conns_.end());
  // Hand our own thread handle to the reaper (joining ourselves would
  // deadlock); splicing keeps the handle alive until someone joins it.
  finished_readers_.splice(finished_readers_.end(), readers_, self);
  --readers_active_;
  readers_cv_.NotifyAll();
}

void ServiceServer::WriteResponse(Connection& conn, const Json& response) {
  std::string line = response.Dump();
  line.push_back('\n');
  MutexLock lock(conn.write_mu);
  if (conn.fd == -1) return;  // Client already gone.
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(conn.fd, line.data() + off, line.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Strands: admission, parking, shedding, dispatch.

ServiceServer::Admission ServiceServer::Admit(Request& request) {
  std::vector<Request> shed;
  Admission admission = Admission::kRejected;
  {
    MutexLock lock(mu_);
    if (!draining_.load()) {
      ShedExpiredLocked(&shed);
      // Queue directly only when nobody is parked ahead of us — otherwise a
      // newcomer would overtake a parked request of the same session and
      // break per-session FIFO.
      if (parked_.empty() &&
          queued_ < static_cast<size_t>(config_.queue_depth)) {
        if (TakeIdleStrandLocked(request)) {
          ++on_reader_;
          admission = Admission::kOnReader;
        } else {
          EnqueueLocked(std::move(request));
          admission = Admission::kQueued;
        }
      } else if (parked_.size() < static_cast<size_t>(config_.max_parked)) {
        parked_.push_back(std::move(request));
        admission = Admission::kQueued;
      }
    }
  }
  RespondShed(shed);
  return admission;
}

bool ServiceServer::TakeIdleStrandLocked(const Request& request) {
  if (!IsReaderOp(request.op)) return false;
  const bool read = IsSnapshotReadOp(request.op);
  auto [it, absent] = strands_.try_emplace(request.session);
  Strand& strand = it->second;
  // A present strand is busy (idle ones are erased); a read may still join
  // its readers when nothing waits in the mailbox for them to finish.
  if (!absent && (!read || strand.writer || !strand.mailbox.empty())) {
    return false;
  }
  if (read) {
    ++strand.readers;
  } else {
    strand.writer = true;
  }
  return true;
}

void ServiceServer::RunOnReader(Request& request) {
  metrics_->Add("serve.inline", 1);
  FASTOFD_AUDIT_OK(AuditBatchShape(std::span<const Request>(&request, 1)));
  Json response = Respond(request);
  {
    MutexLock lock(mu_);
    ReleaseStrandLocked(request.session, IsSnapshotReadOp(request.op));
  }
  // Written after the release: a client that stops reading blocks this
  // reader only, while the strand serves other connections.
  WriteResponse(*request.conn, response);
  MutexLock lock(mu_);
  if (--on_reader_ == 0) on_reader_cv_.NotifyAll();
}

void ServiceServer::EnqueueLocked(Request&& request) {
  ++queued_;
  const std::string session = request.session;
  strands_[session].mailbox.push_back(std::move(request));
  DispatchLocked(session);
}

void ServiceServer::DispatchLocked(const std::string& session) {
  auto it = strands_.find(session);
  if (it == strands_.end()) return;
  Strand& strand = it->second;
  while (!strand.mailbox.empty() && !strand.writer) {
    const bool read = IsSnapshotReadOp(strand.mailbox.front().op);
    if (!read && strand.readers > 0) break;  // The writer waits them out.
    std::vector<Request> batch;
    batch.push_back(std::move(strand.mailbox.front()));
    strand.mailbox.pop_front();
    if (read) {
      ++strand.readers;
    } else {
      strand.writer = true;
      // Micro-batch: the run of updates queued right behind this one rides
      // the same task, so a burst of single-cell updates pays one dispatch.
      while (batch.front().op == ops::kUpdate &&
             batch.size() < kMaxUpdateBatch && !strand.mailbox.empty() &&
             strand.mailbox.front().op == ops::kUpdate) {
        batch.push_back(std::move(strand.mailbox.front()));
        strand.mailbox.pop_front();
      }
    }
    tasks_.Submit(
        [this, batch = std::move(batch)](int) mutable { RunTask(batch); });
  }
  if (strand.mailbox.empty() && strand.readers == 0 && !strand.writer) {
    strands_.erase(it);
  }
}

void ServiceServer::ReleaseStrandLocked(const std::string& session,
                                        bool read) {
  Strand& strand = strands_.at(session);  // Held by the caller: not erased.
  if (read) {
    --strand.readers;
  } else {
    strand.writer = false;
  }
  DispatchLocked(session);
}

void ServiceServer::ShedExpiredLocked(std::vector<Request>* shed) {
  if (parked_.empty()) return;
  const double now = NowSeconds();
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->deadline_seconds > 0 && now >= it->deadline_seconds) {
      shed->push_back(std::move(*it));
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServiceServer::RespondShed(std::vector<Request>& shed) {
  for (Request& request : shed) {
    metrics_->Add("serve.shed", 1);
    WriteResponse(*request.conn,
                  ErrResponse(request.msg, kCodeOverloaded,
                              "deadline cannot be met: shed from wait list"));
  }
  shed.clear();
}

void ServiceServer::RunTask(std::vector<Request>& batch) {
  const std::string session = batch.front().session;
  const bool read = IsSnapshotReadOp(batch.front().op);
  std::vector<Request> shed;
  {
    MutexLock lock(mu_);
    queued_ -= batch.size();
    ShedExpiredLocked(&shed);
    // Promote parked requests into the freed room, oldest first.
    while (!parked_.empty() &&
           queued_ < static_cast<size_t>(config_.queue_depth)) {
      Request promoted = std::move(parked_.front());
      parked_.pop_front();
      EnqueueLocked(std::move(promoted));
    }
  }
  RespondShed(shed);
  if (batch.size() > 1) {
    metrics_->Add("serve.batches", 1);
    metrics_->Observe("serve.batch_size", static_cast<double>(batch.size()));
  }
  FASTOFD_AUDIT_OK(AuditBatchShape(batch));
  for (Request& request : batch) WriteResponse(*request.conn, Respond(request));
  MutexLock lock(mu_);
  ReleaseStrandLocked(session, read);
}

// ---------------------------------------------------------------------------
// Request execution.

Status ServiceServer::AuditBatchShape(std::span<const Request> batch) const {
  auto fail = [](const std::string& message) {
    return audit::internal::Counted(Status::Error("batch audit: " + message));
  };
  if (batch.empty()) return fail("empty batch popped");
  if (batch.size() > 1) {
    if (batch.size() > kMaxUpdateBatch) {
      return fail("batch of " + std::to_string(batch.size()) +
                  " exceeds kMaxUpdateBatch " +
                  std::to_string(kMaxUpdateBatch));
    }
  }
  for (const Request& request : batch) {
    if (request.conn == nullptr) return fail("request without a connection");
    if (request.op != request.msg.Get("op").AsString()) {
      return fail("cached op '" + request.op +
                  "' disagrees with the request message");
    }
    if (batch.size() > 1) {
      if (request.op != ops::kUpdate) {
        return fail("multi-request batch contains non-update op '" +
                    request.op + "'");
      }
      if (request.session != batch.front().session) {
        return fail("multi-request batch mixes sessions");
      }
    }
  }
  return audit::internal::Counted(Status::Ok());
}

Json ServiceServer::Respond(Request& request) {
  if (IsSnapshotReadOp(request.op)) metrics_->Add("serve.snapshot_reads", 1);
  double begin = NowSeconds();
  metrics_->Observe("serve.queue_wait", begin - request.enqueue_seconds);
  Json response;
  if (request.deadline_seconds > 0 && begin > request.deadline_seconds) {
    metrics_->Add("serve.deadline_exceeded", 1);
    response = ErrResponse(request.msg, kCodeDeadlineExceeded,
                           "deadline exceeded while queued");
    metrics_->Add("serve.responses.error", 1);
  } else {
    response = Execute(request.msg);
  }
  metrics_->Observe(MetricNamesFor(request.op).latency,
                    NowSeconds() - request.enqueue_seconds);
  return response;
}

Json ServiceServer::Execute(const Json& request) {
  const std::string op = request.Get("op").AsString();
  Json response;
  {
    ScopedTimer timer(metrics_, MetricNamesFor(op).exec);
    if (op == ops::kPing) response = HandlePing(request);
    else if (op == ops::kLoad) response = HandleLoad(request);
    else if (op == ops::kUnload) response = HandleUnload(request);
    else if (op == ops::kList) response = HandleList(request);
    else if (op == ops::kVerify) response = HandleVerify(request);
    else if (op == ops::kDiscover) response = HandleDiscover(request);
    else if (op == ops::kClean) response = HandleClean(request);
    else if (op == ops::kUpdate) response = HandleUpdate(request);
    else if (op == ops::kStats) response = HandleStats(request);
    else if (op == ops::kSleep) response = HandleSleep(request);
    else if (op == ops::kShutdown) {
      NotifyShutdown();
      response = OkResponse(request);
      response.Set("draining", Json::Bool(true));
    } else {
      response = ErrResponse(request, kCodeBadRequest,
                             "unknown op '" + op + "'");
    }
  }
  metrics_->Add(response.Get("ok").AsBool() ? "serve.responses.ok"
                                            : "serve.responses.error",
                1);
  // Audit builds re-validate after each request. The deep audit is scoped
  // to the request's own session — the one whose strand this task holds
  // (alone, or as a reader with writers excluded); auditing other sessions
  // here would race their own strands' writers.
  FASTOFD_AUDIT_OK(sessions_.AuditOne(request.Get("session").AsString()));
  return response;
}

// ---------------------------------------------------------------------------
// Handlers.

Json ServiceServer::HandlePing(const Json& request) {
  Json response = OkResponse(request);
  response.Set("pong", Json::Bool(true));
  return response;
}

Json ServiceServer::HandleSleep(const Json& request) {
  double ms = request.Get("ms").AsDouble(10.0);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
  return OkResponse(request);
}

std::string ServiceServer::SnapshotPathFor(const std::string& session) const {
  if (config_.snapshot_dir.empty() || session.empty()) return "";
  for (char c : session) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                      c == '.';
    if (!safe) return "";
  }
  // ".." stays inside the directory for any safe name: '/' is excluded, so
  // the name is a single path component.
  return config_.snapshot_dir + "/" + session + ".fofdsnap";
}

Json ServiceServer::HandleLoad(const Json& request) {
  std::string name = request.Get("session").AsString();
  std::string data = request.Get("data").AsString();
  std::string ontology = request.Get("ontology").AsString();
  std::string sigma = request.Get("sigma").AsString();
  if (name.empty() || data.empty() || ontology.empty()) {
    return ErrResponse(request, kCodeBadRequest,
                       "load requires session, data, and ontology");
  }
  if (sessions_.Find(name) != nullptr) {
    return ErrResponse(request, kCodeConflict,
                       "session '" + name + "' already exists");
  }
  // Snapshot fast path: open the compiled image when one exists and its
  // source stamps still match; otherwise compile cold and persist a fresh
  // snapshot for the next load.
  const std::string snapshot_path = SnapshotPathFor(name);
  bool from_snapshot = false;
  Result<std::unique_ptr<Session>> session = Status::Error("unset");
  if (!snapshot_path.empty()) {
    session = Session::OpenFromSnapshot(name, snapshot_path, data, ontology,
                                        sigma, config_.cache_budget_bytes,
                                        metrics_);
    from_snapshot = session.ok();
    if (from_snapshot) {
      metrics_->Add("serve.snapshot.hits", 1);
    } else {
      metrics_->Add("serve.snapshot.misses", 1);
    }
  }
  if (!from_snapshot) {
    session = Session::Open(name, data, ontology, sigma,
                            config_.cache_budget_bytes, metrics_);
    if (session.ok() && !snapshot_path.empty()) {
      Status written = session.value()->WriteSnapshot(snapshot_path);
      metrics_->Add(written.ok() ? "serve.snapshot.writes"
                        : "serve.snapshot.write_errors",
                    1);
    }
  }
  if (!session.ok()) {
    return ErrResponse(request, kCodeInternal, session.status().message());
  }
  Json response = OkResponse(request);
  Session& s = *session.value();
  response.Set("session", Json::Str(name));
  response.Set("rows", Json::Int(s.rel().num_rows()));
  response.Set("attrs", Json::Int(s.rel().num_attrs()));
  response.Set("sigma_size", Json::Int(static_cast<int64_t>(s.sigma().size())));
  if (s.incremental() != nullptr) {
    response.Set("consistent", Json::Bool(s.incremental()->IsConsistent()));
    response.Set("violating_classes",
                 Json::Int(s.incremental()->total_violating()));
  }
  response.Set("load_seconds", Json::Number(s.load_seconds()));
  response.Set("from_snapshot", Json::Bool(from_snapshot));
  Status added = sessions_.Add(std::move(session).value());
  if (!added.ok()) {
    return ErrResponse(request, kCodeConflict, added.message());
  }
  metrics_->Set("serve.sessions", static_cast<double>(sessions_.size()));
  ReleaseFreedMemory();
  return response;
}

Json ServiceServer::HandleUnload(const Json& request) {
  Status removed = sessions_.Remove(request.Get("session").AsString());
  if (!removed.ok()) {
    return ErrResponse(request, kCodeNotFound, removed.message());
  }
  metrics_->Set("serve.sessions", static_cast<double>(sessions_.size()));
  ReleaseFreedMemory();
  return OkResponse(request);
}

Json ServiceServer::HandleList(const Json& request) {
  // `list` executes exclusively on the "" session only, so it observes
  // *other* sessions mid-traffic: the scalar state it samples is either
  // immutable after load (rows, attrs, sigma) or an internally synchronized
  // / atomic snapshot (cache accounting, incremental counters). The
  // shared_ptr from Find keeps each entry alive across a concurrent unload.
  Json sessions = Json::Array();
  for (const std::string& name : sessions_.Names()) {
    std::shared_ptr<Session> s = sessions_.Find(name);
    if (s == nullptr) continue;
    Json entry = Json::Object();
    entry.Set("session", Json::Str(name));
    entry.Set("rows", Json::Int(s->rel().num_rows()));
    entry.Set("attrs", Json::Int(s->rel().num_attrs()));
    entry.Set("sigma_size",
              Json::Int(static_cast<int64_t>(s->sigma().size())));
    entry.Set("cache_entries", Json::Int(static_cast<int64_t>(s->cache().size())));
    entry.Set("cache_bytes", Json::Int(s->cache().bytes()));
    if (s->incremental() != nullptr) {
      entry.Set("consistent", Json::Bool(s->incremental()->IsConsistent()));
      entry.Set("violating_classes",
                Json::Int(s->incremental()->total_violating()));
    }
    entry.Set("session_version",
              Json::Int(static_cast<int64_t>(s->version())));
    entry.Set("load_seconds", Json::Number(s->load_seconds()));
    sessions.Push(std::move(entry));
  }
  Json response = OkResponse(request);
  response.Set("sessions", std::move(sessions));
  return response;
}

Json ServiceServer::HandleVerify(const Json& request) {
  std::shared_ptr<Session> session =
      sessions_.Find(request.Get("session").AsString());
  if (session == nullptr) {
    return ErrResponse(request, kCodeNotFound, "unknown session");
  }
  if (!session->has_sigma()) {
    return ErrResponse(request, kCodeBadRequest, "session has no sigma");
  }
  // Snapshot read: the strand guarantees no writer touches this session
  // while we run; the version audit at the end proves it. The incremental
  // verifier already holds every OFD's verdict and support.
  [[maybe_unused]] const uint64_t entry_version = session->version();
  const SigmaSet& sigma = session->sigma();
  const IncrementalVerifier& state = *session->incremental();
  Json ofds = Json::Array();
  int violated = 0;
  for (size_t i = 0; i < sigma.size(); ++i) {
    Json entry = Json::Object();
    entry.Set("ofd", Json::Str(RenderOfd(sigma[i], session->rel().schema())));
    entry.Set("holds", Json::Bool(state.Holds(i)));
    entry.Set("support", Json::Number(state.Support(i)));
    ofds.Push(std::move(entry));
    violated += !state.Holds(i);
  }
  Json response = OkResponse(request);
  response.Set("ofds", std::move(ofds));
  response.Set("violated", Json::Int(violated));
  response.Set("consistent", Json::Bool(violated == 0));
  FASTOFD_AUDIT_OK(AuditSnapshotStable(*session, entry_version));
  return response;
}

Json ServiceServer::HandleDiscover(const Json& request) {
  std::shared_ptr<Session> session =
      sessions_.Find(request.Get("session").AsString());
  if (session == nullptr) {
    return ErrResponse(request, kCodeNotFound, "unknown session");
  }
  [[maybe_unused]] const uint64_t entry_version = session->version();
  FastOfdConfig config;
  config.min_support = request.Get("kappa").AsDouble(1.0);
  config.max_level = static_cast<int>(request.Get("max_level").AsInt(64));
  config.pool = &pool_;
  config.metrics = metrics_;
  config.partitions = &session->cache();
  FastOfdResult result =
      FastOfd(session->rel(), session->index(), config, nullptr).Discover();
  Json ofds = Json::Array();
  for (const Ofd& ofd : result.ofds) {
    ofds.Push(Json::Str(RenderOfd(ofd, session->rel().schema())));
  }
  Json response = OkResponse(request);
  response.Set("ofds", std::move(ofds));
  response.Set("candidates_checked", Json::Int(result.candidates_checked));
  FASTOFD_AUDIT_OK(AuditSnapshotStable(*session, entry_version));
  return response;
}

Json ServiceServer::HandleClean(const Json& request) {
  std::shared_ptr<Session> session =
      sessions_.Find(request.Get("session").AsString());
  if (session == nullptr) {
    return ErrResponse(request, kCodeNotFound, "unknown session");
  }
  if (!session->has_sigma()) {
    return ErrResponse(request, kCodeBadRequest, "session has no sigma");
  }
  OfdCleanConfig config;
  config.beam_size = static_cast<int>(request.Get("beam").AsInt(0));
  config.tau = request.Get("tau").AsDouble(0.65);
  config.pool = &pool_;
  config.metrics = metrics_;
  config.partitions = &session->cache();
  OfdClean cleaner(session->rel(), session->ontology(), session->sigma(),
                   config);
  OfdCleanResult result = cleaner.Run();

  Json pareto = Json::Array();
  for (const ParetoPoint& p : result.pareto) {
    pareto.Push(Json::Array()
                    .Push(Json::Int(p.ontology_changes))
                    .Push(Json::Int(p.data_changes)));
  }
  Json additions = Json::Array();
  for (const OntologyAddition& add : result.best.ontology_additions) {
    Json entry = Json::Object();
    entry.Set("value", Json::Str(session->rel().dict().String(add.value)));
    entry.Set("sense", Json::Str(session->ontology().sense_name(add.sense)));
    additions.Push(std::move(entry));
  }
  Json response = OkResponse(request);
  response.Set("pareto", std::move(pareto));
  response.Set("ontology_additions", std::move(additions));
  response.Set("data_changes", Json::Int(result.best.data_changes));
  response.Set("consistent", Json::Bool(result.best.consistent));
  std::string out = request.Get("out").AsString();
  if (!out.empty()) {
    Status s = WriteCsvFile(out, result.best.repaired.ToCsv());
    if (!s.ok()) return ErrResponse(request, kCodeInternal, s.message());
    response.Set("out", Json::Str(out));
  }
  return response;
}

Json ServiceServer::HandleUpdate(const Json& request) {
  std::shared_ptr<Session> session =
      sessions_.Find(request.Get("session").AsString());
  if (session == nullptr) {
    return ErrResponse(request, kCodeNotFound, "unknown session");
  }
  Relation& rel = session->rel();

  // Either a single {row, attr, value} or a batched {"updates": [...]}.
  std::vector<const Json*> updates;
  if (request.Get("updates").is_array()) {
    for (const Json& u : request.Get("updates").items()) updates.push_back(&u);
  } else if (request.Has("row")) {
    updates.push_back(&request);
  }
  if (updates.empty()) {
    return ErrResponse(request, kCodeBadRequest,
                       "update requires row/attr/value or updates[]");
  }

  // Pass 1: validate and resolve every entry before mutating anything, so an
  // invalid entry rejects the whole batch instead of leaving the session
  // half-updated (with the partition cache stale over the touched attrs).
  struct ResolvedUpdate {
    RowId row;
    AttrId attr;
    const std::string* value;
  };
  std::vector<ResolvedUpdate> resolved;
  resolved.reserve(updates.size());
  for (const Json* u : updates) {
    // Range-check as int64 before narrowing: row=4294967296 must be rejected,
    // not wrapped to 0.
    int64_t row64 = u->Get("row").AsInt(-1);
    if (row64 < 0 || row64 >= static_cast<int64_t>(rel.num_rows())) {
      return ErrResponse(request, kCodeBadRequest,
                         "row out of range: " + u->Get("row").Dump());
    }
    const Json& attr_field = u->Get("attr");
    AttrId attr = -1;
    if (attr_field.is_string()) {
      attr = rel.schema().Find(attr_field.AsString());
      const std::string& name = attr_field.AsString();
      if (attr < 0 && !name.empty()) {
        // `fastofd client update --attr 2` reaches us as the string "2".
        // ParseIndex rejects overflow and out-of-range values, so a hostile
        // attr id yields a 400 instead of terminating the daemon.
        Result<int64_t> parsed =
            ParseIndex(name, static_cast<int64_t>(rel.num_attrs()));
        if (parsed.ok()) attr = static_cast<AttrId>(parsed.value());
      }
    } else {
      int64_t attr64 = attr_field.AsInt(-1);
      if (attr64 >= 0 && attr64 < static_cast<int64_t>(rel.num_attrs())) {
        attr = static_cast<AttrId>(attr64);
      }
    }
    if (attr < 0 || attr >= rel.num_attrs()) {
      return ErrResponse(request, kCodeNotFound,
                         "unknown attribute: " + attr_field.Dump());
    }
    if (!u->Get("value").is_string()) {
      return ErrResponse(request, kCodeBadRequest,
                         "update value must be a string");
    }
    resolved.push_back(ResolvedUpdate{static_cast<RowId>(row64), attr,
                                      &u->Get("value").AsString()});
  }

  int64_t before_rechecked =
      session->incremental() != nullptr
          ? session->incremental()->classes_rechecked()
          : 0;
  // Seqlock write bracket: version goes odd while the session mutates. The
  // strand started this write only after its readers drained and holds off
  // new ones, so no read ever observes the odd window — the version audit
  // in the read handlers enforces exactly that.
  session->BeginWrite();
  int applied = 0;
  for (const ResolvedUpdate& ru : resolved) {
    ValueId value = rel.mutable_dict().Intern(*ru.value);
    session->UpdateCell(ru.row, ru.attr, value);
    ++applied;
  }
  size_t invalidated = session->FlushInvalidations();
  session->EndWrite();
  metrics_->Add("serve.cells_updated", applied);
  // The update path is where incremental state drifts if it ever will:
  // re-check group maps (and on small relations, full Σ) immediately.
  FASTOFD_AUDIT_OK(session->Audit());

  Json response = OkResponse(request);
  response.Set("applied", Json::Int(applied));
  response.Set("invalidated_partitions",
               Json::Int(static_cast<int64_t>(invalidated)));
  if (session->incremental() != nullptr) {
    IncrementalVerifier* inc = session->incremental();
    response.Set("consistent", Json::Bool(inc->IsConsistent()));
    response.Set("violating_classes", Json::Int(inc->total_violating()));
    response.Set("classes_rechecked",
                 Json::Int(inc->classes_rechecked() - before_rechecked));
  }
  return response;
}

Json ServiceServer::HandleStats(const Json& request) {
  size_t queued;
  {
    MutexLock lock(mu_);
    queued = queued_ + parked_.size();
  }
  metrics_->Set("serve.queue_depth", static_cast<double>(queued));
  MetricsSnapshot snapshot = metrics_->Snapshot();
  Json counters = Json::Object();
  for (const auto& [name, v] : snapshot.counters) counters.Set(name, Json::Int(v));
  Json gauges = Json::Object();
  for (const auto& [name, v] : snapshot.gauges) gauges.Set(name, Json::Number(v));
  Json timers = Json::Object();
  for (const auto& [name, t] : snapshot.timers) {
    Json entry = Json::Object();
    entry.Set("seconds", Json::Number(t.seconds));
    entry.Set("count", Json::Int(t.count));
    timers.Set(name, std::move(entry));
  }
  // Latency histograms, reported in milliseconds under their op name.
  Json latency = Json::Object();
  const std::string prefix = "serve.latency.";
  for (const auto& [name, h] : snapshot.histograms) {
    if (name.rfind(prefix, 0) != 0) continue;
    Json entry = Json::Object();
    entry.Set("count", Json::Int(h.count));
    entry.Set("p50_ms", Json::Number(h.Quantile(0.50) * 1e3));
    entry.Set("p95_ms", Json::Number(h.Quantile(0.95) * 1e3));
    entry.Set("p99_ms", Json::Number(h.Quantile(0.99) * 1e3));
    entry.Set("max_ms", Json::Number(h.max * 1e3));
    entry.Set("mean_ms",
              Json::Number(h.count > 0 ? h.sum / static_cast<double>(h.count) * 1e3
                                       : 0.0));
    latency.Set(name.substr(prefix.size()), std::move(entry));
  }
  Json response = OkResponse(request);
  response.Set("queue_depth", Json::Int(static_cast<int64_t>(queued)));
  response.Set("sessions", Json::Int(static_cast<int64_t>(sessions_.size())));
  response.Set("latency", std::move(latency));
  response.Set("counters", std::move(counters));
  response.Set("gauges", std::move(gauges));
  response.Set("timers", std::move(timers));
  return response;
}

}  // namespace fastofd
