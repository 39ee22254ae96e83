#ifndef MSQL_NET_SERVER_H_
#define MSQL_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "net/admin.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"
#include "runtime/session.h"

// The msqld network front end (docs/NETWORKING.md): a TCP server speaking
// the length-prefixed frame protocol of net/wire.h. One acceptor thread
// distributes connections round-robin over N handler threads, each running
// an epoll event loop over its connections with non-blocking sockets and
// bounded input/output buffers. Statements run as tasks of the server's
// QueryScheduler — the same admission path as embedded submissions — so a
// long query never wedges an event loop. Each authenticated connection
// owns one Engine session (Engine::CreateSessionForUser), giving it the
// engine's full per-session machinery: cancellation scope, option
// snapshot, definer security.
//
// Robustness posture:
//  - Admission is the scheduler's: a per-user GCRA token bucket, so a
//    flooding user exhausts only its own bucket. A token that frees up
//    within max_admission_wait_ms is reserved and the statement starts
//    when it falls due — no thread sleeps on it; beyond that the statement
//    is shed with kResourceExhausted. The scheduler's slot caps are sized
//    from max_connections, so a handler thread never waits in admission.
//  - Deadlines propagate from the wire: Query/Execute carry timeout_ms;
//    the budget starts at frame dispatch, so admission and queue wait
//    charge against it (kDeadlineExceeded once elapsed).
//  - Slow or half-closed clients cannot wedge a handler: output buffers
//    are size-capped (overflow => kResourceExhausted Error + close), and a
//    connection whose pending output makes no progress for
//    write_timeout_ms is dropped.
//  - Cancel frames bypass the per-connection request queue, so an
//    in-flight statement can be cancelled mid-execution.
namespace msql::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = pick an ephemeral port (see MsqldServer::port)
  int num_handler_threads = 2;
  int num_worker_threads = 4;  // the statement scheduler's worker threads
  int listen_backlog = 512;
  size_t max_connections = 4096;
  int max_connections_per_user = 0;  // 0 = unlimited
  size_t max_inbuf_bytes = 1u << 20;
  size_t max_outbuf_bytes = 8u << 20;
  // Pending output making no progress for this long drops the connection
  // (slow-client shed). <= 0 disables.
  int64_t write_timeout_ms = 10000;
  size_t result_batch_rows = 1024;  // rows per ResultBatch frame
  // Scheduler admission (SchedulerOptions): per-user token bucket (0 qps =
  // unlimited) and how long a statement may wait for a token.
  double per_user_rate_limit_qps = 0.0;
  int64_t per_user_rate_limit_burst = 16;
  int64_t max_admission_wait_ms = 100;
  // Applied when a Query/Execute frame carries timeout_ms == 0, and to
  // Prepare frames.
  int64_t default_timeout_ms = 0;
  // Admin HTTP endpoint (/metrics, /healthz, /statusz, /tracez) on the
  // same host; < 0 disables it, 0 picks an ephemeral port
  // (MsqldServer::admin_port after Start).
  int admin_port = -1;
};

class MsqldServer {
 public:
  MsqldServer(Engine* engine, ServerOptions options);
  ~MsqldServer();

  MsqldServer(const MsqldServer&) = delete;
  MsqldServer& operator=(const MsqldServer&) = delete;

  // Binds, listens and starts the acceptor + handler threads.
  Status Start();

  // Stops accepting, cancels in-flight statements, closes every
  // connection and joins all threads. Idempotent.
  void Stop();

  // The bound port (after Start); useful with options.port == 0.
  uint16_t port() const { return port_; }
  // The admin endpoint's bound port (after Start); 0 when disabled.
  uint16_t admin_port() const {
    return admin_ != nullptr ? admin_->port() : 0;
  }
  const ServerOptions& options() const { return options_; }
  int active_connections() const {
    return active_conns_.load(std::memory_order_acquire);
  }

  // One connection's live state as read by /statusz and
  // msql_system.connections.
  struct ConnInfo {
    uint64_t id = 0;
    std::string peer;
    std::string user;
    std::string state;  // "handshake" | "idle" | "busy" | "closing"
    std::string statement;  // SQL in flight, empty when idle
    uint64_t inflight_stmt = 0;  // per-conn ordinal of the busy statement
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t outbuf_bytes = 0;  // response bytes awaiting the socket
    uint64_t statements = 0;
    uint64_t errors = 0;
    uint64_t rate_limited = 0;
  };

  // Snapshot of every open connection, without stopping handler or
  // scheduler threads (counters are relaxed atomics; strings take a short
  // per-conn lock).
  std::vector<ConnInfo> SnapshotConnections() const;

 private:
  struct StmtEntry {
    PreparedPlanPtr plan;
    Row params;
    bool bound = false;
  };

  // Live per-connection statistics behind ConnInfo. Its own cache line so
  // the hot-path relaxed increments (handler read loop, worker enqueue)
  // never false-share with the connection's buffers; snapshots read the
  // atomics without coordination and take `mu` only for the strings.
  struct alignas(64) ConnStats {
    uint64_t id = 0;    // immutable after accept
    std::string peer;   // immutable after accept
    // 0=handshake 1=idle 2=busy 3=closing
    std::atomic<int> state{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> statements{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> rate_limited{0};  // statements shed by admission
    // Ordinal (== statements at dispatch) of the statement in flight;
    // 0 when idle.
    std::atomic<uint64_t> inflight_stmt{0};

    std::mutex mu;  // guards the mutable strings below
    std::string user;
    std::string statement;  // SQL in flight
  };

  // One client connection. The handler thread owns parsing and fd I/O;
  // worker threads only append to the (locked) output buffer and flip
  // `busy` back off.
  struct Conn : std::enable_shared_from_this<Conn> {
    Socket sock;
    size_t handler_index = 0;
    std::string peer;  // "ip:port" for diagnostics

    // Handler-thread state (no lock needed).
    std::string inbuf;
    bool authenticated = false;
    bool saw_eof = false;
    uint32_t next_stmt_id = 1;
    std::chrono::steady_clock::time_point write_stall_since{};
    bool write_stalled = false;
    bool epoll_registered = false;  // fd present in the handler's epoll set
    bool epoll_out = false;         // EPOLLOUT currently requested

    // Prepared statements; guarded: workers insert Prepare results while
    // the handler serves Bind/Execute/Close lookups.
    std::mutex stmts_mu;
    std::unordered_map<uint32_t, StmtEntry> stmts;

    // Output buffer; guarded (workers enqueue result frames).
    std::mutex out_mu;
    std::string outbuf;
    size_t out_off = 0;

    std::atomic<bool> busy{false};
    std::atomic<bool> close_after_flush{false};
    std::atomic<bool> dead{false};
    // Set by the handler when it defers a complete frame because a
    // statement is in flight; tells FinishStatement the handler must be
    // woken to drain the input buffer. Both sides use seq_cst so one of
    // them always observes the other's store (no missed wakeup).
    std::atomic<bool> deferred_input{false};

    SessionPtr session;
    std::string user;

    ConnStats stats;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  struct Handler {
    std::thread thread;
    int epfd = -1;        // epoll set: O(ready) wakeups however many conns
    int wake_read = -1;   // self-pipe: workers & acceptor wake the loop
    int wake_write = -1;
    std::mutex adopt_mu;
    std::vector<ConnPtr> adopting;
  };

  struct NetMetrics {
    obs::Counter* connections = nullptr;
    obs::Counter* frames_read = nullptr;
    obs::Counter* frames_written = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* errors_sent = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* write_timeouts = nullptr;
    obs::Counter* slow_client_sheds = nullptr;
    obs::Gauge* connections_active = nullptr;
    // Refreshed at scrape time from the connection registry.
    obs::Gauge* conn_busy = nullptr;
    obs::Gauge* conn_idle = nullptr;
    obs::Gauge* conn_outbuf_bytes = nullptr;
  };

  void AcceptLoop();
  void HandlerLoop(Handler* handler);
  // One servicing pass over a connection: read newly arrived bytes (when
  // `revents` says there are any), parse/dispatch frames, flush pending
  // output, enforce the write-stall timeout, and maintain the conn's epoll
  // registration. Called with revents=0 from periodic maintenance scans.
  void ServiceConn(Handler* handler, const ConnPtr& conn, uint32_t revents,
                   char* scratch,
                   std::chrono::steady_clock::time_point now);
  void WakeHandler(size_t index);

  // Frame handling (handler thread).
  void ProcessInput(const ConnPtr& conn);
  void DispatchFrame(const ConnPtr& conn, const Frame& frame);
  void HandleHello(const ConnPtr& conn, const Frame& frame);
  void HandleBind(const ConnPtr& conn, const Frame& frame);
  void HandleClose(const ConnPtr& conn, const Frame& frame);
  void DispatchQuery(const ConnPtr& conn, const Frame& frame);
  void DispatchPrepare(const ConnPtr& conn, const Frame& frame);
  void DispatchExecute(const ConnPtr& conn, const Frame& frame);

  // Admits one statement through the scheduler with the frame's timeout
  // and trace context. `body` runs on a scheduler worker and sends the
  // response; a shed answers with an Error frame at once. Either way the
  // connection is busy from here until the response is enqueued.
  void ScheduleStatement(const ConnPtr& conn, const std::string& sql,
                         ScheduledRun run, QueryScheduler::Task body);
  ScheduledRun RunFor(uint32_t frame_timeout_ms, uint8_t trace_flags,
                      std::string trace_id) const;
  // Connection-stats bookkeeping around one statement: dispatch marks the
  // connection busy with the statement's text, FinishStatement returns it
  // to idle.
  void NoteStatementStart(const ConnPtr& conn, const std::string& sql);

  // Clears `busy` and wakes the handler only if it has work left to do
  // (deferred input, a pending close, or a dead conn to reap). The common
  // request/response cycle finishes without touching the handler: the
  // worker flushed the response inline from EnqueueFrames.
  void FinishStatement(const ConnPtr& conn);

  // Output path. EnqueueFrames appends whole pre-encoded frames to the
  // connection's bounded output buffer and wakes its handler; overflow
  // sheds the client with kResourceExhausted. SendError/SendBatch are
  // convenience encoders on top of it.
  void EnqueueFrames(const ConnPtr& conn, std::string frames, size_t nframes);
  void SendError(const ConnPtr& conn, const Status& status);
  void SendBatch(const ConnPtr& conn, const ResultBatchMsg& msg);
  // `with_footer` appends the server-side span summary (per-phase µs,
  // plan-cache outcome, guard bytes) to the final batch — only when the
  // client requested tracing for this statement.
  void SendResult(const ConnPtr& conn, uint32_t stmt_id,
                  const ResultSet& result, bool with_footer = false);
  // SendResult on success, SendError otherwise.
  void SendOutcome(const ConnPtr& conn, uint32_t stmt_id,
                   const Result<ResultSet>& result, bool with_footer);

  void CloseConn(const ConnPtr& conn);

  // Admin endpoint plumbing: starts/stops the AdminServer and registers
  // the msql_system.connections provider with the engine.
  Status StartAdmin();
  std::string StatuszJson() const;
  std::string TracezJson(int64_t min_ms) const;

  Engine* engine_;
  ServerOptions options_;
  NetMetrics metrics_;
  uint16_t port_ = 0;

  Socket listener_;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Handler>> handlers_;
  std::unique_ptr<QueryScheduler> scheduler_;

  std::unique_ptr<AdminServer> admin_;

  // Connection registry for /statusz, the msql_net_conn_* gauges and
  // msql_system.connections. Mutated at connection rate (accept/close),
  // read at scrape rate — a plain locked map is plenty.
  mutable std::mutex conns_mu_;
  std::unordered_map<uint64_t, ConnPtr> conns_by_id_;
  std::atomic<uint64_t> next_conn_id_{1};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_conns_{0};
  std::atomic<size_t> next_handler_{0};
};

}  // namespace msql::net

#endif  // MSQL_NET_SERVER_H_
