#ifndef MSQL_RUNTIME_SESSION_H_
#define MSQL_RUNTIME_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace msql {

// One client's connection to an Engine: an options snapshot, a user, and a
// cancellation scope. Created with Engine::CreateSession(). Many sessions
// may issue queries concurrently (each Session::Query call is safe against
// every other session and against engine-level DDL/DML); a single session
// may also run several queries at once through QueryScheduler.
//
// `options()` / `SetUser` configure this session only, and — like their
// engine-level counterparts — must not be called while this session has a
// query in flight. Per-statement settings of a scheduled statement
// (timeout, tracing, trace id) travel with its ScheduledRun instead.
class Session {
 public:
  // Session lifetime is tracked by the engine (msql_sessions_active).
  ~Session();

  // Runs one statement as this session.
  Result<ResultSet> Query(const std::string& sql);

  // Runs one or more ';'-separated statements, discarding row results.
  Status Execute(const std::string& sql);

  // Prepares a single SELECT with declared positional parameter types
  // (Engine::PrepareSelect as this session's user; published to the
  // engine's plan cache when enable_plan_cache is set).
  Result<PreparedPlanPtr> Prepare(const std::string& sql,
                                  std::vector<TypeKind> param_types);

  // Executes a prepared plan with `params` bound to its `?` placeholders.
  Result<ResultSet> QueryPrepared(const PreparedPlanPtr& prepared,
                                  const Row& params);

  // Cancels every statement currently executing on this session (from any
  // thread) — including statements still waiting in scheduler admission,
  // which unwind with kCancelled without executing. Statements started
  // after the call are unaffected.
  void Cancel();

  EngineOptions& options() { return options_; }
  void SetUser(std::string user) { user_ = std::move(user); }
  const std::string& user() const { return user_; }
  uint64_t id() const { return id_; }
  Engine& engine() { return *engine_; }

  // Connection identity ("ip:port#connid"), set once by the server after
  // Hello; copied onto every statement's trace. Same single-threaded
  // contract as options()/SetUser.
  void SetPeer(std::string peer) { peer_ = std::move(peer); }
  const std::string& peer() const { return peer_; }

  // Queries currently executing on this session (scheduler admission).
  int inflight() const { return inflight_.load(std::memory_order_acquire); }

 private:
  friend class Engine;
  friend class QueryScheduler;

  Session(Engine* engine, uint64_t id, EngineOptions options,
          std::string user)
      : engine_(engine),
        id_(id),
        options_(std::move(options)),
        user_(std::move(user)) {}

  // Creates and registers a token so Cancel() can reach it. The scheduler
  // acquires it at submission time, so Cancel() also reaches statements
  // still waiting for admission.
  CancelTokenPtr AcquireToken();
  void ReleaseToken(const CancelTokenPtr& token);

  // The per-query context: this session's options, user and identity,
  // running under `token`.
  QueryContext MakeContext(CancelTokenPtr token) const;

  Engine* engine_;
  uint64_t id_;
  EngineOptions options_;
  std::string user_;
  std::string peer_;

  std::mutex tokens_mu_;
  std::vector<CancelTokenPtr> active_tokens_;

  std::atomic<int> inflight_{0};
};

}  // namespace msql

#endif  // MSQL_RUNTIME_SESSION_H_
