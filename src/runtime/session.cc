#include "runtime/session.h"

#include <algorithm>

namespace msql {

Session::~Session() { engine_->NoteSessionDestroyed(user_); }

CancelTokenPtr Session::AcquireToken() {
  auto token = std::make_shared<CancelToken>();
  std::lock_guard<std::mutex> lock(tokens_mu_);
  active_tokens_.push_back(token);
  return token;
}

void Session::ReleaseToken(const CancelTokenPtr& token) {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  active_tokens_.erase(
      std::remove(active_tokens_.begin(), active_tokens_.end(), token),
      active_tokens_.end());
}

QueryContext Session::MakeContext(CancelTokenPtr token) const {
  QueryContext ctx;
  ctx.options = options_;
  ctx.user = user_;
  ctx.cancel = std::move(token);
  ctx.session_id = id_;
  ctx.peer = peer_;
  return ctx;
}

Result<ResultSet> Session::Query(const std::string& sql) {
  CancelTokenPtr token = AcquireToken();
  Result<ResultSet> result = engine_->QueryWith(sql, MakeContext(token));
  ReleaseToken(token);
  return result;
}

Result<PreparedPlanPtr> Session::Prepare(const std::string& sql,
                                         std::vector<TypeKind> param_types) {
  CancelTokenPtr token = AcquireToken();
  Result<PreparedPlanPtr> result =
      engine_->PrepareSelect(sql, std::move(param_types), MakeContext(token));
  ReleaseToken(token);
  return result;
}

Result<ResultSet> Session::QueryPrepared(const PreparedPlanPtr& prepared,
                                         const Row& params) {
  CancelTokenPtr token = AcquireToken();
  Result<ResultSet> result =
      engine_->QueryPlanned(prepared, params, MakeContext(token));
  ReleaseToken(token);
  return result;
}

Status Session::Execute(const std::string& sql) {
  CancelTokenPtr token = AcquireToken();
  Status status = engine_->ExecuteWith(sql, MakeContext(token));
  ReleaseToken(token);
  return status;
}

void Session::Cancel() {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  for (const CancelTokenPtr& token : active_tokens_) token->Cancel();
}

}  // namespace msql
