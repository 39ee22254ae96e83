// End-to-end tests for the msqld network front end: wire-protocol
// round-trips, the Hello/Query/Prepare/Bind/Execute lifecycle over a real
// loopback socket, plan-cache behavior observed from the client side,
// admission control, deadline propagation, and slow/half-closed clients.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "net/admin.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "testing/compare.h"

namespace msql {
namespace {

constexpr char kSetup[] = R"(
CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, revenue INTEGER);
INSERT INTO Orders VALUES
  ('Happy', 'Alice', 6), ('Acme', 'Bob', 5), ('Happy', 'Alice', 7),
  ('Whizz', 'Celia', 3), ('Happy', 'Bob', 4);
CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders;
)";

constexpr char kMeasureQuery[] =
    "SELECT prodName, AGGREGATE(r) AS v FROM EO GROUP BY prodName "
    "ORDER BY prodName";

class NetTest : public ::testing::Test {
 protected:
  void StartServer(net::ServerOptions options = {}) {
    EngineOptions engine_options;
    engine_options.enable_plan_cache = true;
    engine_options.enable_system_tables = true;
    engine_ = std::make_unique<Engine>(engine_options);
    ASSERT_TRUE(engine_->Execute(kSetup).ok());
    server_ = std::make_unique<net::MsqldServer>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  net::ClientOptions User(const std::string& user) {
    net::ClientOptions options;
    options.user = user;
    return options;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<net::MsqldServer> server_;
};

// Minimal HTTP/1.1 GET against the admin endpoint: one request, read until
// the server closes (it always sends Connection: close).
std::string HttpGet(uint16_t port, const std::string& path) {
  auto sock = net::ConnectTo("127.0.0.1", port, 2000);
  if (!sock.ok()) return "";
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!net::WriteAll(sock.value().fd(), request.data(), request.size(), 2000)
           .ok()) {
    return "";
  }
  std::string response;
  char buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{sock.value().fd(), POLLIN, 0};
    if (poll(&pfd, 1, 200) <= 0) continue;
    const ssize_t got = ::recv(sock.value().fd(), buf, sizeof(buf), 0);
    if (got <= 0) break;
    response.append(buf, static_cast<size_t>(got));
  }
  return response;
}

TEST(WireTest, ValueAndFrameRoundTrip) {
  std::string payload;
  net::PutValue(&payload, Value::Null());
  net::PutValue(&payload, Value::Bool(true));
  net::PutValue(&payload, Value::Int(-42));
  net::PutValue(&payload, Value::Double(2.5));
  net::PutValue(&payload, Value::String("héllo"));
  net::WireReader reader(payload);
  EXPECT_TRUE(reader.GetValue().value().is_null());
  EXPECT_EQ(reader.GetValue().value().bool_val(), true);
  EXPECT_EQ(reader.GetValue().value().int_val(), -42);
  EXPECT_EQ(reader.GetValue().value().double_val(), 2.5);
  EXPECT_EQ(reader.GetValue().value().str(), "héllo");
  EXPECT_TRUE(reader.AtEnd());
  // Underflow is a clean error, not a read past the end.
  EXPECT_FALSE(reader.GetValue().ok());

  net::ResultBatchMsg msg;
  msg.stmt_id = 7;
  msg.kind = 1;
  msg.last = true;
  msg.columns = {"a", "b"};
  msg.types = {TypeKind::kInt64, TypeKind::kString};
  msg.rows = {{Value::Int(1), Value::String("x")},
              {Value::Null(), Value::String("y")}};
  msg.total_rows = 2;
  msg.total_us = 1234;
  msg.plan_cache = 2;
  auto decoded = net::DecodeResultBatch(net::EncodeResultBatch(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().stmt_id, 7u);
  EXPECT_EQ(decoded.value().columns, msg.columns);
  ASSERT_EQ(decoded.value().rows.size(), 2u);
  EXPECT_EQ(decoded.value().rows[0][0].int_val(), 1);
  EXPECT_TRUE(decoded.value().rows[1][0].is_null());
  EXPECT_EQ(decoded.value().total_us, 1234u);
  EXPECT_EQ(decoded.value().plan_cache, 2u);
}

TEST(WireTest, TryParseFrameHandlesPartialAndMalformedInput) {
  std::string buf;
  net::AppendFrame(&buf, net::FrameType::kQuery,
                   net::EncodeQuery({"SELECT 1", 0}));
  // Byte-at-a-time delivery: the parser reports "need more" until the
  // frame completes, then yields it exactly once.
  std::string partial;
  net::Frame frame;
  for (size_t i = 0; i + 1 < buf.size(); ++i) {
    partial.push_back(buf[i]);
    size_t off = 0;
    auto r = net::TryParseFrame(partial, &off, &frame);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value()) << "frame yielded early at byte " << i;
  }
  partial.push_back(buf.back());
  size_t off = 0;
  auto complete = net::TryParseFrame(partial, &off, &frame);
  ASSERT_TRUE(complete.ok());
  ASSERT_TRUE(complete.value());
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(frame.type, net::FrameType::kQuery);

  // A declared payload over the cap is rejected before any buffering.
  std::string huge;
  net::PutU32(&huge, net::kMaxFramePayload + 1);
  net::PutU8(&huge, static_cast<uint8_t>(net::FrameType::kQuery));
  off = 0;
  EXPECT_FALSE(net::TryParseFrame(huge, &off, &frame).ok());

  // Unknown frame types are protocol errors.
  std::string unknown;
  net::PutU32(&unknown, 0);
  net::PutU8(&unknown, 250);
  off = 0;
  EXPECT_FALSE(net::TryParseFrame(unknown, &off, &frame).ok());
}

TEST_F(NetTest, QueryRoundTripAndPlanCacheWarmth) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("alice")).ok());
  EXPECT_EQ(client.server_banner(), "msqld");

  auto cold = client.Query(kMeasureQuery);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold.value().num_rows(), 3u);
  EXPECT_EQ(cold.value().Get(1, "v").int_val(), 17);  // Happy: 6 + 7 + 4
  ASSERT_NE(cold.value().stats(), nullptr);
  EXPECT_EQ(cold.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kMiss);

  auto warm = client.Query(kMeasureQuery);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_NE(warm.value().stats(), nullptr);
  EXPECT_EQ(warm.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kHit);

  // The warm result is byte-for-byte the cold result.
  auto diff = testing::DiffResults(cold.value(), warm.value(),
                                   testing::CompareOptions{});
  EXPECT_FALSE(diff.has_value()) << *diff;

  // Server-side errors arrive as typed Statuses, connection stays usable.
  auto bad = client.Query("SELECT nope FROM nothing");
  EXPECT_FALSE(bad.ok());
  auto again = client.Query("SELECT 1");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(NetTest, PrepareBindExecuteLifecycle) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("bob")).ok());

  auto stmt = client.Prepare(
      "SELECT prodName, AGGREGATE(r) AS v FROM EO WHERE revenue > ? "
      "GROUP BY prodName ORDER BY prodName",
      {TypeKind::kInt64});
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().param_count, 1);

  // Executing before Bind is refused.
  auto unbound = client.Execute(stmt.value());
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), ErrorCode::kInvalidArgument);

  ASSERT_TRUE(client.Bind(stmt.value(), {Value::Int(4)}).ok());
  auto first = client.Execute(stmt.value());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().num_rows(), 2u);  // Acme 5, Happy 6+7

  // Rebind narrows the filter; the same bound plan serves the new value.
  ASSERT_TRUE(client.Bind(stmt.value(), {Value::Int(6)}).ok());
  auto second = client.Execute(stmt.value());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().num_rows(), 1u);  // Happy 7
  ASSERT_NE(second.value().stats(), nullptr);
  EXPECT_EQ(second.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kHit);

  // Parameter type mismatch on Bind is a typed error, not a disconnect.
  Status mismatch = client.Bind(stmt.value(), {Value::String("not a number")});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(mismatch.message().find("parameter $1 type mismatch"),
            std::string::npos)
      << mismatch.ToString();
  Status arity = client.Bind(stmt.value(), {Value::Int(1), Value::Int(2)});
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.code(), ErrorCode::kInvalidArgument);

  ASSERT_TRUE(client.CloseStatement(stmt.value()).ok());
  auto closed = client.Execute(stmt.value());
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(NetTest, ExecuteSurvivesCatalogGenerationBump) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("carol")).ok());

  auto stmt = client.Prepare(kMeasureQuery, {});
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(client.Execute(stmt.value()).ok());

  // Mutate the catalog underneath the prepared statement. The server
  // re-prepares transparently; the client sees fresh data, not kCatalog.
  ASSERT_TRUE(
      engine_->Execute("INSERT INTO Orders VALUES ('Acme', 'Dana', 9)").ok());
  auto after = client.Execute(stmt.value());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().Get(0, "v").int_val(), 14);  // Acme: 5 + 9
}

TEST_F(NetTest, ProtocolViolationsGetCleanErrors) {
  StartServer();
  // A frame before Hello is refused with kPermission.
  {
    auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(sock.ok());
    std::string frames;
    net::AppendFrame(&frames, net::FrameType::kQuery,
                     net::EncodeQuery({"SELECT 1", 0}));
    ASSERT_TRUE(net::WriteAll(sock.value().fd(), frames.data(), frames.size(),
                              2000)
                    .ok());
    uint8_t header[net::kFrameHeaderBytes];
    ASSERT_TRUE(
        net::ReadExact(sock.value().fd(), header, sizeof(header), 2000).ok());
    EXPECT_EQ(header[4], static_cast<uint8_t>(net::FrameType::kError));
  }
  // Garbage bytes get an Error frame, then the server closes.
  {
    auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(sock.ok());
    std::string garbage = "this is not a frame and the length is absurd";
    garbage[0] = '\xff';
    garbage[1] = '\xff';
    garbage[2] = '\xff';
    garbage[3] = '\xff';
    ASSERT_TRUE(net::WriteAll(sock.value().fd(), garbage.data(),
                              garbage.size(), 2000)
                    .ok());
    uint8_t header[net::kFrameHeaderBytes];
    ASSERT_TRUE(
        net::ReadExact(sock.value().fd(), header, sizeof(header), 2000).ok());
    EXPECT_EQ(header[4], static_cast<uint8_t>(net::FrameType::kError));
  }
  // Version mismatch is refused.
  {
    auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(sock.ok());
    net::HelloMsg hello;
    hello.version = 999;
    hello.user = "eve";
    std::string frames;
    net::AppendFrame(&frames, net::FrameType::kHello, net::EncodeHello(hello));
    ASSERT_TRUE(net::WriteAll(sock.value().fd(), frames.data(), frames.size(),
                              2000)
                    .ok());
    uint8_t header[net::kFrameHeaderBytes];
    ASSERT_TRUE(
        net::ReadExact(sock.value().fd(), header, sizeof(header), 2000).ok());
    EXPECT_EQ(header[4], static_cast<uint8_t>(net::FrameType::kError));
  }
  // The server keeps serving healthy clients afterwards.
  net::Client healthy;
  ASSERT_TRUE(
      healthy.Connect("127.0.0.1", server_->port(), User("frank")).ok());
  EXPECT_TRUE(healthy.Query("SELECT 1").ok());
}

TEST_F(NetTest, HalfClosedClientIsDrainedNotWedged) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("gina")).ok());

  // Half-close: shut down our write side mid-conversation, as a crashed or
  // lazy client would. The server must notice EOF, drain, and release the
  // connection without wedging a handler thread.
  auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(sock.ok());
  net::HelloMsg hello;
  hello.user = "gina2";
  std::string frames;
  net::AppendFrame(&frames, net::FrameType::kHello, net::EncodeHello(hello));
  ASSERT_TRUE(net::WriteAll(sock.value().fd(), frames.data(), frames.size(),
                            2000)
                  .ok());
  shutdown(sock.value().fd(), SHUT_WR);

  // A healthy client on the same server stays fully served meanwhile.
  for (int i = 0; i < 5; ++i) {
    auto r = client.Query(kMeasureQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // The half-closed connection ends with EOF once the server drains it.
  char buf[4096];
  while (true) {
    Status st = net::ReadExact(sock.value().fd(), buf, 1, 5000);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), ErrorCode::kIo) << st.ToString();
      break;
    }
  }
}

TEST_F(NetTest, SlowClientIsShedWithResourceExhausted) {
  net::ServerOptions options;
  // A response bigger than the output buffer cannot be delivered — it must
  // be shed with a typed error rather than buffered without bound.
  options.max_outbuf_bytes = 512;
  StartServer(options);
  ASSERT_TRUE(engine_
                  ->Execute("CREATE TABLE Wide (s VARCHAR); "
                            "INSERT INTO Wide VALUES "
                            "('0123456789012345678901234567890123456789')")
                  .ok());
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("hank")).ok());
  auto big = client.Query(
      "SELECT w1.s, w2.s, o1.revenue FROM Wide w1, Wide w2, "
      "Orders o1, Orders o2, Orders o3");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), ErrorCode::kResourceExhausted)
      << big.status().ToString();

  // The metric recorded the shed and the server still serves new clients.
  EXPECT_NE(engine_->MetricsText().find("msql_net_slow_client_sheds_total"),
            std::string::npos);
  net::Client next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server_->port(), User("iris")).ok());
  EXPECT_TRUE(next.Query("SELECT 1").ok());
}

TEST_F(NetTest, PerUserAdmissionRateLimiting) {
  net::ServerOptions options;
  options.per_user_rate_limit_qps = 1.0;
  options.per_user_rate_limit_burst = 1;
  options.max_admission_wait_ms = 5;
  StartServer(options);

  net::Client flooder;
  ASSERT_TRUE(
      flooder.Connect("127.0.0.1", server_->port(), User("flood")).ok());
  int shed = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = flooder.Query("SELECT 1");
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted)
          << r.status().ToString();
      ++shed;
    }
  }
  EXPECT_GE(shed, 1) << "burst of 5 at 1 qps should shed";

  // Another user has its own bucket and is unaffected.
  net::Client other;
  ASSERT_TRUE(other.Connect("127.0.0.1", server_->port(), User("calm")).ok());
  auto r = other.Query("SELECT 1");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST_F(NetTest, FloodingUserDoesNotStarveCalmUser) {
  net::ServerOptions options;
  options.num_worker_threads = 4;
  options.per_user_rate_limit_qps = 50.0;
  options.max_admission_wait_ms = 100;
  StartServer(options);

  // Eight connections of one user demand far more than its 50 qps: their
  // statements wait for tokens or are shed, but neither may occupy the
  // workers a user within its own limit needs.
  std::atomic<bool> done{false};
  std::atomic<int> flood_shed{0};
  std::vector<std::thread> flooders;
  for (int c = 0; c < 8; ++c) {
    flooders.emplace_back([&] {
      net::Client client;
      if (!client.Connect("127.0.0.1", server_->port(), User("flood")).ok()) {
        return;
      }
      while (!done.load(std::memory_order_relaxed)) {
        auto r = client.Query("SELECT 1");
        if (!r.ok() &&
            r.status().code() == ErrorCode::kResourceExhausted) {
          flood_shed.fetch_add(1);
        }
      }
    });
  }

  net::Client calm;
  ASSERT_TRUE(calm.Connect("127.0.0.1", server_->port(), User("calm")).ok());
  std::vector<double> latency_ms;
  for (int i = 0; i < 40; ++i) {  // one query per 25ms: 40 qps, under 50
    const auto t0 = std::chrono::steady_clock::now();
    auto r = calm.Query(kMeasureQuery);
    const auto t1 = std::chrono::steady_clock::now();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    latency_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    std::this_thread::sleep_until(t0 + std::chrono::milliseconds(25));
  }
  done.store(true);
  for (std::thread& t : flooders) t.join();

  std::sort(latency_ms.begin(), latency_ms.end());
  const double p99 = latency_ms[latency_ms.size() * 99 / 100];
  EXPECT_LT(p99, options.max_admission_wait_ms / 4.0)
      << "calm user's p99 " << p99 << "ms next to a flooding user";
  EXPECT_GT(flood_shed.load(), 0) << "the flood never hit its rate limit";
}

TEST_F(NetTest, TraceFooterReportsAdmissionWait) {
  net::ServerOptions options;
  options.per_user_rate_limit_qps = 20.0;  // 50ms per token
  options.per_user_rate_limit_burst = 1;
  options.max_admission_wait_ms = 1000;
  StartServer(options);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("tara")).ok());
  client.SetTrace(true, "wait-for-token");

  // The first statement takes the burst token; the second waits for the
  // next one, and its footer says so.
  ASSERT_TRUE(client.Query("SELECT 1").ok());
  auto r = client.Query("SELECT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().stats(), nullptr);
  EXPECT_GT(r.value().stats()->admission_wait_us, 10 * 1000);

  // Server-side, the statement's trace carries the same waits as an
  // embedded QueryScheduler::Submit: admission-wait and queue-wait spans.
  bool found = false;
  for (const auto& trace : engine_->RecentTraces()) {
    bool admission_span = false;
    bool queue_span = false;
    for (const auto& child : trace->root().children) {
      if (child->name == "admission-wait") admission_span = true;
      if (child->name == "queue-wait") queue_span = true;
    }
    found = found || (admission_span && queue_span &&
                      trace->trace_id() == "wait-for-token");
  }
  EXPECT_TRUE(found) << "no trace carried admission-wait and queue-wait";
}

TEST_F(NetTest, DeadlinePropagatesFromWire) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("jane")).ok());
  // A cross join large enough that 1ms cannot finish it: the wire-level
  // timeout must surface as kDeadlineExceeded, proving the budget reached
  // the engine's guard.
  auto r = client.Query(
      "SELECT COUNT(*) FROM Orders a, Orders b, Orders c, Orders d, "
      "Orders e, Orders f, Orders g, Orders h",
      /*timeout_ms=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded)
      << r.status().ToString();
  // Connection unharmed.
  EXPECT_TRUE(client.Query("SELECT 1").ok());
}

TEST_F(NetTest, ConnectionLimitPerUser) {
  net::ServerOptions options;
  options.max_connections_per_user = 1;
  StartServer(options);
  net::Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port(), User("solo")).ok());
  net::Client second;
  Status refused = second.Connect("127.0.0.1", server_->port(), User("solo"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted)
      << refused.ToString();
  // Dropping the first connection frees the slot.
  first.Disconnect();
  net::Client third;
  Status retry = Status::Ok();
  for (int i = 0; i < 50; ++i) {
    retry = third.Connect("127.0.0.1", server_->port(), User("solo"));
    if (retry.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(retry.ok()) << retry.ToString();
}

TEST_F(NetTest, ConcurrentClientsAllServed) {
  net::ServerOptions options;
  options.num_handler_threads = 3;
  options.num_worker_threads = 4;
  StartServer(options);
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      if (!client
               .Connect("127.0.0.1", server_->port(),
                        User("user" + std::to_string(c)))
               .ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        auto r = client.Query(kMeasureQuery);
        if (!r.ok() || r.value().num_rows() != 3) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every statement of every client hit the shared plan cache after the
  // first fill.
  EXPECT_GE(engine_->plan_cache().stats().hits,
            static_cast<uint64_t>(kClients * kQueriesEach - kClients));
}

TEST_F(NetTest, UntracedStatementsCarryNoPhaseFooter) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("lena")).ok());
  auto r = client.Query(kMeasureQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().stats(), nullptr);
  // The trailer still carries totals, but without kTraceFlagEnabled the
  // server never measures phases: the footer is absent and the phase
  // fields stay zero (the zero-overhead disabled path).
  EXPECT_GT(r.value().stats()->total_us, 0);
  EXPECT_EQ(r.value().stats()->parse_us, 0);
  EXPECT_EQ(r.value().stats()->execute_us, 0);
  EXPECT_EQ(r.value().stats()->render_us, 0);
  // Nothing entered the server's trace ring either.
  EXPECT_TRUE(engine_->RecentTraces().empty());
}

TEST_F(NetTest, TraceFooterCarriesPhaseBreakdown) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("mia")).ok());
  client.SetTrace(true, "req-42/alpha");

  auto r = client.Query(kMeasureQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& stats = r.value().stats();
  ASSERT_NE(stats, nullptr);
  // The footer's phases are real measurements: execute ran, and the
  // pipeline phases cannot exceed the server's total.
  EXPECT_GT(stats->execute_us, 0);
  const int64_t pipeline_us = stats->bind_us + stats->measure_expand_us +
                              stats->plan_us + stats->execute_us +
                              stats->render_us;
  EXPECT_GT(pipeline_us, 0);
  EXPECT_LE(pipeline_us, stats->total_us);

  // The same statement also works through the prepared path.
  auto stmt = client.Prepare(kMeasureQuery, {});
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto executed = client.Execute(stmt.value());
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  ASSERT_NE(executed.value().stats(), nullptr);
  EXPECT_GT(executed.value().stats()->execute_us, 0);

  // Server-side, the trace ring picked up the client's correlation id and
  // the connection's peer identity.
  auto traces = engine_->RecentTraces();
  ASSERT_FALSE(traces.empty());
  bool found = false;
  for (const auto& trace : traces) {
    if (trace->trace_id() == "req-42/alpha") {
      found = true;
      EXPECT_NE(trace->peer().find("127.0.0.1"), std::string::npos)
          << trace->peer();
    }
  }
  EXPECT_TRUE(found) << "no trace carried the wire trace id";
}

TEST_F(NetTest, MalformedTraceIdsAreRejected) {
  StartServer();
  // Oversized: one byte past kMaxTraceIdBytes.
  {
    net::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server_->port(), User("nina")).ok());
    client.SetTrace(true, std::string(net::kMaxTraceIdBytes + 1, 'x'));
    auto r = client.Query("SELECT 1");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument)
        << r.status().ToString();
  }
  // Non-printable / whitespace bytes are refused too.
  {
    net::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server_->port(), User("nina")).ok());
    client.SetTrace(true, "has space");
    auto r = client.Query("SELECT 1");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument)
        << r.status().ToString();
  }
  // A maximal valid id passes.
  {
    net::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server_->port(), User("nina")).ok());
    client.SetTrace(true, std::string(net::kMaxTraceIdBytes, 'y'));
    auto r = client.Query("SELECT 1");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST_F(NetTest, SystemTablesQueryableOverWire) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("omar")).ok());

  // The querying connection sees itself: busy, with its own statement.
  auto conns = client.Query(
      "SELECT user, state, statement FROM msql_system.connections "
      "ORDER BY id");
  ASSERT_TRUE(conns.ok()) << conns.status().ToString();
  ASSERT_EQ(conns.value().num_rows(), 1u);
  EXPECT_EQ(conns.value().Get(0, "user").str(), "omar");
  EXPECT_EQ(conns.value().Get(0, "state").str(), "busy");
  EXPECT_NE(conns.value().Get(0, "statement").str().find("msql_system"),
            std::string::npos);

  // Queries land in msql_system.queries once traced; measures work over
  // system tables like over any other relation.
  client.SetTrace(true, "sys-probe");
  ASSERT_TRUE(client.Query(kMeasureQuery).ok());
  client.SetTrace(false);
  ASSERT_TRUE(engine_
                  ->Execute("CREATE VIEW QT AS SELECT *, "
                            "SUM(total_us) AS MEASURE total FROM "
                            "msql_system.queries")
                  .ok());
  auto agg = client.Query(
      "SELECT status, AGGREGATE(total) AS t FROM QT WHERE trace_id = "
      "'sys-probe' GROUP BY status");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg.value().num_rows(), 1u);
  EXPECT_EQ(agg.value().Get(0, "status").str(), "ok");
  EXPECT_GT(agg.value().Get(0, "t").int_val(), 0);

  // msql_system.metrics is a plain relation too.
  auto metric = client.Query(
      "SELECT value FROM msql_system.metrics "
      "WHERE name = 'msql_net_connections_active'");
  ASSERT_TRUE(metric.ok()) << metric.status().ToString();
  ASSERT_EQ(metric.value().num_rows(), 1u);
  EXPECT_GE(metric.value().Get(0, "value").double_val(), 1.0);

  // Prepared statements over system tables are refused: the snapshot would
  // go stale inside the bound plan.
  auto stmt = client.Prepare("SELECT id FROM msql_system.connections", {});
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), ErrorCode::kInvalidArgument);

  // And text statements over them never warm the plan cache.
  auto once = client.Query("SELECT COUNT(*) AS c FROM msql_system.queries");
  auto twice = client.Query("SELECT COUNT(*) AS c FROM msql_system.queries");
  ASSERT_TRUE(once.ok() && twice.ok());
  ASSERT_NE(twice.value().stats(), nullptr);
  EXPECT_NE(twice.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kHit);
}

TEST_F(NetTest, AdminEndpointsServeObservability) {
  net::ServerOptions options;
  options.admin_port = 0;  // ephemeral
  StartServer(options);
  ASSERT_GT(server_->admin_port(), 0);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("pat")).ok());
  ASSERT_TRUE(client.Query(kMeasureQuery).ok());

  const std::string health = HttpGet(server_->admin_port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = HttpGet(server_->admin_port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("msql_query_duration_ms"), std::string::npos);
  EXPECT_NE(metrics.find("msql_net_connections_active"), std::string::npos);
  EXPECT_NE(metrics.find("msql_net_conn_idle_active"), std::string::npos);

  const std::string statusz = HttpGet(server_->admin_port(), "/statusz");
  EXPECT_NE(statusz.find("200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("\"user\": \"pat\""), std::string::npos) << statusz;

  const std::string tracez =
      HttpGet(server_->admin_port(), "/tracez?min_ms=0");
  EXPECT_NE(tracez.find("200 OK"), std::string::npos);

  EXPECT_NE(HttpGet(server_->admin_port(), "/nope").find("404"),
            std::string::npos);

  // Shutting the server down takes the admin plane with it.
  const uint16_t admin_port = server_->admin_port();
  server_->Stop();
  EXPECT_TRUE(HttpGet(admin_port, "/healthz").empty());
  server_.reset();
  engine_.reset();
}

TEST(AdminServerTest, HealthzFlipsWhenDraining) {
  obs::MetricsRegistry registry;
  std::atomic<bool> healthy{true};
  net::AdminHooks hooks;
  hooks.healthy = [&] { return healthy.load(); };
  net::AdminServer admin("127.0.0.1", 0, hooks, &registry);
  ASSERT_TRUE(admin.Start().ok());

  EXPECT_NE(HttpGet(admin.port(), "/healthz").find("200 OK"),
            std::string::npos);
  // Exactly what MsqldServer::Stop does first: flip the readiness source.
  healthy.store(false);
  const std::string draining = HttpGet(admin.port(), "/healthz");
  EXPECT_NE(draining.find("503"), std::string::npos) << draining;
  EXPECT_NE(draining.find("draining"), std::string::npos);
  admin.Stop();
}

TEST_F(NetTest, GracefulShutdownWithOpenConnections) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("kate")).ok());
  ASSERT_TRUE(client.Query("SELECT 1").ok());
  server_->Stop();
  // The closed server refuses further traffic cleanly.
  auto r = client.Query("SELECT 1");
  EXPECT_FALSE(r.ok());
  server_.reset();
  engine_.reset();
}

}  // namespace
}  // namespace msql
