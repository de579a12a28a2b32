// FrameServer accept-loop coverage: TCP and Unix-domain listeners,
// concurrent client processes' worth of connections, handshake races,
// torn handshakes from dying clients, stop() during active traffic — and
// the connection-lifecycle regression the acceptor forced: dead
// connections are reaped (conns_ no longer grows monotonically), ids are
// reused, per-connection stats survive into lifetime totals.
#include "net/acceptor.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "wire_test_util.hpp"

namespace tommy::net {
namespace {

using namespace tommy::net::testing;
using core::ClientRegistry;
using core::FairOrderingService;
using core::ServiceConfig;

ServerConfig test_server_config() {
  ServerConfig config;
  config.frontend = test_frontend_config();
  return config;
}

/// Sends a full single-connection client workload and closes.
void run_client(ByteStream& wire, std::uint32_t client,
                const std::vector<Event>& events) {
  std::vector<std::uint8_t> bytes = announce_frame(client);
  for (const Event& event : events) {
    const auto frame = event_frame(client, event);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(wire.write_all(bytes));
  wire.close_write();
}

TEST(FrameServer, TcpAcceptsAndOrdersASingleClient) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), config);
  FrameServer server(registry, service, test_server_config());
  // Port 0: ephemeral.
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = {}, .tcp_port = 0}));
  ASSERT_NE(server.port(), 0);
  ASSERT_TRUE(server.running());

  auto wire = dial(Endpoint{.unix_path = {}, .tcp_port = server.port()});
  ASSERT_NE(wire, nullptr);
  const auto workload = make_workload(1, 10, /*seed=*/3);
  run_client(*wire, 0, workload[0]);

  ASSERT_TRUE(server.wait_for_accepted(1, 5000));
  server.frontend().join_readers();
  const auto totals = server.frontend().totals();
  EXPECT_EQ(totals.accepted, 1u);
  EXPECT_EQ(totals.submits_in, 10u);
  EXPECT_GT(totals.bytes_in, 0u);

  std::size_t messages = 0;
  service.flush(TimePoint(3.0),
                [&messages](core::EmissionRecord&& record, std::uint32_t) {
                  messages += record.batch.messages.size();
                });
  EXPECT_EQ(messages, 10u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(FrameServer, UnixSocketEmissionsMatchDirectDriveWithConcurrentClients) {
  const auto workload = make_workload(4, 25, /*seed=*/17);
  ServiceConfig config;
  config.with_p_safe(0.99);
  const auto direct = run_direct(workload, config);
  ASSERT_FALSE(direct.empty());

  ClientRegistry registry = make_registry(4);
  FairOrderingService service(registry, ids(4), config);
  FrameServer server(registry, service, test_server_config());
  const std::string path = fresh_unix_path();
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));
  EXPECT_EQ(server.unix_path(), path);

  // >= 3 concurrent clients (the acceptance bar), each its own thread —
  // the in-process stand-in for N client processes; the multi-process
  // variant lives in scripts/bench_multiproc.sh.
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < 4; ++c) {
    clients.emplace_back([&path, &workload, c] {
      auto wire = dial(Endpoint{.unix_path = path, .tcp_port = 0});
      ASSERT_NE(wire, nullptr);
      run_client(*wire, c, workload[c]);
    });
  }
  for (std::thread& client : clients) client.join();

  ASSERT_TRUE(server.wait_for_accepted(4, 5000));
  server.frontend().join_readers();
  expect_equivalent(direct, drain_captured(service));
  server.stop();
}

TEST(FrameServer, HandshakeRacesResolveToOneTypedOutcomePerConnection) {
  ClientRegistry registry = make_registry(4);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(4), config);
  FrameServer server(registry, service, test_server_config());
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = {}, .tcp_port = 0}));

  // 8 simultaneous connects racing the accept loop: 4 valid handshakes
  // (one per known client), 2 unknown clients, 2 that send a data frame
  // first. Valid ones proceed; invalid ones die with their typed error.
  std::vector<std::thread> clients;
  std::atomic<int> write_failures{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&server, &write_failures, i] {
      auto wire = dial(Endpoint{.unix_path = {}, .tcp_port = server.port()});
      ASSERT_NE(wire, nullptr);
      std::vector<std::uint8_t> bytes;
      if (i < 4) {
        bytes = announce_frame(static_cast<std::uint32_t>(i));
        const auto frame =
            message_frame(static_cast<std::uint32_t>(i),
                          static_cast<std::uint64_t>(100 + i), 1.0 + i * 1e-3);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
      } else if (i < 6) {
        bytes = announce_frame(77);  // unknown client
      } else {
        bytes = message_frame(0, 5, 1.0);  // handshake violation
      }
      if (!wire->write_all(bytes)) write_failures.fetch_add(1);
      wire->close_write();
      if (i >= 4) {
        // Rejected connections are torn down server-side: observe the
        // EOF/reset. (Valid connections are only closed by reap/stop —
        // draining them here would block forever.)
        std::uint8_t buf[256];
        while (true) {
          const auto n = wire->read_some(buf);
          if (!n || *n == 0) break;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  ASSERT_TRUE(server.wait_for_accepted(8, 5000));
  server.frontend().join_readers();
  EXPECT_EQ(service.pending_count(), 4u);
  // The 4 valid clients' messages landed; nothing from the rejects.
  std::size_t messages = 0;
  service.flush(TimePoint(3.0),
                [&messages](core::EmissionRecord&& record, std::uint32_t) {
                  messages += record.batch.messages.size();
                });
  EXPECT_EQ(messages, 4u);
  server.stop();
}

TEST(FrameServer, TornHandshakeThenDropIsContainedAndReaped) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), config);
  FrameServer server(registry, service, test_server_config());
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = {}, .tcp_port = 0}));

  // A client that sends half its announcement frame, then vanishes.
  {
    auto wire = dial(Endpoint{.unix_path = {}, .tcp_port = server.port()});
    ASSERT_NE(wire, nullptr);
    const auto handshake = announce_frame(1);
    ASSERT_TRUE(wire->write_all(std::span<const std::uint8_t>(
        handshake.data(), handshake.size() / 2)));
    wire->shutdown();  // full close: reads AND writes die
  }
  ASSERT_TRUE(server.wait_for_accepted(1, 5000));
  // The poller sees EOF mid-frame, the connection is reaped (kRemove),
  // and nothing reached the service.
  ASSERT_TRUE(eventually([&server] {
    return server.frontend().connection_count() == 0;
  }));
  server.frontend().reap();
  EXPECT_EQ(server.frontend().tracked_connection_count(), 0u);
  EXPECT_EQ(service.pending_count(), 0u);

  // The server is unharmed: a well-behaved client works afterwards.
  auto wire = dial(Endpoint{.unix_path = {}, .tcp_port = server.port()});
  ASSERT_NE(wire, nullptr);
  const auto workload = make_workload(1, 5, /*seed=*/9);
  run_client(*wire, 0, workload[0]);
  ASSERT_TRUE(server.wait_for_accepted(2, 5000));
  server.frontend().join_readers();
  EXPECT_TRUE(eventually([&service] { return service.pending_count() == 5; }));
  server.stop();
}

TEST(FrameServer, StopDuringActiveTrafficJoinsEverythingCleanly) {
  ClientRegistry registry = make_registry(4);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(4), config);
  auto server = std::make_unique<FrameServer>(registry, service,
                                              test_server_config());
  ASSERT_TRUE(server->listen(Endpoint{.unix_path = {}, .tcp_port = 0}));
  const std::uint16_t port = server->port();

  // Clients that write frames until their stream dies under them.
  std::vector<std::thread> clients;
  std::atomic<bool> go{false};
  for (std::uint32_t c = 0; c < 4; ++c) {
    clients.emplace_back([port, c, &go] {
      auto wire = dial(Endpoint{.unix_path = {}, .tcp_port = port});
      if (wire == nullptr) return;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!wire->write_all(announce_frame(c))) return;
      double stamp = 1.0;
      for (int k = 0; k < 100000; ++k) {
        stamp += 1e-5;
        if (!wire->write_all(message_frame(
                c, 1000ULL * c + static_cast<std::uint64_t>(k), stamp))) {
          return;  // server stopped mid-write: expected
        }
      }
    });
  }
  ASSERT_TRUE(server->wait_for_accepted(4, 5000));
  go.store(true, std::memory_order_release);
  // Let real traffic flow, then tear the server down under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->stop();
  EXPECT_FALSE(server->running());
  EXPECT_EQ(server->frontend().tracked_connection_count(), 0u);
  server.reset();  // destructor after stop(): idempotent
  for (std::thread& client : clients) client.join();
  // Whatever was applied is a consistent per-connection prefix; the
  // service stays fully pollable and drains clean.
  std::size_t emitted = 0;
  service.flush(TimePoint(10.0),
                [&emitted](core::EmissionRecord&& record, std::uint32_t) {
                  emitted += record.batch.messages.size();
                });
  EXPECT_EQ(service.pending_count(), 0u);
}

TEST(FrameServer, ListenFailuresAreReported) {
  ClientRegistry registry = make_registry(1);
  FairOrderingService service(registry, ids(1), {});
  {
    FrameServer a(registry, service, test_server_config());
    ASSERT_TRUE(a.listen(Endpoint{.unix_path = {}, .tcp_port = 0}));
    FrameServer b(registry, service, test_server_config());
    EXPECT_FALSE(  // port taken
        b.listen(Endpoint{.unix_path = {}, .tcp_port = a.port()}));
    EXPECT_FALSE(b.running());
  }
  {
    FrameServer c(registry, service, test_server_config());
    EXPECT_FALSE(c.listen(  // ENAMETOOLONG
        Endpoint{.unix_path = std::string(200, 'x'), .tcp_port = 0}));
    EXPECT_FALSE(c.running());
  }
}

// ── Connection lifecycle regressions (the PR 4 deferral) ────────────────

TEST(FrameFrontendLifecycle, ChurnDoesNotGrowTheConnectionTable) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), config);
  FrontendConfig frontend_config = test_frontend_config();
  frontend_config.eof_policy = EofPolicy::kRemove;
  FrameFrontend frontend(registry, service, frontend_config);

  std::uint64_t max_id = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    auto [server_end, client_end] = make_socketpair_streams();
    const std::uint64_t id = frontend.add_connection(server_end);
    max_id = std::max(max_id, id);
    std::vector<std::uint8_t> bytes = announce_frame(0);
    const auto frame =
        message_frame(0, static_cast<std::uint64_t>(cycle),
                      1.0 + 1e-3 * cycle);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    ASSERT_TRUE(client_end->write_all(bytes));
    client_end->close_write();
    // Wait out this cycle's connection so the next add_connection's reap
    // deterministically recycles the id (live count drops to 0 as soon
    // as its EOF is applied — kRemove makes EOF conns reap-ready).
    ASSERT_TRUE(eventually(
        [&frontend] { return frontend.connection_count() == 0; }));
  }
  frontend.join_readers();
  frontend.reap();
  // All 100 cycles' connections are gone, their ids were recycled, and
  // nothing was lost on the way to the service.
  EXPECT_EQ(frontend.tracked_connection_count(), 0u);
  EXPECT_EQ(frontend.connection_count(), 0u);
  // Each cycle's connection was reaped before the next id was minted:
  // the id space never grew past the live set.
  EXPECT_LE(max_id, 1u);
  const auto totals = frontend.totals();
  EXPECT_EQ(totals.accepted, 100u);
  EXPECT_EQ(totals.removed, 100u);
  EXPECT_EQ(totals.submits_in, 100u);
  EXPECT_EQ(service.pending_count(), 100u);
}

TEST(FrameFrontendLifecycle, IdsAreReusedSmallestFirst) {
  ClientRegistry registry = make_registry(2);
  FairOrderingService service(registry, ids(2), {});
  FrontendConfig config = test_frontend_config();
  config.eof_policy = EofPolicy::kRemove;
  FrameFrontend frontend(registry, service, config);

  auto [s0, c0] = make_socketpair_streams();
  auto [s1, c1] = make_socketpair_streams();
  auto [s2, c2] = make_socketpair_streams();
  EXPECT_EQ(frontend.add_connection(s0), 0u);
  EXPECT_EQ(frontend.add_connection(s1), 1u);
  EXPECT_EQ(frontend.add_connection(s2), 2u);
  EXPECT_EQ(frontend.connection_count(), 3u);

  EXPECT_TRUE(frontend.close_connection(1));
  EXPECT_FALSE(frontend.has_connection(1));
  EXPECT_FALSE(frontend.close_connection(1));  // already gone: an outcome
  EXPECT_EQ(frontend.tracked_connection_count(), 2u);

  auto [s3, c3] = make_socketpair_streams();
  EXPECT_EQ(frontend.add_connection(s3), 1u);  // recycled
  auto [s4, c4] = make_socketpair_streams();
  EXPECT_EQ(frontend.add_connection(s4), 3u);  // fresh
  frontend.stop();
  EXPECT_EQ(frontend.tracked_connection_count(), 0u);
  EXPECT_EQ(frontend.totals().accepted, 5u);
  EXPECT_EQ(frontend.totals().removed, 5u);
}

TEST(FrameFrontendLifecycle, StatsTrackTrafficAndSurviveIntoTotals) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), service_config);
  FrameFrontend frontend(registry, service, test_frontend_config());

  auto [server_end, client_end] = make_socketpair_streams();
  const auto id = frontend.add_connection(server_end);
  std::vector<std::uint8_t> bytes = announce_frame(0);
  for (int k = 0; k < 5; ++k) {
    const auto frame = message_frame(0, static_cast<std::uint64_t>(k),
                                     1.0 + 1e-3 * k);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  const auto tail = heartbeat_frame(0, 1.2);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  ASSERT_TRUE(client_end->write_all(bytes));
  client_end->close_write();
  frontend.join_readers();

  auto stats = frontend.connection_stats(id);
  EXPECT_EQ(stats.frames_in, 7u);
  EXPECT_EQ(stats.submits_in, 5u);
  EXPECT_EQ(stats.heartbeats_in, 1u);
  EXPECT_EQ(stats.bytes_in, bytes.size());
  EXPECT_TRUE(stats.done);
  EXPECT_TRUE(stats.clean_eof);
  EXPECT_GT(stats.last_activity, 0.0);
  EXPECT_EQ(stats.error, WireError::kNone);
  EXPECT_EQ(stats.frames_out, 0u);

  // Lingering policy: the half-closed peer still receives the broadcast.
  const std::size_t emitted = frontend.pump_flush(TimePoint(3.0));
  ASSERT_GT(emitted, 0u);
  stats = frontend.connection_stats(id);
  EXPECT_EQ(stats.frames_out, emitted);
  EXPECT_GT(stats.bytes_out, 0u);

  EXPECT_TRUE(frontend.close_connection(id));
  const auto totals = frontend.totals();
  EXPECT_EQ(totals.frames_in, 7u);
  EXPECT_EQ(totals.frames_out, emitted);
  EXPECT_EQ(totals.removed, 1u);
}

TEST(FrameFrontendLifecycle, LingerKeepsServingUntilWritesFail) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), service_config);
  FrameFrontend frontend(registry, service, test_frontend_config());

  // Connection A: sends one message, half-closes, lingers as a
  // subscriber. Connection B: stays to generate later traffic.
  auto [server_a, client_a] = make_socketpair_streams();
  const auto id_a = frontend.add_connection(server_a);
  std::vector<std::uint8_t> bytes = announce_frame(0);
  const auto frame = message_frame(0, 1, 1.0);
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  const auto tail = heartbeat_frame(0, 1.1);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  ASSERT_TRUE(client_a->write_all(bytes));
  client_a->close_write();

  auto [server_b, client_b] = make_socketpair_streams();
  frontend.add_connection(server_b);
  ASSERT_TRUE(client_b->write_all(announce_frame(1)));

  ASSERT_TRUE(eventually([&frontend, id_a] {
    return frontend.connection_stats(id_a).done;
  }));
  // EOF + linger: still counted live, still broadcast to.
  EXPECT_EQ(frontend.connection_count(), 2u);
  ASSERT_GT(frontend.pump_flush(TimePoint(3.0)), 0u);
  EXPECT_TRUE(frontend.has_connection(id_a));
  EXPECT_GT(frontend.connection_stats(id_a).frames_out, 0u);

  // A's peer vanishes entirely; the next emission's broadcast write to A
  // fails, and the pump after that reaps it.
  client_a->shutdown();
  const auto frame_b = message_frame(1, 2, 2.0);
  ASSERT_TRUE(client_b->write_all(frame_b));
  ASSERT_TRUE(client_b->write_all(heartbeat_frame(1, 2.1)));
  ASSERT_TRUE(eventually([&frontend] {
    return frontend.totals().submits_in >= 2;
  }));
  ASSERT_GT(frontend.pump_flush(TimePoint(4.0)), 0u);  // write to A fails
  (void)frontend.pump(TimePoint(5.0));                 // reap on entry
  EXPECT_FALSE(frontend.has_connection(id_a));
  EXPECT_EQ(frontend.tracked_connection_count(), 1u);  // B lives on
  frontend.stop();
}

// ── Connect retry (bounded transient backoff) ───────────────────────────

/// A RetryPolicy whose sleeps are recorded instead of slept, so the
/// backoff schedule is observable and the tests run in microseconds.
struct RecordedRetry {
  RetryPolicy policy;
  std::vector<std::chrono::microseconds> slept;

  explicit RecordedRetry(int attempts) {
    policy.attempts = attempts;
    policy.sleep = [this](std::chrono::microseconds d) {
      slept.push_back(d);
    };
  }
};

TEST(ConnectRetry, DelayScheduleIsExponentialWithCap) {
  RetryPolicy policy;
  policy.base_delay = std::chrono::microseconds(100);
  policy.multiplier = 2.0;
  policy.max_delay = std::chrono::microseconds(500);
  EXPECT_EQ(policy.delay_for(0), std::chrono::microseconds(100));
  EXPECT_EQ(policy.delay_for(1), std::chrono::microseconds(200));
  EXPECT_EQ(policy.delay_for(2), std::chrono::microseconds(400));
  EXPECT_EQ(policy.delay_for(3), std::chrono::microseconds(500));  // capped
  EXPECT_EQ(policy.delay_for(10), std::chrono::microseconds(500));
}

TEST(ConnectRetry, UnixConnectSurvivesTheServerStartupRace) {
  // The socket file does not exist yet (ENOENT — transient for unix):
  // the server comes up from inside the retry's first backoff, exactly
  // the multi-process startup race the policy exists for.
  const std::string path = fresh_unix_path();
  ClientRegistry registry = make_registry(1);
  FairOrderingService service(registry, ids(1), ServiceConfig{});
  FrameServer server(registry, service, test_server_config());

  RecordedRetry retry(/*attempts=*/10);
  auto base_sleep = retry.policy.sleep;
  retry.policy.sleep = [&](std::chrono::microseconds d) {
    if (retry.slept.empty()) {
      ASSERT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));
    }
    base_sleep(d);
  };
  auto stream = dial(Endpoint{.unix_path = path, .tcp_port = 0}, retry.policy);
  ASSERT_NE(stream, nullptr);
  EXPECT_GE(retry.slept.size(), 1u);
  server.stop();
}

TEST(ConnectRetry, NonTransientUnixFailureDoesNotRetry) {
  // A path component that is a regular file fails with ENOTDIR — no
  // amount of waiting fixes that, so the policy must not burn attempts.
  const std::string file = fresh_unix_path();
  std::FILE* f = std::fopen(file.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  RecordedRetry retry(/*attempts=*/10);
  EXPECT_EQ(dial(Endpoint{.unix_path = file + "/sub.sock", .tcp_port = 0},
                 retry.policy),
            nullptr);
  EXPECT_TRUE(retry.slept.empty());
  std::remove(file.c_str());
}

TEST(ConnectRetry, RefusedTcpConnectExhaustsExactlyTheBudget) {
  // Grab a port the kernel just released: connecting to it refuses
  // (transient class), so the client backs off between each of its 3
  // attempts — 2 recorded sleeps — then reports failure.
  std::uint16_t dead_port;
  {
    ClientRegistry registry = make_registry(1);
    FairOrderingService service(registry, ids(1), ServiceConfig{});
    FrameServer server(registry, service, test_server_config());
    ASSERT_TRUE(server.listen(Endpoint{.unix_path = {}, .tcp_port = 0}));
    dead_port = server.port();
    server.stop();
  }
  RecordedRetry retry(/*attempts=*/3);
  EXPECT_EQ(
      dial(Endpoint{.unix_path = {}, .tcp_port = dead_port}, retry.policy),
      nullptr);
  EXPECT_EQ(retry.slept.size(), 2u);
}

TEST(ConnectRetry, MissingUnixSocketExhaustsExactlyTheBudget) {
  RecordedRetry retry(/*attempts=*/4);
  EXPECT_EQ(dial(Endpoint{.unix_path = fresh_unix_path(), .tcp_port = 0},
                 retry.policy),
            nullptr);
  EXPECT_EQ(retry.slept.size(), 3u);
}

}  // namespace
}  // namespace tommy::net
