// Satellite coverage for the wire-level reconfiguration paths: the
// RetryPolicy backoff schedule, byte-identical re-announces staying
// idempotent over a real server, mutated re-announces starting (and
// completing) a live reconfig instead of freezing the connection, the
// join flow's ReconfigPending → re-announce → HandshakeAck handshake,
// and mid-handshake cuts via FaultyByteStream leaving the service
// untouched.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "net/acceptor.hpp"
#include "net/faulty_stream.hpp"
#include "wire_test_util.hpp"

namespace tommy::net {
namespace {

using namespace tommy::net::testing;
using core::ClientRegistry;
using core::FairOrderingService;
using core::ServiceConfig;

ServiceConfig one_shard_config() {
  ServiceConfig config;
  config.with_p_safe(0.99);
  return config;
}

ServiceConfig two_shard_config() {
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  return config;
}

// ── RetryPolicy schedule ────────────────────────────────────────────────

TEST(RetryPolicy, BackoffScheduleIsDeterministic) {
  using std::chrono::microseconds;
  RetryPolicy policy;
  policy.base_delay = microseconds(1000);
  policy.multiplier = 2.0;
  policy.max_delay = microseconds(8000);
  EXPECT_EQ(policy.delay_for(0), microseconds(1000));
  EXPECT_EQ(policy.delay_for(1), microseconds(2000));
  EXPECT_EQ(policy.delay_for(2), microseconds(4000));
  EXPECT_EQ(policy.delay_for(3), microseconds(8000));
  EXPECT_EQ(policy.delay_for(30), microseconds(8000));  // capped, no overflow

  // The injectable sleep sees exactly the schedule.
  std::vector<microseconds> recorded;
  policy.sleep = [&recorded](microseconds d) { recorded.push_back(d); };
  policy.wait(0);
  policy.wait(3);
  EXPECT_EQ(recorded,
            (std::vector<microseconds>{microseconds(1000), microseconds(8000)}));
}

TEST(RetryPolicy, FlatScheduleIsTheDefault) {
  const RetryPolicy policy;  // multiplier 1.0
  EXPECT_EQ(policy.delay_for(0), policy.base_delay);
  EXPECT_EQ(policy.delay_for(17), policy.base_delay);
}

// ── perform_handshake against a scripted peer ───────────────────────────

std::vector<std::uint8_t> read_one_frame(ByteStream& stream,
                                         FrameDecoder& decoder) {
  std::vector<std::uint8_t> buffer(512);
  for (;;) {
    if (auto payload = decoder.next()) return *payload;
    const auto n = stream.read_some(buffer);
    if (!n || *n == 0) return {};
    decoder.append({buffer.data(), *n});
  }
}

TEST(PerformHandshake, BudgetExhaustionReportsPending) {
  auto [server_end, client_end] = make_socketpair_streams();
  std::thread scripted([stream = server_end] {
    FrameDecoder decoder;
    for (int k = 0; k < 3; ++k) {  // one per announce attempt
      if (read_one_frame(*stream, decoder).empty()) return;
      if (!stream->write_all(
              encode_frame(WireMessage(ReconfigPending{5})))) {
        return;
      }
    }
  });
  RetryPolicy policy;
  policy.attempts = 3;
  std::vector<std::chrono::microseconds> waits;
  policy.sleep = [&waits](std::chrono::microseconds d) {
    waits.push_back(d);
  };
  const auto result = perform_handshake(
      *client_end, DistributionAnnouncement{ClientId(9), summary_for(9)},
      policy);
  EXPECT_EQ(result, HandshakeResult::kPending);
  EXPECT_EQ(waits.size(), 2u);  // attempts-1 backoffs before giving up
  scripted.join();
}

TEST(PerformHandshake, BroadcastsAreSkippedUntilTheAck) {
  auto [server_end, client_end] = make_socketpair_streams();
  std::thread scripted([stream = server_end] {
    FrameDecoder decoder;
    if (read_one_frame(*stream, decoder).empty()) return;
    // Interleaved broadcast traffic must not confuse the handshake.
    (void)stream->write_all(
        encode_frame(WireMessage(BatchEmission{3, {MessageId(1)}})));
    (void)stream->write_all(
        encode_frame(WireMessage(BatchEmission{4, {}})));
    (void)stream->write_all(encode_frame(WireMessage(HandshakeAck{7})));
  });
  const auto result = perform_handshake(
      *client_end, DistributionAnnouncement{ClientId(1), summary_for(1)});
  EXPECT_EQ(result, HandshakeResult::kAccepted);
  scripted.join();
}

TEST(PerformHandshake, PeerEofReportsStreamClosed) {
  auto [server_end, client_end] = make_socketpair_streams();
  std::thread scripted([stream = server_end] {
    FrameDecoder decoder;
    (void)read_one_frame(*stream, decoder);
    stream->close_write();
  });
  const auto result = perform_handshake(
      *client_end, DistributionAnnouncement{ClientId(2), summary_for(2)});
  EXPECT_EQ(result, HandshakeResult::kStreamClosed);
  scripted.join();
}

// ── Re-announce paths over a real server ────────────────────────────────

void expect_byte_identical_reannounce_is_idempotent(ServiceConfig config) {
  ClientRegistry registry = make_registry(2);
  FairOrderingService service(registry, ids(2), config);
  ServerConfig server_config;
  server_config.frontend = test_frontend_config();
  FrameServer server(registry, service, server_config);
  const std::string path = fresh_unix_path();
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));
  const std::uint64_t g0 = registry.generation();

  auto wire = dial(Endpoint{.unix_path = path, .tcp_port = 0}, RetryPolicy{});
  ASSERT_NE(wire, nullptr);
  std::vector<std::uint8_t> bytes = announce_frame(0);
  auto append = [&bytes](const std::vector<std::uint8_t>& frame) {
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  };
  append(message_frame(0, 1, 1.0));
  append(announce_frame(0));  // byte-identical re-send mid-stream
  append(message_frame(0, 2, 1.001));
  append(heartbeat_frame(0, 1.002));
  ASSERT_TRUE(wire->write_all(bytes));
  wire->close_write();
  ASSERT_TRUE(server.wait_for_accepted(1, 10000));
  server.frontend().join_readers();

  EXPECT_EQ(registry.generation(), g0);
  EXPECT_FALSE(service.reconfig_pending());
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.pending_count(), 2u);
  server.stop();
}

TEST(WireReconfig, OneShardByteIdenticalReannounceIsIdempotent) {
  expect_byte_identical_reannounce_is_idempotent(one_shard_config());
}

TEST(WireReconfig, TwoShardByteIdenticalReannounceIsIdempotent) {
  expect_byte_identical_reannounce_is_idempotent(two_shard_config());
}

void expect_mutated_reannounce_reconfigures(ServiceConfig config) {
  ClientRegistry registry = make_registry(2);
  FairOrderingService service(registry, ids(2), config);
  ServerConfig server_config;
  server_config.frontend = test_frontend_config();
  FrameServer server(registry, service, server_config);
  const std::string path = fresh_unix_path();
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));
  const std::uint64_t g0 = registry.generation();

  auto wire = dial(Endpoint{.unix_path = path, .tcp_port = 0}, RetryPolicy{});
  ASSERT_NE(wire, nullptr);
  std::vector<std::uint8_t> bytes = announce_frame(0);
  auto append = [&bytes](const std::vector<std::uint8_t>& frame) {
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  };
  append(message_frame(0, 1, 1.0));
  // A mutated summary from an already-handshaken client: the connection
  // must stay open and the service must start a live reconfig.
  append(encode_frame(WireMessage(DistributionAnnouncement{
      ClientId(0),
      stats::DistributionSummary(stats::GaussianParams{7e-4, 2e-3})})));
  append(message_frame(0, 2, 1.001));
  append(heartbeat_frame(0, 1.002));
  ASSERT_TRUE(wire->write_all(bytes));
  wire->close_write();
  ASSERT_TRUE(server.wait_for_accepted(1, 10000));
  server.frontend().join_readers();
  EXPECT_EQ(server.frontend().connection_error(0), WireError::kNone);

  EXPECT_EQ(registry.generation(), g0 + 1);
  // The pump drives the install opportunistically (nobody re-announces);
  // pump at a pre-traffic instant so no emissions are consumed here.
  ASSERT_TRUE(eventually([&server, &service] {
    (void)server.pump(TimePoint(0.5));
    return !service.reconfig_pending();
  }));
  EXPECT_EQ(service.primed_generation(), registry.generation());
  EXPECT_EQ(service.pending_count(), 2u);
  server.stop();
}

TEST(WireReconfig, OneShardMutatedReannounceReconfiguresLive) {
  expect_mutated_reannounce_reconfigures(one_shard_config());
}

TEST(WireReconfig, TwoShardMutatedReannounceReconfiguresLive) {
  expect_mutated_reannounce_reconfigures(two_shard_config());
}

// ── Join flow ───────────────────────────────────────────────────────────

TEST(WireReconfig, JoinHandshakeRidesReconfigPendingToAnAck) {
  ClientRegistry registry = make_registry(2);
  FairOrderingService service(registry, ids(2), two_shard_config());
  ServerConfig server_config;
  server_config.frontend = test_frontend_config();
  server_config.frontend.accept_new_clients = true;
  FrameServer server(registry, service, server_config);
  const std::string path = fresh_unix_path();
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));

  // Unknown client: the first announce is necessarily ReconfigPending
  // (expect_client + prime start); retries ride the install to an ack.
  auto wire = dial(Endpoint{.unix_path = path, .tcp_port = 0}, RetryPolicy{});
  ASSERT_NE(wire, nullptr);
  const auto result = perform_handshake(
      *wire, DistributionAnnouncement{ClientId(2), summary_for(2)});
  ASSERT_EQ(result, HandshakeResult::kAccepted);
  EXPECT_TRUE(service.expects_client(ClientId(2)));
  EXPECT_EQ(service.primed_generation(), registry.generation());
  EXPECT_GE(service.epoch(), 1u);

  // The joined session carries traffic on the same connection.
  std::vector<std::uint8_t> bytes = message_frame(2, 7, 1.0);
  const auto tail = heartbeat_frame(2, 1.01);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  ASSERT_TRUE(wire->write_all(bytes));
  wire->close_write();
  server.frontend().join_readers();
  EXPECT_EQ(service.pending_count(), 1u);
  server.stop();
}

TEST(WireReconfig, KnownClientHandshakeAcksWithoutAReconfigRound) {
  ClientRegistry registry = make_registry(2);
  FairOrderingService service(registry, ids(2), one_shard_config());
  ServerConfig server_config;
  server_config.frontend = test_frontend_config();
  server_config.frontend.accept_new_clients = true;
  FrameServer server(registry, service, server_config);
  const std::string path = fresh_unix_path();
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));

  auto wire = dial(Endpoint{.unix_path = path, .tcp_port = 0}, RetryPolicy{});
  ASSERT_NE(wire, nullptr);
  RetryPolicy no_retries;
  no_retries.attempts = 1;  // any ReconfigPending round would fail this
  const auto result = perform_handshake(
      *wire, DistributionAnnouncement{ClientId(1), summary_for(1)},
      no_retries);
  EXPECT_EQ(result, HandshakeResult::kAccepted);
  EXPECT_EQ(service.epoch(), 0u);  // no swap for a byte-identical announce
  server.stop();
}

// ── Mid-handshake cuts ──────────────────────────────────────────────────

TEST(WireReconfig, TornJoinAnnounceLeavesTheServiceUntouched) {
  ClientRegistry registry = make_registry(2);
  FairOrderingService service(registry, ids(2), two_shard_config());
  ServerConfig server_config;
  server_config.frontend = test_frontend_config();
  server_config.frontend.accept_new_clients = true;
  server_config.frontend.retire_on_eof = true;
  FrameServer server(registry, service, server_config);
  const std::string path = fresh_unix_path();
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));
  const std::uint64_t g0 = registry.generation();

  {
    auto inner =
        dial(Endpoint{.unix_path = path, .tcp_port = 0}, RetryPolicy{});
    ASSERT_NE(inner, nullptr);
    const auto announce = announce_frame(2);
    FaultPlan plan;
    plan.cut_write_after = announce.size() / 2;
    FaultyByteStream torn(inner, plan);
    EXPECT_FALSE(
        torn.write_all(std::span<const std::uint8_t>(announce)));
    EXPECT_TRUE(torn.stats().write_cut);
    // inner drops here: the server sees EOF mid-frame.
  }
  ASSERT_TRUE(server.wait_for_accepted(1, 10000));
  ASSERT_TRUE(eventually(
      [&server] { return server.frontend().connection_count() == 0; }));

  // Half an announce must not move the registry, queue a join, or retire
  // anyone (the connection never handshook).
  EXPECT_EQ(registry.generation(), g0);
  EXPECT_FALSE(service.reconfig_pending());
  EXPECT_FALSE(service.expects_client(ClientId(2)));

  // A clean retry joins as if the cut never happened.
  auto wire = dial(Endpoint{.unix_path = path, .tcp_port = 0}, RetryPolicy{});
  ASSERT_NE(wire, nullptr);
  const auto result = perform_handshake(
      *wire, DistributionAnnouncement{ClientId(2), summary_for(2)});
  EXPECT_EQ(result, HandshakeResult::kAccepted);
  EXPECT_TRUE(service.expects_client(ClientId(2)));
  server.stop();
}

}  // namespace
}  // namespace tommy::net
