// Wire front-end: the fd stream's blocking contract, the Connection
// handshake/dispatch state machine (typed error paths, partial-read
// torture), the frames-in == direct-session-calls-in equivalence
// (bit-identical emission streams, one to three shards and the global
// merge, deliberately fragmented and coalesced reads), the outbound
// BatchEmission broadcast, and the adoption check on a stream with no
// pollable fd.
#include "net/frontend.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <variant>

#include "common/rng.hpp"
#include "stats/gaussian.hpp"
#include "stats/summary.hpp"

namespace tommy::net {
namespace {

using core::ClientRegistry;
using core::FairOrderingService;
using core::ServiceConfig;
using tommy::literals::operator""_ms;

constexpr Duration kWireDelay = Duration(0.5e-3);

/// Deterministic arrival clock: every run (framed or direct) stamps a
/// message's sequencer-clock arrival as its local stamp plus a fixed wire
/// delay, so emission streams are replayable bit-for-bit.
TimePoint modeled_arrival(const WireMessage& message) {
  if (const auto* msg = std::get_if<TimestampedMessage>(&message)) {
    return msg->local_stamp + kWireDelay;
  }
  if (const auto* heartbeat = std::get_if<Heartbeat>(&message)) {
    return heartbeat->local_stamp + kWireDelay;
  }
  ADD_FAILURE() << "arrival requested for a non-ingest message";
  return TimePoint::epoch();
}

FrontendConfig test_config() {
  FrontendConfig config;
  config.arrival_clock = modeled_arrival;
  return config;
}

stats::DistributionSummary summary_for(std::uint32_t client) {
  return stats::DistributionSummary(
      stats::GaussianParams{1e-4 * client, 1e-3});
}

/// Registry announced via summaries (so announced_summary() has wire
/// bytes to compare against handshake re-sends).
ClientRegistry make_registry(std::uint32_t n) {
  ClientRegistry registry;
  for (std::uint32_t c = 0; c < n; ++c) {
    registry.announce(ClientId(c), summary_for(c));
  }
  return registry;
}

std::vector<ClientId> ids(std::uint32_t n) {
  std::vector<ClientId> out;
  for (std::uint32_t c = 0; c < n; ++c) out.push_back(ClientId(c));
  return out;
}

std::vector<std::uint8_t> announce_frame(std::uint32_t client) {
  return encode_frame(
      WireMessage(DistributionAnnouncement{ClientId(client),
                                           summary_for(client)}));
}

std::vector<std::uint8_t> message_frame(std::uint32_t client,
                                        std::uint64_t id, double stamp) {
  return encode_frame(WireMessage(TimestampedMessage{
      ClientId(client), MessageId(id), TimePoint(stamp)}));
}

std::vector<std::uint8_t> heartbeat_frame(std::uint32_t client,
                                          double stamp) {
  return encode_frame(
      WireMessage(Heartbeat{ClientId(client), TimePoint(stamp)}));
}

// ── Captured emissions (the equivalence currency) ───────────────────────

struct CapturedMessage {
  std::uint64_t id;
  std::uint32_t client;
  double stamp;
  double arrival;

  friend bool operator==(const CapturedMessage&, const CapturedMessage&)
      = default;
};

struct CapturedBatch {
  std::uint32_t shard;
  Rank rank;
  double emitted_at;
  double safe_time;
  std::vector<CapturedMessage> messages;

  friend bool operator==(const CapturedBatch&, const CapturedBatch&)
      = default;
};

CapturedBatch capture(const core::EmissionRecord& record,
                      std::uint32_t shard) {
  CapturedBatch batch;
  batch.shard = shard;
  batch.rank = record.batch.rank;
  batch.emitted_at = record.emitted_at.seconds();
  batch.safe_time = record.safe_time.seconds();
  for (const core::Message& m : record.batch.messages) {
    batch.messages.push_back(CapturedMessage{m.id.value(), m.client.value(),
                                             m.stamp.seconds(),
                                             m.arrival.seconds()});
  }
  return batch;
}

// ── Workload ────────────────────────────────────────────────────────────

struct Event {
  bool is_heartbeat;
  std::uint64_t id;      // messages only
  TimePoint stamp;
};

/// Per-client event sequences: stamps advance with jitter, a heartbeat
/// every few messages, and a trailing heartbeat that pushes the
/// completeness frontier past everything.
std::vector<std::vector<Event>> make_workload(std::uint32_t clients,
                                              int per_client,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Event>> events(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    Rng client_rng = rng.split();
    double stamp = 1.0 + 1e-4 * c;
    for (int k = 0; k < per_client; ++k) {
      stamp += client_rng.uniform(0.5e-3, 3e-3);
      events[c].push_back(Event{false, 1000ULL * c + static_cast<std::uint64_t>(k),
                                TimePoint(stamp)});
      if (k % 5 == 4) {
        events[c].push_back(Event{true, 0, TimePoint(stamp + 0.1e-3)});
      }
    }
    events[c].push_back(Event{true, 0, TimePoint(stamp + 50e-3)});
  }
  return events;
}

std::vector<TimePoint> poll_schedule() {
  // Mid-stream polls plus a generous end-of-world poll before the flush.
  return {TimePoint(1.05), TimePoint(1.2), TimePoint(1.5), TimePoint(2.5)};
}

/// Reference run: the same workload through direct session calls.
std::vector<CapturedBatch> run_direct(
    const std::vector<std::vector<Event>>& workload, ServiceConfig config) {
  ClientRegistry registry =
      make_registry(static_cast<std::uint32_t>(workload.size()));
  FairOrderingService service(
      registry, ids(static_cast<std::uint32_t>(workload.size())), config);

  for (std::uint32_t c = 0; c < workload.size(); ++c) {
    auto session = service.open_session(ClientId(c));
    std::vector<core::Submission> batch;
    for (const Event& event : workload[c]) {
      if (event.is_heartbeat) {
        session.submit_batch(std::span<const core::Submission>(batch));
        batch.clear();
        session.heartbeat(event.stamp, event.stamp + kWireDelay);
      } else {
        batch.push_back(core::Submission{event.stamp, MessageId(event.id),
                                         event.stamp + kWireDelay});
      }
    }
    session.submit_batch(std::span<const core::Submission>(batch));
  }

  std::vector<CapturedBatch> out;
  auto sink = [&out](core::EmissionRecord&& record, std::uint32_t shard) {
    out.push_back(capture(record, shard));
  };
  for (TimePoint t : poll_schedule()) service.poll(t, sink);
  service.flush(TimePoint(3.0), sink);
  return out;
}

/// Frame run: the same workload encoded as wire frames, written through
/// socketpairs in random fragments (sometimes coalescing several
/// frames into one write, sometimes splitting one frame across many).
std::vector<CapturedBatch> run_framed(
    const std::vector<std::vector<Event>>& workload, ServiceConfig config,
    std::uint64_t fragment_seed) {
  ClientRegistry registry =
      make_registry(static_cast<std::uint32_t>(workload.size()));
  FairOrderingService service(
      registry, ids(static_cast<std::uint32_t>(workload.size())), config);
  FrameFrontend frontend(registry, service, test_config());

  // Per-client byte image: handshake announcement, then the event frames.
  Rng rng(fragment_seed);
  std::vector<std::thread> writers;
  std::vector<std::shared_ptr<ByteStream>> client_ends;
  for (std::uint32_t c = 0; c < workload.size(); ++c) {
    auto [server_end, client_end] = make_socketpair_streams();
    frontend.add_connection(server_end);
    client_ends.push_back(client_end);

    std::vector<std::uint8_t> bytes = announce_frame(c);
    for (const Event& event : workload[c]) {
      const auto frame =
          event.is_heartbeat
              ? heartbeat_frame(c, event.stamp.seconds())
              : message_frame(c, event.id, event.stamp.seconds());
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }

    // Concurrent writers with independent random chunkings: partial and
    // coalesced reads on every connection.
    Rng writer_rng = rng.split();
    writers.emplace_back([bytes = std::move(bytes),
                          stream = client_end.get(),
                          writer_rng]() mutable {
      std::size_t offset = 0;
      while (offset < bytes.size()) {
        const auto chunk = static_cast<std::size_t>(writer_rng.uniform_int(
            1, std::min<std::int64_t>(
                   97, static_cast<std::int64_t>(bytes.size() - offset))));
        ASSERT_TRUE(stream->write_all(std::span<const std::uint8_t>(
            bytes.data() + offset, chunk)));
        offset += chunk;
      }
      stream->close_write();
    });
  }
  for (std::thread& writer : writers) writer.join();
  frontend.join_readers();

  for (std::uint32_t c = 0; c < workload.size(); ++c) {
    EXPECT_EQ(frontend.connection_error(c), WireError::kNone);
    EXPECT_TRUE(frontend.connection(c).handshaken());
  }

  std::vector<CapturedBatch> out;
  auto sink = [&out](core::EmissionRecord&& record, std::uint32_t shard) {
    out.push_back(capture(record, shard));
  };
  for (TimePoint t : poll_schedule()) service.poll(t, sink);
  service.flush(TimePoint(3.0), sink);
  return out;
}

// ── The fd stream's blocking contract (what every client drives) ────────

TEST(FdByteStream, TransportsBytesAndSignalsEof) {
  auto [a, b] = make_socketpair_streams();
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(a->write_all(payload));
  a->close_write();

  std::vector<std::uint8_t> got;
  std::uint8_t buf[3];
  while (true) {
    const auto n = b->read_some(std::span<std::uint8_t>(buf, sizeof(buf)));
    ASSERT_TRUE(n.has_value());
    if (*n == 0) break;
    got.insert(got.end(), buf, buf + *n);
  }
  EXPECT_EQ(got, payload);
  // Full duplex: the other direction still works after the half-close.
  ASSERT_TRUE(b->write_all(payload));
}

TEST(FdByteStream, ShutdownUnblocksAPendingRead) {
  auto [a, b] = make_socketpair_streams();
  std::thread reader([&b] {
    std::uint8_t buf[8];
    const auto n = b->read_some(std::span<std::uint8_t>(buf, sizeof(buf)));
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, 0u);  // EOF, not an error
  });
  b->shutdown();
  reader.join();
  EXPECT_FALSE(a->write_all(std::vector<std::uint8_t>{1}));
}

// ── Connection state machine (thread-free) ──────────────────────────────

using Drive = Connection::DriveStatus;

struct ConnectionFixture {
  ClientRegistry registry = make_registry(4);
  ServiceConfig config;
  FairOrderingService service;
  std::mutex ingest_mutex;
  Connection connection;

  explicit ConnectionFixture(ServiceConfig service_config = {})
      : config(service_config),
        service(registry, ids(4), config),
        connection(registry, service, test_config(), ingest_mutex) {}
};

TEST(Connection, HandshakeThenMessagesFlow) {
  ConnectionFixture fx;
  EXPECT_FALSE(fx.connection.handshaken());
  ASSERT_EQ(Drive::kReady, fx.connection.drive(announce_frame(1)));
  EXPECT_TRUE(fx.connection.handshaken());
  EXPECT_EQ(fx.connection.client(), ClientId(1));

  ASSERT_EQ(Drive::kReady, fx.connection.drive(message_frame(1, 7, 1.001)));
  ASSERT_EQ(Drive::kReady, fx.connection.drive(heartbeat_frame(1, 1.002)));
  EXPECT_EQ(fx.connection.frames_in(), 3u);
  EXPECT_EQ(fx.connection.submits_in(), 1u);
  EXPECT_EQ(fx.connection.heartbeats_in(), 1u);
  EXPECT_EQ(fx.service.pending_count(), 1u);
}

TEST(Connection, HandshakeSurvivesEveryByteSplit) {
  const auto handshake = announce_frame(2);
  const auto message = message_frame(2, 9, 1.5);
  for (std::size_t split = 0; split <= handshake.size(); ++split) {
    ConnectionFixture fx;
    ASSERT_EQ(Drive::kReady,
              fx.connection.drive(std::span<const std::uint8_t>(
                  handshake.data(), split)));
    EXPECT_EQ(fx.connection.handshaken(), split == handshake.size());
    ASSERT_EQ(Drive::kReady,
              fx.connection.drive(std::span<const std::uint8_t>(
                  handshake.data() + split, handshake.size() - split)));
    EXPECT_TRUE(fx.connection.handshaken());
    // A message split across two reads lands exactly once.
    const std::size_t half = message.size() / 2;
    ASSERT_EQ(Drive::kReady, fx.connection.drive(
        std::span<const std::uint8_t>(message.data(), half)));
    EXPECT_EQ(fx.connection.submits_in(), 0u);
    ASSERT_EQ(Drive::kReady,
              fx.connection.drive(std::span<const std::uint8_t>(
                  message.data() + half, message.size() - half)));
    EXPECT_EQ(fx.connection.submits_in(), 1u);
    EXPECT_EQ(fx.service.pending_count(), 1u);
  }
}

TEST(Connection, FirstFrameMustBeAnnouncement) {
  ConnectionFixture fx;
  EXPECT_EQ(Drive::kFailed, fx.connection.drive(message_frame(1, 7, 1.0)));
  EXPECT_EQ(fx.connection.error(), WireError::kHandshakeExpected);
  // Poisoned: even a valid handshake is ignored now.
  EXPECT_EQ(Drive::kFailed, fx.connection.drive(announce_frame(1)));
  EXPECT_FALSE(fx.connection.handshaken());
}

TEST(Connection, UnknownClientIsATypedError) {
  ConnectionFixture fx;
  EXPECT_EQ(Drive::kFailed, fx.connection.drive(announce_frame(77)));
  EXPECT_EQ(fx.connection.error(), WireError::kUnknownClient);
}

TEST(Connection, DataFrameForAnotherClientIsRejected) {
  ConnectionFixture fx;
  ASSERT_EQ(Drive::kReady, fx.connection.drive(announce_frame(1)));
  EXPECT_EQ(Drive::kFailed, fx.connection.drive(message_frame(2, 7, 1.0)));
  EXPECT_EQ(fx.connection.error(), WireError::kClientMismatch);
}

TEST(Connection, HeartbeatForAnotherClientIsRejected) {
  ConnectionFixture fx;
  ASSERT_EQ(Drive::kReady, fx.connection.drive(announce_frame(1)));
  EXPECT_EQ(Drive::kFailed, fx.connection.drive(heartbeat_frame(3, 1.0)));
  EXPECT_EQ(fx.connection.error(), WireError::kClientMismatch);
}

TEST(Connection, BatchEmissionFromClientIsRejected) {
  ConnectionFixture fx;
  ASSERT_EQ(Drive::kReady, fx.connection.drive(announce_frame(1)));
  EXPECT_EQ(Drive::kFailed, fx.connection.drive(
      encode_frame(WireMessage(BatchEmission{0, {MessageId(1)}}))));
  EXPECT_EQ(fx.connection.error(), WireError::kBatchFromClient);
}

TEST(Connection, MalformedPayloadIsRejected) {
  ConnectionFixture fx;
  ASSERT_EQ(Drive::kReady, fx.connection.drive(announce_frame(1)));
  const std::vector<std::uint8_t> garbage = {0xFF, 0x13, 0x37};
  EXPECT_EQ(Drive::kFailed, fx.connection.drive(
      encode_frame(std::span<const std::uint8_t>(garbage))));
  EXPECT_EQ(fx.connection.error(), WireError::kMalformedMessage);
}

TEST(Connection, OversizedFrameIsRejected) {
  ClientRegistry registry = make_registry(4);
  FairOrderingService service(registry, ids(4), {});
  FrontendConfig config = test_config();
  config.max_frame_bytes = 8;
  std::mutex ingest_mutex;
  Connection connection(registry, service, config, ingest_mutex);
  // The announcement's summary is longer than 8 bytes.
  EXPECT_EQ(Drive::kFailed, connection.drive(announce_frame(1)));
  EXPECT_EQ(connection.error(), WireError::kOversizedFrame);
}

TEST(Connection, ValidPrefixBeforeAPoisonByteStillCounts) {
  ConnectionFixture fx;
  std::vector<std::uint8_t> bytes = announce_frame(1);
  const auto good = message_frame(1, 7, 1.001);
  const auto bad = message_frame(2, 8, 1.002);  // wrong client
  bytes.insert(bytes.end(), good.begin(), good.end());
  bytes.insert(bytes.end(), bad.begin(), bad.end());
  EXPECT_EQ(Drive::kFailed, fx.connection.drive(bytes));
  EXPECT_EQ(fx.connection.error(), WireError::kClientMismatch);
  // The in-protocol prefix (handshake + one message) was applied.
  EXPECT_TRUE(fx.connection.handshaken());
  EXPECT_EQ(fx.service.pending_count(), 1u);
}

TEST(Connection, IdenticalReannounceIsIdempotent) {
  ConnectionFixture fx;
  const std::uint64_t generation = fx.registry.generation();
  ASSERT_EQ(Drive::kReady, fx.connection.drive(announce_frame(1)));
  EXPECT_EQ(fx.registry.generation(), generation);  // wire form matched
  // Mid-stream re-send.
  ASSERT_EQ(Drive::kReady, fx.connection.drive(announce_frame(1)));
  EXPECT_EQ(fx.registry.generation(), generation);
}

TEST(Connection, ChangedReannounceUpdatesASequentialRegistry) {
  ConnectionFixture fx;
  ASSERT_EQ(Drive::kReady, fx.connection.drive(announce_frame(1)));
  const std::uint64_t generation = fx.registry.generation();
  const auto changed = encode_frame(WireMessage(DistributionAnnouncement{
      ClientId(1),
      stats::DistributionSummary(stats::GaussianParams{5e-4, 2e-3})}));
  ASSERT_EQ(Drive::kReady, fx.connection.drive(changed));
  EXPECT_EQ(fx.registry.generation(), generation + 1);
  // Ingest still works against the re-primed engine.
  ASSERT_EQ(Drive::kReady, fx.connection.drive(message_frame(1, 7, 1.001)));
  EXPECT_EQ(fx.service.pending_count(), 1u);
}

TEST(Connection, ChangedAnnounceStartsAReconfig) {
  ClientRegistry registry = make_registry(4);
  FairOrderingService service(registry, ids(4), {});
  std::mutex ingest_mutex;
  Connection connection(registry, service, test_config(), ingest_mutex);
  // Identical announce: fine (generation untouched).
  ASSERT_EQ(Drive::kReady, connection.drive(announce_frame(1)));
  EXPECT_FALSE(service.reconfig_pending());
  // Different distribution: no longer poisons the stream — the registry
  // moves, a reconfig is requested, and the connection keeps streaming
  // against the old epoch until the install.
  const auto changed = encode_frame(WireMessage(DistributionAnnouncement{
      ClientId(1),
      stats::DistributionSummary(stats::GaussianParams{5e-4, 2e-3})}));
  EXPECT_EQ(Drive::kReady, connection.drive(changed));
  EXPECT_EQ(connection.error(), WireError::kNone);
  EXPECT_EQ(registry.generation(), 5u);  // the change landed
  ASSERT_EQ(Drive::kReady, connection.drive(message_frame(1, 7, 1.001)));
  EXPECT_EQ(service.pending_count(), 1u);
  // The epoch catches up (the announce already requested the prime).
  service.reconfigure();
  EXPECT_EQ(service.primed_generation(), registry.generation());
  EXPECT_FALSE(service.reconfig_pending());
}

// ── End-to-end equivalence (the acceptance criterion) ───────────────────

void expect_equivalent(const std::vector<CapturedBatch>& direct,
                       const std::vector<CapturedBatch>& framed) {
  ASSERT_EQ(direct.size(), framed.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i], framed[i]) << "batch " << i;
  }
}

TEST(FrameFrontend, FramedEqualsDirectSequentialSingleShard) {
  const auto workload = make_workload(4, 40, /*seed=*/11);
  ServiceConfig config;
  config.with_p_safe(0.99);
  const auto direct = run_direct(workload, config);
  EXPECT_FALSE(direct.empty());
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    expect_equivalent(direct, run_framed(workload, config, seed));
  }
}

TEST(FrameFrontend, FramedEqualsDirectSequentialSharded) {
  const auto workload = make_workload(6, 30, /*seed=*/5);
  ServiceConfig config;
  config.with_shards(3).with_p_safe(0.99);
  const auto direct = run_direct(workload, config);
  EXPECT_FALSE(direct.empty());
  expect_equivalent(direct, run_framed(workload, config, /*seed=*/17));
}

TEST(FrameFrontend, FramedEqualsDirectTwoShards) {
  const auto workload = make_workload(6, 30, /*seed=*/23);
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  const auto direct = run_direct(workload, config);
  EXPECT_FALSE(direct.empty());
  for (std::uint64_t seed : {7ULL, 8ULL}) {
    expect_equivalent(direct, run_framed(workload, config, seed));
  }
}

TEST(FrameFrontend, FramedEqualsDirectGlobalMerge) {
  const auto workload = make_workload(4, 25, /*seed=*/31);
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99).with_drain_policy(
      core::DrainPolicy::kGlobalMerge);
  const auto direct = run_direct(workload, config);
  EXPECT_FALSE(direct.empty());
  expect_equivalent(direct, run_framed(workload, config, /*seed=*/41));
}

// ── Outbound: emissions come back as frames ─────────────────────────────

/// One client's whole byte image: handshake, `messages` message frames
/// (ids 10c + k, stamps 1 ms apart from 1.0), then a heartbeat at
/// `heartbeat_stamp`.
std::vector<std::uint8_t> client_image(std::uint32_t c, int messages,
                                       double heartbeat_stamp) {
  std::vector<std::uint8_t> bytes = announce_frame(c);
  for (int k = 0; k < messages; ++k) {
    const auto frame = message_frame(
        c, 10 * c + static_cast<std::uint64_t>(k), 1.0 + 1e-3 * k);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  const auto tail = heartbeat_frame(c, heartbeat_stamp);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  return bytes;
}

/// Reads `count` BatchEmission frames off a subscriber's stream.
std::vector<BatchEmission> read_batches(ByteStream& stream,
                                        std::size_t count) {
  FrameDecoder decoder;
  std::vector<BatchEmission> batches;
  std::uint8_t buf[256];
  while (batches.size() < count) {
    const auto n = stream.read_some(std::span<std::uint8_t>(buf, sizeof(buf)));
    if (!n.has_value() || *n == 0) {
      ADD_FAILURE() << "stream ended after " << batches.size() << " of "
                    << count << " batches";
      break;
    }
    decoder.append(std::span<const std::uint8_t>(buf, *n));
    while (auto payload = decoder.next()) {
      auto message = decode(*payload);
      if (!message.has_value()
          || !std::holds_alternative<BatchEmission>(*message)) {
        ADD_FAILURE() << "non-BatchEmission frame on the broadcast stream";
        return batches;
      }
      batches.push_back(std::get<BatchEmission>(std::move(*message)));
    }
  }
  return batches;
}

std::size_t message_total(const std::vector<BatchEmission>& batches) {
  std::size_t total = 0;
  for (const BatchEmission& batch : batches) total += batch.messages.size();
  return total;
}

TEST(FrameFrontend, BroadcastsEmittedBatchesAsFrames) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), service_config);
  FrameFrontend frontend(registry, service, test_config());

  auto [server0, client0] = make_socketpair_streams();
  auto [server1, client1] = make_socketpair_streams();
  frontend.add_connection(server0);
  frontend.add_connection(server1);

  for (std::uint32_t c = 0; c < 2; ++c) {
    auto& client = c == 0 ? client0 : client1;
    ASSERT_TRUE(client->write_all(client_image(c, 5, 1.2)));
    client->close_write();
  }
  frontend.join_readers();

  const std::size_t emitted = frontend.pump(TimePoint(2.0))
                              + frontend.pump_flush(TimePoint(2.0));
  ASSERT_GT(emitted, 0u);

  // Both clients receive the identical broadcast stream.
  for (auto& client : {client0, client1}) {
    const auto batches = read_batches(*client, emitted);
    ASSERT_EQ(batches.size(), emitted);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      EXPECT_EQ(batches[i].rank, i);  // single shard: dense ranks
    }
    // Every submitted message came back exactly once.
    EXPECT_EQ(message_total(batches), 10u);
  }
}

TEST(FrameFrontend, FlushBroadcastsPastASilentClient) {
  // Client 1 never connects: only the flush's gate-ignoring drain can
  // emit client 0's messages, and it broadcasts every one of them.
  ClientRegistry registry = make_registry(2);
  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), service_config);
  FrameFrontend frontend(registry, service, test_config());

  auto [server_end, client_end] = make_socketpair_streams();
  frontend.add_connection(server_end);
  ASSERT_TRUE(client_end->write_all(client_image(0, 8, 1.1)));
  client_end->close_write();
  frontend.join_readers();
  ASSERT_EQ(frontend.connection_error(0), WireError::kNone);

  const std::size_t emitted = frontend.pump_flush(TimePoint(2.0));
  ASSERT_GT(emitted, 0u);
  EXPECT_EQ(message_total(read_batches(*client_end, emitted)), 8u);
}

// ── Adoption: a stream the event loop cannot poll ───────────────────────

/// A stream with no fd behind it. Its I/O would succeed, but nothing can
/// wait on it, so the front-end must refuse to drive it.
class UnpollableStream final : public ByteStream {
 public:
  std::optional<std::size_t> read_some(std::span<std::uint8_t>) override {
    return 0;
  }
  bool write_all(std::span<const std::uint8_t>) override { return true; }
  IoResult try_read(std::span<std::uint8_t>) override {
    return IoResult{IoStatus::kWouldBlock, 0};
  }
  IoResult try_write(std::span<const std::uint8_t> bytes) override {
    return IoResult{IoStatus::kOk, bytes.size()};
  }
  int poll_fd() const override { return -1; }
  void close_write() override {}
  void shutdown() override { shut_down = true; }

  bool shut_down{false};
};

TEST(FrameFrontend, UnpollableStreamFailsTypedAndOthersKeepServing) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), service_config);
  FrameFrontend frontend(registry, service, test_config());

  auto unpollable = std::make_shared<UnpollableStream>();
  const std::uint64_t bad = frontend.add_connection(unpollable);
  EXPECT_TRUE(frontend.connection_done(bad));
  EXPECT_EQ(frontend.connection_error(bad), WireError::kStreamError);
  EXPECT_FALSE(frontend.connection_stats(bad).clean_eof);
  EXPECT_EQ(frontend.connection_count(), 0u);  // failed: reapable, not live

  // The next adoption reaps the failed connection (its stream is shut
  // down, its id recycled) and serves the pollable peer normally.
  auto [server_end, client_end] = make_socketpair_streams();
  const std::uint64_t good = frontend.add_connection(server_end);
  EXPECT_EQ(good, bad);
  EXPECT_TRUE(unpollable->shut_down);
  EXPECT_EQ(frontend.totals().removed, 1u);

  ASSERT_TRUE(client_end->write_all(client_image(0, 5, 1.2)));
  client_end->close_write();
  frontend.join_readers();
  const ConnectionStats stats = frontend.connection_stats(good);
  EXPECT_EQ(stats.error, WireError::kNone);
  EXPECT_TRUE(stats.clean_eof);
  EXPECT_EQ(stats.submits_in, 5u);

  const std::size_t emitted = frontend.pump_flush(TimePoint(2.0));
  ASSERT_GT(emitted, 0u);
  EXPECT_EQ(message_total(read_batches(*client_end, emitted)), 5u);
}

}  // namespace
}  // namespace tommy::net
