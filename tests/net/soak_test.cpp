// The end-to-end soak proof: clients that connect to a REAL listening
// server, submit through fault-injected streams (randomly split writes,
// mid-frame disconnects at chosen byte offsets, torn handshakes),
// disconnect and reconnect to resume — and the service's emission stream
// is bit-identical to the same workload driven through direct session
// calls, in one-, two- and three-shard and global-merge
// configurations, over Unix and TCP sockets, with the front-end's M
// poller threads multiplexing every connection (and a tiny submit-batch
// limit that keeps the ingest stall paths busy). The probabilistic
// guarantees only matter if they survive messy transports; this is where
// messy is manufactured on purpose.
#include <gtest/gtest.h>

#include <thread>

#include "net/acceptor.hpp"
#include "net/faulty_stream.hpp"
#include "wire_test_util.hpp"

namespace tommy::net {
namespace {

using namespace tommy::net::testing;
using core::ClientRegistry;
using core::FairOrderingService;
using core::ServiceConfig;

struct SoakOptions {
  /// Planned connect/submit/disconnect episodes per client (cuts may
  /// stretch the tail, the final episode always completes).
  int segments{4};
  bool use_tcp{false};
  std::uint64_t seed{1};
  std::size_t poller_threads{2};
  /// Small limits force the submit-batch stall paths (kConsumedStall /
  /// pending flush) to actually run during the soak.
  std::size_t submit_batch_limit{0};  // 0 = frontend default
};

struct SoakOutcome {
  std::vector<CapturedBatch> emissions;
  std::uint64_t episodes{0};
  std::uint64_t cuts{0};
};

/// One client's life on the wire: submit its event sequence across
/// several connections, each episode ending in either a deliberate
/// mid-frame cut (resuming from the first undelivered frame on the next
/// connection) or a clean close.
template <typename ConnectFn>
void run_soak_client(const ConnectFn& connect, std::uint32_t client,
                     const std::vector<Event>& events, Rng rng,
                     int segments, std::atomic<std::uint64_t>& episodes,
                     std::atomic<std::uint64_t>& cuts) {
  const auto handshake = announce_frame(client);
  std::size_t next = 0;
  const std::size_t per_segment =
      (events.size() + static_cast<std::size_t>(segments) - 1)
      / static_cast<std::size_t>(segments);
  for (int segment = 0; next < events.size(); ++segment) {
    const bool final_segment = segment >= segments - 1;
    const std::size_t target =
        final_segment ? events.size()
                      : std::min(events.size(), next + per_segment);

    // Episode wire image: handshake, then the segment's frames.
    std::vector<std::uint8_t> bytes = handshake;
    std::vector<std::size_t> ends;  // cumulative end offset per event
    for (std::size_t e = next; e < target; ++e) {
      const auto frame = event_frame(client, events[e]);
      bytes.insert(bytes.end(), frame.begin(), frame.end());
      ends.push_back(bytes.size());
    }

    FaultPlan plan;
    // Always: writes split into a random small-chunk cadence (the
    // server's reader sees torn frame boundaries on every read).
    plan.write_chunks = {
        static_cast<std::size_t>(rng.uniform_int(1, 97)),
        static_cast<std::size_t>(rng.uniform_int(1, 13)),
        static_cast<std::size_t>(rng.uniform_int(1, 53))};
    plan.write_chunks_cycle = true;

    std::size_t delivered_events = target - next;  // clean close default
    if (!final_segment) {
      // Deliberate disconnect at a chosen byte offset: inside the
      // handshake (torn handshake, nothing delivered), exactly at a
      // frame boundary, or mid-frame.
      const double what = rng.next_double();
      if (what < 0.2 || ends.empty()) {
        plan.cut_write_after = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(handshake.size())
                                   - 1));
        delivered_events = 0;
      } else {
        const auto torn = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ends.size()) - 1));
        const std::size_t start =
            torn == 0 ? handshake.size() : ends[torn - 1];
        // offset 0 = cut exactly at the previous frame's boundary;
        // otherwise somewhere strictly inside frame `torn`.
        const auto offset = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ends[torn] - start) - 1));
        plan.cut_write_after = start + offset;
        delivered_events = torn;
      }
      cuts.fetch_add(1, std::memory_order_relaxed);
    }

    auto inner = connect();
    ASSERT_NE(inner, nullptr) << "client " << client << " episode "
                              << segment;
    FaultyByteStream wire(inner, plan);
    const bool ok =
        wire.write_all(std::span<const std::uint8_t>(bytes));
    if (final_segment) {
      ASSERT_TRUE(ok);
      wire.close_write();
    } else {
      ASSERT_FALSE(ok);  // the cut fired
      ASSERT_TRUE(wire.stats().write_cut);
    }
    episodes.fetch_add(1, std::memory_order_relaxed);
    next += delivered_events;
  }
}

SoakOutcome run_soaked(const std::vector<std::vector<Event>>& workload,
                       ServiceConfig config, SoakOptions options) {
  ClientRegistry registry =
      make_registry(static_cast<std::uint32_t>(workload.size()));
  FairOrderingService service(
      registry, ids(static_cast<std::uint32_t>(workload.size())), config);
  ServerConfig server_config;
  server_config.frontend = test_frontend_config();
  server_config.frontend.poller_threads = options.poller_threads;
  if (options.submit_batch_limit != 0) {
    server_config.frontend.submit_batch_limit = options.submit_batch_limit;
  }
  FrameServer server(registry, service, server_config);

  std::string path;
  if (options.use_tcp) {
    EXPECT_TRUE(server.listen(Endpoint{.unix_path = {}, .tcp_port = 0}));
  } else {
    path = fresh_unix_path();
    EXPECT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));
  }
  auto connect = [&server, &path]() -> std::shared_ptr<ByteStream> {
    return dial(Endpoint{.unix_path = path, .tcp_port = server.port()},
                RetryPolicy{});
  };

  std::atomic<std::uint64_t> episodes{0};
  std::atomic<std::uint64_t> cuts{0};
  Rng rng(options.seed);
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < workload.size(); ++c) {
    Rng client_rng = rng.split();
    clients.emplace_back([&, c, client_rng] {
      run_soak_client(connect, c, workload[c], client_rng,
                      options.segments, episodes, cuts);
    });
  }
  for (std::thread& client : clients) client.join();

  SoakOutcome outcome;
  outcome.episodes = episodes.load();
  outcome.cuts = cuts.load();
  // Every episode accepted and fully applied (every connection done)
  // before the service is polled.
  EXPECT_TRUE(server.wait_for_accepted(outcome.episodes, 10000));
  server.frontend().join_readers();
  outcome.emissions = drain_captured(service);
  server.stop();
  return outcome;
}

/// The acceptance criterion, parameterized over service configs.
void soak_equivalence(ServiceConfig config, SoakOptions options,
                      std::uint32_t clients = 4, int per_client = 30) {
  const auto workload =
      make_workload(clients, per_client, /*seed=*/options.seed + 1000);
  const auto direct = run_direct(workload, config);
  ASSERT_FALSE(direct.empty());
  const SoakOutcome outcome = run_soaked(workload, config, options);
  // The soak actually soaked: reconnect episodes and deliberate cuts.
  EXPECT_GT(outcome.episodes,
            static_cast<std::uint64_t>(clients));
  EXPECT_GT(outcome.cuts, 0u);
  expect_equivalent(direct, outcome.emissions);
}

TEST(SoakOverUnixSockets, SequentialEmissionsSurviveDisconnectsBitForBit) {
  ServiceConfig config;
  config.with_p_safe(0.99);
  for (std::uint64_t seed : {1ULL, 2ULL, 21ULL, 22ULL}) {
    SoakOptions options;
    options.seed = seed;
    soak_equivalence(config, options);
  }
}

TEST(SoakOverUnixSockets, SequentialShardedEmissionsSurvive) {
  ServiceConfig config;
  config.with_shards(3).with_p_safe(0.99);
  SoakOptions options;
  options.seed = 5;
  soak_equivalence(config, options, /*clients=*/6);
  // One poller per shard.
  options.seed = 25;
  options.poller_threads = 3;
  soak_equivalence(config, options, /*clients=*/6);
}

TEST(SoakOverUnixSockets, TwoShardEmissionsSurviveDisconnectsBitForBit) {
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  for (std::uint64_t seed : {7ULL, 27ULL}) {
    SoakOptions options;
    options.seed = seed;
    soak_equivalence(config, options);
  }
}

TEST(SoakOverUnixSockets, GlobalMergeEmissionsSurviveDisconnectsBitForBit) {
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99).with_drain_policy(
      core::DrainPolicy::kGlobalMerge);
  for (std::uint64_t seed : {11ULL, 31ULL}) {
    SoakOptions options;
    options.seed = seed;
    soak_equivalence(config, options);
  }
}

TEST(SoakOverUnixSockets, TinySubmitBatchLimitStillBitIdentical) {
  // submit_batch_limit=2 forces the pending-flush / kConsumedStall paths
  // to run constantly; the emissions must not notice.
  ServiceConfig config;
  config.with_p_safe(0.99);
  SoakOptions options;
  options.seed = 33;
  options.submit_batch_limit = 2;
  soak_equivalence(config, options);
}

TEST(SoakOverTcp, SequentialEmissionsSurviveDisconnectsBitForBit) {
  ServiceConfig config;
  config.with_p_safe(0.99);
  for (std::uint64_t seed : {13ULL, 37ULL}) {
    SoakOptions options;
    options.seed = seed;
    options.use_tcp = true;
    soak_equivalence(config, options);
  }
}

TEST(SoakOverTcp, TwoShardEmissionsSurviveDisconnectsBitForBit) {
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  SoakOptions options;
  options.seed = 41;
  options.use_tcp = true;
  soak_equivalence(config, options);
}

/// Churn through the real acceptor: the server-side connection table
/// stays bounded across 60 connect/disconnect cycles (the acceptor
/// variant of the frontend churn regression; retire unhooks each
/// connection from its poller via remove_sync).
TEST(SoakOverUnixSockets, AcceptorChurnKeepsTheTableBounded) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), config);
  ServerConfig server_config;
  server_config.frontend = test_frontend_config();
  FrameServer server(registry, service, server_config);
  const std::string path = fresh_unix_path();
  ASSERT_TRUE(server.listen(Endpoint{.unix_path = path, .tcp_port = 0}));

  for (int cycle = 0; cycle < 60; ++cycle) {
    auto wire = dial(Endpoint{.unix_path = path, .tcp_port = 0});
    ASSERT_NE(wire, nullptr);
    std::vector<std::uint8_t> bytes = announce_frame(0);
    const auto frame = message_frame(
        0, static_cast<std::uint64_t>(cycle), 1.0 + 1e-3 * cycle);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    ASSERT_TRUE(wire->write_all(bytes));
    wire->close_write();
    ASSERT_TRUE(eventually([&server] {
      return server.frontend().connection_count() == 0;
    }));
  }
  ASSERT_TRUE(server.wait_for_accepted(60, 10000));
  server.frontend().join_readers();
  server.frontend().reap();
  EXPECT_EQ(server.frontend().tracked_connection_count(), 0u);
  EXPECT_EQ(server.frontend().totals().accepted, 60u);
  EXPECT_EQ(server.frontend().totals().removed, 60u);
  EXPECT_TRUE(
      eventually([&service] { return service.pending_count() == 60; }));
  server.stop();
}

}  // namespace
}  // namespace tommy::net
