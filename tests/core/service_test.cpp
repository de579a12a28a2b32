// FairOrderingService facade + session-handle surface: routing, shard
// composition over the shared primed engine, sink emission, session
// lifecycle (unknown clients, re-announce/generation refresh, flush
// interleaving), and the ingest FIFO-contract precondition. Randomized
// streams pin a 4-shard service to one naive oracle per shard
// (reference_sequencer.hpp), batched ingest to per-message ingest, and
// the global-merge drain to the shard-local record set in a total
// (safe_time, shard, rank) order.
#include "core/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/offline_runner.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"
#include "stats/gaussian.hpp"
#include "stats/summary.hpp"

#include "reference_sequencer.hpp"

namespace tommy::core {
namespace {

using namespace tommy::literals;

constexpr double kSigma = 1e-3;

ClientRegistry make_registry(std::uint32_t n, double sigma = kSigma) {
  ClientRegistry registry;
  for (std::uint32_t c = 0; c < n; ++c) {
    registry.announce(ClientId(c),
                      std::make_unique<stats::Gaussian>(0.0, sigma));
  }
  return registry;
}

std::vector<ClientId> ids(std::uint32_t n) {
  std::vector<ClientId> out;
  for (std::uint32_t c = 0; c < n; ++c) out.push_back(ClientId(c));
  return out;
}

TEST(KeyRouters, RangeRouterSplitsTheSpanEvenly) {
  const RangeRouter router(ClientId(0), ClientId(99));
  std::vector<std::size_t> counts(4, 0);
  for (std::uint32_t c = 0; c < 100; ++c) {
    const std::uint32_t s = router.route(ClientId(c), 4);
    ASSERT_LT(s, 4u);
    ++counts[s];
  }
  for (std::size_t count : counts) EXPECT_EQ(count, 25u);
  // Ranges are contiguous: routing is monotone in the id.
  std::uint32_t prev = 0;
  for (std::uint32_t c = 0; c < 100; ++c) {
    const std::uint32_t s = router.route(ClientId(c), 4);
    EXPECT_GE(s, prev);
    prev = s;
  }
  // Ids outside the span clamp instead of crashing.
  EXPECT_EQ(router.route(ClientId(1000), 4), 3u);
}

TEST(KeyRouters, ModuloRouterWrapsIds) {
  const ModuloRouter router;
  for (std::uint32_t c = 0; c < 20; ++c) {
    EXPECT_EQ(router.route(ClientId(c), 3), c % 3);
  }
}

TEST(FairOrderingServiceTest, PartitionsClientsAcrossShards) {
  const ClientRegistry registry = make_registry(8);
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  FairOrderingService service(registry, ids(8), config);

  EXPECT_EQ(service.shard_count(), 2u);
  EXPECT_TRUE(service.has_shard(0));
  EXPECT_TRUE(service.has_shard(1));
  for (std::uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(service.shard_of(ClientId(c)), c < 4 ? 0u : 1u);
  }
}

TEST(FairOrderingServiceTest, EmptyShardsAreTolerated) {
  const ClientRegistry registry = make_registry(4);
  ServiceConfig config;
  // Everything routes to shard 0 of 3; shards 1 and 2 stay unpopulated.
  class ZeroRouter final : public KeyRouter {
   public:
    std::uint32_t route(ClientId, std::uint32_t) const override { return 0; }
    std::string name() const override { return "zero"; }
  };
  config.with_shards(3).with_router(std::make_shared<ZeroRouter>());
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(4), config);

  EXPECT_TRUE(service.has_shard(0));
  EXPECT_FALSE(service.has_shard(1));
  EXPECT_FALSE(service.has_shard(2));

  auto session = service.open_session(ClientId(2));
  session.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  EXPECT_EQ(service.pending_count(), 1u);
  std::size_t emitted = 0;
  EXPECT_EQ(service.poll(TimePoint(1.0),
                         [&](EmissionRecord&&, std::uint32_t) { ++emitted; }),
            0u);  // completeness gate: quiet clients block, shards absent
                  // from the partition do not
  EXPECT_EQ(service.next_safe_time(),
            service.shard(0).next_safe_time());
}

TEST(FairOrderingServiceTest, SinkReceivesShardTaggedRankOrderedBatches) {
  const ClientRegistry registry = make_registry(4);
  ServiceConfig config;
  config.with_shards(2).with_p_safe(0.99);
  FairOrderingService service(registry, ids(4), config);

  std::unordered_map<std::uint32_t, FairOrderingService::Session> sessions;
  for (std::uint32_t c = 0; c < 4; ++c) {
    sessions.emplace(c, service.open_session(ClientId(c)));
  }
  EXPECT_EQ(sessions.at(0).shard(), 0u);
  EXPECT_EQ(sessions.at(3).shard(), 1u);

  // Two well-separated messages per shard.
  sessions.at(0).submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  sessions.at(3).submit(TimePoint(1.05), MessageId(2), TimePoint(1.051));
  sessions.at(1).submit(TimePoint(1.1), MessageId(3), TimePoint(1.101));
  sessions.at(2).submit(TimePoint(1.15), MessageId(4), TimePoint(1.151));

  for (std::uint32_t c = 0; c < 4; ++c) {
    sessions.at(c).heartbeat(TimePoint(20.0), TimePoint(1.2));
  }

  std::vector<std::pair<std::uint32_t, Rank>> seen;  // (shard, rank)
  std::vector<MessageId> order;
  const std::size_t emitted =
      service.poll(TimePoint(10.0), [&](EmissionRecord&& record,
                                        std::uint32_t shard) {
        seen.emplace_back(shard, record.batch.rank);
        for (const Message& m : record.batch.messages) order.push_back(m.id);
      });
  EXPECT_EQ(emitted, 4u);
  // Shards are visited in index order; ranks are dense per shard.
  const std::vector<std::pair<std::uint32_t, Rank>> expected_seen = {
      {0u, 0u}, {0u, 1u}, {1u, 0u}, {1u, 1u}};
  EXPECT_EQ(seen, expected_seen);
  const std::vector<MessageId> expected_order = {MessageId(1), MessageId(3),
                                                 MessageId(2), MessageId(4)};
  EXPECT_EQ(order, expected_order);
  EXPECT_EQ(service.pending_count(), 0u);
}

TEST(FairOrderingServiceTest, MultiShardMatchesIndependentBareSequencers) {
  // A sharded service must behave exactly like N bare sequencers, each
  // fed its routed sub-stream: randomized check, per-shard bit-identical
  // emissions.
  Rng rng(123);
  const sim::Population pop = sim::gaussian_population(12, 60e-6, rng);
  const auto events = sim::poisson_workload(pop.ids(), 600, 15_us, rng);
  auto observed = sim::materialize_messages(pop, events,
                                            sim::MaterializeConfig{}, rng);
  std::stable_sort(observed.begin(), observed.end(),
                   [](const sim::ObservedMessage& a,
                      const sim::ObservedMessage& b) {
                     return a.message.arrival < b.message.arrival;
                   });

  ClientRegistry registry;
  pop.seed_registry(registry);
  constexpr std::uint32_t kShards = 3;
  ServiceConfig config;
  config.with_shards(kShards).with_p_safe(0.995);
  FairOrderingService service(registry, pop.ids(), config);

  // Independent twins: one bare sequencer per shard over that shard's
  // clients only (sharing the service's partition via shard_of).
  std::vector<std::vector<ClientId>> members(kShards);
  for (ClientId c : pop.ids()) {
    members[service.shard_of(c)].push_back(c);
  }
  OnlineConfig online;
  online.p_safe = 0.995;
  std::vector<std::unique_ptr<OnlineSequencer>> twins;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ASSERT_FALSE(members[s].empty());
    twins.push_back(
        std::make_unique<OnlineSequencer>(registry, members[s], online));
  }

  std::unordered_map<ClientId, FairOrderingService::Session> sessions;
  std::unordered_map<ClientId, OnlineSequencer::Session> twin_sessions;
  for (ClientId c : pop.ids()) {
    sessions.emplace(c, service.open_session(c));
    twin_sessions.emplace(c, twins[service.shard_of(c)]->open_session(c));
  }

  std::vector<std::vector<EmissionRecord>> service_out(kShards);
  auto sink = [&](EmissionRecord&& record, std::uint32_t shard) {
    service_out[shard].push_back(std::move(record));
  };
  std::vector<std::vector<EmissionRecord>> twin_out(kShards);

  TimePoint now(0.0);
  std::size_t k = 0;
  for (const auto& om : observed) {
    now = std::max(now, om.message.arrival);
    sessions.at(om.message.client)
        .submit(om.message.stamp, om.message.id, now);
    twin_sessions.at(om.message.client)
        .submit(om.message.stamp, om.message.id, now);
    ++k;
    if (k % 11 == 0) {
      for (ClientId c : pop.ids()) {
        sessions.at(c).heartbeat(now, now);
        twin_sessions.at(c).heartbeat(now, now);
      }
    }
    if (k % 5 == 0) {
      service.poll(now, sink);
      for (std::uint32_t s = 0; s < kShards; ++s) {
        for (auto& r : twins[s]->poll(now)) {
          twin_out[s].push_back(std::move(r));
        }
      }
    }
  }
  for (ClientId c : pop.ids()) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
    twin_sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
  }
  service.poll(now + 1_s, sink);
  service.flush(now + 2_s, sink);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (auto& r : twins[s]->poll(now + 1_s)) twin_out[s].push_back(std::move(r));
    for (auto& r : twins[s]->flush(now + 2_s)) {
      twin_out[s].push_back(std::move(r));
    }
  }

  std::size_t total = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ASSERT_EQ(service_out[s].size(), twin_out[s].size());
    for (std::size_t r = 0; r < service_out[s].size(); ++r) {
      const EmissionRecord& a = service_out[s][r];
      const EmissionRecord& b = twin_out[s][r];
      EXPECT_EQ(a.batch.rank, b.batch.rank);
      EXPECT_EQ(a.emitted_at.seconds(), b.emitted_at.seconds());
      EXPECT_EQ(a.safe_time.seconds(), b.safe_time.seconds());
      ASSERT_EQ(a.batch.messages.size(), b.batch.messages.size());
      for (std::size_t m = 0; m < a.batch.messages.size(); ++m) {
        EXPECT_EQ(a.batch.messages[m], b.batch.messages[m]);
      }
      total += a.batch.messages.size();
    }
    EXPECT_EQ(service.shard(s).fairness_violations(),
              twins[s]->fairness_violations());
  }
  EXPECT_EQ(total, observed.size());
  EXPECT_EQ(service.pending_count(), 0u);
}

TEST(FairOrderingServiceTest, FlushInterleavesWithLiveSessions) {
  // flush() is a gate-ignoring drain, not a terminal state: sessions keep
  // submitting afterwards and ranks stay dense.
  const ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.999);
  FairOrderingService service(registry, ids(2), config);
  auto a = service.open_session(ClientId(0));
  auto b = service.open_session(ClientId(1));

  a.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  b.submit(TimePoint(1.1), MessageId(2), TimePoint(1.101));

  // Mid-stream shutdown drain: both messages leave despite closed gates.
  std::vector<EmissionRecord> flushed;
  EXPECT_EQ(service.flush(TimePoint(1.2),
                          [&](EmissionRecord&& r, std::uint32_t) {
                            flushed.push_back(std::move(r));
                          }),
            2u);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].batch.rank, 0u);
  EXPECT_EQ(flushed[1].batch.rank, 1u);
  EXPECT_EQ(service.pending_count(), 0u);

  // The same sessions stay live and feed the next ranks.
  a.submit(TimePoint(2.0), MessageId(3), TimePoint(2.001));
  b.submit(TimePoint(2.1), MessageId(4), TimePoint(2.101));
  a.heartbeat(TimePoint(30.0), TimePoint(2.2));
  b.heartbeat(TimePoint(30.0), TimePoint(2.2));
  std::vector<EmissionRecord> polled;
  service.poll(TimePoint(10.0), [&](EmissionRecord&& r, std::uint32_t) {
    polled.push_back(std::move(r));
  });
  ASSERT_EQ(polled.size(), 2u);
  EXPECT_EQ(polled[0].batch.rank, 2u);  // ranks continue past the flush
  EXPECT_EQ(polled[0].batch.messages[0].id, MessageId(3));
  EXPECT_EQ(polled[1].batch.rank, 3u);
  EXPECT_EQ(service.fairness_violations(), 0u);
}

TEST(FairOrderingServiceTest, BareSequencerFlushInterleavesWithSessions) {
  // Same interleaving at the OnlineSequencer level (no facade).
  const ClientRegistry registry = make_registry(2);
  OnlineConfig config;
  config.p_safe = 0.999;
  OnlineSequencer seq(registry, ids(2), config);
  auto a = seq.open_session(ClientId(0));
  auto b = seq.open_session(ClientId(1));

  a.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  const auto flushed = seq.flush(TimePoint(1.1));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].batch.rank, 0u);

  b.submit(TimePoint(2.0), MessageId(2), TimePoint(2.001));
  a.submit(TimePoint(2.2), MessageId(3), TimePoint(2.201));
  a.heartbeat(TimePoint(30.0), TimePoint(2.3));
  b.heartbeat(TimePoint(30.0), TimePoint(2.3));
  const auto polled = seq.poll(TimePoint(10.0));
  ASSERT_EQ(polled.size(), 2u);
  EXPECT_EQ(polled[0].batch.rank, 1u);
  EXPECT_EQ(polled[0].batch.messages[0].id, MessageId(2));
  EXPECT_EQ(polled[1].batch.rank, 2u);
  EXPECT_EQ(seq.next_rank(), 3u);
}

TEST(FairOrderingServiceTest, OpenSessionOnUnknownClientDies) {
  const ClientRegistry registry = make_registry(2);
  OnlineConfig config;
  config.p_safe = 0.99;
  OnlineSequencer seq(registry, ids(2), config);
  EXPECT_DEATH((void)seq.open_session(ClientId(99)), "precondition");

  ServiceConfig service_config;
  service_config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), service_config);
  EXPECT_DEATH((void)service.open_session(ClientId(99)), "precondition");
}

TEST(FairOrderingServiceTest, OpenSessionOnRegisteredButUnexpectedClientDies) {
  // Registry knows client 2, but the sequencer's expected set does not:
  // open_session must refuse it.
  const ClientRegistry registry = make_registry(3);
  OnlineConfig config;
  config.p_safe = 0.99;
  OnlineSequencer seq(registry, ids(2), config);
  EXPECT_DEATH((void)seq.open_session(ClientId(2)), "precondition");
}

TEST(FairOrderingServiceTest, SessionRefreshesAfterReannounce) {
  // Generation-counter path: a session opened before a re-announce keeps
  // working and picks up the new distribution (visible through T_b, which
  // tracks the re-announced safe-emission quantile).
  ClientRegistry registry;
  registry.announce(ClientId(0),
                    std::make_unique<stats::Gaussian>(0.0, 1e-3));
  registry.announce(ClientId(1),
                    std::make_unique<stats::Gaussian>(0.0, 1e-3));
  OnlineConfig config;
  config.p_safe = 0.999;
  OnlineSequencer seq(registry, ids(2), config);
  auto session = seq.open_session(ClientId(0));

  session.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  const double tb_tight = seq.next_safe_time().seconds();
  EXPECT_NEAR(tb_tight, 1.0 + 1e-3 * 3.0902, 1e-5);
  (void)seq.flush(TimePoint(1.5));

  // Client 0's clock is re-learned 100× wider. The already-open session
  // must serve the new constants (stale caches would keep the old T_b).
  registry.announce(ClientId(0),
                    std::make_unique<stats::Gaussian>(0.0, 0.1));
  session.submit(TimePoint(2.0), MessageId(2), TimePoint(2.001));
  const double tb_wide = seq.next_safe_time().seconds();
  EXPECT_NEAR(tb_wide, 2.0 + 0.1 * 3.0902, 1e-3);

  // And a session opened after the re-announce agrees with it.
  auto fresh = seq.open_session(ClientId(0));
  fresh.submit(TimePoint(2.0001), MessageId(3), TimePoint(2.01));
  EXPECT_NEAR(seq.next_safe_time().seconds(), tb_wide, 2e-3);
}

TEST(FairOrderingServiceTest, OutOfOrderArrivalDies) {
  // The ingest contract (FIFO delivery: arrival stamps non-decreasing) is
  // a checked precondition on every surface.
  const ClientRegistry registry = make_registry(2);
  OnlineConfig config;
  config.p_safe = 0.99;

  {
    OnlineSequencer seq(registry, ids(2), config);
    auto session = seq.open_session(ClientId(0));
    session.submit(TimePoint(1.0), MessageId(1), TimePoint(2.0));
    EXPECT_DEATH(session.submit(TimePoint(1.1), MessageId(2), TimePoint(1.0)),
                 "precondition");
  }
  {
    // Across sessions too: FIFO is per sequencer, not per session.
    OnlineSequencer seq(registry, ids(2), config);
    seq.open_session(ClientId(0))
        .submit(TimePoint(1.0), MessageId(1), TimePoint(2.0));
    auto other = seq.open_session(ClientId(1));
    EXPECT_DEATH(other.submit(TimePoint(1.1), MessageId(2), TimePoint(1.0)),
                 "precondition");
  }
}

TEST(FairOrderingServiceTest, ServiceConfigBuilderComposes) {
  ServiceConfig config;
  OnlineConfig online;
  online.client_silence_timeout = 5_ms;
  config.with_online(online)
      .with_threshold(0.8)
      .with_p_safe(0.995)
      .with_shards(2)
      .with_router(std::make_shared<ModuloRouter>());
  EXPECT_EQ(config.online.threshold, 0.8);
  EXPECT_EQ(config.online.p_safe, 0.995);
  EXPECT_EQ(config.online.client_silence_timeout, 5_ms);
  EXPECT_EQ(config.shard_count, 2u);
  ASSERT_NE(config.router, nullptr);
  EXPECT_EQ(config.router->name(), "modulo");

  const ClientRegistry registry = make_registry(4);
  FairOrderingService service(registry, ids(4), config);
  EXPECT_EQ(service.router().name(), "modulo");
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(service.shard_of(ClientId(c)), c % 2);
  }
}

TEST(FairOrderingServiceTest, CustomSinkClassTakesTheSinkOverload) {
  // A user-defined EmissionSink lvalue must bind to poll(now,
  // EmissionSink&), not get wrapped by the constrained callback
  // template (which would not compile).
  class CountingSink final : public EmissionSink {
   public:
    void on_emission(EmissionRecord&& record, std::uint32_t) override {
      messages += record.batch.messages.size();
    }
    std::size_t messages{0};
  };

  const ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), config);
  auto session = service.open_session(ClientId(0));
  session.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  session.heartbeat(TimePoint(20.0), TimePoint(1.1));
  service.open_session(ClientId(1)).heartbeat(TimePoint(20.0), TimePoint(1.1));

  CountingSink sink;
  EXPECT_EQ(service.poll(TimePoint(10.0), sink), 1u);
  EXPECT_EQ(sink.messages, 1u);
}

TEST(FairOrderingServiceTest, MismatchedSharedEngineConfigDies) {
  // A sequencer never primes a shared engine, so it must agree with the
  // (threshold, p_safe) the engine's owner primed it for; a mismatch is a
  // checked precondition at construction, as is an unprimed engine.
  const ClientRegistry registry = make_registry(2);
  auto engine = std::make_shared<const PrecedingEngine>(registry);
  OnlineConfig first;
  first.p_safe = 0.99;
  EXPECT_DEATH(OnlineSequencer(engine, ids(2), first), "precondition");
  engine->prime(first.threshold, first.p_safe);
  OnlineSequencer a(engine, ids(2), first);
  OnlineConfig second;
  second.p_safe = 0.999;  // disagrees with what the engine was primed for
  EXPECT_DEATH(OnlineSequencer(engine, ids(2), second), "precondition");
}

TEST(FairOrderingServiceTest, SharedEngineIsPrimedOnceAndReallyShared) {
  const ClientRegistry registry = make_registry(6);
  ServiceConfig config;
  config.with_shards(3).with_p_safe(0.99);
  FairOrderingService service(registry, ids(6), config);
  EXPECT_TRUE(service.engine().fast_ready(config.online.threshold,
                                          config.online.p_safe));
  for (std::uint32_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(service.has_shard(s));
    // Every shard sees the whole registry through the one engine.
    EXPECT_EQ(&service.shard(s).registry(), &registry);
  }
}

// ── Connection-front-end hooks (try_open_session & friends) ─────────────

TEST(FairOrderingServiceTest, ExpectsClientReflectsTheExpectedSet) {
  const ClientRegistry registry = make_registry(4);
  FairOrderingService service(registry, ids(3), {});  // client 3 not expected
  EXPECT_TRUE(service.expects_client(ClientId(0)));
  EXPECT_TRUE(service.expects_client(ClientId(2)));
  EXPECT_FALSE(service.expects_client(ClientId(3)));
  EXPECT_FALSE(service.expects_client(ClientId(99)));
}

TEST(FairOrderingServiceTest, TryOpenSessionReportsUnknownClients) {
  const ClientRegistry registry = make_registry(2);
  FairOrderingService service(registry, ids(2), {});

  OpenError error{};
  auto session = service.try_open_session(ClientId(7), &error);
  EXPECT_FALSE(session.has_value());
  EXPECT_EQ(error, OpenError::kUnknownClient);

  session = service.try_open_session(ClientId(1), &error);
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(error, OpenError::kNone);
  session->submit(TimePoint(1.0), MessageId(5), TimePoint(1.01));
  EXPECT_EQ(service.pending_count(), 1u);
}

TEST(FairOrderingServiceTest, MovedRegistryKeepsSessionsOpenAndReconfigures) {
  ClientRegistry registry = make_registry(2);
  ServiceConfig config;
  config.with_p_safe(0.99);
  FairOrderingService service(registry, ids(2), config);
  EXPECT_EQ(service.primed_generation(), registry.generation());
  EXPECT_FALSE(service.reconfig_pending());

  // A changed re-announce does not freeze the service: known clients
  // keep opening sessions against the live epoch while the reconfig is
  // outstanding.
  registry.announce(ClientId(0),
                    stats::DistributionSummary(stats::GaussianParams{0.0, kSigma}));
  const std::uint64_t moved = registry.generation();
  EXPECT_NE(moved, service.primed_generation());
  EXPECT_TRUE(service.reconfig_pending());

  OpenError error{};
  const auto session = service.try_open_session(ClientId(0), &error);
  EXPECT_TRUE(session.has_value());
  EXPECT_EQ(error, OpenError::kNone);

  // The blocking convenience loop installs the new epoch.
  service.reconfigure();
  EXPECT_EQ(service.primed_generation(), moved);
  EXPECT_FALSE(service.reconfig_pending());
  EXPECT_GE(service.epoch(), 1u);
}

// ── Randomized streams ──────────────────────────────────────────────────

struct Tagged {
  EmissionRecord record;
  std::uint32_t shard;
};

struct Stream {
  sim::Population population;
  std::vector<Message> messages;  // arrival order
  ClientRegistry registry;
};

/// The clients' clock-offset distributions.
enum class Clocks { kGaussian, kGumbelBimodal };

sim::Population population_of(Clocks clocks, std::size_t clients, Rng& rng) {
  if (clocks == Clocks::kGaussian) {
    return sim::gaussian_population(clients, 60e-6, rng);
  }
  // Half Gumbel, half bimodal: every pair takes the numeric Δθ path.
  const std::size_t gumbel = clients / 2;
  const sim::Population a = sim::gumbel_population(gumbel, 60e-6, rng);
  const sim::Population b =
      sim::bimodal_population(clients - gumbel, 60e-6, rng);
  std::vector<sim::ClientSpec> specs;
  for (const sim::Population* population : {&a, &b}) {
    for (const sim::ClientSpec& c : population->clients()) {
      specs.push_back({ClientId(static_cast<std::uint32_t>(specs.size())),
                       c.offset->clone()});
    }
  }
  return sim::Population(std::move(specs));
}

Stream make_stream(std::uint64_t seed, std::size_t clients,
                   std::size_t count, Clocks clocks = Clocks::kGaussian) {
  Rng rng(seed);
  Stream s{population_of(clocks, clients, rng), {}, {}};
  const auto events = sim::poisson_workload(s.population.ids(), count,
                                            15_us, rng);
  auto observed = sim::materialize_messages(s.population, events,
                                            sim::MaterializeConfig{}, rng);
  for (const auto& om : observed) s.messages.push_back(om.message);
  std::stable_sort(s.messages.begin(), s.messages.end(),
                   [](const Message& a, const Message& b) {
                     return a.arrival < b.arrival;
                   });
  s.population.seed_registry(s.registry);
  return s;
}

/// Drives `service` (a FairOrderingService, or the ShardedReference of
/// one) over the stream on a deterministic schedule; returns the
/// collected (record, shard) sequence in sink delivery order.
template <typename Service>
std::vector<Tagged> drive(Service& service, const Stream& s,
                          bool use_submit_batch = false) {
  std::unordered_map<ClientId, typename Service::Session> sessions;
  for (ClientId c : s.population.ids()) {
    sessions.emplace(c, service.open_session(c));
  }
  std::vector<Tagged> out;
  auto sink = [&out](EmissionRecord&& record, std::uint32_t shard) {
    out.push_back(Tagged{std::move(record), shard});
  };
  // Per-client pending submissions for the batched variant.
  std::unordered_map<ClientId, std::vector<Submission>> pending;
  auto flush_pending = [&] {
    for (ClientId c : s.population.ids()) {
      auto& items = pending[c];
      if (items.empty()) continue;
      sessions.at(c).submit_batch(
          std::span<const Submission>(items));
      items.clear();
    }
  };
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const Message& m : s.messages) {
    now = std::max(now, m.arrival);
    if (use_submit_batch) {
      pending[m.client].push_back(Submission{m.stamp, m.id, now});
    } else {
      sessions.at(m.client).submit(m.stamp, m.id, now);
    }
    ++k;
    if (k % 13 == 0) {
      flush_pending();
      for (ClientId c : s.population.ids()) {
        sessions.at(c).heartbeat(now, now);
      }
    }
    if (k % 7 == 0) {
      flush_pending();
      service.poll(now, sink);
    }
  }
  flush_pending();
  for (ClientId c : s.population.ids()) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
  }
  service.poll(now + 1_s, sink);
  service.flush(now + 2_s, sink);
  return out;
}

void expect_identical_per_shard(const std::vector<Tagged>& actual,
                                const std::vector<Tagged>& expected,
                                std::uint32_t shard_count, const char* label,
                                bool sort_by_rank = false) {
  SCOPED_TRACE(label);
  auto split = [shard_count, sort_by_rank](const std::vector<Tagged>& all) {
    std::vector<std::vector<const Tagged*>> by_shard(shard_count);
    for (const Tagged& t : all) by_shard[t.shard].push_back(&t);
    if (sort_by_rank) {
      // The global merge releases a shard's records in safe-time order,
      // which can permute rank order within the shard (the documented
      // rank-blocked caveat); compare the per-shard streams rank-aligned.
      for (auto& records : by_shard) {
        std::sort(records.begin(), records.end(),
                  [](const Tagged* lhs, const Tagged* rhs) {
                    return lhs->record.batch.rank < rhs->record.batch.rank;
                  });
      }
    }
    return by_shard;
  };
  const auto a = split(actual);
  const auto b = split(expected);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t r = 0; r < a[s].size(); ++r) {
      SCOPED_TRACE("record " + std::to_string(r));
      const EmissionRecord& x = a[s][r]->record;
      const EmissionRecord& y = b[s][r]->record;
      EXPECT_EQ(x.batch.rank, y.batch.rank);
      EXPECT_EQ(x.emitted_at.seconds(), y.emitted_at.seconds());
      EXPECT_EQ(x.safe_time.seconds(), y.safe_time.seconds());
      ASSERT_EQ(x.batch.messages.size(), y.batch.messages.size());
      for (std::size_t m = 0; m < x.batch.messages.size(); ++m) {
        EXPECT_EQ(x.batch.messages[m], y.batch.messages[m]);
      }
    }
  }
}

TEST(FairOrderingServiceTest, FourShardServiceMatchesTheShardedOracle) {
  // On the Gumbel/bimodal stream every prime convolves every numeric gap,
  // sharing the cells among several threads.
  struct Input {
    std::uint64_t seed;
    Clocks clocks;
  };
  for (const auto [seed, clocks] :
       {Input{101u, Clocks::kGaussian}, Input{202u, Clocks::kGaussian},
        Input{303u, Clocks::kGaussian}, Input{404u, Clocks::kGumbelBimodal}}) {
    const Stream s = make_stream(seed, 12, 700, clocks);

    ServiceConfig config;
    config.with_p_safe(0.995).with_shards(4);
    FairOrderingService service(s.registry, s.population.ids(), config);
    const auto fast = drive(service, s);
    EXPECT_FALSE(fast.empty());

    ShardedReference oracle(service, s.registry, s.population.ids(),
                            config.online);
    const auto slow = drive(oracle, s);

    expect_identical_per_shard(fast, slow, 4,
                               ("seed " + std::to_string(seed)).c_str());
    EXPECT_EQ(service.pending_count(), 0u);
    EXPECT_EQ(service.fairness_violations(), oracle.fairness_violations());
  }
}

/// One leg of a lockstep drive: a service (or the ShardedReference of
/// one), its sessions and the (record, shard) sequence it emitted.
template <typename Service>
struct Leg {
  Service& service;
  std::unordered_map<ClientId, typename Service::Session> sessions{};
  std::vector<Tagged> out{};

  void poll(TimePoint now) { service.poll(now, collect()); }
  void flush(TimePoint now) { service.flush(now, collect()); }
  auto collect() {
    return [this](EmissionRecord&& record, std::uint32_t shard) {
      out.push_back(Tagged{std::move(record), shard});
    };
  }
};

TEST(FairOrderingServiceTest, ReannounceWaitsForTheInstall) {
  // A registry re-announce reaches no shard before an install: every
  // shard keeps its epoch's engine, buffered keys, safe times and gate
  // frontiers until an install rebinds it. A service used to re-prime its
  // shared engine in place at the first shard call after the announce;
  // every later shard then found the engine ready and kept its stale
  // buffer and frontiers while its sessions already read the new offsets.
  // The set-up is MultiShardMatchesIndependentBareSequencers; at the
  // midpoint a client of shard 2 is re-learned and no install follows, so
  // the second leg — one oracle per shard — stays bound to the
  // construction-time epoch.
  Rng rng(123);
  const sim::Population pop = sim::gaussian_population(12, 60e-6, rng);
  const auto events = sim::poisson_workload(pop.ids(), 600, 15_us, rng);
  auto observed = sim::materialize_messages(pop, events,
                                            sim::MaterializeConfig{}, rng);
  std::stable_sort(observed.begin(), observed.end(),
                   [](const sim::ObservedMessage& a,
                      const sim::ObservedMessage& b) {
                     return a.message.arrival < b.message.arrival;
                   });
  ClientRegistry registry;
  pop.seed_registry(registry);
  ServiceConfig config;
  config.with_shards(3).with_p_safe(0.995);
  FairOrderingService service(registry, pop.ids(), config);
  ShardedReference oracle(service, registry, pop.ids(), config.online);

  const std::vector<ClientId> ids = pop.ids();
  const auto in_shard_2 = std::find_if(ids.begin(), ids.end(), [&](ClientId c) {
    return service.shard_of(c) == 2;
  });
  ASSERT_NE(in_shard_2, ids.end());
  const ClientId relearned = *in_shard_2;

  Leg<FairOrderingService> service_leg{service};
  Leg<ShardedReference> oracle_leg{oracle};
  auto each = [&](auto&& fn) {
    fn(service_leg);
    fn(oracle_leg);
  };
  each([&](auto& leg) {
    for (ClientId c : ids) leg.sessions.emplace(c, leg.service.open_session(c));
  });

  TimePoint now(0.0);
  std::size_t k = 0;
  for (const auto& om : observed) {
    now = std::max(now, om.message.arrival);
    each([&](auto& leg) {
      leg.sessions.at(om.message.client)
          .submit(om.message.stamp, om.message.id, now);
    });
    ++k;
    if (k == observed.size() / 2) {
      registry.announce(relearned,
                        std::make_unique<stats::Gaussian>(-400e-6, 60e-6));
      each([&](auto& leg) { leg.poll(now); });
    }
    if (k % 11 == 0) {
      each([&](auto& leg) {
        for (ClientId c : ids) leg.sessions.at(c).heartbeat(now, now);
      });
    }
    if (k % 5 == 0) {
      each([&](auto& leg) { leg.poll(now); });
    }
  }
  each([&](auto& leg) {
    for (ClientId c : ids) leg.sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
    leg.poll(now + 1_s);
    leg.flush(now + 2_s);
  });
  EXPECT_EQ(service.epoch(), 0u);  // nothing was installed
  EXPECT_TRUE(service.reconfig_pending());

  expect_identical_per_shard(service_leg.out, oracle_leg.out, 3,
                             "service vs pinned oracle");
  std::size_t messages = 0;
  for (const Tagged& t : service_leg.out) {
    messages += t.record.batch.messages.size();
  }
  EXPECT_EQ(messages, observed.size());
}

TEST(FairOrderingServiceTest, SubmitBatchMatchesPerMessageSubmit) {
  // Batched ingest is pure amortization: the same stream chunked through
  // submit_batch must produce the same emissions.
  const Stream s = make_stream(77u, 8, 500);
  ServiceConfig config;
  config.with_p_safe(0.995).with_shards(2);

  FairOrderingService singles(s.registry, s.population.ids(), config);
  const auto single_out = drive(singles, s, /*use_submit_batch=*/false);
  EXPECT_FALSE(single_out.empty());

  FairOrderingService batched(s.registry, s.population.ids(), config);
  const auto batch_out = drive(batched, s, /*use_submit_batch=*/true);
  expect_identical_per_shard(batch_out, single_out, 2, "batched-vs-single");
}

TEST(FairOrderingServiceTest, BareSequencerSubmitBatchMatchesSubmit) {
  // The session-level contract, without the service in the way.
  const Stream s = make_stream(31u, 6, 300);
  OnlineConfig config;
  config.p_safe = 0.995;

  auto run = [&](bool batched) {
    OnlineSequencer seq(s.registry, s.population.ids(), config);
    std::unordered_map<ClientId, OnlineSequencer::Session> sessions;
    for (ClientId c : s.population.ids()) {
      sessions.emplace(c, seq.open_session(c));
    }
    std::vector<EmissionRecord> out;
    std::unordered_map<ClientId, std::vector<Submission>> pending;
    auto flush_pending = [&] {
      for (auto& [client, items] : pending) {
        if (items.empty()) continue;
        sessions.at(client).submit_batch_relaxed(
            std::span<const Submission>(items));
        items.clear();
      }
    };
    TimePoint now(0.0);
    std::size_t k = 0;
    for (const Message& m : s.messages) {
      now = std::max(now, m.arrival);
      if (batched) {
        pending[m.client].push_back(Submission{m.stamp, m.id, now});
      } else {
        sessions.at(m.client).submit(m.stamp, m.id, now);
      }
      if (++k % 7 == 0) {
        // Flush in deterministic client order before observable events
        // (relaxed: the per-client accumulation interleaves arrivals
        // across sessions by construction).
        if (batched) {
          for (ClientId c : s.population.ids()) {
            auto& items = pending[c];
            if (items.empty()) continue;
            sessions.at(c).submit_batch_relaxed(
                std::span<const Submission>(items));
            items.clear();
          }
        }
        for (ClientId c : s.population.ids()) {
          sessions.at(c).heartbeat(now, now);
        }
        for (auto& r : seq.poll(now)) out.push_back(std::move(r));
      }
    }
    flush_pending();
    for (ClientId c : s.population.ids()) {
      sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
    }
    for (auto& r : seq.poll(now + 1_s)) out.push_back(std::move(r));
    for (auto& r : seq.flush(now + 2_s)) out.push_back(std::move(r));
    return out;
  };

  const auto single = run(false);
  const auto batch = run(true);
  ASSERT_EQ(single.size(), batch.size());
  EXPECT_FALSE(single.empty());
  for (std::size_t r = 0; r < single.size(); ++r) {
    EXPECT_EQ(single[r].batch.rank, batch[r].batch.rank);
    ASSERT_EQ(single[r].batch.messages.size(), batch[r].batch.messages.size());
    for (std::size_t m = 0; m < single[r].batch.messages.size(); ++m) {
      EXPECT_EQ(single[r].batch.messages[m], batch[r].batch.messages[m]);
    }
  }
}

TEST(FairOrderingServiceTest, GlobalMergeDeliversSameRecordsTotallyOrdered) {
  // kGlobalMerge must (a) deliver exactly the records kShardLocal
  // delivers (per shard, same order), and (b) hand them over sorted by
  // (safe_time, shard, rank) within each poll's release.
  const Stream s = make_stream(55u, 12, 600);

  ServiceConfig local;
  local.with_p_safe(0.995).with_shards(3);
  FairOrderingService local_service(s.registry, s.population.ids(), local);
  const auto local_out = drive(local_service, s);

  ServiceConfig merged = local;
  merged.with_drain_policy(DrainPolicy::kGlobalMerge);
  FairOrderingService merged_service(s.registry, s.population.ids(), merged);
  const auto out = drive(merged_service, s);

  // (a) same per-shard records as shard-local (rank-aligned; release
  // order within a shard follows safe_time, not rank).
  expect_identical_per_shard(out, local_out, 3, "same-records",
                             /*sort_by_rank=*/true);
  // (b) the merged stream is totally ordered by (safe_time, shard, rank)
  // — the shard-local rank caveat (a rank-blocked batch with an earlier
  // T_b) cannot appear because release waits for min(next_safe_time).
  for (std::size_t r = 1; r < out.size(); ++r) {
    const auto& prev = out[r - 1];
    const auto& cur = out[r];
    const bool ordered =
        prev.record.safe_time < cur.record.safe_time ||
        (prev.record.safe_time == cur.record.safe_time &&
         (prev.shard < cur.shard ||
          (prev.shard == cur.shard &&
           prev.record.batch.rank < cur.record.batch.rank)));
    EXPECT_TRUE(ordered) << "record " << r << " out of order";
  }
}

TEST(ClientRegistryTest, IdenticalSummaryReannounceKeepsGenerationStable) {
  ClientRegistry registry;
  const stats::DistributionSummary summary(stats::GaussianParams{1e-4, 2e-3});
  EXPECT_TRUE(registry.announce(ClientId(1), summary));
  const std::uint64_t generation = registry.generation();
  ASSERT_TRUE(registry.announced_summary(ClientId(1)).has_value());

  EXPECT_FALSE(registry.announce(ClientId(1), summary));  // no-op re-send
  EXPECT_EQ(registry.generation(), generation);

  const stats::DistributionSummary changed(stats::GaussianParams{2e-4, 2e-3});
  EXPECT_TRUE(registry.announce(ClientId(1), changed));
  EXPECT_EQ(registry.generation(), generation + 1);

  // Direct Distribution announces always replace and clear the wire form.
  EXPECT_TRUE(registry.announce(
      ClientId(1), std::make_unique<stats::Gaussian>(0.0, 1e-3)));
  EXPECT_EQ(registry.announced_summary(ClientId(1)), std::nullopt);
  EXPECT_EQ(registry.generation(), generation + 2);
}

}  // namespace
}  // namespace tommy::core
