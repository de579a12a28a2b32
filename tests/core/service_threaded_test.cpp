// Threaded FairOrderingService: the worker-thread execution engine must
// be an invisible optimization. The randomized equivalence test drives a
// sequential and a threaded 4-shard service with byte-identical inputs
// and the same poll schedule and requires bit-identical per-shard
// emission sequences (poll is a synchronous command, so the threaded
// service is deterministic under a single producer). The stress test is
// the TSan target: many sessions on many producer threads hammering a
// threaded service with random concurrent flushes, checked for
// conservation and dense ranks rather than determinism. Global-merge
// drain is pinned against the shard-local stream (same records, total
// (safe_time, shard, rank) order) in both execution modes.
#include "core/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/offline_runner.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"
#include "stats/gaussian.hpp"

#include "reference_sequencer.hpp"

namespace tommy::core {
namespace {

using namespace tommy::literals;

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

/// Drives `service` over the stream on a deterministic schedule; returns
/// the collected (record, shard) sequence in sink delivery order.
std::vector<Tagged> drive(FairOrderingService& service, const Stream& s,
                          bool use_submit_batch = false) {
  std::unordered_map<ClientId, FairOrderingService::Session> sessions;
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

TEST(ServiceThreadedTest, FourShardThreadedMatchesSequentialBitForBit) {
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

    ServiceConfig sequential;
    sequential.with_p_safe(0.995).with_shards(4);
    FairOrderingService seq_service(s.registry, s.population.ids(),
                                    sequential);
    const auto seq_out = drive(seq_service, s);
    EXPECT_FALSE(seq_out.empty());

    ServiceConfig threaded = sequential;
    threaded.with_worker_threads();
    FairOrderingService thr_service(s.registry, s.population.ids(),
                                    threaded);
    const auto thr_out = drive(thr_service, s);

    expect_identical_per_shard(thr_out, seq_out, 4,
                               ("seed " + std::to_string(seed)).c_str());
    EXPECT_EQ(thr_service.pending_count(), 0u);
    EXPECT_EQ(thr_service.fairness_violations(),
              seq_service.fairness_violations());
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

TEST(ServiceThreadedTest, ReannounceWaitsForTheInstallInBothModes) {
  // A registry re-announce reaches no shard before an install, in either
  // mode: every shard keeps its epoch's engine, buffered keys, safe times
  // and gate frontiers until an install rebinds it. A sequential service
  // used to re-prime its shared engine in place at the first shard call
  // after the announce; every later shard then found the engine ready and
  // kept its stale buffer and frontiers while its sessions already read
  // the new offsets. The set-up is service_test's
  // MultiShardMatchesIndependentBareSequencers; at the midpoint a client
  // of shard 2 is re-learned and no install follows, so the third leg —
  // one oracle per shard — stays bound to the construction-time epoch.
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
  FairOrderingService sequential(registry, pop.ids(), config);
  FairOrderingService threaded(registry, pop.ids(),
                               ServiceConfig(config).with_worker_threads());
  ShardedReference oracle(sequential, registry, pop.ids(), config.online);

  const std::vector<ClientId> ids = pop.ids();
  const auto in_shard_2 = std::find_if(ids.begin(), ids.end(), [&](ClientId c) {
    return sequential.shard_of(c) == 2;
  });
  ASSERT_NE(in_shard_2, ids.end());
  const ClientId relearned = *in_shard_2;

  Leg<FairOrderingService> seq_leg{sequential};
  Leg<FairOrderingService> thr_leg{threaded};
  Leg<ShardedReference> oracle_leg{oracle};
  auto each = [&](auto&& fn) {
    fn(seq_leg);
    fn(thr_leg);
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
  for (const FairOrderingService* service : {&sequential, &threaded}) {
    EXPECT_EQ(service->epoch(), 0u);  // nothing was installed
    EXPECT_TRUE(service->reconfig_pending());
  }

  expect_identical_per_shard(seq_leg.out, thr_leg.out, 3,
                             "sequential vs threaded");
  expect_identical_per_shard(seq_leg.out, oracle_leg.out, 3,
                             "sequential vs pinned oracle");
  std::size_t messages = 0;
  for (const Tagged& t : seq_leg.out) {
    messages += t.record.batch.messages.size();
  }
  EXPECT_EQ(messages, observed.size());
}

TEST(ServiceThreadedTest, SubmitBatchMatchesPerMessageSubmit) {
  // Batched ingest is pure amortization: the same stream chunked through
  // submit_batch must produce the same emissions — sequential AND
  // threaded (where the batch rides the same ring).
  const Stream s = make_stream(77u, 8, 500);
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded" : "sequential");
    ServiceConfig config;
    config.with_p_safe(0.995).with_shards(2).with_worker_threads(threaded);

    FairOrderingService singles(s.registry, s.population.ids(), config);
    const auto single_out = drive(singles, s, /*use_submit_batch=*/false);
    EXPECT_FALSE(single_out.empty());

    FairOrderingService batched(s.registry, s.population.ids(), config);
    const auto batch_out = drive(batched, s, /*use_submit_batch=*/true);
    expect_identical_per_shard(batch_out, single_out, 2, "batched-vs-single");
  }
}

TEST(ServiceThreadedTest, BareSequencerSubmitBatchMatchesSubmit) {
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

TEST(ServiceThreadedTest, GlobalMergeDeliversSameRecordsTotallyOrdered) {
  // kGlobalMerge must (a) deliver exactly the records kShardLocal
  // delivers (per shard, same order), (b) hand them over sorted by
  // (safe_time, shard, rank) within each poll's release, and (c) agree
  // between sequential and threaded execution.
  const Stream s = make_stream(55u, 12, 600);

  ServiceConfig local;
  local.with_p_safe(0.995).with_shards(3);
  FairOrderingService local_service(s.registry, s.population.ids(), local);
  const auto local_out = drive(local_service, s);

  std::vector<Tagged> merged_out[2];
  for (const bool threaded : {false, true}) {
    ServiceConfig merged = local;
    merged.with_drain_policy(DrainPolicy::kGlobalMerge)
        .with_worker_threads(threaded);
    FairOrderingService merged_service(s.registry, s.population.ids(),
                                       merged);
    merged_out[threaded ? 1 : 0] = drive(merged_service, s);
  }

  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded" : "sequential");
    const auto& out = merged_out[threaded ? 1 : 0];
    // (a) same per-shard records as shard-local (rank-aligned; release
    // order within a shard follows safe_time, not rank).
    expect_identical_per_shard(out, local_out, 3, "same-records",
                               /*sort_by_rank=*/true);
    // (b) the merged stream is totally ordered by (safe_time, shard,
    // rank) — the shard-local rank caveat (a rank-blocked batch with an
    // earlier T_b) cannot appear because release waits for
    // min(next_safe_time).
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
  // (c) both execution modes produce the identical merged sequence.
  ASSERT_EQ(merged_out[0].size(), merged_out[1].size());
  for (std::size_t r = 0; r < merged_out[0].size(); ++r) {
    EXPECT_EQ(merged_out[0][r].shard, merged_out[1][r].shard);
    EXPECT_EQ(merged_out[0][r].record.batch.rank,
              merged_out[1][r].record.batch.rank);
  }
}

TEST(ServiceThreadedTest, ConcurrentProducersWithRandomFlushesStress) {
  // The TSan target: kProducers threads × kSessionsPerProducer sessions
  // hammer a threaded 4-shard service while the main thread issues
  // random polls and flushes. No determinism to assert — instead:
  // conservation (every submitted message emitted exactly once after the
  // final flush), dense per-shard ranks, and no data race (TSan) or
  // crash.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kSessionsPerProducer = 3;
  constexpr std::size_t kPerSession = 400;
  constexpr std::size_t kClients = kProducers * kSessionsPerProducer;

  ClientRegistry registry;
  std::vector<ClientId> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    registry.announce(ClientId(c),
                      std::make_unique<stats::Gaussian>(0.0, 50e-6));
    clients.push_back(ClientId(c));
  }
  ServiceConfig config;
  config.with_p_safe(0.99).with_shards(4).with_worker_threads();
  config.online.client_silence_timeout = 10_ms;  // don't gate on quiet peers
  config.ingest_ring_capacity = 64;              // force backpressure
  FairOrderingService service(registry, clients, config);

  std::atomic<std::uint64_t> total_emitted{0};
  std::atomic<bool> producers_done{false};
  std::vector<std::vector<Rank>> ranks_seen(4);
  auto sink = [&](EmissionRecord&& record, std::uint32_t shard) {
    total_emitted.fetch_add(record.batch.messages.size(),
                            std::memory_order_relaxed);
    ranks_seen[shard].push_back(record.batch.rank);
  };

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000 + p);
      std::vector<FairOrderingService::Session> sessions;
      for (std::size_t i = 0; i < kSessionsPerProducer; ++i) {
        sessions.push_back(service.open_session(
            ClientId(static_cast<std::uint32_t>(p * kSessionsPerProducer
                                                + i))));
      }
      TimePoint now(0.0);
      std::uint64_t id = p * 1000000;
      for (std::size_t k = 0; k < kPerSession * kSessionsPerProducer; ++k) {
        now += Duration::from_micros(rng.uniform(0.1, 5.0));
        auto& session = sessions[k % kSessionsPerProducer];
        if (k % 17 == 0) {
          session.heartbeat(now, now);
        } else {
          session.submit(now - Duration::from_micros(rng.uniform(0.0, 40.0)),
                         MessageId(id++), now);
        }
      }
      for (auto& session : sessions) session.heartbeat(now + 10_s, now);
    });
  }

  std::thread drainer([&] {
    Rng rng(42);
    while (!producers_done.load(std::memory_order_acquire)) {
      const double dice = rng.uniform(0.0, 1.0);
      const TimePoint at(rng.uniform(0.0, 10.0));
      if (dice < 0.55) {
        service.poll(at, sink);
      } else if (dice < 0.75) {
        service.flush(at, sink);
      } else if (dice < 0.85) {
        // State accessors race real producers here on purpose: they must
        // serve ack-time snapshots, never live shard state (TSan target).
        (void)service.pending_count();
      } else if (dice < 0.95) {
        (void)service.next_safe_time();
      } else {
        (void)service.fairness_violations();
      }
      std::this_thread::yield();
    }
  });

  for (auto& producer : producers) producer.join();
  producers_done.store(true, std::memory_order_release);
  drainer.join();
  service.flush(TimePoint(100.0), sink);

  // Conservation: heartbeats don't emit; every submit does, exactly once.
  std::size_t expected = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t k = 0; k < kPerSession * kSessionsPerProducer; ++k) {
      if (k % 17 != 0) ++expected;
    }
  }
  EXPECT_EQ(total_emitted.load(), expected);
  EXPECT_EQ(service.pending_count(), 0u);
  // Ranks are dense per shard even under concurrent flush/poll.
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::size_t r = 0; r < ranks_seen[s].size(); ++r) {
      ASSERT_EQ(ranks_seen[s][r], static_cast<Rank>(r))
          << "shard " << s << " rank gap";
    }
  }
}

TEST(ServiceThreadedTest, QuiesceMakesStateAccessorsExact) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(0.0, 1e-4));
  registry.announce(ClientId(1), std::make_unique<stats::Gaussian>(0.0, 1e-4));
  ServiceConfig config;
  config.with_p_safe(0.999).with_shards(2).with_worker_threads();
  FairOrderingService service(registry, {ClientId(0), ClientId(1)}, config);

  auto a = service.open_session(ClientId(0));
  auto b = service.open_session(ClientId(1));
  a.submit(TimePoint(1.0), MessageId(1), TimePoint(1.001));
  b.submit(TimePoint(1.1), MessageId(2), TimePoint(1.101));
  // pending_count quiesces internally: both submits must be visible.
  EXPECT_EQ(service.pending_count(), 2u);
  EXPECT_TRUE(service.next_safe_time().is_finite());

  std::size_t emitted = 0;
  service.flush(TimePoint(2.0), [&](EmissionRecord&& record, std::uint32_t) {
    emitted += record.batch.messages.size();
  });
  EXPECT_EQ(emitted, 2u);
  EXPECT_EQ(service.pending_count(), 0u);
  EXPECT_EQ(service.next_safe_time(), TimePoint::infinite_future());
}

}  // namespace
}  // namespace tommy::core
