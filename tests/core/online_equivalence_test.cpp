// Equivalence of the online sequencer's constant-time fast path with the
// naive oracle (reference_sequencer.hpp): over randomized scenarios —
// Gaussian and non-Gaussian populations, forced numeric evaluation,
// heartbeats, silence timeouts, client retirement, violation-inducing low
// p_safe, mid-run re-announces — both must emit the exact same
// EmissionRecord sequence (ranks, members, order, emission and safe
// times) and count the same fairness violations. This is the contract
// that lets the critical-gap reduction and the incremental closure
// replace the O(n²) probability sweeps on the hot path.
//
// Every leg ingests through per-connection Session handles, the one
// ingest surface. The same harness also proves the service surface is a
// pure re-skin of that contract: a 1-shard FairOrderingService (sessions
// + emission sink) must be bit-identical to a bare OnlineSequencer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/online_sequencer.hpp"
#include "core/service.hpp"
#include "sim/offline_runner.hpp"
#include "stats/gaussian.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"

#include "reference_sequencer.hpp"

namespace tommy::core {
namespace {

using namespace tommy::literals;

struct Scenario {
  sim::Population population;
  std::vector<Message> messages;       // arrival-feasible input order
  ClientRegistry registry;
  std::vector<ClientId> expected;      // completeness-gate client set
};

enum class Shape { kGaussian, kGumbel, kBimodal };

Scenario make_scenario(std::uint64_t seed, Shape shape, std::size_t clients,
                       std::size_t count, bool silent_last_client) {
  Rng rng(seed);
  const double scale = rng.uniform(5e-6, 300e-6);
  auto make_pop = [&]() {
    switch (shape) {
      case Shape::kGumbel:
        return sim::gumbel_population(clients, scale, rng);
      case Shape::kBimodal:
        return sim::bimodal_population(clients, scale, rng);
      case Shape::kGaussian:
      default:
        return sim::gaussian_population(clients, scale, rng);
    }
  };
  Scenario s{make_pop(), {}, {}, {}};
  s.expected = s.population.ids();

  // Optionally keep the last client silent (never generates) to exercise
  // the silence-timeout path.
  std::vector<ClientId> speakers = s.expected;
  if (silent_last_client) speakers.pop_back();

  const double gap_us = rng.uniform(2.0, 60.0);
  const auto events = sim::poisson_workload(
      speakers, count, Duration::from_micros(gap_us), rng);
  sim::MaterializeConfig mat;
  mat.mean_net_delay = Duration::from_micros(rng.uniform(0.0, 40.0));
  const auto observed =
      sim::materialize_messages(s.population, events, mat, rng);
  s.messages.reserve(observed.size());
  for (const auto& om : observed) s.messages.push_back(om.message);
  // FIFO channels deliver in arrival order.
  std::stable_sort(s.messages.begin(), s.messages.end(),
                   [](const Message& a, const Message& b) {
                     return a.arrival < b.arrival;
                   });
  s.population.seed_registry(s.registry);
  return s;
}

struct DriveResult {
  std::vector<EmissionRecord> records;
  std::size_t violations{0};
  Rank final_rank{0};
  std::size_t pending_after_flush{0};
  std::vector<double> next_safe_samples;
  std::vector<std::vector<ClientId>> timeout_samples;
};

void expect_identical(const DriveResult& fast, const DriveResult& ref,
                      const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(fast.records.size(), ref.records.size());
  for (std::size_t r = 0; r < fast.records.size(); ++r) {
    SCOPED_TRACE("record " + std::to_string(r));
    const EmissionRecord& a = fast.records[r];
    const EmissionRecord& b = ref.records[r];
    EXPECT_EQ(a.batch.rank, b.batch.rank);
    EXPECT_EQ(a.emitted_at.seconds(), b.emitted_at.seconds());
    EXPECT_EQ(a.safe_time.seconds(), b.safe_time.seconds());
    ASSERT_EQ(a.batch.messages.size(), b.batch.messages.size());
    for (std::size_t m = 0; m < a.batch.messages.size(); ++m) {
      EXPECT_EQ(a.batch.messages[m], b.batch.messages[m]);
    }
  }
  EXPECT_EQ(fast.violations, ref.violations);
  EXPECT_EQ(fast.final_rank, ref.final_rank);
  EXPECT_EQ(fast.pending_after_flush, ref.pending_after_flush);
  EXPECT_EQ(fast.next_safe_samples, ref.next_safe_samples);
  ASSERT_EQ(fast.timeout_samples.size(), ref.timeout_samples.size());
  for (std::size_t t = 0; t < fast.timeout_samples.size(); ++t) {
    EXPECT_EQ(fast.timeout_samples[t], ref.timeout_samples[t]);
  }
}

/// Feeds the scenario through `seq` (an OnlineSequencer or the oracle) on
/// a deterministic schedule derived only from the input (so both see
/// byte-identical calls): interleaved polls, periodic heartbeats, a
/// settling heartbeat+poll, then a flush of any remainder. Sessions are
/// opened once up front and every submit/heartbeat goes through them.
/// With `retire_every` set, every that many messages the next expected
/// client in rotation is retired, and the periodic heartbeats skip it
/// (its own next message revives it).
template <typename Seq>
DriveResult drive(Seq& seq, const Scenario& s, std::size_t retire_every = 0) {
  std::unordered_map<ClientId, typename Seq::Session> sessions;
  for (ClientId c : s.expected) sessions.emplace(c, seq.open_session(c));
  DriveResult out;
  auto append = [&](std::vector<EmissionRecord>&& recs) {
    for (auto& r : recs) out.records.push_back(std::move(r));
  };
  TimePoint now(0.0);
  std::size_t k = 0;
  std::optional<ClientId> retired;
  for (const Message& m : s.messages) {
    now = std::max(now, m.arrival);
    sessions.at(m.client).submit(m.stamp, m.id, now);
    ++k;
    if (retire_every != 0 && k % retire_every == 0) {
      retired = s.expected[(k / retire_every) % s.expected.size()];
      seq.retire_client(*retired);
    }
    if (k % 13 == 0) {
      for (ClientId c : s.expected) {
        if (c != retired) sessions.at(c).heartbeat(now, now);
      }
    }
    if (k % 7 == 0) append(seq.poll(now));
    if (k % 29 == 0) {
      out.next_safe_samples.push_back(seq.next_safe_time().seconds());
      out.timeout_samples.push_back(seq.timed_out_clients(now));
    }
  }
  for (ClientId c : s.expected) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
  }
  append(seq.poll(now + 1_s));
  append(seq.flush(now + 2_s));
  out.pending_after_flush = seq.pending_count();
  out.violations = seq.fairness_violations();
  out.final_rank = seq.next_rank();
  return out;
}

/// drive() against a FairOrderingService: service sessions for ingest,
/// the emission sink for output. With one shard the collected stream must
/// be bit-identical to the bare sequencer's.
DriveResult drive_service(FairOrderingService& service, const Scenario& s) {
  std::unordered_map<ClientId, FairOrderingService::Session> sessions;
  for (ClientId c : s.expected) sessions.emplace(c, service.open_session(c));
  DriveResult out;
  auto collect = [&out](EmissionRecord&& record, std::uint32_t) {
    out.records.push_back(std::move(record));
  };
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const Message& m : s.messages) {
    now = std::max(now, m.arrival);
    sessions.at(m.client).submit(m.stamp, m.id, now);
    ++k;
    if (k % 13 == 0) {
      for (ClientId c : s.expected) sessions.at(c).heartbeat(now, now);
    }
    if (k % 7 == 0) service.poll(now, collect);
    if (k % 29 == 0) {
      out.next_safe_samples.push_back(service.next_safe_time().seconds());
      // timed_out_clients has no service-level aggregate; sample the
      // shards in index order for the same deterministic view.
      std::vector<ClientId> timed_out;
      for (std::uint32_t sh = 0; sh < service.shard_count(); ++sh) {
        if (!service.has_shard(sh)) continue;
        for (ClientId c : service.shard(sh).timed_out_clients(now)) {
          timed_out.push_back(c);
        }
      }
      out.timeout_samples.push_back(std::move(timed_out));
    }
  }
  for (ClientId c : s.expected) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
  }
  service.poll(now + 1_s, collect);
  service.flush(now + 2_s, collect);
  out.pending_after_flush = service.pending_count();
  out.violations = service.fairness_violations();
  Rank final_rank = 0;
  for (std::uint32_t sh = 0; sh < service.shard_count(); ++sh) {
    if (service.has_shard(sh)) final_rank += service.shard(sh).next_rank();
  }
  out.final_rank = final_rank;
  return out;
}

void run_equivalence(std::uint64_t seed, Shape shape, std::size_t clients,
                     std::size_t count, OnlineConfig config,
                     bool silent_last_client, const char* label) {
  const Scenario s =
      make_scenario(seed, shape, clients, count, silent_last_client);

  OnlineSequencer fast(s.registry, s.expected, config);
  const DriveResult fast_result = drive(fast, s);

  ReferenceSequencer oracle(s.registry, s.expected, config);
  const DriveResult oracle_result = drive(oracle, s);

  // Sanity: the drive actually exercised emission, not just buffering.
  EXPECT_FALSE(oracle_result.records.empty());
  expect_identical(fast_result, oracle_result, label);
}

/// Asserts three legs agree bit-for-bit: a bare sequencer, the oracle,
/// and a 1-shard service.
void run_surface_equivalence(std::uint64_t seed, Shape shape,
                             std::size_t clients, std::size_t count,
                             OnlineConfig config, const char* label) {
  const Scenario s = make_scenario(seed, shape, clients, count, false);

  OnlineSequencer sessioned(s.registry, s.expected, config);
  const DriveResult session_result = drive(sessioned, s);
  EXPECT_FALSE(session_result.records.empty());

  ReferenceSequencer oracle(s.registry, s.expected, config);
  const DriveResult oracle_result = drive(oracle, s);
  expect_identical(session_result, oracle_result, label);

  ServiceConfig service_config;
  service_config.with_online(config).with_shards(1);
  FairOrderingService service(s.registry, s.expected, service_config);
  const DriveResult service_result = drive_service(service, s);
  expect_identical(service_result, session_result, label);
}

TEST(OnlineEquivalence, GaussianClosedForm) {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.999;
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    run_equivalence(seed, Shape::kGaussian, 8, 500, config, false,
                    "gaussian");
  }
}

TEST(OnlineEquivalence, GaussianForcedNumeric) {
  OnlineConfig config;
  config.threshold = 0.8;
  config.p_safe = 0.99;
  config.preceding.force_numeric = true;
  config.preceding.grid_points = 256;
  for (std::uint64_t seed : {7u, 13u}) {
    run_equivalence(seed, Shape::kGaussian, 6, 300, config, false,
                    "forced-numeric");
  }
}

TEST(OnlineEquivalence, GumbelNumericPath) {
  OnlineConfig config;
  config.threshold = 0.7;
  config.p_safe = 0.99;
  config.preceding.grid_points = 256;
  for (std::uint64_t seed : {5u, 17u}) {
    run_equivalence(seed, Shape::kGumbel, 6, 300, config, false, "gumbel");
  }
}

TEST(OnlineEquivalence, BimodalMixturePath) {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.995;
  config.preceding.grid_points = 256;
  for (std::uint64_t seed : {3u, 9u}) {
    run_equivalence(seed, Shape::kBimodal, 6, 300, config, false, "bimodal");
  }
}

TEST(OnlineEquivalence, SilenceTimeoutWithSilentClient) {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.99;
  config.client_silence_timeout = 500_us;
  for (std::uint64_t seed : {21u, 42u}) {
    run_equivalence(seed, Shape::kGaussian, 7, 400, config, true,
                    "silence-timeout");
  }
}

TEST(OnlineEquivalence, ViolationInducingLowPSafe) {
  // Aggressive emission makes late arrivals land behind emitted ranks, so
  // the fairness-violation counters must also agree (and actually count).
  OnlineConfig config;
  config.threshold = 0.6;
  config.p_safe = 0.51;
  std::size_t total_violations = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Scenario s = make_scenario(seed, Shape::kGaussian, 8, 400, false);
    OnlineSequencer fast(s.registry, s.expected, config);
    const DriveResult fast_result = drive(fast, s);
    ReferenceSequencer oracle(s.registry, s.expected, config);
    expect_identical(fast_result, drive(oracle, s), "low-p-safe");
    total_violations += fast_result.violations;
  }
  EXPECT_GT(total_violations, 0u);
}

TEST(OnlineEquivalence, RetirementMatchesTheNaiveGate) {
  // retire_client pulls the client's node from anywhere in the gate's
  // min-frontier heap, and the client's next word puts it back. With an
  // infinite silence timeout nothing else drops a client from the gate.
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.99;
  config.preceding.grid_points = 256;
  for (Shape shape : {Shape::kGaussian, Shape::kGumbel}) {
    for (std::uint64_t seed : {3u, 4u, 5u}) {
      SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                   ", seed " + std::to_string(seed));
      const Scenario s = make_scenario(seed, shape, 8, 400, false);
      OnlineSequencer fast(s.registry, s.expected, config);
      const DriveResult fast_result = drive(fast, s, /*retire_every=*/23);
      ReferenceSequencer oracle(s.registry, s.expected, config);
      expect_identical(fast_result, drive(oracle, s, /*retire_every=*/23),
                       "retirement");
      // A stream that chains into one or two batches exercises no gate.
      EXPECT_GE(fast_result.records.size(), 10u);
    }
  }
}

/// A Gaussian population whose client 0 is re-learned halfway through
/// the stream, with all-client heartbeats and a poll every `poll_every`
/// messages. A bare sequencer takes up the announce at its next call; the
/// oracle is rebound right after it.
struct Reannounce {
  std::uint64_t seed;
  std::size_t clients;
  double scale;
  std::size_t count;
  Duration gap;
  OnlineConfig config;
  double new_mean;
  double new_sigma;
  std::size_t poll_every;
};

template <typename Seq>
DriveResult drive_reannounce(
    const Reannounce& r, const sim::Population& population,
    const std::vector<sim::ObservedMessage>& observed) {
  ClientRegistry registry;
  population.seed_registry(registry);
  Seq seq(registry, population.ids(), r.config);
  std::unordered_map<ClientId, typename Seq::Session> sessions;
  for (ClientId c : population.ids()) {
    sessions.emplace(c, seq.open_session(c));
  }
  DriveResult out;
  auto append = [&](std::vector<EmissionRecord>&& recs) {
    for (auto& rec : recs) out.records.push_back(std::move(rec));
  };
  TimePoint now(0.0);
  std::size_t k = 0;
  for (const auto& om : observed) {
    now = std::max(now, om.message.arrival);
    sessions.at(om.message.client)
        .submit(om.message.stamp, om.message.id, now);
    if (++k == observed.size() / 2) {
      registry.announce(
          population.ids().front(),
          std::make_unique<stats::Gaussian>(r.new_mean, r.new_sigma));
      if constexpr (std::is_same_v<Seq, ReferenceSequencer>) seq.rebind({});
    }
    if (k % r.poll_every == 0) {
      for (ClientId c : population.ids()) sessions.at(c).heartbeat(now, now);
      append(seq.poll(now));
    }
  }
  for (ClientId c : population.ids()) {
    sessions.at(c).heartbeat(now + 1_s, now + 1_ms);
  }
  append(seq.poll(now + 1_s));
  append(seq.flush(now + 2_s));
  out.violations = seq.fairness_violations();
  out.final_rank = seq.next_rank();
  out.pending_after_flush = seq.pending_count();
  return out;
}

void run_reannounce_equivalence(const Reannounce& r, const char* label) {
  Rng rng(r.seed);
  const sim::Population population =
      sim::gaussian_population(r.clients, r.scale, rng);
  const auto events =
      sim::poisson_workload(population.ids(), r.count, r.gap, rng);
  const auto observed = sim::materialize_messages(
      population, events, sim::MaterializeConfig{}, rng);
  expect_identical(
      drive_reannounce<OnlineSequencer>(r, population, observed),
      drive_reannounce<ReferenceSequencer>(r, population, observed), label);
}

OnlineConfig reannounce_config() {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.99;
  return config;
}

TEST(OnlineEquivalence, MidRunReannounceRefreshesConstants) {
  // A mid-run re-announce re-keys and re-sorts the fast path's buffer at
  // its first entry-point call after the announce, so the sorted
  // invariant (and the windowed scans it licenses) holds across the
  // boundary. Two regimes: a mild re-learn whose re-sort is a no-op, and
  // a drastic mean shift (≫ every critical gap) landing on a deep
  // backlog, where the re-sort genuinely reorders the pending buffer.
  run_reannounce_equivalence(
      {99, 6, 50e-6, 300, 10_us, reannounce_config(), 20e-6, 120e-6, 7},
      "mild-shift");
  run_reannounce_equivalence(
      {99, 6, 50e-6, 300, 10_us, reannounce_config(), 0.5, 120e-6, 61},
      "drastic-shift-deep-buffer");
}

TEST(OnlineEquivalence, NumericReannounceDropsStaleDensities) {
  // On the numeric path a re-announce must also retire the cached Δθ
  // densities: fresh means mixed with stale difference quantiles would
  // break the critical-gap correspondence (and its row bounds).
  OnlineConfig config = reannounce_config();
  config.preceding.force_numeric = true;
  config.preceding.grid_points = 128;
  run_reannounce_equivalence(
      {1234, 5, 60e-6, 200, 12_us, config, 5e-3, 200e-6, 17},
      "numeric-reannounce");
}

TEST(OnlineEquivalence, SessionAndServiceSurfacesAgree) {
  OnlineConfig config;
  config.threshold = 0.75;
  config.p_safe = 0.999;
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    run_surface_equivalence(seed, Shape::kGaussian, 8, 500, config,
                            "surfaces");
  }
  config.p_safe = 0.99;
  for (std::uint64_t seed : {11u, 29u}) {
    run_surface_equivalence(seed, Shape::kGaussian, 6, 250, config,
                            "surfaces-p-safe-0.99");
  }
}

TEST(OnlineEquivalence, SessionSurfaceAgreesOnNumericPath) {
  OnlineConfig config;
  config.threshold = 0.7;
  config.p_safe = 0.99;
  config.preceding.grid_points = 256;
  run_surface_equivalence(17u, Shape::kGumbel, 6, 300, config,
                          "surfaces-numeric");
}

TEST(OnlineEquivalence, SessionSurfaceAgreesWithViolations) {
  // Low p_safe forces emissions past in-flight messages, so the violation
  // accounting must match the oracle and the service exactly too.
  OnlineConfig config;
  config.threshold = 0.6;
  config.p_safe = 0.51;
  for (std::uint64_t seed : {1u, 2u}) {
    run_surface_equivalence(seed, Shape::kGaussian, 8, 400, config,
                            "surfaces-violations");
  }
}

TEST(OnlineEquivalence, FastSessionsMatchReferenceAcrossReannounce) {
  // A mid-run re-announce must refresh the session-cached offsets through
  // the generation counter.
  run_reannounce_equivalence(
      {77, 6, 50e-6, 300, 10_us, reannounce_config(), 20e-6, 120e-6, 7},
      "session-reannounce");
}

TEST(OnlineEquivalence, DuplicateExpectedClientsCollapse) {
  // The original unordered_map-backed constructor silently deduplicated
  // repeated expected clients; the dense ClientState vector must do the
  // same or the duplicate entry never hears anything and the
  // completeness gate blocks every emission.
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(0.0, 1e-4));
  registry.announce(ClientId(1), std::make_unique<stats::Gaussian>(0.0, 1e-4));
  OnlineConfig config;
  config.p_safe = 0.99;
  OnlineSequencer seq(registry, {ClientId(0), ClientId(0), ClientId(1)},
                      config);
  OnlineSequencer::Session zero = seq.open_session(ClientId(0));
  zero.submit(TimePoint(1.0), MessageId(1), TimePoint(1.0));
  zero.heartbeat(TimePoint(10.0), TimePoint(1.1));
  seq.open_session(ClientId(1)).heartbeat(TimePoint(10.0), TimePoint(1.1));
  const auto emitted = seq.poll(TimePoint(5.0));
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].batch.messages.size(), 1u);
}

}  // namespace
}  // namespace tommy::core
