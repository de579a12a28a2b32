// Randomized invariant sweeps across all sequencers and configurations —
// the properties that must hold on ANY input, checked over many seeded
// scenarios:
//   P1. partition: every input message appears in exactly one batch;
//   P2. ranks are dense from 0 and batches are non-empty;
//   P3. the closure rule keeps min cross-batch confidence > threshold;
//   P4. Tommy's normalized RAS is never materially below TrueTime's on
//       Gaussian populations (the paper's headline, as an invariant);
//   P5. Tommy never scores a pair it would call uncertain both ways
//       incorrectly more often than the threshold allows (calibration);
//   P6. online sequencing emits each message exactly once, in
//       non-decreasing rank order, never before its safe time.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>

#include "core/baselines.hpp"
#include "core/online_sequencer.hpp"
#include "core/tommy_sequencer.hpp"
#include "sim/offline_runner.hpp"

namespace tommy::core {
namespace {

using namespace tommy::literals;

struct Scenario {
  sim::Population population;
  std::vector<sim::ObservedMessage> observed;
  ClientRegistry registry;
};

Scenario random_scenario(std::uint64_t seed, std::size_t clients,
                         std::size_t count) {
  Rng rng(seed);
  const double sigma = rng.uniform(1e-6, 200e-6);
  const double gap_us = rng.uniform(1.0, 100.0);
  Scenario s{sim::gaussian_population(clients, sigma, rng), {}, {}};
  const auto events = sim::poisson_workload(
      s.population.ids(), count, Duration::from_micros(gap_us), rng);
  sim::MaterializeConfig mat;
  mat.mean_net_delay = Duration::from_micros(rng.uniform(0.1, 50.0));
  s.observed = sim::materialize_messages(s.population, events, mat, rng);
  s.population.seed_registry(s.registry);
  return s;
}

std::vector<Message> inputs_of(const Scenario& s) {
  std::vector<Message> out;
  for (const auto& om : s.observed) out.push_back(om.message);
  return out;
}

void check_partition(const SequencerResult& result,
                     const std::vector<Message>& input) {
  std::set<MessageId> seen;
  for (std::size_t b = 0; b < result.batches.size(); ++b) {
    ASSERT_FALSE(result.batches[b].messages.empty()) << "empty batch " << b;
    EXPECT_EQ(result.batches[b].rank, b) << "ranks must be dense";
    for (const Message& m : result.batches[b].messages) {
      EXPECT_TRUE(seen.insert(m.id).second) << "duplicate " << m.id;
    }
  }
  EXPECT_EQ(seen.size(), input.size());
  for (const Message& m : input) {
    EXPECT_TRUE(seen.contains(m.id)) << "lost " << m.id;
  }
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep, AllSequencersPartitionTheInput) {
  const Scenario s = random_scenario(GetParam(), 20, 150);

  TommySequencer tommy(s.registry);
  TrueTimeSequencer truetime(s.registry);
  WfoSequencer wfo;
  FifoSequencer fifo;
  for (Sequencer* seq :
       std::initializer_list<Sequencer*>{&tommy, &truetime, &wfo, &fifo}) {
    const auto result = seq->sequence(inputs_of(s));
    check_partition(result, inputs_of(s));
  }
}

TEST_P(PropertySweep, ClosureRuleKeepsCrossBatchConfidence) {
  const Scenario s = random_scenario(GetParam() + 1000, 15, 80);
  TommyConfig config;
  config.batch_rule = BatchRule::kClosure;
  config.threshold = 0.75;
  TommySequencer seq(s.registry, config);
  const auto result = seq.sequence(inputs_of(s));
  if (result.batches.size() < 2) return;  // nothing committed
  const double min_cross = min_cross_batch_probability(
      result.batches, [&seq](const Message& a, const Message& b) {
        return seq.engine().preceding_probability(a, b);
      });
  EXPECT_GT(min_cross, config.threshold);
}

TEST_P(PropertySweep, TommyNeverMateriallyBelowTrueTime) {
  const Scenario s = random_scenario(GetParam() + 2000, 30, 300);
  TommySequencer tommy(s.registry);
  TrueTimeSequencer truetime(s.registry);
  const double tommy_ras =
      sim::score_sequencer(tommy, s.observed).ras.normalized();
  const double truetime_ras =
      sim::score_sequencer(truetime, s.observed).ras.normalized();
  // Tolerance covers sampling wiggle on near-tied scenarios; the paper's
  // claim is Tommy >= TrueTime across the sweep.
  EXPECT_GE(tommy_ras, truetime_ras - 0.02)
      << "tommy " << tommy_ras << " vs truetime " << truetime_ras;
}

TEST_P(PropertySweep, CommittedAdjacentPairsAreCalibrated) {
  // Every adjacent boundary Tommy commits has confidence > threshold by
  // construction; empirically those pairs must be truly ordered at least
  // ~threshold of the time (calibration of the statistical model).
  const Scenario s = random_scenario(GetParam() + 3000, 25, 400);
  TommyConfig config;
  config.threshold = 0.75;
  TommySequencer seq(s.registry, config);
  const auto result = seq.sequence(inputs_of(s));

  std::map<MessageId, TimePoint> truth;
  for (const auto& om : s.observed) truth[om.message.id] = om.true_time;

  std::size_t committed = 0;
  std::size_t correct = 0;
  for (std::size_t b = 1; b < result.batches.size(); ++b) {
    const Message& before = result.batches[b - 1].messages.back();
    const Message& after = result.batches[b].messages.front();
    ++committed;
    if (truth.at(before.id) < truth.at(after.id)) ++correct;
  }
  if (committed < 20) return;  // not enough boundaries to judge
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(committed);
  EXPECT_GE(accuracy, 0.75 - 0.12)  // binomial slack at small counts
      << correct << "/" << committed;
}

TEST_P(PropertySweep, OnlineEmitsEachMessageOnceInRankOrder) {
  const Scenario s = random_scenario(GetParam() + 4000, 10, 120);

  OnlineConfig config;
  config.p_safe = 0.999;
  OnlineSequencer seq(s.registry, s.population.ids(), config);

  // Feed messages in arrival order; poll opportunistically.
  std::vector<Message> arrivals = inputs_of(s);
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Message& a, const Message& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.id < b.id;
            });

  std::unordered_map<ClientId, OnlineSequencer::Session> sessions;
  for (ClientId c : s.population.ids()) {
    sessions.emplace(c, seq.open_session(c));
  }
  std::vector<EmissionRecord> emissions;
  TimePoint last_arrival = TimePoint::epoch();
  for (const Message& m : arrivals) {
    sessions.at(m.client).submit(m.stamp, m.id, m.arrival);
    last_arrival = m.arrival;
    for (auto& e : seq.poll(m.arrival)) emissions.push_back(std::move(e));
  }
  // Keep everyone's frontier moving, then drain far in the future.
  const TimePoint end = last_arrival + 10_s;
  for (ClientId c : s.population.ids()) {
    sessions.at(c).heartbeat(end + 10_s, end);
  }
  for (auto& e : seq.poll(end)) emissions.push_back(std::move(e));

  std::set<MessageId> seen;
  for (std::size_t k = 0; k < emissions.size(); ++k) {
    const EmissionRecord& e = emissions[k];
    EXPECT_EQ(e.batch.rank, k);            // dense, in order
    EXPECT_GE(e.emitted_at, e.safe_time);  // never early
    for (const Message& m : e.batch.messages) {
      EXPECT_TRUE(seen.insert(m.id).second);
    }
  }
  EXPECT_EQ(seen.size(), arrivals.size());
  EXPECT_EQ(seq.pending_count(), 0u);
}

TEST_P(PropertySweep, FlushDrainsEverythingWithDenseRanks) {
  const Scenario s = random_scenario(GetParam() + 5000, 8, 60);
  OnlineSequencer seq(s.registry, s.population.ids(), OnlineConfig{});
  std::vector<Message> arrivals = inputs_of(s);
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Message& a, const Message& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.id < b.id;
            });
  std::unordered_map<ClientId, OnlineSequencer::Session> sessions;
  for (ClientId c : s.population.ids()) {
    sessions.emplace(c, seq.open_session(c));
  }
  for (const Message& m : arrivals) {
    sessions.at(m.client).submit(m.stamp, m.id, m.arrival);
  }

  const auto emissions = seq.flush(arrivals.back().arrival + 1_s);
  std::size_t total = 0;
  for (std::size_t k = 0; k < emissions.size(); ++k) {
    EXPECT_EQ(emissions[k].batch.rank, k);
    total += emissions[k].batch.messages.size();
  }
  EXPECT_EQ(total, arrivals.size());
  EXPECT_EQ(seq.pending_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u, 99u, 110u));

}  // namespace
}  // namespace tommy::core
