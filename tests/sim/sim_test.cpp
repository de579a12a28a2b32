#include <gtest/gtest.h>

#include <set>

#include "core/tommy_sequencer.hpp"
#include "sim/offline_runner.hpp"
#include "sim/online_runner.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"

namespace tommy::sim {
namespace {

using namespace tommy::literals;

TEST(Population, GaussianPopulationParametersInRange) {
  Rng rng(1);
  const Population pop = gaussian_population(50, 10e-6, rng);
  EXPECT_EQ(pop.size(), 50u);
  for (const ClientSpec& c : pop.clients()) {
    ASSERT_TRUE(c.offset->is_gaussian());
    EXPECT_GE(c.offset->mean(), -10e-6);
    EXPECT_LE(c.offset->mean(), 10e-6);
    EXPECT_GE(c.offset->stddev(), 5e-6);
    EXPECT_LE(c.offset->stddev(), 15e-6);
  }
}

TEST(Population, ZeroScaleMeansNearPerfectClocks) {
  Rng rng(2);
  const Population pop = gaussian_population(5, 0.0, rng);
  for (const ClientSpec& c : pop.clients()) {
    EXPECT_LT(c.offset->stddev(), 1e-11);
  }
}

TEST(Population, SeedRegistryCopiesEveryClient) {
  Rng rng(3);
  const Population pop = gaussian_population(10, 1e-6, rng);
  core::ClientRegistry registry;
  pop.seed_registry(registry);
  EXPECT_EQ(registry.size(), 10u);
  for (ClientId id : pop.ids()) {
    ASSERT_TRUE(registry.contains(id));
    EXPECT_DOUBLE_EQ(registry.offset_distribution(id).mean(),
                     pop.offset_of(id).mean());
  }
}

TEST(Population, GumbelAndBimodalAreNonGaussian) {
  Rng rng(4);
  const Population gumbel = gumbel_population(5, 1e-6, rng);
  const Population bimodal = bimodal_population(5, 1e-6, rng);
  for (const ClientSpec& c : gumbel.clients()) {
    EXPECT_FALSE(c.offset->is_gaussian());
  }
  for (const ClientSpec& c : bimodal.clients()) {
    EXPECT_FALSE(c.offset->is_gaussian());
  }
}

TEST(Workload, PoissonHasRequestedCountAndMeanGap) {
  Rng rng(5);
  const std::vector<ClientId> clients{ClientId(0), ClientId(1), ClientId(2)};
  const auto events = poisson_workload(clients, 20000, 10_us, rng);
  ASSERT_EQ(events.size(), 20000u);
  // Sorted by construction; average gap ≈ 10 µs.
  double total_gap = 0.0;
  for (std::size_t k = 1; k < events.size(); ++k) {
    EXPECT_GE(events[k].true_time, events[k - 1].true_time);
    total_gap += (events[k].true_time - events[k - 1].true_time).seconds();
  }
  EXPECT_NEAR(total_gap / static_cast<double>(events.size() - 1), 10e-6,
              0.5e-6);
}

TEST(Workload, UniformRoundRobinsClients) {
  const std::vector<ClientId> clients{ClientId(0), ClientId(1)};
  const auto events = uniform_workload(clients, 6, 1_ms);
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].client, clients[k % 2]);
    EXPECT_NEAR(events[k].true_time.seconds(),
                1e-3 * static_cast<double>(k + 1), 1e-12);
  }
}

TEST(Workload, BurstGeneratesOneResponsePerClientPerBurst) {
  Rng rng(6);
  const std::vector<ClientId> clients{ClientId(0), ClientId(1), ClientId(2)};
  const auto events = burst_workload(clients, 4, 1_s, 10_us, 100_us, rng);
  ASSERT_EQ(events.size(), 12u);

  // Each burst window contains exactly one event per client.
  for (int b = 0; b < 4; ++b) {
    const double burst_at = static_cast<double>(b + 1);
    std::set<std::uint32_t> responders;
    for (const GenEvent& e : events) {
      const double dt = e.true_time.seconds() - burst_at;
      if (dt >= 10e-6 && dt <= 100e-6) responders.insert(e.client.value());
    }
    EXPECT_EQ(responders.size(), 3u) << "burst " << b;
  }
}

TEST(Materialize, StampPlusThetaRecoversTruth) {
  Rng rng(7);
  const Population pop = gaussian_population(5, 100e-6, rng);
  const auto events = uniform_workload(pop.ids(), 50, 1_ms);
  const auto observed =
      materialize_messages(pop, events, MaterializeConfig{}, rng);
  ASSERT_EQ(observed.size(), 50u);
  for (const ObservedMessage& om : observed) {
    // The paper's model identity: T* = T + θ = true time.
    EXPECT_NEAR(om.message.stamp.seconds() + om.theta,
                om.true_time.seconds(), 1e-12);
    EXPECT_EQ(om.message.arrival, om.true_time);  // no net delay configured
  }
}

TEST(Materialize, NetworkDelayMakesArrivalLater) {
  Rng rng(8);
  const Population pop = gaussian_population(3, 1e-6, rng);
  const auto events = uniform_workload(pop.ids(), 30, 1_ms);
  MaterializeConfig config;
  config.mean_net_delay = 100_us;
  const auto observed = materialize_messages(pop, events, config, rng);
  for (const ObservedMessage& om : observed) {
    EXPECT_GT(om.message.arrival, om.true_time);
  }
}

TEST(Materialize, MessageIdsAreUnique) {
  Rng rng(9);
  const Population pop = gaussian_population(3, 1e-6, rng);
  const auto events = uniform_workload(pop.ids(), 100, 1_us);
  const auto observed =
      materialize_messages(pop, events, MaterializeConfig{}, rng);
  std::set<std::uint64_t> ids;
  for (const ObservedMessage& om : observed) ids.insert(om.message.id.value());
  EXPECT_EQ(ids.size(), 100u);
}

TEST(RankAgainstTruth, JoinsRanksWithGroundTruth) {
  Rng rng(10);
  const Population pop = gaussian_population(2, 1e-6, rng);
  const auto events = uniform_workload(pop.ids(), 4, 1_ms);
  const auto observed =
      materialize_messages(pop, events, MaterializeConfig{}, rng);

  core::SequencerResult result;
  core::Batch b0;
  b0.rank = 0;
  b0.messages = {observed[0].message, observed[1].message};
  core::Batch b1;
  b1.rank = 1;
  b1.messages = {observed[2].message, observed[3].message};
  result.batches = {b0, b1};

  const auto ranked = rank_against_truth(result, observed);
  ASSERT_EQ(ranked.size(), 4u);
  for (const auto& rm : ranked) {
    bool found = false;
    for (const auto& om : observed) {
      if (om.message.id == rm.id) {
        EXPECT_EQ(rm.true_time, om.true_time);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(ScoreSequencer, PerfectClocksWideGapsScoreOne) {
  Rng rng(11);
  const Population pop = gaussian_population(10, 1e-12, rng);
  const auto events = uniform_workload(pop.ids(), 100, 1_ms);
  const auto observed =
      materialize_messages(pop, events, MaterializeConfig{}, rng);

  core::ClientRegistry registry;
  pop.seed_registry(registry);
  core::TommySequencer tommy(registry);
  const SequencerScore score = score_sequencer(tommy, observed);
  EXPECT_DOUBLE_EQ(score.ras.normalized(), 1.0);
  EXPECT_EQ(score.batches.batch_count, 100u);
  EXPECT_EQ(score.sequencer, "tommy");
}

}  // namespace
}  // namespace tommy::sim
