#include "core/tommy_sequencer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "stats/analytic.hpp"
#include "stats/gaussian.hpp"
#include "stats/mixture.hpp"

namespace tommy::core {
namespace {

Message msg(std::uint64_t id, std::uint32_t client, double stamp) {
  return Message{MessageId(id), ClientId(client), TimePoint(stamp)};
}

std::vector<MessageId> flatten(const SequencerResult& result) {
  std::vector<MessageId> out;
  for (const Batch& b : result.batches) {
    for (const Message& m : b.messages) out.push_back(m.id);
  }
  return out;
}

class TommyGaussian : public ::testing::Test {
 protected:
  TommyGaussian() {
    registry_.announce(ClientId(0),
                       std::make_unique<stats::Gaussian>(0.0, 1e-3));
    registry_.announce(ClientId(1),
                       std::make_unique<stats::Gaussian>(5e-3, 1e-3));
    registry_.announce(ClientId(2),
                       std::make_unique<stats::Gaussian>(-5e-3, 2e-3));
  }
  ClientRegistry registry_;
};

TEST_F(TommyGaussian, EmptyInputYieldsNoBatches) {
  TommySequencer seq(registry_);
  EXPECT_TRUE(seq.sequence({}).batches.empty());
}

TEST_F(TommyGaussian, FastPathOrdersByCorrectedStamp) {
  TommySequencer seq(registry_);
  // Raw stamps disorder the true order; corrected stamps (T + μ) fix it:
  //   id 1: client 1, stamp 0.000 -> corrected 0.005
  //   id 2: client 0, stamp 0.002 -> corrected 0.002
  //   id 3: client 2, stamp 0.013 -> corrected 0.008
  const auto result =
      seq.sequence({msg(1, 1, 0.000), msg(2, 0, 0.002), msg(3, 2, 0.013)});
  EXPECT_TRUE(seq.last_diagnostics().used_gaussian_fast_path);
  EXPECT_EQ(flatten(result),
            (std::vector<MessageId>{MessageId(2), MessageId(1), MessageId(3)}));
}

TEST_F(TommyGaussian, WellSeparatedMessagesGetSingletonBatches) {
  TommySequencer seq(registry_);
  const auto result = seq.sequence(
      {msg(1, 0, 0.0), msg(2, 0, 0.1), msg(3, 0, 0.2)});  // 100 ms gaps
  EXPECT_EQ(result.batches.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(result.batches[k].rank, k);
    EXPECT_EQ(result.batches[k].messages.size(), 1u);
  }
}

TEST_F(TommyGaussian, IndistinguishableMessagesShareABatch) {
  TommySequencer seq(registry_);
  const auto result = seq.sequence(
      {msg(1, 0, 0.0), msg(2, 0, 1e-5), msg(3, 0, 2e-5)});  // 10 µs gaps
  EXPECT_EQ(result.batches.size(), 1u);
  EXPECT_EQ(result.batches[0].messages.size(), 3u);
}

TEST_F(TommyGaussian, FastPathAndTournamentPathAgree) {
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Message> messages;
    for (std::uint64_t id = 0; id < 12; ++id) {
      messages.push_back(msg(id, static_cast<std::uint32_t>(id % 3),
                             rng.uniform(0.0, 0.02)));
    }

    TommyConfig fast_config;
    TommySequencer fast(registry_, fast_config);
    TommyConfig slow_config;
    slow_config.gaussian_fast_path = false;
    TommySequencer slow(registry_, slow_config);

    const auto fast_result = fast.sequence(messages);
    const auto slow_result = slow.sequence(messages);
    EXPECT_TRUE(fast.last_diagnostics().used_gaussian_fast_path);
    EXPECT_FALSE(slow.last_diagnostics().used_gaussian_fast_path);
    EXPECT_TRUE(slow.last_diagnostics().tournament_transitive);

    ASSERT_EQ(fast_result.batches.size(), slow_result.batches.size())
        << "trial " << trial;
    EXPECT_EQ(flatten(fast_result), flatten(slow_result));
  }
}

TEST_F(TommyGaussian, ThresholdControlsGranularity) {
  // Stamps chosen so adjacent preceding probabilities sit around ~0.76:
  // gap = 1.04 mm... use gap g with p = Φ(g/(1e-3·√2)) ≈ 0.76 -> g ≈ 1e-3.
  std::vector<Message> messages;
  for (std::uint64_t id = 0; id < 6; ++id) {
    messages.push_back(msg(id, 0, static_cast<double>(id) * 1.0e-3));
  }

  TommyConfig strict;
  strict.threshold = 0.9;
  TommyConfig loose;
  loose.threshold = 0.7;
  TommySequencer strict_seq(registry_, strict);
  TommySequencer loose_seq(registry_, loose);
  EXPECT_LT(strict_seq.sequence(messages).batches.size(),
            loose_seq.sequence(messages).batches.size());
}

TEST_F(TommyGaussian, ForcedNumericPathMatchesClosedForm) {
  TommyConfig numeric_config;
  numeric_config.preceding.force_numeric = true;
  numeric_config.preceding.grid_points = 1024;
  numeric_config.max_tournament_nodes = 64;
  TommySequencer numeric(registry_, numeric_config);
  TommySequencer closed(registry_);

  std::vector<Message> messages = {msg(1, 0, 0.0), msg(2, 1, 2e-3),
                                   msg(3, 2, 1e-2), msg(4, 0, 1.1e-2)};
  const auto a = numeric.sequence(messages);
  const auto b = closed.sequence(messages);
  EXPECT_EQ(flatten(a), flatten(b));
  EXPECT_EQ(a.batches.size(), b.batches.size());
}

class TommyCyclic : public ::testing::Test {
 protected:
  TommyCyclic() {
    // Non-transitive dice mixtures (see transitivity_property_test):
    // equal stamps produce a 3-cycle among one message per client.
    const auto die = [](std::initializer_list<double> faces) {
      std::vector<stats::Mixture::Component> parts;
      for (double f : faces) {
        parts.push_back(
            {1.0, std::make_unique<stats::Uniform>(f - 0.05, f + 0.05)});
      }
      return std::make_unique<stats::Mixture>(std::move(parts));
    };
    registry_.announce(ClientId(0), die({2, 4, 9}));
    registry_.announce(ClientId(1), die({1, 6, 8}));
    registry_.announce(ClientId(2), die({3, 5, 7}));
    config_.preceding.grid_points = 256;
    config_.threshold = 0.52;  // the cycle's edges are weak (~0.56)
  }

  std::vector<Message> cycle_messages() {
    return {msg(0, 0, 0.0), msg(1, 1, 0.0), msg(2, 2, 0.0)};
  }

  ClientRegistry registry_;
  TommyConfig config_;
};

TEST_F(TommyCyclic, TransitivityDiagnosticsReportTheCycle) {
  config_.analyze_transitivity = true;
  TommySequencer seq(registry_, config_);
  (void)seq.sequence(cycle_messages());
  const auto& report = seq.last_diagnostics().transitivity;
  EXPECT_EQ(report.triples, 1u);
  EXPECT_EQ(report.cyclic_triples, 1u);
  EXPECT_FALSE(report.transitive());
  // The dice cycle's kept edges are all ~5/9 ≈ 0.556 (the coarse
  // 256-point grid shaves a little off the weakest edge).
  EXPECT_NEAR(report.worst_cycle_confidence, 5.0 / 9.0, 0.04);
}

TEST_F(TommyCyclic, CondensePolicyGroupsTheCycle) {
  config_.cycle_policy = CyclePolicy::kCondense;
  TommySequencer seq(registry_, config_);
  const auto result = seq.sequence(cycle_messages());
  EXPECT_FALSE(seq.last_diagnostics().tournament_transitive);
  EXPECT_EQ(seq.last_diagnostics().scc_count, 1u);
  ASSERT_EQ(result.batches.size(), 1u);
  EXPECT_EQ(result.batches[0].messages.size(), 3u);
}

TEST_F(TommyCyclic, FasPoliciesProduceCompleteOrderings) {
  for (CyclePolicy policy : {CyclePolicy::kGreedyFas,
                             CyclePolicy::kStochasticFas,
                             CyclePolicy::kExactFas}) {
    config_.cycle_policy = policy;
    TommySequencer seq(registry_, config_);
    const auto result = seq.sequence(cycle_messages());
    EXPECT_FALSE(seq.last_diagnostics().tournament_transitive);
    // Breaking the 3-cycle sacrifices at least one edge (a random order
    // can leave two backward); the exact policy removes exactly one.
    EXPECT_GE(seq.last_diagnostics().fas_removed_edges, 1u);
    if (policy == CyclePolicy::kExactFas) {
      EXPECT_EQ(seq.last_diagnostics().fas_removed_edges, 1u);
    }
    EXPECT_EQ(result.message_count(), 3u);
  }
}

TEST_F(TommyCyclic, StochasticFasVariesAcrossRounds) {
  config_.cycle_policy = CyclePolicy::kStochasticFas;
  TommySequencer seq(registry_, config_);
  std::set<std::vector<MessageId>> seen;
  for (int round = 0; round < 40; ++round) {
    seen.insert(flatten(seq.sequence(cycle_messages())));
  }
  // The symmetric cycle must not always break the same way.
  EXPECT_GT(seen.size(), 1u);
}

TEST_F(TommyCyclic, MixedTransitiveAndCyclicMessages) {
  // Add two well-separated messages around the cycle: they order cleanly,
  // the cycle stays one batch between them.
  config_.cycle_policy = CyclePolicy::kCondense;
  TommySequencer seq(registry_, config_);
  auto messages = cycle_messages();
  messages.push_back(msg(10, 0, -100.0));
  messages.push_back(msg(11, 1, +100.0));
  const auto result = seq.sequence(messages);
  ASSERT_EQ(result.batches.size(), 3u);
  EXPECT_EQ(result.batches[0].messages[0].id, MessageId(10));
  EXPECT_EQ(result.batches[1].messages.size(), 3u);
  EXPECT_EQ(result.batches[2].messages[0].id, MessageId(11));
}

TEST(TommyConfigDeathTest, RejectsBadThreshold) {
  ClientRegistry registry;
  TommyConfig config;
  config.threshold = 1.0;
  EXPECT_DEATH(TommySequencer(registry, config), "precondition");
}

// ── Primed-threshold equivalence ────────────────────────────────────────
// Batching answers "p(a, b) > threshold" from the engine's primed
// critical-gap tables (one subtraction per pair). No ordering path reads
// that predicate, so its agreement with the raw probability on every
// ordered pair of the input is exactly batch identity with a per-pair
// evaluation, on every ordering path.

void run_primed_equivalence(const ClientRegistry& registry,
                            TommyConfig config,
                            const std::vector<Message>& messages,
                            const char* label) {
  SCOPED_TRACE(label);
  TommySequencer tommy(registry, config);
  (void)tommy.sequence(messages);  // primes the engine
  const PrecedingEngine& engine = tommy.engine();
  for (const Message& a : messages) {
    const std::uint32_t ci = registry.index_of(a.client);
    for (const Message& b : messages) {
      if (a.id == b.id) continue;
      const std::uint32_t cj = registry.index_of(b.client);
      EXPECT_EQ(engine.fast_confidently_preceding(
                    ci, engine.fast_corrected(ci, a.stamp), cj,
                    engine.fast_corrected(cj, b.stamp)),
                engine.preceding_probability(a, b) > config.threshold)
          << "messages " << a.id.value() << " and " << b.id.value();
    }
  }
}

TEST_F(TommyGaussian, PrimedThresholdsMatchReferenceOnGaussianPaths) {
  Rng rng(91);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Message> messages;
    for (std::uint64_t id = 0; id < 24; ++id) {
      messages.push_back(msg(id, static_cast<std::uint32_t>(id % 3),
                             rng.uniform(0.0, 0.03)));
    }
    for (BatchRule rule : {BatchRule::kAdjacent, BatchRule::kClosure}) {
      TommyConfig config;
      config.batch_rule = rule;
      run_primed_equivalence(registry_, config, messages, "gaussian-fast");
      config.gaussian_fast_path = false;  // tournament over the same input
      run_primed_equivalence(registry_, config, messages,
                             "gaussian-tournament");
    }
  }
}

TEST_F(TommyCyclic, PrimedThresholdsMatchReferenceOnNumericPaths) {
  Rng rng(17);
  for (CyclePolicy policy : {CyclePolicy::kCondense, CyclePolicy::kGreedyFas,
                             CyclePolicy::kExactFas}) {
    config_.cycle_policy = policy;
    // The pure 3-cycle plus randomized surrounding traffic: exercises
    // batch_groups (condense) and the post-FAS batching on the numeric
    // critical-gap path.
    auto messages = cycle_messages();
    for (std::uint64_t id = 10; id < 22; ++id) {
      messages.push_back(msg(id, static_cast<std::uint32_t>(id % 3),
                             rng.uniform(-8.0, 8.0)));
    }
    run_primed_equivalence(registry_, config_, messages, "numeric-cyclic");
  }
}

}  // namespace
}  // namespace tommy::core
