#include "core/preceding.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "sim/population.hpp"
#include "stats/analytic.hpp"
#include "stats/gaussian.hpp"

namespace tommy::core {
namespace {

Message msg(std::uint64_t id, std::uint32_t client, double stamp_s) {
  return Message{MessageId(id), ClientId(client), TimePoint(stamp_s)};
}

class PrecedingGaussian : public ::testing::Test {
 protected:
  PrecedingGaussian() {
    registry_.announce(ClientId(0),
                       std::make_unique<stats::Gaussian>(2.0, 3.0));
    registry_.announce(ClientId(1),
                       std::make_unique<stats::Gaussian>(-1.0, 4.0));
  }
  ClientRegistry registry_;
};

TEST_F(PrecedingGaussian, MatchesClosedForm) {
  PrecedingEngine engine(registry_);
  const Message i = msg(0, 0, 10.0);
  const Message j = msg(1, 1, 12.0);
  // p = Φ((T_j + μ_j − T_i − μ_i)/√(σ_i² + σ_j²)) = Φ(−1/5).
  const double expected = math::normal_cdf((12.0 - 1.0 - 10.0 - 2.0) / 5.0);
  EXPECT_NEAR(engine.preceding_probability(i, j), expected, 1e-12);
}

TEST_F(PrecedingGaussian, ComplementaryInBothDirections) {
  PrecedingEngine engine(registry_);
  const Message i = msg(0, 0, 1.0);
  const Message j = msg(1, 1, 1.5);
  const double p_ij = engine.preceding_probability(i, j);
  const double p_ji = engine.preceding_probability(j, i);
  EXPECT_NEAR(p_ij + p_ji, 1.0, 1e-12);
}

TEST_F(PrecedingGaussian, MatchesMonteCarlo) {
  PrecedingEngine engine(registry_);
  const Message i = msg(0, 0, 0.0);
  const Message j = msg(1, 1, 1.0);
  const double p = engine.preceding_probability(i, j);

  Rng rng(77);
  const stats::Gaussian ti(2.0, 3.0);   // θ_i
  const stats::Gaussian tj(-1.0, 4.0);  // θ_j
  int hits = 0;
  const int n = 400000;
  for (int k = 0; k < n; ++k) {
    // T*_i < T*_j ⟺ T_i + θ_i < T_j + θ_j.
    if (0.0 + ti.sample(rng) < 1.0 + tj.sample(rng)) ++hits;
  }
  EXPECT_NEAR(p, static_cast<double>(hits) / n, 3e-3);
}

TEST_F(PrecedingGaussian, NumericPathAgreesWithClosedForm) {
  PrecedingConfig config;
  config.force_numeric = true;
  config.grid_points = 2048;
  PrecedingEngine numeric(registry_, config);
  PrecedingEngine closed(registry_);

  for (double gap : {-8.0, -2.0, -0.5, 0.0, 0.5, 2.0, 8.0}) {
    const Message i = msg(0, 0, 0.0);
    const Message j = msg(1, 1, gap);
    EXPECT_NEAR(numeric.preceding_probability(i, j),
                closed.preceding_probability(i, j), 2e-3)
        << "gap=" << gap;
  }
}

TEST_F(PrecedingGaussian, DirectAndFftConvolutionAgree) {
  PrecedingConfig fft_config;
  fft_config.force_numeric = true;
  fft_config.method = stats::ConvolutionMethod::kFft;
  PrecedingConfig direct_config = fft_config;
  direct_config.method = stats::ConvolutionMethod::kDirect;
  direct_config.grid_points = 512;
  fft_config.grid_points = 512;

  PrecedingEngine fft(registry_, fft_config);
  PrecedingEngine direct(registry_, direct_config);
  const Message i = msg(0, 0, 0.0);
  const Message j = msg(1, 1, 1.0);
  EXPECT_NEAR(fft.preceding_probability(i, j),
              direct.preceding_probability(i, j), 1e-9);
}

TEST_F(PrecedingGaussian, SameClientPairUsesIndependentDraws) {
  // Two messages from one client: equal stamps -> exactly 1/2 (Δθ of two
  // iid draws is symmetric about 0).
  PrecedingEngine engine(registry_);
  const Message a = msg(0, 0, 5.0);
  const Message b = msg(1, 0, 5.0);
  EXPECT_NEAR(engine.preceding_probability(a, b), 0.5, 1e-12);
}

TEST_F(PrecedingGaussian, LargeGapsSaturate) {
  PrecedingEngine engine(registry_);
  const Message early = msg(0, 0, 0.0);
  const Message late = msg(1, 1, 1000.0);
  EXPECT_GT(engine.preceding_probability(early, late), 0.999999);
  EXPECT_LT(engine.preceding_probability(late, early), 1e-6);
}

TEST(PrecedingNumeric, CachesPerOrderedClientPair) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Uniform>(-1.0, 1.0));
  registry.announce(ClientId(1), std::make_unique<stats::Uniform>(-2.0, 2.0));

  PrecedingConfig config;
  config.grid_points = 256;
  PrecedingEngine engine(registry, config);
  EXPECT_EQ(engine.cached_pairs(), 0u);

  const Message i = msg(0, 0, 0.0);
  const Message j = msg(1, 1, 0.1);
  (void)engine.preceding_probability(i, j);
  EXPECT_EQ(engine.cached_pairs(), 1u);
  (void)engine.preceding_probability(i, j);
  EXPECT_EQ(engine.cached_pairs(), 1u);  // hit, not a second entry
  (void)engine.preceding_probability(j, i);
  EXPECT_EQ(engine.cached_pairs(), 2u);  // reverse direction is its own key
}

/// One registry holding every client of `populations`, numbered densely
/// in order.
ClientRegistry registry_of(
    std::initializer_list<const sim::Population*> populations) {
  ClientRegistry registry;
  std::uint32_t next_id = 0;
  for (const sim::Population* population : populations) {
    for (const sim::ClientSpec& c : population->clients()) {
      registry.announce(ClientId(next_id++), c.offset->clone());
    }
  }
  return registry;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every table a fast_* query reads for the first `n` clients, bitwise
/// equal between two engines primed over the same registry.
void expect_same_tables(const PrecedingEngine& a, const PrecedingEngine& b,
                        std::size_t n) {
  ASSERT_EQ(&a.registry(), &b.registry());
  EXPECT_EQ(a.fast_generation(), b.fast_generation());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(a.fast_mean(i), b.fast_mean(i))) << "client " << i;
    EXPECT_TRUE(same_bits(a.fast_safe_offset(i), b.fast_safe_offset(i)))
        << "client " << i;
    for (std::uint32_t j = 0; j < n; ++j) {
      EXPECT_TRUE(same_bits(a.fast_critical_gap(i, j),
                            b.fast_critical_gap(i, j)))
          << "pair (" << i << "," << j << "): " << a.fast_critical_gap(i, j)
          << " vs " << b.fast_critical_gap(i, j);
    }
    EXPECT_TRUE(same_bits(a.fast_max_gap_from(i), b.fast_max_gap_from(i)))
        << "row " << i << ": " << a.fast_max_gap_from(i) << " vs "
        << b.fast_max_gap_from(i);
  }
  EXPECT_TRUE(same_bits(a.fast_global_max_gap(), b.fast_global_max_gap()))
      << a.fast_global_max_gap() << " vs " << b.fast_global_max_gap();
}

/// Primes `engine` on a new thread whose affinity mask holds one CPU, so
/// the prime starts no helper. Returns whether the mask was narrowed.
bool prime_on_one_cpu(const PrecedingEngine& engine) {
  bool narrowed = false;
  std::thread([&engine, &narrowed] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &mask)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        narrowed = sched_setaffinity(0, sizeof one, &one) == 0;
        break;
      }
    }
    engine.prime(0.75, 0.999);
  }).join();
  return narrowed;
}

TEST(PrecedingNumeric, PrefilledPrimeCachesNoDensities) {
  // The prime shares its numeric cells among the calling thread and one
  // helper per further CPU. Whatever the split, it must leave the Δθ
  // cache empty (no fast_* query reads a density) and store exactly the
  // gaps, row maxima and global maximum of a serial fill: a prime on a
  // thread confined to one CPU. (On a one-CPU host both sides run
  // serially.) The registries cover the fan-out's edges: one numeric
  // client (one cell, no helper), 13 mixed clients (144 numeric cells
  // beside 25 closed-form ones), an all-Gaussian registry (no numeric
  // cell, no fan-out), and half Gumbel, half bimodal clocks (every pair
  // numeric).
  Rng rng(20251);
  const sim::Population gumbel = sim::gumbel_population(3, 4e-6, rng);
  const sim::Population bimodal = sim::bimodal_population(3, 4e-6, rng);
  const sim::Population one = sim::gumbel_population(1, 4e-6, rng);
  const sim::Population mixed_gaussian =
      sim::gaussian_population(5, 4e-6, rng);
  const sim::Population mixed_gumbel = sim::gumbel_population(4, 4e-6, rng);
  const sim::Population mixed_bimodal =
      sim::bimodal_population(4, 4e-6, rng);
  const sim::Population gaussian = sim::gaussian_population(6, 4e-6, rng);

  struct Case {
    const char* label;
    ClientRegistry registry;
  };
  Case cases[] = {
      {"3 Gumbel + 3 bimodal", registry_of({&gumbel, &bimodal})},
      {"1 numeric client", registry_of({&one})},
      {"5 Gaussian + 4 Gumbel + 4 bimodal",
       registry_of({&mixed_gaussian, &mixed_gumbel, &mixed_bimodal})},
      {"6 Gaussian", registry_of({&gaussian})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    PrecedingEngine fanned(c.registry);
    fanned.prime(0.75, 0.999);
    PrecedingEngine serial(c.registry);
    EXPECT_TRUE(prime_on_one_cpu(serial));
    expect_same_tables(fanned, serial, c.registry.size());

    // The row maxima are exact, not bounds.
    const auto n = static_cast<std::uint32_t>(c.registry.size());
    double global = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      double row = -std::numeric_limits<double>::infinity();
      for (std::uint32_t j = 0; j < n; ++j) {
        row = std::max(row, serial.fast_critical_gap(i, j));
      }
      EXPECT_TRUE(same_bits(fanned.fast_max_gap_from(i), row)) << "row " << i;
      global = std::max(global, row);
    }
    EXPECT_TRUE(same_bits(fanned.fast_global_max_gap(), global));
    EXPECT_EQ(fanned.cached_pairs(), 0u);  // priming caches no density
    EXPECT_EQ(serial.cached_pairs(), 0u);
  }
}

TEST(PrecedingNumeric, DerivedPrimeMatchesAFreshPrime) {
  // A re-prime copies the gap of every pair whose two distributions did
  // not change and convolves only the rows and columns of joined or
  // re-announced clients. The copy must be bitwise what a fresh prime
  // computes, after a join and after a re-announce — both through a
  // successor (the reconfiguration primer's path) and in place (a
  // sequencer that owns its engine).
  Rng rng(20252);
  const sim::Population gaussian = sim::gaussian_population(5, 4e-6, rng);
  const sim::Population gumbel = sim::gumbel_population(4, 4e-6, rng);
  const sim::Population bimodal = sim::bimodal_population(4, 4e-6, rng);
  const sim::Population joiner = sim::gumbel_population(1, 4e-6, rng);
  const sim::Population relearned = sim::bimodal_population(1, 4e-6, rng);
  ClientRegistry registry = registry_of({&gaussian, &gumbel, &bimodal});
  PrecedingEngine live(registry);
  live.prime(0.75, 0.999);

  // An up-to-date successor starts ready: nothing to derive.
  EXPECT_TRUE(live.successor()->fast_ready(0.75, 0.999));

  // Join: a 14th client, numeric against every other.
  registry.announce(ClientId(13), joiner.clients()[0].offset->clone());
  const auto joined = live.successor();
  joined->prime(0.75, 0.999);
  {
    SCOPED_TRACE("after a join");
    PrecedingEngine fresh(registry);
    fresh.prime(0.75, 0.999);
    expect_same_tables(*joined, fresh, registry.size());
  }

  // Re-announce: a Gaussian client's clock is re-learned as bimodal, so
  // its row and column leave the closed form.
  registry.announce(ClientId(2), relearned.clients()[0].offset->clone());
  const auto reannounced = joined->successor();
  reannounced->prime(0.75, 0.999);
  live.prime(0.75, 0.999);  // in place, from the pre-join tables
  {
    SCOPED_TRACE("after a re-announce");
    PrecedingEngine fresh(registry);
    fresh.prime(0.75, 0.999);
    expect_same_tables(*reannounced, fresh, registry.size());
    expect_same_tables(live, fresh, registry.size());
  }
}

/// A Gumbel clock whose density throws: building any Δθ grid from it
/// fails, while the moments and quantiles the fast tables read work.
class DensityThrows final : public stats::Distribution {
 public:
  DensityThrows(double location, double scale) : inner_(location, scale) {}
  [[nodiscard]] double pdf(double /*x*/) const override {
    throw std::runtime_error("density unavailable");
  }
  [[nodiscard]] double cdf(double x) const override { return inner_.cdf(x); }
  [[nodiscard]] double quantile(double p) const override {
    return inner_.quantile(p);
  }
  [[nodiscard]] double mean() const override { return inner_.mean(); }
  [[nodiscard]] double variance() const override {
    return inner_.variance();
  }
  [[nodiscard]] stats::Support support() const override {
    return inner_.support();
  }
  [[nodiscard]] stats::DistributionPtr clone() const override {
    return std::make_unique<DensityThrows>(*this);
  }
  [[nodiscard]] std::string describe() const override {
    return "DensityThrows(" + inner_.describe() + ")";
  }

 private:
  stats::Gumbel inner_;
};

TEST(PrecedingNumeric, PrefilledPrimeRethrowsAFillersException) {
  // Eight clients join a primed engine with clocks whose densities throw,
  // so every cell to fill throws and the calling thread and each helper
  // catch one. The prime must join them all and rethrow on the calling
  // thread, as a serial fill would have thrown there (an exception
  // escaping a helper thread would terminate the process), and leave the
  // previous tables in place: they were built aside and never published.
  Rng rng(20253);
  const sim::Population gumbel = sim::gumbel_population(8, 4e-6, rng);
  ClientRegistry registry = registry_of({&gumbel});
  PrecedingEngine engine(registry);
  engine.prime(0.75, 0.999);
  PrecedingEngine before(registry);
  before.prime(0.75, 0.999);

  for (std::uint32_t c = 8; c < 16; ++c) {
    registry.announce(ClientId(c),
                      std::make_unique<DensityThrows>(0.0, 1e-6 * (c + 1)));
  }
  EXPECT_THROW(engine.prime(0.75, 0.999), std::runtime_error);
  EXPECT_FALSE(engine.fast_ready(0.75, 0.999));
  EXPECT_TRUE(engine.fast_params_match(0.75, 0.999));
  expect_same_tables(engine, before, 8);

  // A first prime that throws leaves the engine unprimed.
  PrecedingEngine unprimed(registry);
  EXPECT_THROW(unprimed.prime(0.75, 0.999), std::runtime_error);
  EXPECT_FALSE(unprimed.fast_params_match(0.75, 0.999));
}

TEST(PrecedingNumeric, UniformPairHasClosedFormCheck) {
  // θ_i, θ_j ~ U(0, 1) iid: P(θ_j − θ_i > g) = (1−g)²/2 for g in [0, 1].
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Uniform>(0.0, 1.0));
  registry.announce(ClientId(1), std::make_unique<stats::Uniform>(0.0, 1.0));
  PrecedingConfig config;
  config.grid_points = 2048;
  PrecedingEngine engine(registry, config);

  for (double g : {0.0, 0.25, 0.5, 0.75}) {
    const Message i = msg(0, 0, g);   // T_i − T_j = g
    const Message j = msg(1, 1, 0.0);
    const double expected = (1.0 - g) * (1.0 - g) / 2.0;
    EXPECT_NEAR(engine.preceding_probability(i, j), expected, 3e-3)
        << "g=" << g;
  }
}

TEST(SafeEmission, UsesOffsetQuantile) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(1.0, 2.0));
  PrecedingEngine engine(registry);

  const Message m = msg(0, 0, 10.0);
  const TimePoint tf = engine.safe_emission_time(m, 0.999);
  // T^F = T + Q_θ(0.999) = 10 + 1 + 2·Φ⁻¹(0.999).
  EXPECT_NEAR(tf.seconds(), 11.0 + 2.0 * math::normal_quantile(0.999), 1e-9);
  // And by construction P(T* < T^F) = 0.999.
  const stats::Gaussian theta(1.0, 2.0);
  EXPECT_NEAR(theta.cdf(tf.seconds() - 10.0), 0.999, 1e-9);
}

TEST(SafeEmission, MonotoneInPSafe) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(0.0, 1.0));
  PrecedingEngine engine(registry);
  const Message m = msg(0, 0, 0.0);
  EXPECT_LT(engine.safe_emission_time(m, 0.9),
            engine.safe_emission_time(m, 0.99));
  EXPECT_LT(engine.safe_emission_time(m, 0.99),
            engine.safe_emission_time(m, 0.9999));
}

TEST(CompletenessFrontier, ConservativeForUncertainClients) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(0.0, 1.0));
  registry.announce(ClientId(1), std::make_unique<stats::Gaussian>(0.0, 10.0));
  PrecedingEngine engine(registry);

  const TimePoint hw(100.0);
  // frontier = hw + Q_θ(1 − p_safe); the noisier clock pushes further back.
  const TimePoint tight = engine.completeness_frontier(ClientId(0), hw, 0.999);
  const TimePoint loose = engine.completeness_frontier(ClientId(1), hw, 0.999);
  EXPECT_LT(loose, tight);
  EXPECT_LT(tight, hw);  // 1 − p_safe quantile is negative for zero-mean θ
}

TEST(CorrectedStamp, AddsMeanOffset) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(2.5, 1.0));
  PrecedingEngine engine(registry);
  EXPECT_DOUBLE_EQ(engine.corrected_stamp(msg(0, 0, 1.0)).seconds(), 3.5);
}

// ── Critical-gap fast path ─────────────────────────────────────────────

class CriticalGapFixture : public ::testing::Test {
 protected:
  /// Sweeps stamp gaps (dense near the decision boundary) and asserts the
  /// cached-constant predicate agrees with the full probability
  /// evaluation for every ordered client pair.
  void expect_predicates_agree(const ClientRegistry& registry,
                               PrecedingConfig config, double threshold,
                               double span) {
    PrecedingEngine engine(registry, config);
    engine.prime(threshold, 0.999);
    const std::size_t n = registry.size();
    Rng rng(4242);
    for (std::uint32_t ci = 0; ci < n; ++ci) {
      for (std::uint32_t cj = 0; cj < n; ++cj) {
        const ClientId id_i = registry.client_at(ci);
        const ClientId id_j = registry.client_at(cj);
        const double crit = engine.fast_critical_gap(ci, cj);
        EXPECT_LE(crit, engine.fast_max_gap_from(ci));
        EXPECT_LE(crit, engine.fast_global_max_gap());
        for (int k = 0; k < 200; ++k) {
          // Half the samples hug the critical gap, half roam the span.
          const double corrected_gap =
              (k % 2 == 0) ? crit + rng.uniform(-0.02 * span, 0.02 * span)
                           : rng.uniform(-span, span);
          const Message a{MessageId(0), id_i, TimePoint(0.0)};
          // Solve stamp_b from the corrected gap so both forms see the
          // same geometry: c_b − c_a = stamp_b + μ_j − μ_i.
          const double mu_i = registry.distribution_at(ci).mean();
          const double mu_j = registry.distribution_at(cj).mean();
          const Message b{MessageId(1), id_j,
                          TimePoint(corrected_gap + mu_i - mu_j)};
          const double ca = engine.fast_corrected(ci, a.stamp);
          const double cb = engine.fast_corrected(cj, b.stamp);
          const bool fast =
              engine.fast_confidently_preceding(ci, ca, cj, cb);
          const bool slow = engine.preceding_probability(a, b) > threshold;
          EXPECT_EQ(fast, slow)
              << "pair (" << ci << "," << cj << ") corrected gap "
              << corrected_gap << " crit " << crit;
        }
      }
    }
  }
};

TEST_F(CriticalGapFixture, GaussianPredicateMatchesProbability) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(2.0, 3.0));
  registry.announce(ClientId(1), std::make_unique<stats::Gaussian>(-1.0, 4.0));
  registry.announce(ClientId(2), std::make_unique<stats::Gaussian>(0.5, 0.2));
  for (double threshold : {0.6, 0.75, 0.9, 0.99}) {
    expect_predicates_agree(registry, PrecedingConfig{}, threshold, 40.0);
  }
}

TEST_F(CriticalGapFixture, NumericPredicateMatchesProbability) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Uniform>(-1.0, 1.0));
  registry.announce(ClientId(1), std::make_unique<stats::Uniform>(-0.5, 2.0));
  registry.announce(ClientId(2), std::make_unique<stats::Gaussian>(0.0, 0.7));
  PrecedingConfig config;
  config.grid_points = 1024;
  for (double threshold : {0.66, 0.8, 0.95}) {
    expect_predicates_agree(registry, config, threshold, 8.0);
  }
}

TEST_F(CriticalGapFixture, FastOffsetsMatchSlowQueries) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(1.0, 2.0));
  registry.announce(ClientId(1), std::make_unique<stats::Uniform>(-3.0, 5.0));
  PrecedingEngine engine(registry);
  const double p_safe = 0.999;
  engine.prime(0.75, p_safe);
  for (std::uint32_t c = 0; c < registry.size(); ++c) {
    const ClientId id = registry.client_at(c);
    const Message m{MessageId(7), id, TimePoint(42.0)};
    EXPECT_EQ(engine.fast_corrected(c, m.stamp),
              engine.corrected_stamp(m).seconds());
    EXPECT_EQ(engine.fast_safe_emission_time(c, m.stamp).seconds(),
              engine.safe_emission_time(m, p_safe).seconds());
    EXPECT_EQ(engine.fast_completeness_frontier(c, TimePoint(42.0)).seconds(),
              engine.completeness_frontier(id, TimePoint(42.0),
                                           p_safe).seconds());
  }
}

TEST_F(CriticalGapFixture, PrimeTracksRegistryGeneration) {
  ClientRegistry registry;
  registry.announce(ClientId(0), std::make_unique<stats::Gaussian>(0.0, 1.0));
  registry.announce(ClientId(1), std::make_unique<stats::Gaussian>(0.0, 1.0));
  PrecedingEngine engine(registry);
  engine.prime(0.75, 0.999);
  EXPECT_TRUE(engine.fast_ready(0.75, 0.999));
  EXPECT_FALSE(engine.fast_ready(0.8, 0.999));

  const double before = engine.fast_critical_gap(0, 1);
  registry.announce(ClientId(1), std::make_unique<stats::Gaussian>(0.0, 5.0));
  EXPECT_FALSE(engine.fast_ready(0.75, 0.999));
  engine.prime(0.75, 0.999);
  EXPECT_GT(engine.fast_critical_gap(0, 1), before);
}

}  // namespace
}  // namespace tommy::core
