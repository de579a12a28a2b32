// Cost of the preceding-probability engine (§3.2/§3.3): the Gaussian
// closed form versus the numeric convolution path, the effect of the
// per-client-pair Δθ density cache, and the numeric prime against N, whole
// and derived after a join.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/preceding.hpp"
#include "sim/population.hpp"
#include "stats/analytic.hpp"
#include "stats/gaussian.hpp"

namespace {

using tommy::ClientId;
using tommy::MessageId;
using tommy::TimePoint;
using tommy::core::ClientRegistry;
using tommy::core::Message;
using tommy::core::PrecedingConfig;
using tommy::core::PrecedingEngine;

ClientRegistry gaussian_registry(std::size_t clients) {
  ClientRegistry registry;
  for (std::size_t c = 0; c < clients; ++c) {
    registry.announce(
        ClientId(static_cast<std::uint32_t>(c)),
        std::make_unique<tommy::stats::Gaussian>(
            1e-6 * static_cast<double>(c % 7), 10e-6 + 1e-6 * static_cast<double>(c % 5)));
  }
  return registry;
}

ClientRegistry uniform_registry(std::size_t clients) {
  ClientRegistry registry;
  for (std::size_t c = 0; c < clients; ++c) {
    registry.announce(ClientId(static_cast<std::uint32_t>(c)),
                      std::make_unique<tommy::stats::Uniform>(
                          -20e-6 - 1e-6 * static_cast<double>(c % 3), 20e-6));
  }
  return registry;
}

/// livebench's inproc_numeric mix: half Gumbel, half bimodal clocks at a
/// 4 µs deviation scale, so every pair takes the numeric path.
ClientRegistry numeric_registry(std::size_t clients) {
  tommy::Rng rng(20251);
  const std::size_t gumbel = clients / 2;
  const auto a = tommy::sim::gumbel_population(gumbel, 4e-6, rng);
  const auto b = tommy::sim::bimodal_population(clients - gumbel, 4e-6, rng);
  ClientRegistry registry;
  std::uint32_t next_id = 0;
  for (const auto* population : {&a, &b}) {
    for (const auto& c : population->clients()) {
      registry.announce(ClientId(next_id++), c.offset->clone());
    }
  }
  return registry;
}

Message msg(std::uint64_t id, std::uint32_t client, double stamp) {
  return Message{MessageId(id), ClientId(client), TimePoint(stamp)};
}

void BM_GaussianClosedForm(benchmark::State& state) {
  const ClientRegistry registry = gaussian_registry(16);
  const PrecedingEngine engine(registry);
  const Message a = msg(0, 1, 0.0);
  const Message b = msg(1, 2, 3e-6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.preceding_probability(a, b));
  }
}
BENCHMARK(BM_GaussianClosedForm);

void BM_NumericCachedQuery(benchmark::State& state) {
  // After the first query the Δθ density is cached: steady-state cost is
  // one interpolated CDF lookup.
  const ClientRegistry registry = uniform_registry(16);
  PrecedingConfig config;
  config.grid_points = static_cast<std::size_t>(state.range(0));
  const PrecedingEngine engine(registry, config);
  const Message a = msg(0, 1, 0.0);
  const Message b = msg(1, 2, 3e-6);
  (void)engine.preceding_probability(a, b);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.preceding_probability(a, b));
  }
}
BENCHMARK(BM_NumericCachedQuery)->Arg(256)->Arg(1024)->Arg(4096);

void BM_NumericUncachedQuery(benchmark::State& state) {
  // Cache disabled: every query pays the full convolution. This is the
  // §3.3 "communication and computation intensive" path the paper's
  // client-learned-distribution design avoids.
  const ClientRegistry registry = uniform_registry(16);
  PrecedingConfig config;
  config.grid_points = static_cast<std::size_t>(state.range(0));
  config.cache_difference_densities = false;
  const PrecedingEngine engine(registry, config);
  const Message a = msg(0, 1, 0.0);
  const Message b = msg(1, 2, 3e-6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.preceding_probability(a, b));
  }
}
BENCHMARK(BM_NumericUncachedQuery)->Arg(256)->Arg(1024);

void BM_PairwiseMatrixGaussian(benchmark::State& state) {
  // Full O(n²) tournament probability fill, the general-path setup cost.
  const auto n = static_cast<std::size_t>(state.range(0));
  const ClientRegistry registry = gaussian_registry(32);
  const PrecedingEngine engine(registry);
  std::vector<Message> messages;
  for (std::size_t k = 0; k < n; ++k) {
    messages.push_back(
        msg(k, static_cast<std::uint32_t>(k % 32), 1e-6 * static_cast<double>(k)));
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        acc += engine.preceding_probability(messages[i], messages[j]);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PairwiseMatrixGaussian)->RangeMultiplier(2)->Range(16, 512)
    ->Complexity(benchmark::oNSquared);

void BM_SafeEmissionTime(benchmark::State& state) {
  const ClientRegistry registry = gaussian_registry(16);
  const PrecedingEngine engine(registry);
  const Message a = msg(0, 1, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.safe_emission_time(a, 0.999));
  }
}
BENCHMARK(BM_SafeEmissionTime);

void BM_SafeEmissionTimeNumericQuantile(benchmark::State& state) {
  // Non-Gaussian distribution: the quantile is the bisection search the
  // paper describes ("binary search on the future timestamps").
  const ClientRegistry registry = uniform_registry(16);
  const PrecedingEngine engine(registry);
  const Message a = msg(0, 1, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.safe_emission_time(a, 0.999));
  }
}
BENCHMARK(BM_SafeEmissionTimeNumericQuantile);

void BM_NumericPrime(benchmark::State& state) {
  // The set-up cost a numeric service pays at construction: every ordered
  // pair's Δθ convolution and quantile.
  const auto n = static_cast<std::size_t>(state.range(0));
  const ClientRegistry registry = numeric_registry(n);
  std::size_t cached = 0;
  for (auto _ : state) {
    const PrecedingEngine engine(registry);
    engine.prime(0.75, 0.999);
    cached = engine.cached_pairs();
  }
  state.counters["ordered_pairs"] = static_cast<double>(n * n);
  state.counters["cached_pairs"] = static_cast<double>(cached);
}
BENCHMARK(BM_NumericPrime)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_NumericJoin(benchmark::State& state) {
  // The reconfiguration primer's cost for one numeric join: a successor
  // of the live engine copies the n² gaps of the unchanged pairs and
  // convolves only the 2n + 1 pairs of the joiner. The joiner is client
  // n of the same clock mix and seed.
  const auto n = static_cast<std::size_t>(state.range(0));
  ClientRegistry registry = numeric_registry(n);
  const PrecedingEngine live(registry);
  live.prime(0.75, 0.999);
  const ClientRegistry grown = numeric_registry(n + 1);
  registry.announce(ClientId(static_cast<std::uint32_t>(n)),
                    grown.distribution_at(static_cast<std::uint32_t>(n)).clone());
  for (auto _ : state) {
    const auto next = live.successor();
    next->prime(0.75, 0.999);
    benchmark::DoNotOptimize(next->fast_global_max_gap());
  }
  state.counters["convolved_pairs"] = static_cast<double>(2 * n + 1);
}
BENCHMARK(BM_NumericJoin)->Arg(40)->Arg(80);

}  // namespace

BENCHMARK_MAIN();
