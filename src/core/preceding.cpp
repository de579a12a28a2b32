#include "core/preceding.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <system_error>
#include <thread>

#include "common/check.hpp"
#include "common/math.hpp"

namespace tommy::core {

namespace {

/// CPUs in the calling thread's affinity mask; 1 when it cannot be read.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

}  // namespace

PrecedingEngine::PrecedingEngine(const ClientRegistry& registry,
                                 PrecedingConfig config)
    : registry_(registry), config_(config) {
  TOMMY_EXPECTS(config.grid_points >= 16);
}

double PrecedingEngine::preceding_probability(const Message& i,
                                              const Message& j) const {
  // Shared-ownership handles: a concurrent re-announce may replace the
  // registry entry mid-query, but these keep the sampled distributions
  // alive (and mutually consistent) for the duration of the computation.
  const auto di = registry_.offset_distribution_ptr(i.client);
  const auto dj = registry_.offset_distribution_ptr(j.client);

  if (!config_.force_numeric && di->is_gaussian() && dj->is_gaussian()) {
    // Closed form: T*_i − T*_j is Gaussian with mean
    // (T_i + μ_i) − (T_j + μ_j) and variance σ_i² + σ_j².
    const double mean_diff = (j.stamp.seconds() + dj->mean()) -
                             (i.stamp.seconds() + di->mean());
    const double spread = std::sqrt(di->variance() + dj->variance());
    TOMMY_ASSERT(spread > 0.0);
    return math::normal_cdf(mean_diff / spread);
  }

  // Numeric path: p = P(Δθ > T_i − T_j), Δθ = θ_j − θ_i.
  const double gap = i.stamp.seconds() - j.stamp.seconds();
  if (config_.cache_difference_densities) {
    const stats::GridDensity& delta = difference_density_for(i.client,
                                                             j.client);
    return math::clamp_probability(delta.tail_probability(gap));
  }
  const stats::GridDensity delta =
      stats::difference_density(*dj, *di, config_.grid_points, config_.method);
  return math::clamp_probability(delta.tail_probability(gap));
}

const stats::GridDensity& PrecedingEngine::difference_density_for(
    ClientId from, ClientId to) const {
  // A re-announce invalidates every cached Δθ density; dropping them here
  // keeps the slow path consistent with the current distributions.
  if (cache_generation_ != registry_.generation()) {
    cache_.clear();
    cache_generation_ = registry_.generation();
  }
  const auto key = std::make_pair(from, to);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const auto di = registry_.offset_distribution_ptr(from);
  const auto dj = registry_.offset_distribution_ptr(to);
  return cache_
      .emplace(key, stats::difference_density(*dj, *di, config_.grid_points,
                                              config_.method))
      .first->second;
}

TimePoint PrecedingEngine::safe_emission_time(const Message& m,
                                              double p_safe) const {
  TOMMY_EXPECTS(p_safe > 0.0 && p_safe < 1.0);
  const auto d = registry_.offset_distribution_ptr(m.client);
  return m.stamp + Duration(d->quantile(p_safe));
}

TimePoint PrecedingEngine::completeness_frontier(ClientId client,
                                                 TimePoint high_water_stamp,
                                                 double p_safe) const {
  TOMMY_EXPECTS(p_safe > 0.0 && p_safe < 1.0);
  const auto d = registry_.offset_distribution_ptr(client);
  return high_water_stamp + Duration(d->quantile(1.0 - p_safe));
}

TimePoint PrecedingEngine::corrected_stamp(const Message& m) const {
  const auto d = registry_.offset_distribution_ptr(m.client);
  return m.stamp + Duration(d->mean());
}

bool PrecedingEngine::fast_ready(double threshold, double p_safe) const {
  return fast_.valid && fast_.threshold == threshold &&
         fast_.p_safe == p_safe && fast_.generation == registry_.generation();
}

void PrecedingEngine::prime(double threshold, double p_safe,
                            bool /*prefill_pairs*/) const {
  TOMMY_EXPECTS(threshold > 0.5 && threshold < 1.0);
  TOMMY_EXPECTS(p_safe > 0.0 && p_safe < 1.0);
  if (fast_ready(threshold, p_safe)) return;
  fast_ = build_fast_tables(threshold, p_safe);
}

std::shared_ptr<PrecedingEngine> PrecedingEngine::successor() const {
  auto next = std::make_shared<PrecedingEngine>(registry_, config_);
  next->fast_ = fast_;
  return next;
}

PrecedingEngine::FastTables PrecedingEngine::build_fast_tables(
    double threshold, double p_safe) const {
  FastTables t;
  t.threshold = threshold;
  t.p_safe = p_safe;
  // The generation is read before the distributions: an announce landing
  // in between makes the tables newer than their generation says, which
  // costs one more (derived) prime, never a stale table.
  t.generation = registry_.generation();
  t.n = registry_.size();
  t.distribution.resize(t.n);
  t.mean.resize(t.n);
  t.safe_offset.resize(t.n);
  t.frontier_offset.resize(t.n);
  t.gaussian.resize(t.n);
  t.variance.resize(t.n);
  t.critical_gap.resize(t.n * t.n);
  t.max_gap_from.resize(t.n);

  // A client keeps its gaps when its distribution object is the one the
  // previous tables were built from (the tables hold it, so its address
  // cannot be reused) and the threshold is the same.
  const FastTables& prev = fast_;
  std::vector<std::uint8_t> kept(t.n, 0);
  for (std::uint32_t c = 0; c < t.n; ++c) {
    t.distribution[c] = registry_.distribution_ptr_at(c);
    const stats::Distribution& d = *t.distribution[c];
    t.mean[c] = d.mean();
    t.safe_offset[c] = d.quantile(p_safe);
    t.frontier_offset[c] = d.quantile(1.0 - p_safe);
    t.gaussian[c] =
        static_cast<std::uint8_t>(!config_.force_numeric && d.is_gaussian());
    t.variance[c] = d.variance();
    kept[c] = static_cast<std::uint8_t>(
        prev.valid && prev.threshold == threshold && c < prev.n &&
        prev.distribution[c] == t.distribution[c]);
  }

  // Unchanged pairs copy their gap, Gaussian pairs take the closed form,
  // and the numeric rest is convolved below.
  const double z = math::normal_quantile(threshold);
  std::vector<std::size_t> numeric;
  for (std::uint32_t i = 0; i < t.n; ++i) {
    for (std::uint32_t j = 0; j < t.n; ++j) {
      double& gap = t.critical_gap[i * t.n + j];
      if (kept[i] && kept[j]) {
        gap = prev.critical_gap[i * prev.n + j];
      } else if (t.gaussian[i] && t.gaussian[j]) {
        gap = z * std::sqrt(t.variance[i] + t.variance[j]);
      } else {
        numeric.push_back(i * t.n + j);
      }
    }
  }
  fill_numeric_gaps(t, numeric);

  double global = 0.0;
  for (std::uint32_t i = 0; i < t.n; ++i) {
    double row_max = -std::numeric_limits<double>::infinity();
    for (std::uint32_t j = 0; j < t.n; ++j) {
      row_max = std::max(row_max, t.critical_gap[i * t.n + j]);
    }
    t.max_gap_from[i] = row_max;
    global = std::max(global, row_max);
  }
  t.global_max_gap = global;
  t.valid = true;
  return t;
}

void PrecedingEngine::fill_numeric_gaps(
    FastTables& t, const std::vector<std::size_t>& cells) const {
  // p(a, b) > threshold ⟺ T_a − T_b < q ⟺ c_b − c_a > (μ_j − μ_i) − q
  // with q = tail_quantile_Δθ(threshold); see header derivation. Each
  // quantile is read from a transient Δθ density: no fast_* query reads
  // the densities, and caching them would pin all n² of them.
  //
  // The cells are independent, so the calling thread and one helper per
  // further CPU of its affinity mask share them, taking one cell at a
  // time from a common cursor (cells, not rows: a narrow-support
  // client's row holds the widest transforms). Exactly one thread writes
  // each cell, with the same pure computation wherever it runs, so every
  // gap is bitwise that of a serial fill. No helper outlives this call;
  // an exception thrown on a helper is rethrown here.
  const std::size_t helpers =
      cells.empty() ? 0 : std::min(usable_cpus(), cells.size()) - 1;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(helpers + 1);
  auto fill = [&](std::exception_ptr& error) {
    try {
      for (std::size_t k = cursor++; k < cells.size(); k = cursor++) {
        const std::size_t i = cells[k] / t.n;
        const std::size_t j = cells[k] % t.n;
        const stats::GridDensity delta = stats::difference_density(
            *t.distribution[j], *t.distribution[i], config_.grid_points,
            config_.method);
        t.critical_gap[cells[k]] =
            (t.mean[j] - t.mean[i]) - delta.tail_quantile(t.threshold);
      }
    } catch (...) {
      error = std::current_exception();
      cursor = cells.size();  // the others stop at their next cell
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(helpers);
    for (std::size_t h = 1; h <= helpers; ++h) {
      try {
        threads.emplace_back(fill, std::ref(errors[h]));
      } catch (const std::system_error&) {
        break;  // fill with the helpers that did start
      }
    }
    fill(errors[0]);
  }  // joins every helper
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace tommy::core
