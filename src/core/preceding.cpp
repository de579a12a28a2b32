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
  // keeps the slow path and the lazily-filled critical gaps consistent
  // with the current distributions (and with each other).
  if (cache_generation_ != registry_.generation()) {
    cache_.clear();
    lru_.clear();
    cache_generation_ = registry_.generation();
  }
  const std::size_t capacity = config_.difference_cache_capacity;
  const auto key = std::make_pair(from, to);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    if (capacity > 0) {  // refresh recency; unbounded caches skip the list
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    }
    return *it->second.density;
  }

  const auto di = registry_.offset_distribution_ptr(from);
  const auto dj = registry_.offset_distribution_ptr(to);
  auto density = std::make_unique<stats::GridDensity>(stats::difference_density(
      *dj, *di, config_.grid_points, config_.method));
  CachedDensity entry;
  entry.density = std::move(density);
  if (capacity > 0) {
    // Evict before inserting so the entry returned below can never be the
    // one trimmed away (callers hold the reference across one query).
    while (cache_.size() >= capacity && !lru_.empty()) {
      cache_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(key);
    entry.lru_position = lru_.begin();
  }
  const auto [inserted, ok] = cache_.emplace(key, std::move(entry));
  TOMMY_ASSERT(ok);
  return *inserted->second.density;
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
                            bool prefill_pairs) const {
  TOMMY_EXPECTS(threshold > 0.5 && threshold < 1.0);
  TOMMY_EXPECTS(p_safe > 0.0 && p_safe < 1.0);
  if (fast_ready(threshold, p_safe) && (!prefill_pairs || fast_.prefilled)) {
    return;
  }
  if (!fast_ready(threshold, p_safe)) {
    build_fast_tables(threshold, p_safe);
  }
  if (prefill_pairs && !fast_.prefilled) prefill_critical_gaps();
}

void PrecedingEngine::build_fast_tables(double threshold,
                                        double p_safe) const {

  FastTables t;
  t.threshold = threshold;
  t.p_safe = p_safe;
  t.generation = registry_.generation();
  t.n = registry_.size();
  t.mean.resize(t.n);
  t.safe_offset.resize(t.n);
  t.frontier_offset.resize(t.n);
  t.gaussian.resize(t.n);
  t.variance.resize(t.n);
  t.upper_width.resize(t.n);
  t.lower_width.resize(t.n);
  t.support_width.resize(t.n);
  t.critical_gap.assign(t.n * t.n,
                        std::numeric_limits<double>::quiet_NaN());
  t.max_gap_from.assign(t.n, 0.0);

  for (std::uint32_t c = 0; c < t.n; ++c) {
    const auto d = registry_.distribution_ptr_at(c);
    t.mean[c] = d->mean();
    t.safe_offset[c] = d->quantile(p_safe);
    t.frontier_offset[c] = d->quantile(1.0 - p_safe);
    t.gaussian[c] =
        static_cast<std::uint8_t>(!config_.force_numeric && d->is_gaussian());
    t.variance[c] = d->variance();
    // Same effective support the numeric Δθ grids are built on
    // (stats::difference_density) — the basis of the row bounds below.
    const stats::Support sup = d->effective_support();
    t.upper_width[c] = sup.hi - t.mean[c];
    t.lower_width[c] = t.mean[c] - sup.lo;
    t.support_width[c] = sup.width();
  }

  // Gaussian pairs get exact critical gaps now (closed form, cheap).
  // Numeric pairs stay NaN — filled on first query — but contribute a
  // support bound to the row maxima so the windowed scans are sound
  // before any convolution runs: the Δθ grid's lower edge is
  // lo_j − hi_i − dx (difference_density extends the subtrahend grid's
  // upper edge by at most one spacing dx to land on the grid), the grid
  // quantile can never fall below that edge, so
  //   g*_{ij} ≤ (μ_j − lo_j) + (hi_i − μ_i) + dx,
  // with dx doubled here for floating-point headroom.
  const double z = math::normal_quantile(threshold);
  double global = 0.0;
  for (std::uint32_t i = 0; i < t.n; ++i) {
    double row_max = -std::numeric_limits<double>::infinity();
    for (std::uint32_t j = 0; j < t.n; ++j) {
      if (t.gaussian[i] && t.gaussian[j]) {
        const double gap = z * std::sqrt(t.variance[i] + t.variance[j]);
        t.critical_gap[i * t.n + j] = gap;
        row_max = std::max(row_max, gap);
      } else {
        const double dx =
            std::min(t.support_width[i], t.support_width[j]) /
            static_cast<double>(config_.grid_points - 1);
        const double bound =
            t.lower_width[j] + t.upper_width[i] + 2.0 * dx;
        row_max = std::max(row_max, bound);
      }
    }
    t.max_gap_from[i] = row_max;
    global = std::max(global, row_max);
  }
  t.global_max_gap = global;
  t.valid = true;
  fast_ = std::move(t);
}

void PrecedingEngine::prefill_critical_gaps() const {
  TOMMY_ASSERT(fast_.valid);
  // Fill every lazy slot with the value a first query would store
  // (numeric pairs: one convolution + one quantile each), but read each
  // quantile from a transient Δθ density: no fast_* query ever reads the
  // densities, and caching them would pin all n² of them.
  //
  // The slots are independent, so the calling thread and one helper per
  // further CPU of its affinity mask share them, taking one cell at a
  // time from a common cursor (cells, not rows: a narrow-support
  // client's row holds the widest transforms). Exactly one thread writes
  // each slot, with the same pure computation wherever it runs, so every
  // gap is bitwise that of a serial fill. max_gap_from, which the fill's
  // tripwire reads, is written only after the join. No helper outlives
  // this call; an exception thrown on a helper is rethrown here.
  const std::size_t n = fast_.n;
  const std::size_t cells = n * n;
  const auto lazy = static_cast<std::size_t>(
      std::count_if(fast_.critical_gap.begin(), fast_.critical_gap.end(),
                    [](double gap) { return std::isnan(gap); }));
  const std::size_t helpers =
      lazy == 0 ? 0 : std::min(usable_cpus(), lazy) - 1;

  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> errors(helpers + 1);
  auto fill = [&](std::exception_ptr& error) {
    try {
      for (std::size_t k = cursor++; k < cells; k = cursor++) {
        static_cast<void>(fill_critical_gap(static_cast<std::uint32_t>(k / n),
                                            static_cast<std::uint32_t>(k % n),
                                            /*cache_density=*/false));
      }
    } catch (...) {
      error = std::current_exception();
      cursor = cells;  // the others stop at their next cell
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

  // Tighten the row bounds to the exact maxima — the windowed closure
  // scans shrink from the support bound to the true uncertainty window.
  double global = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    double row_max = -std::numeric_limits<double>::infinity();
    for (std::uint32_t j = 0; j < n; ++j) {
      row_max = std::max(row_max, fast_.critical_gap[i * n + j]);
    }
    fast_.max_gap_from[i] = row_max;
    global = std::max(global, row_max);
  }
  fast_.global_max_gap = global;
  fast_.prefilled = true;
}

double PrecedingEngine::numeric_critical_gap(std::uint32_t ci,
                                             std::uint32_t cj,
                                             bool cache_density) const {
  // p(a, b) > threshold ⟺ T_a − T_b < q ⟺ c_b − c_a > (μ_j − μ_i) − q
  // with q = tail_quantile_Δθ(threshold); see header derivation.
  const ClientId id_i = registry_.client_at(ci);
  const ClientId id_j = registry_.client_at(cj);
  double q;
  if (cache_density) {
    q = difference_density_for(id_i, id_j).tail_quantile(fast_.threshold);
  } else {
    const auto dist_j = registry_.distribution_ptr_at(cj);
    const auto dist_i = registry_.distribution_ptr_at(ci);
    const stats::GridDensity delta = stats::difference_density(
        *dist_j, *dist_i, config_.grid_points, config_.method);
    q = delta.tail_quantile(fast_.threshold);
  }
  return (fast_.mean[cj] - fast_.mean[ci]) - q;
}

double PrecedingEngine::fast_critical_gap(std::uint32_t ci,
                                          std::uint32_t cj) const {
  TOMMY_ASSERT(fast_.valid && ci < fast_.n && cj < fast_.n);
  return fill_critical_gap(ci, cj, config_.cache_difference_densities);
}

double PrecedingEngine::fill_critical_gap(std::uint32_t ci, std::uint32_t cj,
                                          bool cache_density) const {
  double& slot = fast_.critical_gap[ci * fast_.n + cj];
  if (std::isnan(slot)) {
    slot = numeric_critical_gap(ci, cj, cache_density);
    // Tripwire for the Cantelli row bound: the exact gap must never exceed
    // what the windowed scans assumed possible.
    TOMMY_ASSERT(slot <= fast_.max_gap_from[ci]);
  }
  return slot;
}

}  // namespace tommy::core
