// The preceding-probability engine: p = P(T*_i < T*_j | T_i, T_j), the
// weight of the likely-happened-before relation i —p→ j (§3.2).
//
// Two evaluation paths:
//  * Gaussian closed form (§3.2): when both clients' offsets are Gaussian,
//      p = Φ((T_j + μ_j − T_i − μ_i) / sqrt(σ_i² + σ_j²)).
//    (The paper's inline formula carries a sign typo on the means; see
//    DESIGN.md "Known paper errata". This form matches the paper's own
//    model T* = T + θ and its Appendix A.)
//  * Numeric path (§3.3): build the density of Δθ = θ_j − θ_i by FFT
//    convolution of f_{θj} with the reflection of f_{θi}, then
//      p = P(Δθ > T_i − T_j) = 1 − F_Δθ(T_i − T_j).
//    The per-ordered-client-pair Δθ CDF is cached, so the convolution cost
//    is paid once per pair, not once per message pair.
//
// ── Critical-gap reduction (the constant-time fast path) ────────────────
//
// Online sequencing never needs the probability itself — only the
// predicate `p(a, b) > threshold`. Both evaluation paths reduce that
// predicate to one subtraction and one comparison against a per-client-
// PAIR constant, the *critical gap* g*_{ij}, in corrected-stamp space.
// Writing c_a = T_a + μ_i for the corrected stamp of a message from
// client i (and c_b likewise for client j):
//
//  * Gaussian:  p = Φ((c_b − c_a) / s),  s = √(σ_i² + σ_j²), so with
//    z = Φ⁻¹(threshold):
//        p > threshold  ⟺  c_b − c_a > z·s  =: g*_{ij}.
//  * Numeric:   p = tail_Δθ(T_a − T_b) with Δθ = θ_j − θ_i. With
//    q = tail_quantile_Δθ(threshold) (the x where the interpolated tail
//    CDF equals the threshold) and T_a − T_b = (c_a − c_b) + (μ_j − μ_i):
//        p > threshold  ⟺  T_a − T_b < q
//                       ⟺  c_b − c_a > (μ_j − μ_i) − q  =: g*_{ij}.
//
// prime(threshold, p_safe) materializes, keyed by the registry's dense
// client indices into flat std::vectors (no hashing, no virtual dispatch
// on the hot path):
//   * per client: μ_c (corrected-stamp offset), Q_c(p_safe) (safe-emission
//     offset, §3.5), and Q_c(1 − p_safe) (completeness-frontier offset);
//   * per pair:   g*_{ij} — Gaussian pairs eagerly (closed form), numeric
//     pairs lazily on first query (one convolution + one quantile, then a
//     cached double);
//   * per row i:  an upper bound Ḡ_i ≥ max_j g*_{ij}, exact for Gaussian
//     pairs; for numeric pairs the Δθ grid's support gives a provable
//     bound with no convolution: the grid for θ_j − θ_i lives on
//     [lo_j − hi_i − dx, …] (effective supports, spacing dx), its
//     quantile can never fall below that edge, hence
//     g*_{ij} = (μ_j − μ_i) − q ≤ (μ_j − lo_j) + (hi_i − μ_i) + dx.
//     So lazy numeric fill never blocks the windowed closure scans that
//     rely on Ḡ_i.
//
// A prefilled prime (prime(…, /*prefill_pairs=*/true)) instead fills
// every numeric g*_{ij} up front and tightens Ḡ_i to the exact row
// maxima. Its n² cells are independent, so the calling thread shares
// them with one helper thread per further CPU of its affinity mask; the
// helpers are joined before prime() returns, and no thread outlives it.
//
// After priming, `confidently_preceding` is a subtraction and a compare;
// the sequencer's corrected stamps, safe-emission times and completeness
// frontiers are one addition each. The slow per-query API below remains
// the semantic reference (the online sequencer's reference mode uses it
// verbatim) and is what the equivalence property tests compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/client_registry.hpp"
#include "core/message.hpp"
#include "stats/convolution.hpp"
#include "stats/grid_density.hpp"

namespace tommy::core {

struct PrecedingConfig {
  /// Grid resolution of the numeric path: the narrower of a pair's two
  /// offset densities is sampled at this many points, and the wider one
  /// at the same spacing (see stats::difference_density).
  std::size_t grid_points{1024};
  /// Convolution algorithm for the numeric path.
  stats::ConvolutionMethod method{stats::ConvolutionMethod::kFft};
  /// Force the numeric path even for Gaussian pairs (testing/ablation).
  bool force_numeric{false};
  /// Cache Δθ densities per ordered client pair.
  bool cache_difference_densities{true};
  /// Maximum number of cached Δθ densities (ordered pairs) kept at once;
  /// least-recently-used entries are evicted beyond it. 0 = unbounded
  /// (the seed behaviour). The lazily-filled critical-gap *scalars* are
  /// never evicted — only the O(grid_points) densities, which are the
  /// unbounded-memory risk for large non-Gaussian client sets (the
  /// worst case is n² densities of grid_points samples each). Only the
  /// slow per-query path and the lazy first-query gap fill insert; a
  /// prefilled prime leaves the cache empty.
  std::size_t difference_cache_capacity{0};
};

class PrecedingEngine {
 public:
  /// The registry must outlive the engine and already contain every client
  /// that will appear in queries.
  explicit PrecedingEngine(const ClientRegistry& registry,
                           PrecedingConfig config = {});

  /// P(T*_i < T*_j | T_i, T_j) in [0, 1].
  [[nodiscard]] double preceding_probability(const Message& i,
                                             const Message& j) const;

  /// T^F such that P(T* < T^F) = p_safe for message m (§3.5 safe
  /// emission): T^F = T_m + Q_{θ_m}(p_safe).
  [[nodiscard]] TimePoint safe_emission_time(const Message& m,
                                             double p_safe) const;

  /// Sequencer-clock instant before which no *future* message of `client`
  /// stamped after `high_water_stamp` can have been generated, with
  /// probability >= p_safe: hw + Q_θ(1 − p_safe). Used for the
  /// completeness gate (Q2).
  [[nodiscard]] TimePoint completeness_frontier(ClientId client,
                                                TimePoint high_water_stamp,
                                                double p_safe) const;

  /// Best estimate of a message's true time: T + E[θ]. Sorting by this is
  /// order-equivalent to the Gaussian tournament's unique topological
  /// order (Appendix A reduces the Gaussian relation to a comparison of
  /// corrected means).
  [[nodiscard]] TimePoint corrected_stamp(const Message& m) const;

  // ── Constant-time fast path (critical-gap reduction, see file header).
  // All fast_* accessors require a prior matching prime(); indices are the
  // registry's dense client indices (ClientRegistry::index_of).

  /// Builds (or refreshes) the flat constant tables for `threshold` /
  /// `p_safe`. Idempotent and cheap when already primed for the same
  /// parameters and registry generation. Logically const: the tables are
  /// memoized derived state, exactly like the Δθ density cache.
  ///
  /// With `prefill_pairs` every critical-gap slot is filled eagerly
  /// (numeric pairs pay their convolution + quantile here instead of on
  /// first query) and the per-row maxima are tightened to the exact
  /// values. Each numeric gap is read from a transient Δθ density, so the
  /// prefill leaves the density cache empty (cached_pairs() == 0) instead
  /// of pinning n² densities no fast_* query reads; the gaps are bitwise
  /// those the lazy fill stores. The prefill fans out: the calling thread
  /// and one helper per further CPU of its affinity mask take the n²
  /// cells one at a time (no helper when the mask holds one CPU or no
  /// slot is lazy, as in an all-Gaussian registry). Every helper is
  /// joined before prime() returns, on every path, so no thread outlives
  /// it; an exception thrown on a helper is rethrown on the calling
  /// thread. The fan-out needs every Distribution's const members to be
  /// safe to call concurrently (stats/distribution.hpp). After a
  /// prefilled prime the engine is IMMUTABLE under the whole fast_*
  /// surface — no lazy slot writes, no density-cache insertions — which
  /// is what lets N shard worker threads read one shared engine with no
  /// synchronization (see docs/architecture.md, "Threading model"). The
  /// default lazy fill remains for single-threaded use, where first-query
  /// filling spreads the O(n²) convolution cost over the warmup instead
  /// of the constructor.
  void prime(double threshold, double p_safe,
             bool prefill_pairs = false) const;

  /// True when the tables match (threshold, p_safe) and the registry has
  /// not announced since they were built.
  [[nodiscard]] bool fast_ready(double threshold, double p_safe) const;

  /// True when the current tables were built with `prefill_pairs` (every
  /// gap slot filled; fast_* queries mutate nothing).
  [[nodiscard]] bool fast_prefilled() const {
    return fast_.valid && fast_.prefilled;
  }

  /// True when prime() has run at all (any parameters). Lets sharing
  /// callers detect a parameter mismatch before thrashing the tables.
  [[nodiscard]] bool fast_primed() const { return fast_.valid; }

  /// Registry generation the current fast tables were built at (0 when
  /// never primed) — the epoch identity of a primed engine. Sessions
  /// pinned to a shared prefilled engine revalidate against this instead
  /// of the live registry generation, so a concurrent announce cannot
  /// perturb them until an explicit rebind installs a fresher engine.
  [[nodiscard]] std::uint64_t fast_generation() const {
    return fast_.generation;
  }

  /// True when prime() last ran with exactly these parameters (registry
  /// generation aside — a stale generation just means one cheap
  /// re-prime, not thrashing).
  [[nodiscard]] bool fast_params_match(double threshold,
                                       double p_safe) const {
    return fast_.valid && fast_.threshold == threshold &&
           fast_.p_safe == p_safe;
  }

  /// Corrected stamp in seconds for a message of dense-index client `ci`
  /// — identical arithmetic to corrected_stamp().
  [[nodiscard]] double fast_corrected(std::uint32_t ci, TimePoint stamp) const {
    return stamp.seconds() + fast_.mean[ci];
  }

  /// The per-client constants behind fast_corrected /
  /// fast_safe_emission_time, for callers (sessions) that cache them.
  [[nodiscard]] double fast_mean(std::uint32_t ci) const {
    return fast_.mean[ci];
  }
  [[nodiscard]] double fast_safe_offset(std::uint32_t ci) const {
    return fast_.safe_offset[ci];
  }

  /// safe_emission_time() as one addition.
  [[nodiscard]] TimePoint fast_safe_emission_time(std::uint32_t ci,
                                                  TimePoint stamp) const {
    return stamp + Duration(fast_.safe_offset[ci]);
  }

  /// completeness_frontier() as one addition.
  [[nodiscard]] TimePoint fast_completeness_frontier(
      std::uint32_t ci, TimePoint high_water_stamp) const {
    return high_water_stamp + Duration(fast_.frontier_offset[ci]);
  }

  /// g*_{ij}; lazily fills numeric-path entries (one convolution once).
  [[nodiscard]] double fast_critical_gap(std::uint32_t ci,
                                         std::uint32_t cj) const;

  /// `preceding_probability(a, b) > threshold` for corrected stamps
  /// (c_a from client index ci, c_b from client index cj).
  [[nodiscard]] bool fast_confidently_preceding(std::uint32_t ci,
                                                double corrected_a,
                                                std::uint32_t cj,
                                                double corrected_b) const {
    return corrected_b - corrected_a > fast_critical_gap(ci, cj);
  }

  /// Ḡ_i ≥ max_j g*_{ij}: if c_b − c_a > Ḡ_i then b is confidently after
  /// a regardless of b's client. Drives the windowed closure scans.
  [[nodiscard]] double fast_max_gap_from(std::uint32_t ci) const {
    return fast_.max_gap_from[ci];
  }

  /// max_i Ḡ_i — the widest possible uncertainty window anywhere.
  [[nodiscard]] double fast_global_max_gap() const {
    return fast_.global_max_gap;
  }

  /// Number of Δθ densities currently cached (numeric path telemetry).
  [[nodiscard]] std::size_t cached_pairs() const { return cache_.size(); }

  [[nodiscard]] const ClientRegistry& registry() const { return registry_; }
  [[nodiscard]] const PrecedingConfig& config() const { return config_; }

 private:
  [[nodiscard]] const stats::GridDensity& difference_density_for(
      ClientId from, ClientId to) const;
  /// g*_{ij} of a numeric pair; `cache_density` routes the Δθ density
  /// through the cache, otherwise it is built and dropped.
  [[nodiscard]] double numeric_critical_gap(std::uint32_t ci,
                                            std::uint32_t cj,
                                            bool cache_density) const;
  /// The slot of g*_{ij}, filled by numeric_critical_gap when still lazy.
  [[nodiscard]] double fill_critical_gap(std::uint32_t ci, std::uint32_t cj,
                                         bool cache_density) const;
  void build_fast_tables(double threshold, double p_safe) const;
  void prefill_critical_gaps() const;

  const ClientRegistry& registry_;
  PrecedingConfig config_;

  struct PairHash {
    std::size_t operator()(const std::pair<ClientId, ClientId>& p) const {
      // splitmix64-style mix of the two 32-bit ids packed into one word;
      // avoids the clustering a plain xor of std::hash values exhibits on
      // dense id ranges.
      std::uint64_t x = (static_cast<std::uint64_t>(p.first.value()) << 32) |
                        static_cast<std::uint64_t>(p.second.value());
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return static_cast<std::size_t>(x);
    }
  };
  using PairKey = std::pair<ClientId, ClientId>;
  struct CachedDensity {
    std::unique_ptr<stats::GridDensity> density;
    // Position in lru_; only maintained when the cache is bounded.
    std::list<PairKey>::iterator lru_position;
  };
  // Keyed (i, j) -> density of θ_j − θ_i. Mutable: a logically-const query
  // memoizes the expensive convolution. Cleared when the registry
  // generation moves on (a re-announce makes every cached density stale).
  // When config_.difference_cache_capacity > 0, lru_ orders the keys most-
  // recently-used first and the map is trimmed from the back on insert.
  mutable std::unordered_map<PairKey, CachedDensity, PairHash> cache_;
  mutable std::list<PairKey> lru_;
  mutable std::uint64_t cache_generation_{0};

  // Flat constant tables for the fast path (see file header). Mutable for
  // the same reason as cache_: memoized derived state behind const
  // queries.
  struct FastTables {
    bool valid{false};
    bool prefilled{false};
    double threshold{0.0};
    double p_safe{0.0};
    std::uint64_t generation{0};  // registry generation at build time
    std::size_t n{0};
    std::vector<double> mean;             // [n]   E[θ_c]
    std::vector<double> safe_offset;      // [n]   Q_c(p_safe)
    std::vector<double> frontier_offset;  // [n]   Q_c(1 − p_safe)
    std::vector<std::uint8_t> gaussian;   // [n]   closed form eligible
    std::vector<double> variance;         // [n]   Var[θ_c]
    std::vector<double> upper_width;      // [n]   eff-support hi − μ_c
    std::vector<double> lower_width;      // [n]   μ_c − eff-support lo
    std::vector<double> support_width;    // [n]   eff-support width
    std::vector<double> critical_gap;     // [n·n] g*_{ij}; NaN = lazy
    std::vector<double> max_gap_from;     // [n]   Ḡ_i ≥ max_j g*_{ij}
    double global_max_gap{0.0};
  };
  mutable FastTables fast_;
};

}  // namespace tommy::core
