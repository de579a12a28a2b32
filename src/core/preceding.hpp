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
//   * per pair:   g*_{ij} for every ordered pair — Gaussian pairs by the
//     closed form, numeric pairs by one convolution and one quantile each;
//   * per row i:  Ḡ_i = max_j g*_{ij}, and the global maximum max_i Ḡ_i.
//     The windowed closure scans stop once a corrected-stamp gap exceeds
//     them.
//
// The numeric cells are independent, so the calling thread shares them
// with one helper thread per further CPU of its affinity mask; the
// helpers are joined before prime() returns, and no thread outlives it.
//
// A re-prime derives: each g*_{ij} depends only on f_i, f_j, the grid
// settings and the threshold, so it copies the gap of every pair whose two
// distribution objects and threshold are unchanged and fills only the rows
// and columns of joined or re-announced clients. The copy is bitwise what
// a fresh prime computes. successor() starts a new engine from a copy of
// a live engine's tables, so an epoch swap pays O(changed · n)
// convolutions instead of n².
//
// After priming, `confidently_preceding` is a subtraction and a compare;
// the sequencer's corrected stamps, safe-emission times and completeness
// frontiers are one addition each. The slow per-query API below states
// the rule in probabilities: the tournament path weighs its edges with
// it, and the test oracle (tests/core/reference_sequencer.hpp) that the
// equivalence suites compare the fast path against uses it verbatim. It
// alone uses the Δθ density cache.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Cache Δθ densities per ordered client pair. Only the slow per-query
  /// path (preceding_probability) inserts; prime() reads each gap from a
  /// transient density and caches none.
  bool cache_difference_densities{true};
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
  /// `p_safe`, every critical gap filled and every row maximum exact.
  /// Idempotent and cheap when already primed for the same parameters and
  /// registry generation. Logically const: the tables are memoized derived
  /// state, exactly like the Δθ density cache.
  ///
  /// Each client's distribution is read from the registry once, and every
  /// gap is computed from those handles alone. A re-prime copies the gap
  /// of every pair whose two distributions and threshold are unchanged
  /// (see the file header). Each numeric gap is read from a transient Δθ
  /// density, so priming leaves the density cache empty. The numeric
  /// cells fan out: the calling thread and one helper per further CPU of
  /// its affinity mask take them one at a time (no helper when the mask
  /// holds one CPU or no cell is numeric). Every helper is joined before
  /// prime() returns, on every path, so no thread outlives it; an
  /// exception thrown on a helper is rethrown on the calling thread. The
  /// tables are built aside and published only on success, so a prime
  /// that throws leaves the previous tables in place. The fan-out needs
  /// every Distribution's const members to be safe to call concurrently
  /// (stats/distribution.hpp).
  ///
  /// Between primes the engine is immutable under the whole fast_*
  /// surface, which is what lets a service's shards and its
  /// reconfiguration primer thread read one shared engine with no
  /// synchronization (see docs/architecture.md, "Concurrency contract").
  ///
  /// The third argument has no effect: every prime fills every gap. It
  /// remains because the frozen livebench harness passes it.
  void prime(double threshold, double p_safe,
             bool prefill_pairs = false) const;

  /// A new engine over the same registry and configuration whose tables
  /// start as a copy of this one's (the Δθ cache starts empty), so its
  /// first prime() derives instead of rebuilding. Safe to call from
  /// another thread while this engine is not being primed.
  [[nodiscard]] std::shared_ptr<PrecedingEngine> successor() const;

  /// True when the tables match (threshold, p_safe) and the registry has
  /// not announced since they were built.
  [[nodiscard]] bool fast_ready(double threshold, double p_safe) const;

  /// Registry generation the current fast tables were built at (0 when
  /// never primed) — the epoch identity of a primed engine. Sessions
  /// revalidate against this, so an announce reaches a sequencer only
  /// once its engine has been re-primed or replaced.
  [[nodiscard]] std::uint64_t fast_generation() const {
    return fast_.generation;
  }

  /// True when prime() last ran with exactly these parameters (registry
  /// generation aside).
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

  /// g*_{ij}.
  [[nodiscard]] double fast_critical_gap(std::uint32_t ci,
                                         std::uint32_t cj) const {
    return fast_.critical_gap[ci * fast_.n + cj];
  }

  /// `preceding_probability(a, b) > threshold` for corrected stamps
  /// (c_a from client index ci, c_b from client index cj).
  [[nodiscard]] bool fast_confidently_preceding(std::uint32_t ci,
                                                double corrected_a,
                                                std::uint32_t cj,
                                                double corrected_b) const {
    return corrected_b - corrected_a > fast_critical_gap(ci, cj);
  }

  /// Ḡ_i = max_j g*_{ij}: if c_b − c_a > Ḡ_i then b is confidently after
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
  struct FastTables;

  [[nodiscard]] const stats::GridDensity& difference_density_for(
      ClientId from, ClientId to) const;
  /// The tables prime() publishes; copies the gaps `fast_` already holds
  /// for unchanged pairs.
  [[nodiscard]] FastTables build_fast_tables(double threshold,
                                             double p_safe) const;
  /// Fills g*_{ij} of the numeric `cells` (i·n + j) of `t`, fanned out.
  void fill_numeric_gaps(FastTables& t,
                         const std::vector<std::size_t>& cells) const;

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
  // Keyed (i, j) -> density of θ_j − θ_i. Mutable: a logically-const query
  // memoizes the expensive convolution. Cleared when the registry
  // generation moves on (a re-announce makes every cached density stale);
  // until then the map's nodes keep every returned reference valid.
  mutable std::unordered_map<PairKey, stats::GridDensity, PairHash> cache_;
  mutable std::uint64_t cache_generation_{0};

  // Flat constant tables for the fast path (see file header). Mutable for
  // the same reason as cache_: memoized derived state behind const
  // queries.
  struct FastTables {
    bool valid{false};
    double threshold{0.0};
    double p_safe{0.0};
    std::uint64_t generation{0};  // registry generation at build time
    std::size_t n{0};
    // [n] the distribution each client's row and column were built from
    std::vector<ClientRegistry::SharedDistribution> distribution;
    std::vector<double> mean;             // [n]   E[θ_c]
    std::vector<double> safe_offset;      // [n]   Q_c(p_safe)
    std::vector<double> frontier_offset;  // [n]   Q_c(1 − p_safe)
    std::vector<std::uint8_t> gaussian;   // [n]   closed form eligible
    std::vector<double> variance;         // [n]   Var[θ_c]
    std::vector<double> critical_gap;     // [n·n] g*_{ij}
    std::vector<double> max_gap_from;     // [n]   Ḡ_i = max_j g*_{ij}
    double global_max_gap{0.0};
  };
  mutable FastTables fast_;
};

}  // namespace tommy::core
