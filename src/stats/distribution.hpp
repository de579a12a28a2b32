// Abstract interface for one-dimensional continuous probability
// distributions. Tommy models each client's clock offset θ as a
// distribution; everything the sequencer does (preceding probabilities,
// safe-emission quantiles, convolutions) goes through this interface.
//
// Thread safety: every const member must be safe to call from several
// threads at once on one object. A PrecedingEngine prime reads each
// client's distribution from several threads while it builds the
// Δθ densities, and live engines share the registry's objects. Every
// subclass in this library holds only values set at construction (no
// mutable members, no memoized state); a subclass that caches must
// synchronize the cache itself.
#pragma once

#include <limits>
#include <memory>
#include <string>

#include "common/rng.hpp"

namespace tommy::stats {

/// Closed support interval of a density; endpoints may be ±infinity.
struct Support {
  double lo{-std::numeric_limits<double>::infinity()};
  double hi{std::numeric_limits<double>::infinity()};

  [[nodiscard]] bool is_bounded() const;
  [[nodiscard]] double width() const { return hi - lo; }
};

class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Probability density at x. Non-negative; integrates to 1 over support.
  [[nodiscard]] virtual double pdf(double x) const = 0;

  /// Cumulative distribution P(X <= x). Monotone non-decreasing in x.
  [[nodiscard]] virtual double cdf(double x) const = 0;

  /// Inverse CDF for p in (0, 1). The default implementation brackets the
  /// root around mean() ± k·stddev() and bisects the CDF — exactly the
  /// "binary search on future timestamps" the paper proposes for computing
  /// safe emission times. Closed-form subclasses override this.
  [[nodiscard]] virtual double quantile(double p) const;

  /// First moment. Must be finite for all distributions in this library.
  [[nodiscard]] virtual double mean() const = 0;

  /// Second central moment.
  [[nodiscard]] virtual double variance() const = 0;

  [[nodiscard]] double stddev() const;

  /// Draws one variate. Default: inverse-transform sampling via quantile().
  [[nodiscard]] virtual double sample(Rng& rng) const;

  /// Support of the density (used to choose discretization grids).
  [[nodiscard]] virtual Support support() const = 0;

  /// A finite interval [q(eps), q(1-eps)] that carries all but `2*eps` of
  /// the mass; bounded supports are returned exactly.
  [[nodiscard]] Support effective_support(double eps = 1e-9) const;

  /// Deep copy preserving the dynamic type.
  [[nodiscard]] virtual std::unique_ptr<Distribution> clone() const = 0;

  /// Human-readable one-line description, e.g. "Gaussian(mu=2, sigma=5)".
  [[nodiscard]] virtual std::string describe() const = 0;

  /// True iff this is exactly Gaussian — lets the preceding-probability
  /// engine pick the closed form over the numeric path.
  [[nodiscard]] virtual bool is_gaussian() const { return false; }
};

using DistributionPtr = std::unique_ptr<Distribution>;

}  // namespace tommy::stats
