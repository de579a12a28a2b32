// Density convolution and the Δθ (clock-offset difference) distribution.
//
// §3.3 of the paper: the density of Δθ = θ_j − θ_i is the convolution
// f_Δθ(Δ) = ∫ f_{θj}(ξ) f_{θi}(ξ − Δ) dξ, i.e. the convolution of f_{θj}
// with the reflection of f_{θi}. The sequencer computes this once per
// client pair and then answers preceding-probability queries as tail
// integrals of f_Δθ.
#pragma once

#include <cstddef>

#include "stats/grid_density.hpp"

namespace tommy::stats {

enum class ConvolutionMethod {
  kDirect,  // O(n·m) sliding sum — reference / baseline
  kFft,     // O(n log n) zero-padded FFT — the paper's optimization
};

/// Convolves two grid densities (sum of independent variables X + Y).
/// The inputs' grid spacings must match to ~1e-9 relative tolerance.
[[nodiscard]] GridDensity convolve(const GridDensity& x, const GridDensity& y,
                                   ConvolutionMethod method =
                                       ConvolutionMethod::kFft);

/// Density of Δθ = θ_j − θ_i given the two offset densities on grids with
/// equal spacing: convolve(f_j, reflect(f_i)).
[[nodiscard]] GridDensity difference_density(const GridDensity& theta_j,
                                             const GridDensity& theta_i,
                                             ConvolutionMethod method =
                                                 ConvolutionMethod::kFft);

/// Discretizes two arbitrary distributions onto compatible grids (equal
/// spacing chosen from the narrower effective support) and returns the Δθ
/// density for (θ_j − θ_i). `points_hint` is the narrower input's grid
/// size; the wider input's grid keeps the same spacing, so its size grows
/// with the ratio of the two widths (and the transform with it).
[[nodiscard]] GridDensity difference_density(const Distribution& theta_j,
                                             const Distribution& theta_i,
                                             std::size_t points_hint = 1024,
                                             ConvolutionMethod method =
                                                 ConvolutionMethod::kFft);

}  // namespace tommy::stats
