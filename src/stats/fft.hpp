// Iterative radix-2 FFT. Self-contained (no external dependency) and used
// by the convolution engine to realize the paper's §3.3 optimization:
// "convolution in the time domain is multiplication in the frequency
// domain", turning the O(n²) pairwise-density convolution into O(n log n).
//
// Bitwise contract: on finite inputs, fft_forward, fft_inverse and
// fft_convolve_real return exactly the bits of the textbook radix-2 over
// std::complex<double> — bit-reversal, then per stage the twiddle
// w_0 = 1, w_{k+1} = w_k·wlen and the butterflies u ± a·w — with every
// complex product evaluated as re = ar·br − ai·bi, im = ar·bi + ai·br,
// and the product of spectra likewise. The kernel runs that arithmetic
// over the array's interleaved doubles. The contract assumes the build
// does not contract a·b ± c·d into fused multiply-adds (this tree sets no
// FMA target flag); tests/stats/fft_test.cpp pins it against the
// complex-typed loop.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace tommy::stats {

/// In-place forward FFT. `data.size()` must be a power of two.
void fft_forward(std::vector<std::complex<double>>& data);

/// In-place inverse FFT (includes the 1/n normalization).
void fft_inverse(std::vector<std::complex<double>>& data);

/// Smallest power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// Linear convolution of two real sequences via zero-padded FFT; result
/// length is a.size() + b.size() - 1.
[[nodiscard]] std::vector<double> fft_convolve_real(
    const std::vector<double>& a, const std::vector<double>& b);

/// Reference O(n·m) direct linear convolution (same semantics); used as a
/// correctness oracle and as the quadratic baseline in bench_convolution.
[[nodiscard]] std::vector<double> direct_convolve_real(
    const std::vector<double>& a, const std::vector<double>& b);

}  // namespace tommy::stats
