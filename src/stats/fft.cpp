#include "stats/fft.hpp"

#include <cmath>
#include <numbers>

#include "common/check.hpp"

namespace tommy::stats {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft_radix2(std::vector<std::complex<double>>& a, bool inverse) {
  const std::size_t n = a.size();
  TOMMY_EXPECTS(is_pow2(n));

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  // Butterfly passes over the interleaved (re, im) doubles of the array
  // ([complex.numbers] sanctions the cast). Every product and sum is the
  // one std::complex evaluates, in its order, so the output is bitwise
  // that of the textbook complex-typed loop (see fft.hpp).
  double* d = reinterpret_cast<double*>(a.data());
  // One stage's twiddle row w_k = wlen^k, interleaved like `d`.
  std::vector<double> twiddle(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const double wlen_re = std::cos(angle);
    const double wlen_im = std::sin(angle);
    // w ← w·wlen from w = 1, each step a complex product in std::complex's
    // order; every block of the stage reads the same row.
    double w_re = 1.0;
    double w_im = 0.0;
    for (std::size_t k = 0; k < half; ++k) {
      twiddle[2 * k] = w_re;
      twiddle[2 * k + 1] = w_im;
      const double next_re = w_re * wlen_re - w_im * wlen_im;
      const double next_im = w_re * wlen_im + w_im * wlen_re;
      w_re = next_re;
      w_im = next_im;
    }
    for (std::size_t i = 0; i < n; i += len) {
      double* lo = d + 2 * i;
      double* hi = d + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = twiddle[2 * k];
        const double wi = twiddle[2 * k + 1];
        const double ar = hi[2 * k];
        const double ai = hi[2 * k + 1];
        // v = a[i + k + half] · w
        const double vr = ar * wr - ai * wi;
        const double vi = ar * wi + ai * wr;
        const double ur = lo[2 * k];
        const double ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv_n;
  }
}

}  // namespace

void fft_forward(std::vector<std::complex<double>>& data) {
  fft_radix2(data, /*inverse=*/false);
}

void fft_inverse(std::vector<std::complex<double>>& data) {
  fft_radix2(data, /*inverse=*/true);
}

std::size_t next_pow2(std::size_t n) {
  TOMMY_EXPECTS(n >= 1);
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<double> fft_convolve_real(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  TOMMY_EXPECTS(!a.empty() && !b.empty());
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out_len);

  std::vector<std::complex<double>> fa(n), fb(n);
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];

  fft_forward(fa);
  fft_forward(fb);
  // Spectrum product fa·fb over the interleaved doubles, in std::complex's
  // order (see fft_radix2).
  double* pa = reinterpret_cast<double*>(fa.data());
  const double* pb = reinterpret_cast<const double*>(fb.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = pa[2 * i];
    const double ai = pa[2 * i + 1];
    const double br = pb[2 * i];
    const double bi = pb[2 * i + 1];
    pa[2 * i] = ar * br - ai * bi;
    pa[2 * i + 1] = ar * bi + ai * br;
  }
  fft_inverse(fa);

  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = fa[i].real();
  return out;
}

std::vector<double> direct_convolve_real(const std::vector<double>& a,
                                         const std::vector<double>& b) {
  TOMMY_EXPECTS(!a.empty() && !b.empty());
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

}  // namespace tommy::stats
