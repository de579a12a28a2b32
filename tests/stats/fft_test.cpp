#include "stats/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <utility>

#include "common/rng.hpp"

namespace tommy::stats {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  fft_forward(data);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<std::complex<double>> data(n);
  const int tone = 5;
  for (std::size_t k = 0; k < n; ++k) {
    data[k] = std::cos(2.0 * std::numbers::pi * tone * static_cast<double>(k) /
                       static_cast<double>(n));
  }
  fft_forward(data);
  for (std::size_t k = 0; k < n; ++k) {
    const double mag = std::abs(data[k]);
    if (k == tone || k == n - tone) {
      EXPECT_NEAR(mag, n / 2.0, 1e-9) << "bin " << k;
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9) << "bin " << k;
    }
  }
}

TEST(Fft, InverseRoundTrips) {
  Rng rng(3);
  std::vector<std::complex<double>> data(256);
  for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto original = data;
  fft_forward(data);
  fft_inverse(data);
  for (std::size_t k = 0; k < data.size(); ++k) {
    EXPECT_NEAR(data[k].real(), original[k].real(), 1e-10);
    EXPECT_NEAR(data[k].imag(), original[k].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(17);
  std::vector<std::complex<double>> data(128);
  double time_energy = 0.0;
  for (auto& v : data) {
    v = {rng.normal(), rng.normal()};
    time_energy += std::norm(v);
  }
  fft_forward(data);
  double freq_energy = 0.0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(data.size()), time_energy,
              1e-8 * time_energy);
}

TEST(Convolve, KnownSmallCase) {
  // [1,2,3] * [4,5] = [4, 13, 22, 15]
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{4, 5};
  const auto direct = direct_convolve_real(a, b);
  ASSERT_EQ(direct.size(), 4u);
  EXPECT_NEAR(direct[0], 4, 1e-12);
  EXPECT_NEAR(direct[1], 13, 1e-12);
  EXPECT_NEAR(direct[2], 22, 1e-12);
  EXPECT_NEAR(direct[3], 15, 1e-12);
}

TEST(Convolve, FftMatchesDirectOnRandomInputs) {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const auto na = static_cast<std::size_t>(rng.uniform_int(1, 200));
    const auto nb = static_cast<std::size_t>(rng.uniform_int(1, 200));
    std::vector<double> a(na), b(nb);
    for (auto& x : a) x = rng.uniform(-2, 2);
    for (auto& x : b) x = rng.uniform(-2, 2);
    const auto d = direct_convolve_real(a, b);
    const auto f = fft_convolve_real(a, b);
    ASSERT_EQ(d.size(), f.size());
    for (std::size_t k = 0; k < d.size(); ++k) {
      EXPECT_NEAR(d[k], f[k], 1e-9) << "trial " << trial << " k " << k;
    }
  }
}

TEST(Convolve, CommutativeViaFft) {
  const std::vector<double> a{0.5, 1.5, 0.25};
  const std::vector<double> b{2.0, 0.0, 1.0, 3.0};
  const auto ab = fft_convolve_real(a, b);
  const auto ba = fft_convolve_real(b, a);
  ASSERT_EQ(ab.size(), ba.size());
  for (std::size_t k = 0; k < ab.size(); ++k) EXPECT_NEAR(ab[k], ba[k], 1e-10);
}

// ── Bitwise contract (fft.hpp) ─────────────────────────────────────────

// The textbook radix-2 over std::complex, advancing the twiddle w *= wlen
// inside every block. The library's kernel must reproduce it bit for bit.
void reference_fft(std::vector<std::complex<double>>& a, bool inverse) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv_n;
  }
}

std::vector<double> reference_convolve(const std::vector<double>& a,
                                       const std::vector<double>& b) {
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out_len);
  std::vector<std::complex<double>> fa(n), fb(n);
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  reference_fft(fa, /*inverse=*/false);
  reference_fft(fb, /*inverse=*/false);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  reference_fft(fa, /*inverse=*/true);
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = fa[i].real();
  return out;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

TEST(FftBitwise, ForwardAndInverseMatchTheComplexReference) {
  Rng rng(41);
  for (std::size_t n = 1; n <= 16384; n <<= 1) {
    std::vector<std::complex<double>> data(n);
    for (auto& v : data) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

    auto forward = data;
    auto forward_ref = data;
    fft_forward(forward);
    reference_fft(forward_ref, /*inverse=*/false);
    EXPECT_TRUE(bitwise_equal(forward, forward_ref)) << "forward n=" << n;

    auto inverse = data;
    auto inverse_ref = data;
    fft_inverse(inverse);
    reference_fft(inverse_ref, /*inverse=*/true);
    EXPECT_TRUE(bitwise_equal(inverse, inverse_ref)) << "inverse n=" << n;
  }
}

TEST(FftBitwise, ConvolutionMatchesTheComplexReferenceAtEveryBoundary) {
  // Output lengths p − 1, p and p + 1 around every power of two p: the
  // transform size steps from p to 2p between the last two.
  Rng rng(43);
  for (std::size_t p = 1; p <= 16384; p <<= 1) {
    for (const std::size_t out_len : {p - 1, p, p + 1}) {
      if (out_len == 0) continue;
      // Split out_len + 1 samples into two non-empty inputs.
      const auto na = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(out_len)));
      std::vector<double> a(na), b(out_len + 1 - na);
      for (auto& x : a) x = rng.uniform(-1, 1);
      for (auto& x : b) x = rng.uniform(0, 2);
      EXPECT_TRUE(bitwise_equal(fft_convolve_real(a, b),
                                reference_convolve(a, b)))
          << "out_len=" << out_len << " na=" << a.size()
          << " nb=" << b.size();
    }
  }
}

TEST(FftDeathTest, RequiresPowerOfTwo) {
  std::vector<std::complex<double>> data(3);
  EXPECT_DEATH(fft_forward(data), "precondition");
}

}  // namespace
}  // namespace tommy::stats
