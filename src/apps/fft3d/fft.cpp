#include "apps/fft3d/fft.h"

#include <cmath>

#include "common/check.h"

namespace now::apps::fft3d {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::uint64_t fft_1d(Complex* data, std::size_t n, std::size_t stride, bool inverse) {
  NOW_CHECK(is_pow2(n)) << "fft size must be a power of two";
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i * stride], data[j * stride]);
  }
  // Butterfly stages.
  const double sign = inverse ? 1.0 : -1.0;
  std::uint64_t butterflies = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    butterflies += n / 2;
    const double angle = sign * 2.0 * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        Complex& a = data[(i + k) * stride];
        Complex& b = data[(i + k + len / 2) * stride];
        const Complex t = b * w;
        b = a - t;
        a += t;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i * stride] *= inv;
  }
  return butterflies;
}

std::uint64_t fft_plane(Complex* plane, std::size_t nx, std::size_t ny, bool inverse) {
  std::uint64_t butterflies = 0;
  for (std::size_t y = 0; y < ny; ++y) butterflies += fft_1d(plane + y * nx, nx, 1, inverse);
  for (std::size_t x = 0; x < nx; ++x) butterflies += fft_1d(plane + x, ny, nx, inverse);
  return butterflies;
}

}  // namespace now::apps::fft3d
