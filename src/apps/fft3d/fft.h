// Radix-2 complex FFT kernels shared by every 3D-FFT version.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

namespace now::apps::fft3d {

using Complex = std::complex<double>;

// In-place radix-2 Cooley-Tukey over n elements at the given stride.
// n must be a power of two.  `inverse` applies the conjugate transform and
// scales by 1/n (so forward followed by inverse is the identity).  Returns
// the butterflies performed, (n/2) log2 n.
std::uint64_t fft_1d(Complex* data, std::size_t n, std::size_t stride, bool inverse);

// 2D FFT of one z-plane of an (nx, ny) row-major-x grid; returns its
// butterflies.
std::uint64_t fft_plane(Complex* plane, std::size_t nx, std::size_t ny, bool inverse);

bool is_pow2(std::size_t n);

}  // namespace now::apps::fft3d
