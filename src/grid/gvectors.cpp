#include "grid/gvectors.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ls3df {

GVectors::GVectors(const Lattice& lattice, Vec3i grid_shape,
                   double ecut_hartree)
    : lattice_(lattice), grid_shape_(grid_shape), ecut_(ecut_hartree) {
  const Vec3d b = lattice.reciprocal();
  const int n1 = grid_shape.x, n2 = grid_shape.y, n3 = grid_shape.z;
  for (int i1 = 0; i1 < n1; ++i1) {
    const int h = freq(i1, n1);
    for (int i2 = 0; i2 < n2; ++i2) {
      const int k = freq(i2, n2);
      for (int i3 = 0; i3 < n3; ++i3) {
        const int l = freq(i3, n3);
        const Vec3d G{h * b.x, k * b.y, l * b.z};
        const double g2 = G.norm2();
        if (0.5 * g2 <= ecut_hartree) {
          if (h == 0 && k == 0 && l == 0)
            g0_ = static_cast<int>(g_.size());
          g_.push_back(G);
          g2_.push_back(g2);
          miller_.push_back({h, k, l});
          fft_index_.push_back(
              (static_cast<std::size_t>(i1) * n2 + i2) * n3 + i3);
        }
      }
    }
  }
  assert(g0_ >= 0);
  // fft_index_ ascends, so rows and slabs come out ascending and each
  // is recorded on its first point.
  for (std::size_t idx : fft_index_) {
    const int row = static_cast<int>(idx / n3);
    const int slab = row / n2;
    if (sphere_.rows.empty() || sphere_.rows.back() != row)
      sphere_.rows.push_back(row);
    if (sphere_.slabs.empty() || sphere_.slabs.back() != slab)
      sphere_.slabs.push_back(slab);
  }
}

void GVectors::scatter(const std::complex<double>* coeff, FieldC& grid) const {
  assert(grid.shape() == grid_shape_);
  scatter(coeff, grid.data());
}

void GVectors::gather(const FieldC& grid, std::complex<double>* coeff) const {
  assert(grid.shape() == grid_shape_);
  gather(grid.data(), coeff);
}

template <typename Real>
void GVectors::scatter(const std::complex<Real>* coeff,
                       std::complex<Real>* grid) const {
  const std::size_t n = static_cast<std::size_t>(grid_shape_.x) *
                        grid_shape_.y * grid_shape_.z;
  std::fill(grid, grid + n, std::complex<Real>(0, 0));
  for (std::size_t i = 0; i < fft_index_.size(); ++i)
    grid[fft_index_[i]] = coeff[i];
}

template <typename Real>
void GVectors::gather(const std::complex<Real>* grid,
                      std::complex<Real>* coeff) const {
  for (std::size_t i = 0; i < fft_index_.size(); ++i)
    coeff[i] = grid[fft_index_[i]];
}

template void GVectors::scatter<double>(const std::complex<double>*,
                                        std::complex<double>*) const;
template void GVectors::scatter<float>(const std::complex<float>*,
                                       std::complex<float>*) const;
template void GVectors::gather<double>(const std::complex<double>*,
                                       std::complex<double>*) const;
template void GVectors::gather<float>(const std::complex<float>*,
                                      std::complex<float>*) const;

}  // namespace ls3df
