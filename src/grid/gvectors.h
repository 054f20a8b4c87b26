// Plane-wave basis: the set of reciprocal-lattice vectors G with kinetic
// energy |G|^2/2 below the cutoff, plus the gather/scatter maps between the
// compact coefficient vector (length n_G) and the full FFT grid. This is
// the q-space representation the paper's PEtot_F solver works in. The
// basis also lists the FFT lines its sphere touches, which is what the
// wavefunction transforms (BasicFft3D::inverse_sphere/forward_sphere)
// run over.
#pragma once

#include <complex>
#include <vector>

#include "common/vec3.h"
#include "fft/fft3d.h"
#include "grid/field3d.h"
#include "grid/lattice.h"

namespace ls3df {

class GVectors {
 public:
  // ecut is in Hartree (callers typically convert from Rydberg). The
  // wavefunction basis keeps |G|^2/2 <= ecut; the density/potential grid
  // must be large enough to hold products (the usual factor-2 rule is the
  // caller's responsibility via the grid shape).
  GVectors(const Lattice& lattice, Vec3i grid_shape, double ecut_hartree);

  int count() const { return static_cast<int>(fft_index_.size()); }
  const Lattice& lattice() const { return lattice_; }
  Vec3i grid_shape() const { return grid_shape_; }
  double ecut() const { return ecut_; }

  // Cartesian G vector and |G|^2 of basis element g.
  const Vec3d& g(int i) const { return g_[i]; }
  double g2(int i) const { return g2_[i]; }
  // Linear index into the FFT grid for basis element g.
  std::size_t fft_index(int i) const { return fft_index_[i]; }
  // Integer Miller triplet (signed frequencies) of basis element g.
  const Vec3i& miller(int i) const { return miller_[i]; }

  // The z rows and x-slabs of the FFT grid that hold a basis element.
  const SphereLines& sphere() const { return sphere_; }

  // Index of the G = 0 element (always present).
  int g0_index() const { return g0_; }

  // Scatter compact coefficients onto a zeroed FFT grid.
  void scatter(const std::complex<double>* coeff, FieldC& grid) const;
  // Gather FFT-grid values into compact coefficients.
  void gather(const FieldC& grid, std::complex<double>* coeff) const;

  // Raw-pointer variants over a caller-owned grid of grid_shape() extent
  // (used by the batched Hamiltonian path, whose grids live in a
  // contiguous many-transform stack rather than in Field3D objects).
  void scatter(const std::complex<double>* coeff,
               std::complex<double>* grid) const;
  void gather(const std::complex<double>* grid,
              std::complex<double>* coeff) const;

  // Single-precision twins over the same index table (the fp32 grid
  // stacks of the mixed-precision Hamiltonian apply).
  void scatter(const std::complex<float>* coeff,
               std::complex<float>* grid) const;
  void gather(const std::complex<float>* grid,
              std::complex<float>* coeff) const;

  // Signed FFT frequency for index i on an axis of n points.
  static int freq(int i, int n) { return i <= n / 2 ? i : i - n; }

 private:
  Lattice lattice_;
  Vec3i grid_shape_;
  double ecut_;
  int g0_ = -1;
  std::vector<Vec3d> g_;
  std::vector<double> g2_;
  std::vector<std::size_t> fft_index_;
  std::vector<Vec3i> miller_;
  SphereLines sphere_;
};

}  // namespace ls3df
