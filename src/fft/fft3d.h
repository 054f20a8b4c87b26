// Three-dimensional complex FFT over a periodic box, built from the 1D
// Stockham kernel (fft/fft.h). This is the transform that moves
// wavefunctions and densities between real space and reciprocal (q)
// space, and the kernel behind GENPOT's global Poisson solve.
//
// Data layout: row-major with z fastest, i.e. index(ix,iy,iz) =
// (ix*n2 + iy)*n3 + iz, matching Grid3D.
//
// Axis passes, all in place and without gather buffers:
//   z: contiguous rows, one line each;
//   y: per x-slab, one multi-line pass over n3 interleaved lines
//      (element iy of line iz at slab[iy*n3 + iz]);
//   x: one multi-line pass over all n2*n3 interleaved lines (element ix
//      of line l at data[ix*n2*n3 + l]).
// The multi-line layout is the 1D kernel's "vector rank": its innermost
// loops run over lines, contiguous in memory.
//
// Two transform families share these passes.
//
// Dense (forward/inverse): every row and slab.
// Forward applies z, then y, then x; the inverse applies x, then y, then
// z. Per-axis line transforms commute exactly in real arithmetic but not
// in floating point, so the order is part of the bit-level contract. The
// other half of the contract is the 1D kernel's: a line gets the same
// arithmetic alone as inside a multi-line pass. The slab-distributed
// DistFft3D (fft/dist_fft3d.h) relies on both to reproduce this dense
// transform bit for bit: it runs z and y locally per x-slab and the x
// axis one pencil row at a time across the single pencil transpose, in
// both directions. GENPOT, Poisson, mixing and the pseudopotential setup
// run on the dense transform.
//
// Sphere (inverse_sphere/forward_sphere): wavefunction data, whose
// q-space support is the plane-wave G sphere (grid/gvectors.h). The
// axis order is mirrored so that the axis of single-line calls is pruned
// hardest. inverse_sphere applies z on the listed rows only, then y on
// the listed x-slabs only, then x in full; every value off the sphere
// must be zero on entry. forward_sphere is the mirror: x in full, y on
// the listed slabs, z on the listed rows; on exit only the listed rows
// hold the transform, every other value is unspecified. On the 16x8x8
// fragment grids of the H2-chain benchmark the sphere touches 11 of 128
// z rows and 5 of 16 x-slabs. Because the order differs, the sphere
// transforms match the dense transform only to rounding, not bit for
// bit; every wavefunction path calls them, so they match themselves bit
// for bit.
//
// Like the 1D planner, the 3D transform is templated over the real type:
// BasicFft3D<double> (alias Fft3D) is the bit-exact engine path,
// BasicFft3D<float> (alias Fft3DF) the single-precision plan behind the
// mixed-precision Davidson fast path. Both share the axis-order contracts.
//
// Thread safety: a plan holds only its 1D tables and the pass scratch is
// thread-local (fft/fft.h), so transforms allocate nothing after a
// thread's first call and one instance may be used from several threads.
#pragma once

#include <memory>
#include <vector>

#include "common/vec3.h"
#include "fft/fft.h"

namespace ls3df {

// The lines of a grid that a G sphere touches. `rows` holds ix*n2 + iy
// for every z row with a sphere point, `slabs` every x-slab ix with one,
// both ascending. GVectors builds this once per basis (sphere()).
struct SphereLines {
  std::vector<int> rows;
  std::vector<int> slabs;
};

template <typename Real>
class BasicFft3D {
 public:
  using Cplx = std::complex<Real>;

  explicit BasicFft3D(Vec3i shape);

  const Vec3i& shape() const { return shape_; }
  std::size_t size() const {
    return static_cast<std::size_t>(shape_.x) * shape_.y * shape_.z;
  }

  // In-place transforms. Forward: no scaling; inverse: scales by 1/(n1*n2*n3).
  void forward(Cplx* data) const { transform(data, false); }
  void inverse(Cplx* data) const { transform(data, true); }
  void forward(std::vector<Cplx>& v) const { forward(v.data()); }
  void inverse(std::vector<Cplx>& v) const { inverse(v.data()); }

  // In-place sphere transforms (mirrored axis order, see the header
  // block). inverse_sphere needs zeros off the sphere on entry and scales
  // by 1/(n1*n2*n3) like inverse(); forward_sphere leaves values off the
  // listed rows unspecified.
  void inverse_sphere(Cplx* data, const SphereLines& sphere) const;
  void forward_sphere(Cplx* data, const SphereLines& sphere) const;

 private:
  void transform(Cplx* data, bool inv) const;
  void transform_x(Cplx* data, bool inv) const;
  void transform_y_slab(Cplx* data, int ix, bool inv) const;
  void transform_z_row(Cplx* data, int row, bool inv) const;

  Vec3i shape_;
  BasicFft1D<Real> fx_, fy_, fz_;
};

using Fft3D = BasicFft3D<double>;
using Fft3DF = BasicFft3D<float>;

}  // namespace ls3df
