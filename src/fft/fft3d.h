// Three-dimensional complex FFT over a periodic box, built from the 1D
// Stockham kernel (fft/fft.h). This is the transform that moves
// wavefunctions and densities between real space and reciprocal (q)
// space, and the kernel behind GENPOT's global Poisson solve.
//
// Data layout: row-major with z fastest, i.e. index(ix,iy,iz) =
// (ix*n2 + iy)*n3 + iz, matching Grid3D.
//
// Axis passes, all in place and without gather buffers:
//   z: n1*n2 contiguous rows, one line each;
//   y: per x-slab, one multi-line pass over n3 interleaved lines
//      (element iy of line iz at slab[iy*n3 + iz]);
//   x: one multi-line pass over all n2*n3 interleaved lines (element ix
//      of line l at data[ix*n2*n3 + l]).
// The multi-line layout is the 1D kernel's "vector rank": its innermost
// loops run over lines, contiguous in memory.
//
// Axis order: forward transforms apply z, then y, then x; the inverse
// applies x, then y, then z. Per-axis line transforms commute exactly in
// real arithmetic but not in floating point, so the order is part of the
// bit-level contract. The other half of the contract is the 1D kernel's:
// a line gets the same arithmetic alone as inside a multi-line pass. The
// slab-distributed DistFft3D (fft/dist_fft3d.h) relies on both to
// reproduce this dense transform bit for bit: it runs z and y locally per
// x-slab and the x axis one pencil row at a time across the single
// pencil transpose, in both directions.
//
// Like the 1D planner, the 3D transform is templated over the real type:
// BasicFft3D<double> (alias Fft3D) is the bit-exact engine path,
// BasicFft3D<float> (alias Fft3DF) the single-precision plan behind the
// mixed-precision Davidson fast path. Both share the axis-order contract.
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

  // Many-transform sweep over a contiguous stack of `count` grids of this
  // shape (stack[g * size() .. (g+1) * size())). Transforms are
  // independent, so the sweep fans out over min(n_workers, count) lanes
  // of the shared pool. Each lane runs this plan with its own
  // thread-local pass scratch, so each grid's arithmetic is exactly what
  // a serial forward()/inverse() call would produce — results are
  // bit-identical for any n_workers. This is the transform shape the
  // batched fragment solver feeds: one sweep serves every band of every
  // fragment in a batch.
  void forward_many(Cplx* stack, int count, int n_workers = 1) const;
  void inverse_many(Cplx* stack, int count, int n_workers = 1) const;

 private:
  void transform(Cplx* data, bool inv) const;
  void transform_x(Cplx* data, bool inv) const;
  void transform_y(Cplx* data, bool inv) const;
  void transform_z(Cplx* data, bool inv) const;

  Vec3i shape_;
  BasicFft1D<Real> fx_, fy_, fz_;
};

using Fft3D = BasicFft3D<double>;
using Fft3DF = BasicFft3D<float>;

}  // namespace ls3df
