#include "fft/fft3d.h"

#include <cassert>

#include "parallel/thread_pool.h"

namespace ls3df {

template <typename Real>
BasicFft3D<Real>::BasicFft3D(Vec3i shape)
    : shape_(shape), fx_(shape.x), fy_(shape.y), fz_(shape.z) {
  assert(shape.x >= 1 && shape.y >= 1 && shape.z >= 1);
}

template <typename Real>
void BasicFft3D<Real>::transform_z(Cplx* data, bool inv) const {
  const int n1 = shape_.x, n2 = shape_.y, n3 = shape_.z;
  // Axis z: contiguous rows, one line each.
  for (int ix = 0; ix < n1; ++ix)
    for (int iy = 0; iy < n2; ++iy) {
      Cplx* row = data + (static_cast<std::size_t>(ix) * n2 + iy) * n3;
      if (inv)
        fz_.inverse(row);
      else
        fz_.forward(row);
    }
}

template <typename Real>
void BasicFft3D<Real>::transform_y(Cplx* data, bool inv) const {
  const int n1 = shape_.x, n2 = shape_.y, n3 = shape_.z;
  // Axis y: each x-slab holds n3 interleaved lines (element iy of line
  // iz at iy * n3 + iz).
  for (int ix = 0; ix < n1; ++ix) {
    Cplx* slab = data + static_cast<std::size_t>(ix) * n2 * n3;
    if (inv)
      fy_.inverse_lines(slab, n3);
    else
      fy_.forward_lines(slab, n3);
  }
}

template <typename Real>
void BasicFft3D<Real>::transform_x(Cplx* data, bool inv) const {
  // Axis x: the whole grid is n2 * n3 interleaved lines.
  const int lines = shape_.y * shape_.z;
  if (inv)
    fx_.inverse_lines(data, lines);
  else
    fx_.forward_lines(data, lines);
}

template <typename Real>
void BasicFft3D<Real>::transform(Cplx* data, bool inv) const {
  // Forward applies z, y, x; inverse undoes them in reverse (x, y, z).
  // The mirrored order is what lets the slab-distributed transform
  // (fft/dist_fft3d.h) stay bit-identical to this dense path with a
  // single pencil transpose per direction: the x axis — the one that
  // crosses shard boundaries — always sits on the transposed side.
  if (inv) {
    transform_x(data, true);
    transform_y(data, true);
    transform_z(data, true);
  } else {
    transform_z(data, false);
    transform_y(data, false);
    transform_x(data, false);
  }
}

namespace {

template <typename Real>
void transform_many(const BasicFft3D<Real>& self, std::complex<Real>* stack,
                    int count, bool inv, int n_workers) {
  if (count <= 0) return;
  const std::size_t stride = self.size();
  // The plan holds no mutable state (pass scratch is thread-local,
  // fft/fft.h), so every lane transforms through it directly.
  parallel_for(count, n_workers, [&](int g, int) {
    std::complex<Real>* grid = stack + static_cast<std::size_t>(g) * stride;
    if (inv)
      self.inverse(grid);
    else
      self.forward(grid);
  });
}

}  // namespace

template <typename Real>
void BasicFft3D<Real>::forward_many(Cplx* stack, int count,
                                    int n_workers) const {
  transform_many(*this, stack, count, false, n_workers);
}

template <typename Real>
void BasicFft3D<Real>::inverse_many(Cplx* stack, int count,
                                    int n_workers) const {
  transform_many(*this, stack, count, true, n_workers);
}

template class BasicFft3D<double>;
template class BasicFft3D<float>;

}  // namespace ls3df
