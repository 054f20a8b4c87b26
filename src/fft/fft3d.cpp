#include "fft/fft3d.h"

#include <cassert>

namespace ls3df {

template <typename Real>
BasicFft3D<Real>::BasicFft3D(Vec3i shape)
    : shape_(shape), fx_(shape.x), fy_(shape.y), fz_(shape.z) {
  assert(shape.x >= 1 && shape.y >= 1 && shape.z >= 1);
}

template <typename Real>
void BasicFft3D<Real>::transform_z_row(Cplx* data, int row, bool inv) const {
  // Axis z: row ix*n2 + iy is contiguous.
  Cplx* line = data + static_cast<std::size_t>(row) * shape_.z;
  if (inv)
    fz_.inverse(line);
  else
    fz_.forward(line);
}

template <typename Real>
void BasicFft3D<Real>::transform_y_slab(Cplx* data, int ix, bool inv) const {
  // Axis y: x-slab ix holds n3 interleaved lines (element iy of line iz
  // at iy * n3 + iz).
  const int n3 = shape_.z;
  Cplx* slab = data + static_cast<std::size_t>(ix) * shape_.y * n3;
  if (inv)
    fy_.inverse_lines(slab, n3);
  else
    fy_.forward_lines(slab, n3);
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
  const int rows = shape_.x * shape_.y;
  if (inv) {
    transform_x(data, true);
    for (int ix = 0; ix < shape_.x; ++ix) transform_y_slab(data, ix, true);
    for (int r = 0; r < rows; ++r) transform_z_row(data, r, true);
  } else {
    for (int r = 0; r < rows; ++r) transform_z_row(data, r, false);
    for (int ix = 0; ix < shape_.x; ++ix) transform_y_slab(data, ix, false);
    transform_x(data, false);
  }
}

template <typename Real>
void BasicFft3D<Real>::inverse_sphere(Cplx* data,
                                      const SphereLines& sphere) const {
  // Off the sphere the input is zero, so unlisted rows stay zero through
  // z and unlisted slabs stay zero through y; only x needs every line.
  for (int r : sphere.rows) transform_z_row(data, r, true);
  for (int ix : sphere.slabs) transform_y_slab(data, ix, true);
  transform_x(data, true);
}

template <typename Real>
void BasicFft3D<Real>::forward_sphere(Cplx* data,
                                      const SphereLines& sphere) const {
  // Only the listed rows are read back, so y and z skip the rest.
  transform_x(data, false);
  for (int ix : sphere.slabs) transform_y_slab(data, ix, false);
  for (int r : sphere.rows) transform_z_row(data, r, false);
}

template class BasicFft3D<double>;
template class BasicFft3D<float>;

}  // namespace ls3df
