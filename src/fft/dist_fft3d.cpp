#include "fft/dist_fft3d.h"

#include <cassert>

#include "common/timer.h"
#include "fft/plan_cache.h"

namespace ls3df {

DistFft3D::DistFft3D(Vec3i shape, ShardComm& comm)
    : shape_(shape), comm_(comm), local_(comm.local_rank()) {
  const int n = n_shards();
  assert(n <= shape.x);
  slab_.resize(n);
  pencil_.resize(n);
  // Rank-local mode (SPMD transport): only the local rank's slab and
  // pencil block are allocated — every rank-indexed
  // access runs inside each_rank, which under SPMD executes the local
  // rank only. Non-resident slots stay empty (size 0 for probes).
  for (int r = 0; r < n; ++r) {
    if (local_ >= 0 && r != local_) continue;
    slab_[r].resize(static_cast<std::size_t>(x1(r) - x0(r)) * shape_.y *
                    shape_.z);
    pencil_[r].resize(static_cast<std::size_t>(y1(r) - y0(r)) * shape_.z *
                      shape_.x);
  }
}

// Pack/unpack of the (src -> dst) block: src's local x planes restricted
// to dst's y range, order (iy, iz, ix_local). The same order is used in
// both directions so a forward/inverse pair moves every value back to the
// slot it came from.
void DistFft3D::transpose_to_pencils() {
  Timer t;
  const int nz = shape_.z, ny = shape_.y, nx = shape_.x;
  comm_.all_to_all(
      [&](int src) {
        const int lx = x1(src) - x0(src);
        const std::vector<cplx>& s = slab_[src];
        for (int dst = 0; dst < n_shards(); ++dst) {
          const int yb = y0(dst), ye = y1(dst);
          cplx* box = comm_.send_box(
              src, dst,
              static_cast<std::size_t>(lx) * (ye - yb) * nz);
          std::size_t k = 0;
          for (int iy = yb; iy < ye; ++iy)
            for (int iz = 0; iz < nz; ++iz)
              for (int ixl = 0; ixl < lx; ++ixl)
                box[k++] =
                    s[(static_cast<std::size_t>(ixl) * ny + iy) * nz + iz];
        }
      },
      [&](int dst) {
        const int ly = y1(dst) - y0(dst);
        std::vector<cplx>& p = pencil_[dst];
        for (int src = 0; src < n_shards(); ++src) {
          const int xb = x0(src), lx = x1(src) - xb;
          const cplx* box = comm_.recv_box(src, dst);
          std::size_t k = 0;
          for (int iyl = 0; iyl < ly; ++iyl)
            for (int iz = 0; iz < nz; ++iz) {
              cplx* row =
                  p.data() + (static_cast<std::size_t>(iyl) * nz + iz) * nx;
              for (int ixl = 0; ixl < lx; ++ixl) row[xb + ixl] = box[k++];
            }
        }
      });
  transpose_s_ += t.seconds();
}

void DistFft3D::transpose_to_slabs() {
  Timer t;
  const int nz = shape_.z, ny = shape_.y, nx = shape_.x;
  comm_.all_to_all(
      [&](int src) {
        // src holds y-pencils; dst owns x-slabs.
        const int ly = y1(src) - y0(src);
        const std::vector<cplx>& p = pencil_[src];
        for (int dst = 0; dst < n_shards(); ++dst) {
          const int xb = x0(dst), lx = x1(dst) - xb;
          cplx* box = comm_.send_box(
              src, dst,
              static_cast<std::size_t>(lx) * ly * nz);
          std::size_t k = 0;
          for (int iyl = 0; iyl < ly; ++iyl)
            for (int iz = 0; iz < nz; ++iz) {
              const cplx* row =
                  p.data() + (static_cast<std::size_t>(iyl) * nz + iz) * nx;
              for (int ixl = 0; ixl < lx; ++ixl) box[k++] = row[xb + ixl];
            }
        }
      },
      [&](int dst) {
        std::vector<cplx>& s = slab_[dst];
        const int lx = x1(dst) - x0(dst);
        for (int src = 0; src < n_shards(); ++src) {
          const int yb = y0(src), ly = y1(src) - yb;
          const cplx* box = comm_.recv_box(src, dst);
          std::size_t k = 0;
          for (int iyl = 0; iyl < ly; ++iyl)
            for (int iz = 0; iz < nz; ++iz)
              for (int ixl = 0; ixl < lx; ++ixl)
                s[(static_cast<std::size_t>(ixl) * ny + (yb + iyl)) * nz +
                  iz] = box[k++];
        }
      });
  transpose_s_ += t.seconds();
}

void DistFft3D::forward(const ShardedFieldR& in) {
  assert(in.global_shape() == shape_ && in.n_shards() == n_shards());
  const int nz = shape_.z, ny = shape_.y;
  // Local 2D pass: load, then z and y lines (dense Fft3D's first two
  // axes restricted to the slab — identical per-line arithmetic).
  comm_.each_rank([&](int r) {
    const FieldR& f = in.slab(r);
    std::vector<cplx>& s = slab_[r];
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = cplx(f[i], 0.0);
    const int lx = x1(r) - x0(r);
    const Fft1D& fz = fft1d_plan(nz);
    for (int ixl = 0; ixl < lx; ++ixl)
      for (int iy = 0; iy < ny; ++iy)
        fz.forward(s.data() + (static_cast<std::size_t>(ixl) * ny + iy) * nz);
    const Fft1D& fy = fft1d_plan(ny);
    for (int ixl = 0; ixl < lx; ++ixl)
      fy.forward_lines(s.data() + static_cast<std::size_t>(ixl) * ny * nz, nz);
  });
  transpose_to_pencils();
  // x lines: contiguous pencil rows.
  comm_.each_rank([&](int r) {
    const int rows = (y1(r) - y0(r)) * nz;
    const Fft1D& fx = fft1d_plan(shape_.x);
    cplx* p = pencil_[r].data();
    for (int row = 0; row < rows; ++row)
      fx.forward(p + static_cast<std::size_t>(row) * shape_.x);
  });
}

void DistFft3D::inverse(ShardedFieldR& out) {
  assert(out.global_shape() == shape_ && out.n_shards() == n_shards());
  const int nz = shape_.z, ny = shape_.y;
  // Dense inverse order is x, y, z — x on the pencils first.
  comm_.each_rank([&](int r) {
    const int rows = (y1(r) - y0(r)) * nz;
    const Fft1D& fx = fft1d_plan(shape_.x);
    cplx* p = pencil_[r].data();
    for (int row = 0; row < rows; ++row)
      fx.inverse(p + static_cast<std::size_t>(row) * shape_.x);
  });
  transpose_to_slabs();
  comm_.each_rank([&](int r) {
    std::vector<cplx>& s = slab_[r];
    const int lx = x1(r) - x0(r);
    const Fft1D& fy = fft1d_plan(ny);
    for (int ixl = 0; ixl < lx; ++ixl)
      fy.inverse_lines(s.data() + static_cast<std::size_t>(ixl) * ny * nz, nz);
    const Fft1D& fz = fft1d_plan(nz);
    for (int ixl = 0; ixl < lx; ++ixl)
      for (int iy = 0; iy < ny; ++iy)
        fz.inverse(s.data() + (static_cast<std::size_t>(ixl) * ny + iy) * nz);
    FieldR& f = out.slab(r);
    for (std::size_t i = 0; i < s.size(); ++i) f[i] = s[i].real();
  });
}

}  // namespace ls3df
