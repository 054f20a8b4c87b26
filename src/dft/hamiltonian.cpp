#include "dft/hamiltonian.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>

#include "common/constants.h"
#include "fft/plan_cache.h"
#include "linalg/blas.h"
#include "parallel/thread_pool.h"

namespace ls3df {

using cd = std::complex<double>;

template <typename Real>
std::complex<Real>* ApplyBatchWorkspace::grid_stack(std::size_t n) {
  // Grow-only, like Matrix::reshape: the stack is fully written before
  // it is read, so a shrink-then-regrow cycle must not pay a zero-fill
  // sweep over the regrown region.
  Arena<Real>& a = arena<Real>();
  if (n > a.stack_peak) {
    a.stack_peak = n;
    ++allocs_;
    a.stack.resize(n);
  }
  return a.stack.data();
}

template <typename Real>
Matrix<std::complex<Real>>& ApplyBatchWorkspace::proj(int member, int rows,
                                                      int cols) {
  assert(member >= 0);
  Arena<Real>& a = arena<Real>();
  while (static_cast<int>(a.proj.size()) <= member) {
    a.proj.emplace_back();
    a.proj_peak.push_back(0);
  }
  const std::size_t need = static_cast<std::size_t>(rows) * cols;
  if (need > a.proj_peak[member]) {
    a.proj_peak[member] = need;
    ++allocs_;
  }
  a.proj[member].reshape(rows, cols);
  return a.proj[member];
}

template cd* ApplyBatchWorkspace::grid_stack<double>(std::size_t);
template std::complex<float>* ApplyBatchWorkspace::grid_stack<float>(
    std::size_t);
template MatC& ApplyBatchWorkspace::proj<double>(int, int, int);
template MatCF& ApplyBatchWorkspace::proj<float>(int, int, int);

void ApplyBatchWorkspace::note_dispatch_capacity() {
  const Arena<double>& d = arena<double>();
  const Arena<float>& f = arena<float>();
  const std::size_t cap = off.capacity() + member_of.capacity() +
                          nl_members.capacity() + d.overlap_items.capacity() +
                          d.accum_items.capacity() +
                          f.overlap_items.capacity() +
                          f.accum_items.capacity();
  if (cap > dispatch_peak_) {
    dispatch_peak_ = cap;
    ++allocs_;
  }
}

Vec3i default_fft_grid(const Lattice& lat, double ecut_hartree) {
  const double gmax = std::sqrt(2.0 * ecut_hartree);
  const Vec3d b = lat.reciprocal();
  Vec3i shape;
  for (int i = 0; i < 3; ++i) {
    const int m = static_cast<int>(std::ceil(gmax / b[i]));
    shape[i] = Fft1D::good_fft_size(4 * m + 2);
  }
  return shape;
}

Hamiltonian::Hamiltonian(const Structure& s, const GVectors& basis)
    : structure_(s),
      basis_(std::make_unique<GVectors>(basis)),
      fft_(basis.grid_shape()),
      vloc_(build_local_potential(s, basis.grid_shape())),
      nl_(std::make_unique<NonlocalKB>(s, basis)),
      work_(basis.grid_shape()) {}

void Hamiltonian::set_local_potential(const FieldR& v) {
  assert(v.shape() == basis_->grid_shape());
  vloc_ = v;
  vloc_f32_valid_ = false;  // fp32 mirror re-rounds on next f32 apply
}

void Hamiltonian::ensure_f32_mirrors() const {
  if (g2_f32_.empty()) {
    const int ng = basis_->count();
    g2_f32_.resize(ng);
    for (int g = 0; g < ng; ++g)
      g2_f32_[g] = static_cast<float>(basis_->g2(g));
    const MatC& B = nl_->projectors();
    projectors_f32_.reshape(B.rows(), B.cols());
    for (int j = 0; j < B.cols(); ++j)
      for (int i = 0; i < B.rows(); ++i)
        projectors_f32_(i, j) = std::complex<float>(B(i, j));
    const std::vector<double>& d = nl_->strengths();
    strengths_f32_.resize(d.size());
    for (std::size_t p = 0; p < d.size(); ++p)
      strengths_f32_[p] = static_cast<float>(d[p]);
  }
  if (!vloc_f32_valid_) {
    vloc_f32_.resize(vloc_.size());
    for (std::size_t i = 0; i < vloc_.size(); ++i)
      vloc_f32_[i] = static_cast<float>(vloc_[i]);
    vloc_f32_valid_ = true;
  }
}

void Hamiltonian::apply_local(const cd* in, cd* out) const {
  const SphereLines& sphere = basis_->sphere();
  basis_->scatter(in, work_);
  fft_.inverse_sphere(work_.data(), sphere);
  for (std::size_t i = 0; i < work_.size(); ++i) work_[i] *= vloc_[i];
  fft_.forward_sphere(work_.data(), sphere);
  basis_->gather(work_, out);
  if (flops_)
    flops_->add(2 * FlopCounter::fft3d_sphere(fft_.shape(), sphere) +
                6 * work_.size());
}

void Hamiltonian::apply(const MatC& psi, MatC& hpsi) const {
  const int ng = basis_->count(), nb = psi.cols();
  assert(psi.rows() == ng);
  hpsi.reshape(ng, nb);  // every element is written below; skip zero-fill
  // Local potential: per-band FFTs.
  for (int j = 0; j < nb; ++j) apply_local(psi.col(j), hpsi.col(j));
  // Kinetic: diagonal in q-space.
  for (int j = 0; j < nb; ++j) {
    cd* h = hpsi.col(j);
    const cd* p = psi.col(j);
    for (int g = 0; g < ng; ++g) h[g] += 0.5 * basis_->g2(g) * p[g];
  }
  // Nonlocal: BLAS-3 over the whole block.
  nl_->apply_all_bands(psi, hpsi);
  if (flops_) {
    flops_->add(4ull * ng * nb);  // kinetic
    flops_->add(2 * FlopCounter::zgemm(nl_->num_projectors(), nb, ng));
  }
}

template <>
Hamiltonian::Operands<double> Hamiltonian::operands<double>() const {
  return {vloc_.data(), basis_->g2_table().data(), &nl_->projectors(),
          nl_->strengths().data()};
}

template <>
Hamiltonian::Operands<float> Hamiltonian::operands<float>() const {
  assert(vloc_f32_valid_ && !g2_f32_.empty());
  return {vloc_f32_.data(), g2_f32_.data(), &projectors_f32_,
          strengths_f32_.data()};
}

template <typename Real>
void Hamiltonian::apply_batched(const std::vector<BasicApplyItem<Real>>& items,
                                ApplyBatchWorkspace& ws, int n_workers) {
  using C = std::complex<Real>;
  using Item = BasicApplyItem<Real>;
  const int k_members = static_cast<int>(items.size());
  if (k_members == 0) return;
  const Vec3i shape = items[0].h->basis().grid_shape();
  const std::size_t gsize =
      static_cast<std::size_t>(shape.x) * shape.y * shape.z;

  // fp32 mirrors first, serially: the parallel body below reads each
  // member's operands concurrently from several lanes.
  if constexpr (std::is_same_v<Real, float>)
    for (const Item& it : items) it.h->ensure_f32_mirrors();

  // Band layout: member i's bands are [off[i], off[i+1]) of the sweep.
  // off/member_of live in the workspace so a steady-state dispatch
  // allocates nothing (assign reuses capacity).
  std::vector<int>& off = ws.off;
  off.assign(k_members + 1, 0);
  for (int t = 0; t < k_members; ++t) {
    const Item& it = items[t];
    assert(it.h && it.psi && it.hpsi);
    assert(it.h->basis().grid_shape() == shape);
    assert(it.psi->rows() == it.h->basis().count());
    off[t + 1] = off[t] + it.psi->cols();
    it.hpsi->reshape(it.psi->rows(), it.psi->cols());
  }
  const int total = off[k_members];
  if (total == 0) return;
  std::vector<int>& member_of = ws.member_of;
  member_of.assign(total, 0);
  for (int t = 0; t < k_members; ++t)
    for (int u = off[t]; u < off[t + 1]; ++u) member_of[u] = t;

  // Local potential, one parallel_for over all bands: scatter, inverse
  // sphere transform, multiply by the member's V_loc, forward sphere
  // transform, gather plus kinetic. The per-band sequence is exactly
  // apply_local()'s. A band's grid is written and read inside its own
  // iteration, so each worker lane reuses one grid of the stack
  // (parallel_for's worker index is stable and race-free per lane).
  const int lanes = std::max(1, std::min(n_workers, total));
  C* stack = ws.grid_stack<Real>(static_cast<std::size_t>(lanes) * gsize);
  const BasicFft3D<Real>& fft = fft_plan<Real>(shape);
  parallel_for(total, n_workers, [&](int u, int worker) {
    const int t = member_of[u];
    const Item& it = items[t];
    const Hamiltonian& ham = *it.h;
    const GVectors& basis = ham.basis();
    const Operands<Real> op = ham.operands<Real>();
    const int j = u - off[t];
    C* grid = stack + worker * gsize;
    basis.scatter(it.psi->col(j), grid);
    fft.inverse_sphere(grid, basis.sphere());
    for (std::size_t i = 0; i < gsize; ++i) grid[i] *= op.vloc[i];
    fft.forward_sphere(grid, basis.sphere());
    C* h = it.hpsi->col(j);
    basis.gather(grid, h);
    // Kinetic: diagonal in q-space (same expression as apply()).
    const C* p = it.psi->col(j);
    for (int g = 0; g < basis.count(); ++g)
      h[g] += Real(0.5) * op.g2[g] * p[g];
  });

  // Nonlocal, batched: P_t = B_t^H psi_t, scale rows by the KB strengths,
  // hpsi_t += B_t P_t — the two GEMMs of NonlocalKB::apply_all_bands
  // fused across members.
  ApplyBatchWorkspace::Arena<Real>& arena = ws.arena<Real>();
  std::vector<BasicGemmBatchItem<Real>>& overlap_items = arena.overlap_items;
  std::vector<BasicGemmBatchItem<Real>>& accum_items = arena.accum_items;
  std::vector<int>& nl_members = ws.nl_members;
  overlap_items.clear();
  accum_items.clear();
  nl_members.clear();
  for (int t = 0; t < k_members; ++t) {
    const Item& it = items[t];
    const Hamiltonian& ham = *it.h;
    const int n_proj = ham.nonlocal().num_projectors();
    if (n_proj == 0) continue;
    const int slot = it.slot >= 0 ? it.slot : t;
    Matrix<C>& P = ws.proj<Real>(slot, n_proj, it.psi->cols());
    const Matrix<C>* B = ham.operands<Real>().projectors;
    overlap_items.push_back({B, it.psi, &P});
    accum_items.push_back({B, &P, it.hpsi});
    nl_members.push_back(t);
  }
  if (!overlap_items.empty()) {
    gemm_batched(Op::kConjTrans, Op::kNone, C(1, 0), overlap_items, C(0, 0),
                 n_workers);
    parallel_for(static_cast<int>(nl_members.size()), n_workers,
                 [&](int m, int /*worker*/) {
                   const Hamiltonian& ham = *items[nl_members[m]].h;
                   const Real* d = ham.operands<Real>().strengths;
                   Matrix<C>& P = *overlap_items[m].c;
                   for (int j = 0; j < P.cols(); ++j)
                     for (int p = 0; p < P.rows(); ++p) P(p, j) *= d[p];
                 });
    gemm_batched(Op::kNone, Op::kNone, C(1, 0), accum_items, C(1, 0),
                 n_workers);
  }

  // Flop accounting mirrors apply() per member (the counter tracks
  // operations, not operand width).
  for (int t = 0; t < k_members; ++t) {
    const Item& it = items[t];
    if (!it.h->flops_) continue;
    const int ng = it.h->basis().count(), nb = it.psi->cols();
    it.h->flops_->add(
        static_cast<unsigned long long>(nb) *
        (2 * FlopCounter::fft3d_sphere(shape, it.h->basis().sphere()) +
         6 * gsize));
    it.h->flops_->add(4ull * ng * nb);
    it.h->flops_->add(
        2 * FlopCounter::zgemm(it.h->nl_->num_projectors(), nb, ng));
  }
  ws.note_dispatch_capacity();
}

template void Hamiltonian::apply_batched<double>(
    const std::vector<BasicApplyItem<double>>&, ApplyBatchWorkspace&, int);
template void Hamiltonian::apply_batched<float>(
    const std::vector<BasicApplyItem<float>>&, ApplyBatchWorkspace&, int);

void Hamiltonian::apply_band(const cd* psi, cd* hpsi) const {
  const int ng = basis_->count();
  apply_local(psi, hpsi);
  for (int g = 0; g < ng; ++g) hpsi[g] += 0.5 * basis_->g2(g) * psi[g];
  nl_->apply_one_band(psi, hpsi);
  if (flops_) {
    flops_->add(4ull * ng);
    flops_->add(2 * FlopCounter::zgemm(nl_->num_projectors(), 1, ng));
  }
}

double Hamiltonian::kinetic_energy(const MatC& psi,
                                   const std::vector<double>& occ) const {
  const int ng = basis_->count(), nb = psi.cols();
  assert(static_cast<int>(occ.size()) == nb);
  double e = 0;
  for (int j = 0; j < nb; ++j) {
    const cd* p = psi.col(j);
    double ej = 0;
    for (int g = 0; g < ng; ++g) ej += 0.5 * basis_->g2(g) * std::norm(p[g]);
    e += occ[j] * ej;
  }
  return e;
}

FieldR Hamiltonian::kinetic_energy_density(
    const MatC& psi, const std::vector<double>& occ) const {
  const Vec3i shape = basis_->grid_shape();
  const int ng = basis_->count(), nb = psi.cols();
  const double inv_vol = 1.0 / basis_->lattice().volume();
  FieldR tau(shape);
  std::vector<cd> grad(ng);
  FieldC& work = work_;
  for (int j = 0; j < nb; ++j) {
    if (occ[j] == 0.0) continue;
    for (int dim = 0; dim < 3; ++dim) {
      const cd* p = psi.col(j);
      for (int g = 0; g < ng; ++g) grad[g] = cd(0, 1) * basis_->g(g)[dim] * p[g];
      basis_->scatter(grad.data(), work);
      fft_.inverse_sphere(work.data(), basis_->sphere());
      // Same normalization as density(): grid value = (1/N) sum_G (...),
      // so |grad psi(r)|^2 = N^2 |work(r)|^2 / V.
      const double scale = 0.5 * occ[j] * inv_vol *
                           static_cast<double>(work.size()) *
                           static_cast<double>(work.size());
      for (std::size_t i = 0; i < tau.size(); ++i)
        tau[i] += scale * std::norm(work[i]);
    }
  }
  return tau;
}

FieldR Hamiltonian::density(const MatC& psi,
                            const std::vector<double>& occ) const {
  FieldR rho(basis_->grid_shape());
  density_into(psi, occ, rho);
  return rho;
}

void Hamiltonian::density_into(const MatC& psi,
                               const std::vector<double>& occ,
                               FieldR& rho, int n_workers) const {
  const Vec3i shape = basis_->grid_shape();
  const int nb = psi.cols();
  assert(static_cast<int>(occ.size()) == nb);
  assert(rho.shape() == shape);
  rho.fill(0.0);
  const std::size_t ngrid = fft_.size();
  // Occupied bands only drive the transforms.
  std::vector<int> bands;
  bands.reserve(nb);
  for (int j = 0; j < nb; ++j)
    if (occ[j] != 0.0) bands.push_back(j);
  if (bands.empty()) return;

  const double inv_vol = 1.0 / basis_->lattice().volume();
  const SphereLines& sphere = basis_->sphere();
  // inverse FFT includes 1/N: grid(r) = (1/N) sum_G c_G e^{iGr}. A
  // normalized band (sum |c|^2 = 1) has  int |psi|^2 = 1 with
  // psi(r) = sum_G c_G e^{iGr} / sqrt(V), so |psi(r)|^2 =
  // N^2 |grid(r)|^2 / V.
  const auto accumulate_band = [&](int j, const std::complex<double>* grid) {
    const double scale = occ[j] * inv_vol * static_cast<double>(ngrid) *
                         static_cast<double>(ngrid);
    for (std::size_t i = 0; i < rho.size(); ++i)
      rho[i] += scale * std::norm(grid[i]);
    if (flops_)
      flops_->add(FlopCounter::fft3d_sphere(shape, sphere) + 3 * rho.size());
  };

  if (n_workers <= 1) {
    // Serial: stream band by band through the single work_ grid — the
    // transforms would run one after another anyway, so don't pay the
    // per-band stack memory.
    FieldC& work = work_;
    for (int j : bands) {
      basis_->scatter(psi.col(j), work);
      fft_.inverse_sphere(work.data(), sphere);
      accumulate_band(j, work.data());
    }
    return;
  }

  // Parallel: scatter and transform every occupied band into the
  // contiguous grow-only stack over the worker lanes, then accumulate
  // |psi|^2 in band order. Per-band arithmetic and the accumulation
  // order match the streaming path exactly, so both are bit-identical
  // for any n_workers.
  if (density_stack_.size() < bands.size() * ngrid)
    density_stack_.resize(bands.size() * ngrid);
  std::complex<double>* stack = density_stack_.data();
  parallel_for(static_cast<int>(bands.size()), n_workers,
               [&](int k, int /*worker*/) {
                 std::complex<double>* grid = stack + k * ngrid;
                 basis_->scatter(psi.col(bands[k]), grid);
                 fft_.inverse_sphere(grid, sphere);
               });
  for (std::size_t k = 0; k < bands.size(); ++k)
    accumulate_band(bands[k], stack + k * ngrid);
}

}  // namespace ls3df
