#include "dft/fsm.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dft/eigensolver.h"
#include "fft/plan_cache.h"
#include "linalg/blas.h"
#include "linalg/eigen.h"

namespace ls3df {

using cd = std::complex<double>;

namespace {

// Apply the folded operator A = (H - eref)^2 to a block.
void apply_folded(const Hamiltonian& h, double eref, const MatC& psi,
                  MatC& out) {
  MatC tmp;
  h.apply(psi, tmp);
  for (int j = 0; j < psi.cols(); ++j)
    zaxpy(psi.rows(), cd(-eref, 0.0), psi.col(j), tmp.col(j));
  h.apply(tmp, out);
  for (int j = 0; j < psi.cols(); ++j)
    zaxpy(psi.rows(), cd(-eref, 0.0), tmp.col(j), out.col(j));
}

}  // namespace

FsmResult folded_spectrum(const Hamiltonian& h, const FsmOptions& opt) {
  const GVectors& basis = h.basis();
  const int ng = basis.count();
  const int nb = opt.n_states;

  FsmResult result;
  MatC V = random_wavefunctions(basis, nb, opt.seed);
  MatC AV(ng, nb);
  apply_folded(h, opt.eps_ref, V, AV);

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Rayleigh-Ritz on the folded operator.
    MatC G = overlap(V, AV);
    EighResult eg = eigh(G);
    const int dim = V.cols();
    MatC Y(dim, nb);
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i < dim; ++i) Y(i, j) = eg.eigenvectors(i, j);
    MatC X(ng, nb), AX(ng, nb);
    gemm(Op::kNone, Op::kNone, cd(1, 0), V, Y, cd(0, 0), X);
    gemm(Op::kNone, Op::kNone, cd(1, 0), AV, Y, cd(0, 0), AX);
    result.folded_values.assign(eg.eigenvalues.begin(),
                                eg.eigenvalues.begin() + nb);

    MatC R = AX;
    for (int j = 0; j < nb; ++j)
      zaxpy(ng, cd(-result.folded_values[j], 0.0), X.col(j), R.col(j));
    double max_res = 0;
    for (int j = 0; j < nb; ++j)
      max_res = std::max(max_res, dznrm2(ng, R.col(j)));
    if (max_res < opt.residual_tol || iter == opt.max_iterations - 1) {
      result.converged = max_res < opt.residual_tol;
      V = std::move(X);
      break;
    }

    // Preconditioned expansion: scale residuals by the inverse folded
    // kinetic diagonal, (0.5 g^2 - eref)^2 + shift.
    MatC T(ng, nb);
    for (int j = 0; j < nb; ++j) {
      const cd* r = R.col(j);
      cd* t = T.col(j);
      for (int g = 0; g < ng; ++g) {
        const double k = 0.5 * basis.g2(g) - opt.eps_ref;
        t[g] = r[g] / (k * k + 0.5);
      }
    }
    // Expand with independent corrections only, capped at the basis size
    // (same robust scheme as solve_all_band).
    MatC Vn(ng, std::min(2 * nb, ng));
    for (int j = 0; j < nb; ++j) std::copy(X.col(j), X.col(j) + ng, Vn.col(j));
    int cols = nb;
    for (int j = 0; j < nb && cols < Vn.cols(); ++j) {
      cd* t = T.col(j);
      for (int pass = 0; pass < 2; ++pass)
        for (int k = 0; k < cols; ++k) {
          const cd proj = zdotc(ng, Vn.col(k), t);
          zaxpy(ng, -proj, Vn.col(k), t);
        }
      const double nrm = dznrm2(ng, t);
      if (nrm < 1e-8) continue;
      zscal(ng, cd(1.0 / nrm, 0.0), t);
      std::copy(t, t + ng, Vn.col(cols));
      ++cols;
    }
    if (cols == nb) {
      V = std::move(X);
      break;
    }
    MatC Vt(ng, cols);
    for (int j = 0; j < cols; ++j)
      std::copy(Vn.col(j), Vn.col(j) + ng, Vt.col(j));
    V = std::move(Vt);
    AV.resize(ng, V.cols());
    apply_folded(h, opt.eps_ref, V, AV);
  }

  // Diagonalize H within the converged window subspace so the returned
  // states are true band approximations with definite energies.
  MatC HV;
  h.apply(V, HV);
  MatC Hs = overlap(V, HV);
  EighResult eh = eigh(Hs);
  MatC Xf(ng, nb);
  gemm(Op::kNone, Op::kNone, cd(1, 0), V, eh.eigenvectors, cd(0, 0), Xf);
  result.psi = std::move(Xf);
  result.eigenvalues = eh.eigenvalues;

  // Recompute folded values in the rotated basis for reporting.
  for (int j = 0; j < nb; ++j) {
    const double d = result.eigenvalues[j] - opt.eps_ref;
    result.folded_values[j] = d * d;
  }
  return result;
}

FieldR band_density(const Hamiltonian& h, const cd* band) {
  const GVectors& basis = h.basis();
  FieldC work(basis.grid_shape());
  basis.scatter(band, work);
  fft_plan(basis.grid_shape()).inverse_sphere(work.data(), basis.sphere());
  FieldR rho(basis.grid_shape());
  double total = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    rho[i] = std::norm(work[i]);
    total += rho[i];
  }
  const double point_vol = basis.lattice().volume() /
                           static_cast<double>(rho.size());
  if (total > 0) rho *= 1.0 / (total * point_vol);
  return rho;
}

double species_weight_enrichment(const Hamiltonian& h, const cd* band,
                                 Species sp, double radius) {
  const Structure& s = h.structure();
  FieldR rho = band_density(h, band);
  const Vec3i shape = rho.shape();
  const Lattice& lat = h.basis().lattice();
  const Vec3d L = lat.lengths();
  const double point_vol = lat.volume() / static_cast<double>(rho.size());

  double weight = 0;
  long points_near = 0;
  for (int ix = 0; ix < shape.x; ++ix)
    for (int iy = 0; iy < shape.y; ++iy)
      for (int iz = 0; iz < shape.z; ++iz) {
        const Vec3d r{ix * L.x / shape.x, iy * L.y / shape.y,
                      iz * L.z / shape.z};
        bool near = false;
        for (const auto& atom : s.atoms()) {
          if (atom.species != sp) continue;
          if (lat.min_image(atom.position, r).norm() <= radius) {
            near = true;
            break;
          }
        }
        if (near) {
          weight += rho(ix, iy, iz) * point_vol;
          ++points_near;
        }
      }
  if (points_near == 0) return 0.0;
  const double vol_frac =
      static_cast<double>(points_near) / static_cast<double>(rho.size());
  return weight / vol_frac;
}

double inverse_participation_ratio(const Hamiltonian& h, const cd* band) {
  const GVectors& basis = h.basis();
  FieldC work(basis.grid_shape());
  basis.scatter(band, work);
  fft_plan(basis.grid_shape()).inverse_sphere(work.data(), basis.sphere());
  double sum2 = 0, sum4 = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    const double p = std::norm(work[i]);
    sum2 += p;
    sum4 += p * p;
  }
  const double n = static_cast<double>(work.size());
  if (sum2 <= 0) return 0.0;
  return n * sum4 / (sum2 * sum2);
}

}  // namespace ls3df
