#include "linalg/eigen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ls3df {

namespace {
using cd = std::complex<double>;

constexpr double kEps = std::numeric_limits<double>::epsilon();

// sqrt(a^2 + b^2) without std::hypot's cost in the common range; falls
// back to it where the plain sum would overflow or lose precision to
// underflow.
double pythag(double a, double b) {
  const double s = a * a + b * b;
  if (s > 1e-290 && s < 1e290) return std::sqrt(s);
  return std::hypot(a, b);
}

// Dense Hermitian eigendecomposition into scratch-resident storage:
//   1. copy the lower triangle into M (real diagonal);
//   2. reduce M to a real symmetric tridiagonal (d, e) with Householder
//      reflectors H_i = I - tau_i v v^H (LAPACK zhetd2, lower), each one
//      chosen so its beta is real — including the last, length-1 one —
//      and accumulate Q = H_0 ... H_{n-2} backwards (zungtr);
//   3. implicit shifted QL on (d, e) (zsteqr / tql2), every Givens
//      rotation applied to Q's complex columns;
//   4. sort ascending into (evals, evecs).
// Non-finite input or QL non-convergence throws std::runtime_error.
void eigh_core(const MatC& A, EigenScratch& ws) {
  const int n = A.rows();
  assert(A.cols() == n);
  MatC& M = ws.mat(EigenScratch::kM, n, n);
  MatC& Q = ws.mat(EigenScratch::kV, n, n);
  std::vector<double>& d = ws.dvec(EigenScratch::kDiag, n);
  std::vector<double>& e = ws.dvec(EigenScratch::kOffdiag, n);
  std::vector<cd>& tau = ws.cvec(EigenScratch::kTau, n);
  std::vector<cd>& w = ws.cvec(EigenScratch::kWork, n);

  // 1. Lower triangle only; the upper triangle of M is never read.
  for (int j = 0; j < n; ++j) {
    const cd* a = A.col(j);
    cd* m = M.col(j);
    m[j] = cd(a[j].real(), 0.0);
    for (int i = j + 1; i < n; ++i) m[i] = a[i];
    for (int i = j; i < n; ++i)
      if (!std::isfinite(a[i].real()) || !std::isfinite(a[i].imag()))
        throw std::runtime_error("eigh: non-finite matrix entry");
  }

  // 2. Householder tridiagonalization. Step i annihilates M(i+2:n, i);
  // v = (1, M(i+2:n, i)) spans the trailing block rows i+1..n-1.
  for (int i = 0; i + 1 < n; ++i) {
    const int len = n - i - 1;
    cd* v = M.col(i) + i + 1;
    const cd alpha = v[0];
    double xnorm2 = 0;
    for (int k = 1; k < len; ++k) xnorm2 += std::norm(v[k]);
    cd t{};
    double beta = alpha.real();
    if (xnorm2 != 0.0 || alpha.imag() != 0.0) {
      const double r = std::sqrt(std::norm(alpha) + xnorm2);
      beta = alpha.real() >= 0 ? -r : r;
      t = cd((beta - alpha.real()) / beta, -alpha.imag() / beta);
      const cd scale = 1.0 / (alpha - beta);
      for (int k = 1; k < len; ++k) v[k] *= scale;
    }
    tau[i] = t;
    e[i] = beta;
    if (t != cd{}) {
      v[0] = 1.0;
      // w = t * B v with B = M(i+1:n, i+1:n) read from its lower triangle.
      cd* wv = w.data();
      std::fill(wv, wv + len, cd{});
      for (int c = 0; c < len; ++c) {
        const cd* b = M.col(i + 1 + c) + i + 1;
        const cd vc = v[c];
        cd acc = b[c].real() * vc;
        for (int r = c + 1; r < len; ++r) {
          wv[r] += b[r] * vc;
          acc += std::conj(b[r]) * v[r];
        }
        wv[c] += acc;
      }
      cd vhw{};
      for (int k = 0; k < len; ++k) {
        wv[k] *= t;
        vhw += std::conj(wv[k]) * v[k];
      }
      // w -= (t/2)(w^H v) v, then B -= v w^H + w v^H (lower triangle).
      const cd shift = -0.5 * t * vhw;
      for (int k = 0; k < len; ++k) wv[k] += shift * v[k];
      for (int c = 0; c < len; ++c) {
        cd* b = M.col(i + 1 + c) + i + 1;
        const cd wc = std::conj(wv[c]), vc = std::conj(v[c]);
        for (int r = c; r < len; ++r) b[r] -= v[r] * wc + wv[r] * vc;
        b[c] = cd(b[c].real(), 0.0);
      }
    }
    d[i] = M(i, i).real();
  }
  if (n > 0) d[n - 1] = M(n - 1, n - 1).real();

  // Q = H_0 H_1 ... H_{n-2}, accumulated from the last reflector back so
  // each H_i touches only the trailing block it acts on.
  for (int j = 0; j < n; ++j) {
    cd* q = Q.col(j);
    std::fill(q, q + n, cd{});
    q[j] = 1.0;
  }
  for (int i = n - 2; i >= 0; --i) {
    const cd t = tau[i];
    if (t == cd{}) continue;
    const int len = n - i - 1;
    cd* v = M.col(i) + i + 1;
    v[0] = 1.0;
    for (int c = i + 1; c < n; ++c) {
      cd* q = Q.col(c) + i + 1;
      cd z{};
      for (int k = 0; k < len; ++k) z += std::conj(v[k]) * q[k];
      z *= t;
      for (int k = 0; k < len; ++k) q[k] -= z * v[k];
    }
  }

  // 3. Implicit shifted QL. e[m] couples d[m] and d[m+1]; e[n-1] = 0.
  if (n > 0) e[n - 1] = 0.0;
  const int max_iter = 30 * std::max(n, 1);
  int iter = 0;
  for (int l = 0; l < n; ++l) {
    for (;;) {
      int m = l;
      for (; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= kEps * dd ||
            std::abs(e[m]) < std::numeric_limits<double>::min())
          break;
      }
      if (m == l) break;
      if (++iter > max_iter)
        throw std::runtime_error("eigh: QL iteration did not converge");
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = pythag(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + (g >= 0 ? r : -r));
      double s = 1.0, c = 1.0, p = 0.0;
      bool deflated = false;
      for (int i = m - 1; i >= l; --i) {
        const double f = s * e[i], b = c * e[i];
        r = pythag(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Underflow splits the block: recover and restart at l.
          d[i + 1] -= p;
          e[m] = 0.0;
          deflated = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        cd* q0 = Q.col(i);
        cd* q1 = Q.col(i + 1);
        for (int k = 0; k < n; ++k) {
          const cd f1 = q1[k];
          q1[k] = s * q0[k] + c * f1;
          q0[k] = c * q0[k] - s * f1;
        }
      }
      if (deflated) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }

  // 4. Sort ascending.
  std::vector<int>& order = ws.ivec(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return d[a] < d[b]; });
  std::vector<double>& evals = ws.dvec(EigenScratch::kEvals, n);
  MatC& evecs = ws.mat(EigenScratch::kEvecs, n, n);
  for (int j = 0; j < n; ++j) {
    evals[j] = d[order[j]];
    if (!std::isfinite(evals[j]))
      throw std::runtime_error("eigh: non-finite eigenvalue");
    std::copy(Q.col(order[j]), Q.col(order[j]) + n, evecs.col(j));
  }
}

// Cholesky into caller-provided lower-triangular storage (upper triangle
// zeroed). Shared by the allocating and arena-backed entry points.
void cholesky_core(const MatC& A, MatC& L) {
  const int n = A.rows();
  assert(A.cols() == n);
  double scale = 0.0;
  for (int j = 0; j < n; ++j) scale = std::max(scale, A(j, j).real());
  // Reject near-singular matrices too: downstream triangular solves would
  // amplify rounding noise catastrophically.
  const double min_pivot = std::max(scale, 1e-300) * 1e-13;
  L.reshape(n, n);
  for (int j = 0; j < n; ++j) {
    cd* lj = L.col(j);
    std::fill(lj, lj + j, cd{});  // strict upper triangle of this column
    double d = A(j, j).real();
    for (int k = 0; k < j; ++k) d -= std::norm(L(j, k));
    if (d <= min_pivot)
      throw std::runtime_error("cholesky: not (numerically) positive definite");
    const double ljj = std::sqrt(d);
    L(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      cd acc = A(i, j);
      for (int k = 0; k < j; ++k) acc -= L(i, k) * std::conj(L(j, k));
      L(i, j) = acc / ljj;
    }
  }
}

}  // namespace

MatC& EigenScratch::mat(int slot, int rows, int cols) {
  assert(slot >= 0 && slot < kSlots);
  const std::size_t need = static_cast<std::size_t>(rows) * cols;
  if (need > mat_peak_[slot]) {
    mat_peak_[slot] = need;
    ++allocs_;
  }
  mats_[slot].reshape(rows, cols);
  return mats_[slot];
}

std::vector<double>& EigenScratch::dvec(int slot, int n) {
  assert(slot >= 0 && slot < kDvecs);
  return grow(dvecs_[slot], dvec_peak_[slot], n);
}

std::vector<cd>& EigenScratch::cvec(int slot, int n) {
  assert(slot >= 0 && slot < kCvecs);
  return grow(cvecs_[slot], cvec_peak_[slot], n);
}

std::vector<int>& EigenScratch::ivec(int n) {
  return grow(ivec_, ivec_peak_, n);
}

void EigenScratch::reserve(int dim) {
  for (int slot = 0; slot < kSlots; ++slot) mat(slot, dim, dim);
  for (int slot = 0; slot < kDvecs; ++slot) dvec(slot, dim);
  for (int slot = 0; slot < kCvecs; ++slot) cvec(slot, dim);
  ivec(dim);
}

EighResult eigh(const MatC& A) {
  EigenScratch ws;
  const EighView v = eigh(A, ws);
  return EighResult{*v.eigenvalues, *v.eigenvectors};
}

EighView eigh(const MatC& A, EigenScratch& ws) {
  eigh_core(A, ws);
  return EighView{&ws.dvec(EigenScratch::kEvals, A.rows()),
                  &ws.mat(EigenScratch::kEvecs, A.rows(), A.rows())};
}

EighResultReal eigh(const MatR& A) {
  const int n = A.rows();
  MatC Ac(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) Ac(i, j) = cd(A(i, j), 0.0);
  EighResult r = eigh(Ac);
  EighResultReal out;
  out.eigenvalues = std::move(r.eigenvalues);
  out.eigenvectors.resize(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      out.eigenvectors(i, j) = r.eigenvectors(i, j).real();
  return out;
}

MatC cholesky(const MatC& A) {
  MatC L;
  cholesky_core(A, L);
  return L;
}

void cholesky(const MatC& A, MatC& L) { cholesky_core(A, L); }

void trsm_right_lherm(const MatC& L, MatC& B) {
  // Solve X L^H = B, i.e. for each row x of B: x = b * L^{-H}.
  // L^H is upper triangular with (L^H)(k,j) = conj(L(j,k)).
  // Forward substitution over columns: X(:,0) = B(:,0)/conj(L(0,0)), then
  // X(:,j) = (B(:,j) - sum_{k<j} X(:,k) conj(L(j,k))) / conj(L(j,j)).
  const int n = L.rows();
  const int m = B.rows();
  assert(B.cols() == n);
  for (int j = 0; j < n; ++j) {
    cd* bj = B.col(j);
    for (int k = 0; k < j; ++k) {
      const cd ljk = std::conj(L(j, k));
      if (ljk == cd(0, 0)) continue;
      const cd* bk = B.col(k);
      for (int i = 0; i < m; ++i) bj[i] -= bk[i] * ljk;
    }
    const cd d = std::conj(L(j, j));
    for (int i = 0; i < m; ++i) bj[i] /= d;
  }
}

std::vector<double> solve_linear(MatR A, std::vector<double> b) {
  const int n = A.rows();
  assert(A.cols() == n && static_cast<int>(b.size()) == n);
  for (int k = 0; k < n; ++k) {
    // Partial pivot.
    int piv = k;
    for (int i = k + 1; i < n; ++i)
      if (std::abs(A(i, k)) > std::abs(A(piv, k))) piv = i;
    if (std::abs(A(piv, k)) < 1e-300)
      throw std::runtime_error("solve_linear: singular matrix");
    if (piv != k) {
      for (int j = 0; j < n; ++j) std::swap(A(k, j), A(piv, j));
      std::swap(b[k], b[piv]);
    }
    for (int i = k + 1; i < n; ++i) {
      const double f = A(i, k) / A(k, k);
      if (f == 0.0) continue;
      for (int j = k; j < n; ++j) A(i, j) -= f * A(k, j);
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (int i = n - 1; i >= 0; --i) {
    double acc = b[i];
    for (int j = i + 1; j < n; ++j) acc -= A(i, j) * x[j];
    x[i] = acc / A(i, i);
  }
  return x;
}

}  // namespace ls3df
