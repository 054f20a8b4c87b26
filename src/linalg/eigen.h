// Dense Hermitian eigensolver and Cholesky-based utilities. Sizes here are
// subspace dimensions (number of bands, <= a few hundred): the
// Rayleigh-Ritz step of every Davidson iteration diagonalizes one such
// matrix, so eigh() is on the fragment solver's hot path. It is the
// LAPACK zhetd2 -> zsteqr shape: Householder reduction to a real
// symmetric tridiagonal, then implicit shifted QL with the rotations
// applied to the accumulated complex reflectors: one reduction plus
// about two QL iterations per eigenvalue, each O(n) per rotation. Backward
// stable: residual and orthogonality errors are O(n eps ||A||).
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.h"

namespace ls3df {

struct EighResult {
  std::vector<double> eigenvalues;  // ascending
  MatC eigenvectors;                // columns; A * v_k = w_k * v_k
};

// Full eigendecomposition of a Hermitian matrix (only the lower triangle
// and diagonal are required to be meaningful; the matrix is symmetrized).
// Eigenvector phases are arbitrary. Throws std::runtime_error on a
// non-finite entry or if the QL iteration fails to converge.
EighResult eigh(const MatC& A);

// Grow-only scratch arena for the dense solvers below. The Rayleigh-Ritz
// loop of the iterative eigensolver calls eigh() every iteration on a
// subspace matrix of at most a few hundred rows; with an arena those
// calls allocate nothing once the arena has reached its peak — the last
// per-iteration heap source the fragment-workspace probe could not see.
// allocations() counts capacity-growth events exactly like
// EigenWorkspace so the two probes compose.
class EigenScratch {
 public:
  static constexpr int kSlots = 6;  // M, V (= Q), evecs, S, L, caller slot

  // Slot ids for the arena-backed entry points and their callers.
  static constexpr int kM = 0, kV = 1, kEvecs = 2, kS = 3, kL = 4, kA = 5;

  // eigh() work vectors: eigenvalues, the tridiagonal's diagonal and
  // off-diagonal, the reflector scalars and the rank-2 update vector.
  static constexpr int kDvecs = 3, kCvecs = 2;
  static constexpr int kEvals = 0, kDiag = 1, kOffdiag = 2;
  static constexpr int kTau = 0, kWork = 1;

  MatC& mat(int slot, int rows, int cols);
  std::vector<double>& dvec(int slot, int n);
  std::vector<std::complex<double>>& cvec(int slot, int n);
  std::vector<int>& ivec(int n);

  // Grow every slot to the given subspace dimension so steady-state use
  // can never allocate (idempotent once grown).
  void reserve(int dim);

  long allocations() const { return allocs_; }

 private:
  template <class T>
  std::vector<T>& grow(std::vector<T>& v, std::size_t& peak, int n) {
    if (static_cast<std::size_t>(n) > peak) {
      peak = n;
      ++allocs_;
    }
    v.resize(n);
    return v;
  }

  MatC mats_[kSlots];
  std::size_t mat_peak_[kSlots] = {};
  std::vector<double> dvecs_[kDvecs];
  std::vector<std::complex<double>> cvecs_[kCvecs];
  std::vector<int> ivec_;
  std::size_t dvec_peak_[kDvecs] = {}, cvec_peak_[kCvecs] = {};
  std::size_t ivec_peak_ = 0;
  long allocs_ = 0;
};

// Arena-backed eigendecomposition: the kernel behind every eigh()
// overload (the allocating ones run it on a temporary arena), so all
// paths are bit-identical. Every temporary and both outputs live in (and
// persist through) the caller's scratch arena. The returned views alias scratch storage and
// stay valid until the next arena-backed call on the same scratch.
struct EighView {
  const std::vector<double>* eigenvalues;  // ascending, n entries
  const MatC* eigenvectors;                // n x n
};
EighView eigh(const MatC& A, EigenScratch& ws);

// Real symmetric convenience wrapper.
struct EighResultReal {
  std::vector<double> eigenvalues;
  MatR eigenvectors;
};
EighResultReal eigh(const MatR& A);

// Cholesky factorization A = L * L^H of a Hermitian positive-definite
// matrix; returns lower-triangular L. Throws std::runtime_error if A is
// not (numerically) positive definite.
MatC cholesky(const MatC& A);

// Arena-backed variant: factors into caller-owned (typically
// scratch-resident) storage, allocating nothing once L has reached its
// peak extent. Same arithmetic and same not-positive-definite throw.
void cholesky(const MatC& A, MatC& L);

// Solve X * L^H = B in place (right triangular solve), i.e. replace B by
// B * L^{-H}. Used to orthonormalize a band block from its overlap matrix:
// given S = X^H X = L L^H, the block X L^{-H} is orthonormal.
void trsm_right_lherm(const MatC& L, MatC& B);

// Solve the small linear system A x = b by Gaussian elimination with
// partial pivoting (A is copied). Used by the least-squares and mixing
// machinery.
std::vector<double> solve_linear(MatR A, std::vector<double> b);

}  // namespace ls3df
