// Minimal BLAS-like kernels built from scratch: matrix-matrix products
// (the BLAS-3 path that Sec. IV's all-band optimization relies on),
// matrix-vector products (the BLAS-2 path of the original band-by-band
// scheme), the strided-batched product the fragment batching engine fuses
// same-class solves with, and the level-1 helpers the CG solvers need.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.h"

namespace ls3df {

enum class Op { kNone, kTrans, kConjTrans };

// C = alpha * op(A) * op(B) + beta * C.
void gemm(Op opA, Op opB, std::complex<double> alpha, const MatC& A,
          const MatC& B, std::complex<double> beta, MatC& C);
void gemm(Op opA, Op opB, double alpha, const MatR& A, const MatR& B,
          double beta, MatR& C);
// Single-precision instantiation of the same blocked kernels (the
// register-tiled cores are templated over the real type), used by the
// mixed-precision Davidson fast path. Roughly 2x the SIMD width of the
// double path on the same shapes.
void gemm(Op opA, Op opB, std::complex<float> alpha, const MatCF& A,
          const MatCF& B, std::complex<float> beta, MatCF& C);

// One member of a batched product: C = alpha * op(A) * op(B) + beta * C.
// Shapes may differ between members (same-class fragment batches share
// them, but the nonlocal path has per-fragment projector counts).
// Templated over the real type like the blocked cores: <double> is the
// engine path, <float> the mixed-precision Davidson stack.
template <typename Real>
struct BasicGemmBatchItem {
  const Matrix<std::complex<Real>>* a = nullptr;
  const Matrix<std::complex<Real>>* b = nullptr;
  Matrix<std::complex<Real>>* c = nullptr;
};
using GemmBatchItem = BasicGemmBatchItem<double>;

// Batched GEMM: every item's product, fused into one sweep over a grid of
// (member, column-tile) work units executed via parallel_for on the shared
// pool. Tiles are aligned to the register-blocking width of the serial
// kernels, so each C element is produced by exactly the arithmetic gemm()
// would use — a batched call is bit-identical to the member-by-member
// loop for any n_workers, which is what lets the batched fragment solver
// promise per-fragment reproducibility. n_workers <= 1 runs inline.
// Instantiated for double and float.
template <typename Real>
void gemm_batched(Op opA, Op opB, std::complex<Real> alpha,
                  const std::vector<BasicGemmBatchItem<Real>>& items,
                  std::complex<Real> beta, int n_workers = 1);

// y = alpha * op(A) * x + beta * y (BLAS-2).
void gemv(Op opA, std::complex<double> alpha, const MatC& A,
          const std::complex<double>* x, std::complex<double> beta,
          std::complex<double>* y);

// Hermitian overlap S = A^H * B restricted to (A.cols x B.cols).
// Convenience wrapper over gemm used for all-band orthogonalization.
MatC overlap(const MatC& A, const MatC& B);

// Level-1 helpers over contiguous spans.
std::complex<double> zdotc(int n, const std::complex<double>* x,
                           const std::complex<double>* y);
double dznrm2(int n, const std::complex<double>* x);
void zaxpy(int n, std::complex<double> a, const std::complex<double>* x,
           std::complex<double>* y);
void zscal(int n, std::complex<double> a, std::complex<double>* x);

// Single-precision level-1 (BLAS naming). Reductions (cdotc, scnrm2)
// accumulate in double and round once on return: the fp32 Davidson's
// Gram-Schmidt expansion keeps orthogonality at fp32 eps instead of
// sqrt(n) * eps, and the level-1 traffic is negligible next to the GEMM
// and FFT sweeps that carry the fp32 speedup.
std::complex<float> cdotc(int n, const std::complex<float>* x,
                          const std::complex<float>* y);
float scnrm2(int n, const std::complex<float>* x);
void caxpy(int n, std::complex<float> a, const std::complex<float>* x,
           std::complex<float>* y);
void cscal(int n, std::complex<float> a, std::complex<float>* x);

}  // namespace ls3df
