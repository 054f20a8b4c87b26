// Iterative eigensolvers for the fragment Schroedinger equation.
//
// Two solver families mirror the paper's Sec. IV optimization study:
//  - solve_all_band: blocked solver working on all wavefunctions
//    simultaneously; orthogonalization via overlap matrix + Cholesky and
//    nonlocal projection via BLAS-3 (the optimized PEtot_F).
//  - solve_band_by_band: conjugate gradient one band at a time with
//    Gram-Schmidt orthogonalization against lower bands (the original
//    PEtot scheme; BLAS-2 dominated).
// Both use the Teter-Payne-Allan kinetic preconditioner standard in
// planewave codes [Payne et al., Rev. Mod. Phys. 64, 1045 (1992)].
//
// == Batched fragment eigensolves (architecture) ==
//
// LS3DF's runtime is dominated by thousands of *small* fragment solves
// whose BLAS-3 calls and FFTs are individually too skinny to saturate the
// kernels. Fragments in the same size class share identical (ng, nb)
// shapes, so solve_all_band_batched() runs K of them in lockstep:
//
//   one batched H application      Hamiltonian::apply_batched — every
//                                  band of every member scattered onto
//                                  its worker lane's grid and run through
//                                  the sphere-pruned transforms
//                                  (Fft3D::inverse_sphere) in one
//                                  parallel sweep, one fused nonlocal
//                                  GEMM grid (gemm_batched);
//   K small Rayleigh-Ritz solves   subspace G = V^H HV and the Ritz
//                                  rotations run as batched GEMMs; the
//                                  dense eigh of each (<= 2nb)^2 subspace
//                                  matrix stays per member, arena-backed;
//   per-member scalar steps        residuals, TPA preconditioning and
//                                  search-space expansion fan out over
//                                  members.
//
// Members converge independently: a converged member drops out of the
// lockstep batch and the remaining members keep iterating, so every
// member executes exactly the arithmetic the per-fragment solver would —
// results are bit-identical to solve_all_band for any batch width and
// worker count; batching only changes scheduling and cache behaviour.
//
// This driver is also the seam a GPU backend slots into: the contiguous
// grid stack, the fused GEMM work grid, and the per-batch workspace
// arenas are exactly the units a device stream wants, while the
// per-member scalar steps stay on the host. Porting apply_batched and
// gemm_batched moves the dominant cost to the device without touching
// the LPT scheduler or the SCF loop.
//
// == Live lane width (donation) ==
//
// The batched drivers take an optional live_lanes callback. When set, the
// driver re-reads it at every sweep boundary (each batched apply, each
// batched GEMM, each per-member fan-out) and uses the returned width for
// that sweep instead of the fixed n_workers it was launched with. The
// LS3DF engine points this at LaneBudget::allowance(): as sibling chains
// of the same dispatch round retire, their worker lanes are donated and
// the still-running solves widen mid-flight. Every batched kernel is
// worker-count-invariant by construction, so a donated width change can
// never alter results — the bit-identity contract holds for any width
// schedule (tests/test_equivalence.cpp checks the donating production
// driver against the per-fragment reference).
//
// == Mixed precision (fp32 fast path) ==
//
// solve_all_band_batched is one template over the real type. <double> is
// the engine path described above; <float> runs the same lockstep
// Davidson with fp32 Ritz blocks (EigenWorkspace::mat<float>),
// Hamiltonian::apply_batched<float> (single-precision FFT plans and GEMM
// cores) and float batched GEMMs for the Rayleigh-Ritz projections. The
// two instantiations differ at exactly five points, each a small helper
// in eigensolver.cpp that is the plain fp64 step for double:
//   - the guess is orthonormalized in double, then rounded once into the
//     fp32 block V (no float Cholesky needed);
//   - the residual tolerance is floored at 2e-5 — fp32 cannot resolve
//     tighter residuals, so the solver must not chase them;
//   - the tiny subspace matrix G is promoted to double for the dense
//     eigh (free next to the fp32 GEMMs, keeps the rotation
//     well-conditioned); for double, G already is that slot;
//   - the Ritz rotation Y and the final psi are rounded back across the
//     precision boundary;
//   - the sweep's trace span is named davidson.sweep.f32.
// The promotion policy lives in the LS3DF engine (fragment/ls3df.h,
// Ls3dfOptions::precision): early outer SCF iterations run <float> while
// the mixer's L1 residual is above promote_factor * l1_tol, then every
// later iteration runs <double>, which erases the fp32 rounding history
// (the converged fixed point is the fp64 one). <float> is NOT
// bit-identical to the reference; it is guarded by trajectory checks
// (tests/test_mixed_precision.cpp) instead, and is off by default.
#pragma once

#include <deque>
#include <functional>
#include <tuple>
#include <vector>

#include "dft/hamiltonian.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

namespace ls3df {

struct EigensolverOptions {
  int max_iterations = 25;     // outer iterations (all-band) or CG steps/band
  double residual_tol = 1e-7;  // max |H psi - eps psi| to declare converged
  bool precondition = true;
};

struct EigensolverResult {
  std::vector<double> eigenvalues;  // ascending, one per band
  int iterations = 0;
  double max_residual = 0.0;
  bool converged = false;
};

// Reusable scratch arena for the block temporaries of the iterative
// solvers. One arena per persistent worker lane: buffers grow to the
// largest fragment the lane ever solves and are then reused across
// fragments and outer SCF iterations with zero further heap traffic.
// allocations() counts capacity-growth events, which is the probe the
// LS3DF determinism test uses to verify the steady state allocates
// nothing.
//
// An arena carries no state between solves — every slot is fully
// overwritten before it is read — so results are independent of which
// lane (and therefore which arena) a fragment lands on.
class EigenWorkspace {
 public:
  static constexpr int kMatSlots = 9;  // kV..kY in eigensolver.cpp
  static constexpr int kVecSlots = 5;  // kHpsi..kPrevDir

  // Slot `slot` resized to rows x cols (values unspecified). Storage is
  // reused; an allocation is counted only when the element count exceeds
  // the slot's previous peak (when the underlying vector really grows).
  // Each precision has its own slots: the float ones back
  // solve_all_band_batched<float> and stay empty until the
  // mixed-precision fast path first touches the lane, so fp64-only runs
  // pay nothing for them.
  template <typename Real = double>
  Matrix<std::complex<Real>>& mat(int slot, int rows, int cols);
  // Same for contiguous complex vectors.
  std::vector<std::complex<double>>& vec(int slot, int n);

  // Scratch arena for the dense eigh/cholesky calls of the Rayleigh-Ritz
  // loop (linalg/eigen.h), owned by the same lane as the block slots so
  // the whole solve allocates nothing in the steady state.
  EigenScratch& scratch() { return scratch_; }

  // Grow every slot to the extents a fragment of (ng, nb) can ever need,
  // so solves of any fragment at or below those extents never allocate.
  // all_band additionally reserves the double block-solver matrix slots
  // (the band-by-band solver only uses the vector slots).
  void reserve(int ng, int nb, bool all_band = true);
  // Grow the block-solver matrix slots of one precision the same way.
  template <typename Real>
  void reserve_block(int ng, int nb);

  long allocations() const { return allocs_ + scratch_.allocations(); }

 private:
  template <typename Real>
  struct MatSlots {
    Matrix<std::complex<Real>> mats[kMatSlots];
    std::size_t peak[kMatSlots] = {};
  };
  std::tuple<MatSlots<double>, MatSlots<float>> mats_;
  std::vector<std::complex<double>> vecs_[kVecSlots];
  std::size_t vec_peak_[kVecSlots] = {};
  EigenScratch scratch_;
  long allocs_ = 0;
};

// Workspace set of a fragment batch: one EigenWorkspace per member plus
// the apply-stack arena. One BatchWorkspace per scheduled batch,
// persistent across outer SCF iterations (batch composition is fixed by
// the size-class grouping, so slots reach their peak in the first
// iteration and are reused ever after).
class BatchWorkspace {
 public:
  EigenWorkspace& member(int i);
  ApplyBatchWorkspace& apply() { return apply_; }

  // Capacity-growth events across every member arena and the apply stack.
  long allocations() const;

  // Dispatch-control scratch hoisted out of the lockstep driver: per
  // precision, the batched-apply item list and the three Rayleigh-Ritz
  // GEMM item lists; and the active/still member index sets. A fresh
  // heap allocation per sweep would keep the steady-state allocation
  // probes from going flat; these are grow-only instead, and capacity
  // growth folds into allocations() once per solve via
  // note_dispatch_capacity().
  template <typename Real>
  struct DispatchLists {
    std::vector<Hamiltonian::BasicApplyItem<Real>> apply_items;
    std::vector<BasicGemmBatchItem<Real>> g_items, x_items, hx_items;
    std::size_t capacity() const {
      return apply_items.capacity() + g_items.capacity() +
             x_items.capacity() + hx_items.capacity();
    }
  };
  template <typename Real>
  DispatchLists<Real>& lists() {
    return std::get<DispatchLists<Real>>(lists_);
  }
  std::vector<int> active, still;

  // Grow-only byte arena for the drivers' per-member bookkeeping table
  // (a trivially-destructible internal struct; sized bytes, aligned for
  // any object type by the underlying allocator).
  void* member_table(std::size_t bytes);
  void note_dispatch_capacity();

 private:
  std::deque<EigenWorkspace> members_;  // deque: stable member addresses
  ApplyBatchWorkspace apply_;
  std::tuple<DispatchLists<double>, DispatchLists<float>> lists_;
  std::vector<unsigned char> member_table_;
  std::size_t member_table_peak_ = 0;
  std::size_t dispatch_peak_ = 0;
  long allocs_ = 0;
};

// Orthonormalize the columns of X in place via S = X^H X, X <- X L^{-H}
// (BLAS-3; the paper's overlap-matrix scheme). Falls back to Gram-Schmidt
// if S is numerically singular.
void orthonormalize_cholesky(MatC& X);
// Arena-backed variant (identical arithmetic; S and L live in the
// scratch, so steady-state calls allocate nothing).
void orthonormalize_cholesky(MatC& X, EigenScratch& ws);

// Classic modified Gram-Schmidt, one column at a time (BLAS-1/2; the
// original band-by-band scheme).
void orthonormalize_gram_schmidt(MatC& X);

// Rayleigh-Ritz within span(X): rotates X (and optionally HX) to
// approximate eigenvectors, returns subspace eigenvalues ascending.
std::vector<double> subspace_rotate(const Hamiltonian& h, MatC& X);

// Blocked Davidson with TPA preconditioning. psi holds the initial guess
// (columns need not be orthonormal) and is replaced by the lowest
// psi.cols() eigenvector approximations. With a workspace, all block
// temporaries live in (and persist through) the caller's arena.
EigensolverResult solve_all_band(const Hamiltonian& h, MatC& psi,
                                 const EigensolverOptions& opt,
                                 EigenWorkspace& ws);
EigensolverResult solve_all_band(const Hamiltonian& h, MatC& psi,
                                 const EigensolverOptions& opt = {});

// One member of a batched fragment solve.
struct FragmentSolve {
  const Hamiltonian* h = nullptr;
  MatC* psi = nullptr;  // initial guess in, eigenvector approximations out
};

// Batched all-band solver: runs every member's Davidson iteration in
// lockstep (see the architecture block above). All members must share the
// FFT grid shape (same size class). live_lanes, when set, is re-read at
// every sweep boundary and overrides n_workers for that sweep (the lane-
// donation hook; see the architecture block). Instantiated for double and
// float; both take and return double-precision psi blocks.
//   <double>: results[i] is bit-identical to
//     solve_all_band(*frags[i].h, *frags[i].psi, opt) for any batch
//     width, n_workers, and live_lanes schedule.
//   <float>: the mixed-precision fast path (see the block above). NOT
//     bit-identical to solve_all_band — the effective residual tolerance
//     is floored at 2e-5 and eigenvalues carry fp32 subspace accuracy —
//     but, like <double>, invariant to batch width, n_workers and the
//     live_lanes schedule.
template <typename Real = double>
std::vector<EigensolverResult> solve_all_band_batched(
    const std::vector<FragmentSolve>& frags, const EigensolverOptions& opt,
    BatchWorkspace& ws, int n_workers = 1,
    const std::function<int()>& live_lanes = {});

// Band-by-band preconditioned CG.
EigensolverResult solve_band_by_band(const Hamiltonian& h, MatC& psi,
                                     const EigensolverOptions& opt,
                                     EigenWorkspace& ws);
EigensolverResult solve_band_by_band(const Hamiltonian& h, MatC& psi,
                                     const EigensolverOptions& opt = {});

// Random (reproducible) plane-wave coefficients damped at high kinetic
// energy: the standard starting guess.
MatC random_wavefunctions(const GVectors& basis, int n_bands,
                          std::uint64_t seed);

}  // namespace ls3df
