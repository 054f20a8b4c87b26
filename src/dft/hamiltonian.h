// Plane-wave Kohn-Sham Hamiltonian  H = -1/2 nabla^2 + V_loc(r) + V_NL.
// Kinetic and nonlocal terms act in q-space; the local potential acts in
// real space via FFTs — the standard planewave-code structure shared by
// PEtot, PARATEC and Qbox (Sec. IV).
//
// Both application paths of the paper's optimization study are provided:
//   apply()       all bands at once (BLAS-3 nonlocal, batched FFTs)
//   apply_band()  one band at a time (BLAS-2 nonlocal), the original
//                 PEtot band-by-band scheme
//
// Thread safety: apply/apply_band/density/density_into/
// kinetic_energy_density all reuse the internal FFT scratch (work_), so
// one Hamiltonian instance must not be driven from two threads at once.
// The LS3DF engine guarantees this by owning one Hamiltonian per
// fragment and running each fragment on a single worker lane.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "atoms/structure.h"
#include "common/flops.h"
#include "fft/fft3d.h"
#include "grid/field3d.h"
#include "grid/gvectors.h"
#include "linalg/blas.h"
#include "linalg/matrix.h"
#include "pseudo/pseudopotential.h"

namespace ls3df {

// Grow-only scratch arena for Hamiltonian::apply_batched: the contiguous
// grid stack (one grid per band) plus one nonlocal projection matrix per
// batch member. One arena per batch, persistent across SCF iterations, so
// the steady state allocates nothing; allocations() counts capacity-growth
// events like EigenWorkspace so the LS3DF probe can watch it.
class ApplyBatchWorkspace {
 public:
  // Contiguous stack of n complex grid points (values unspecified).
  std::complex<double>* grid_stack(std::size_t n);
  // Projection matrix slot for batch member `member`, sized rows x cols.
  MatC& proj(int member, int rows, int cols);

  // Single-precision twins backing apply_batched_f32 (the mixed-precision
  // Davidson fast path). They live beside the double arenas, not instead
  // of them: a batch whose SCF loop alternates precision (fp32 early
  // iterations, fp64 after promotion) keeps both steady states resident,
  // and neither costs anything until first touched.
  std::complex<float>* grid_stack_f32(std::size_t n);
  MatCF& proj_f32(int member, int rows, int cols);

  long allocations() const { return allocs_; }

  // Dispatch-control scratch hoisted out of apply_batched: band offsets,
  // the band -> member map, and the batched-GEMM item lists. Tiny, but a
  // fresh heap allocation per dispatch would keep the steady-state
  // allocation probes from ever going flat. Grow-only (assign/clear keep
  // capacity); capacity growth is folded into allocations() once per
  // dispatch via note_dispatch_capacity().
  std::vector<int> off, member_of, nl_members;
  std::vector<GemmBatchItem> overlap_items, accum_items;
  std::vector<GemmBatchItemF> overlap_items_f32, accum_items_f32;

 private:
  friend class Hamiltonian;
  void note_dispatch_capacity();

  std::vector<std::complex<double>> stack_;
  std::size_t stack_peak_ = 0;
  std::deque<MatC> proj_;  // deque: slot addresses stay stable on growth
  std::vector<std::size_t> proj_peak_;
  std::vector<std::complex<float>> stack_f32_;
  std::size_t stack_f32_peak_ = 0;
  std::deque<MatCF> proj_f32_;
  std::vector<std::size_t> proj_f32_peak_;
  std::size_t dispatch_peak_ = 0;
  long allocs_ = 0;
};

class Hamiltonian {
 public:
  // `basis` defines the wavefunction plane-wave set; the FFT grid is the
  // basis' grid shape. The local potential starts as the bare ionic one
  // and is replaced each SCF step via set_local_potential().
  Hamiltonian(const Structure& s, const GVectors& basis);

  const GVectors& basis() const { return *basis_; }
  const Structure& structure() const { return structure_; }
  const NonlocalKB& nonlocal() const { return *nl_; }
  const FieldR& local_potential() const { return vloc_; }

  void set_local_potential(const FieldR& v);

  // hpsi = H psi for all columns (allocates hpsi to match psi).
  void apply(const MatC& psi, MatC& hpsi) const;
  // hpsi = H psi for a single band.
  void apply_band(const std::complex<double>* psi,
                  std::complex<double>* hpsi) const;

  // One member of a batched application: hpsi_i = H_i psi_i. `slot`
  // names the member's workspace slot; it must stay stable for the
  // lifetime of the batch (callers that drop converged members from the
  // item list keep each survivor's original slot, so per-slot arena
  // peaks never regress). Negative means "use the item's position".
  struct ApplyItem {
    const Hamiltonian* h = nullptr;
    const MatC* psi = nullptr;
    MatC* hpsi = nullptr;
    int slot = -1;
  };

  // Batched application across a stack of same-size-class fragments (all
  // members must share the FFT grid shape; basis tables are per member).
  // The local part gives every band of every member its own grid in one
  // contiguous stack and runs scatter, inverse sphere transform, V_loc,
  // forward sphere transform and gather for each grid in one parallel
  // sweep; the nonlocal part runs two batched GEMMs. Per-band
  // arithmetic is exactly apply()'s, so a batched call is bit-identical
  // to the member-by-member loop for any n_workers — batching only
  // changes scheduling and cache behaviour. This is the seam a GPU
  // backend slots into: the grid stack and the fused GEMM grid are the
  // device-friendly units.
  static void apply_batched(const std::vector<ApplyItem>& items,
                            ApplyBatchWorkspace& ws, int n_workers = 1);

  // Single-precision batch member (fp32 wavefunction blocks).
  struct ApplyItemF32 {
    const Hamiltonian* h = nullptr;
    const MatCF* psi = nullptr;
    MatCF* hpsi = nullptr;
    int slot = -1;
  };

  // Single-precision twin of apply_batched: the same scatter / sphere FFT
  // / V_loc / gather+kinetic / two-GEMM structure, run entirely in fp32
  // (single-precision FFT plans, float GEMM cores, fp32 grid stack).
  // This path is NOT bit-identical to apply() — it is the engine of the
  // mixed-precision Davidson fast path and is guarded by trajectory
  // checks (tests/test_mixed_precision.cpp) rather than the bit-identity
  // contract. Each member's fp32 mirrors (V_loc, |G|^2, KB projectors)
  // are built up front, serially, so the parallel body never races a
  // lazy build.
  static void apply_batched_f32(const std::vector<ApplyItemF32>& items,
                                ApplyBatchWorkspace& ws, int n_workers = 1);

  // Kinetic energy sum_i occ_i <psi_i| -1/2 nabla^2 |psi_i>.
  double kinetic_energy(const MatC& psi, const std::vector<double>& occ) const;

  // Kinetic energy density tau(r) = sum_i occ_i 1/2 |grad psi_i(r)|^2 on
  // the FFT grid (used by the LS3DF patched kinetic energy).
  FieldR kinetic_energy_density(const MatC& psi,
                                const std::vector<double>& occ) const;

  // Flop accounting: all applications add analytic counts here.
  void set_flop_counter(FlopCounter* fc) { flops_ = fc; }

  // Electron density of the given (orthonormal) bands with occupations;
  // normalized so that  int rho d3r = sum(occ).
  FieldR density(const MatC& psi, const std::vector<double>& occ) const;

  // Same, accumulated into a caller-owned field of the FFT-grid shape
  // (overwritten). With n_workers > 1 (the batched fragment dispatch
  // passes its inner lanes) the occupied bands are scattered into one
  // contiguous grid stack and moved to real space by inverse_sphere
  // transforms fanned out over the lanes; the stack is a grow-only
  // internal arena, so the steady state allocates nothing. With
  // n_workers <= 1 the bands stream through the single work_ grid (no
  // stack memory). Per-band arithmetic and the
  // band-order accumulation are identical either way, so the density is
  // bit-identical for any n_workers.
  void density_into(const MatC& psi, const std::vector<double>& occ,
                    FieldR& rho, int n_workers = 1) const;

 private:
  void apply_local(const std::complex<double>* in,
                   std::complex<double>* out) const;

  // Build the single-precision mirrors apply_batched_f32 reads: V_loc is
  // re-rounded whenever set_local_potential() replaces it; |G|^2 and the
  // KB projectors/strengths are immutable after construction and rounded
  // once. Serial-only — callers invoke it before fanning out.
  void ensure_f32_mirrors() const;

  Structure structure_;
  std::unique_ptr<GVectors> basis_;
  Fft3D fft_;
  FieldR vloc_;
  std::unique_ptr<NonlocalKB> nl_;
  FlopCounter* flops_ = nullptr;
  mutable FieldC work_;  // FFT scratch
  // Grow-only grid stack for density_into's parallel branch (one grid
  // per occupied band). Like work_, shares the instance's
  // one-thread-at-a-time contract.
  mutable std::vector<std::complex<double>> density_stack_;
  // Single-precision mirrors for apply_batched_f32 (see
  // ensure_f32_mirrors). Lazily built; V_loc's copy is invalidated by
  // set_local_potential so fp64-only runs never pay for them.
  mutable std::vector<float> vloc_f32_;
  mutable bool vloc_f32_valid_ = false;
  mutable std::vector<float> g2_f32_;
  mutable MatCF projectors_f32_;
  mutable std::vector<float> strengths_f32_;
};

// Default density/FFT grid for a lattice and wavefunction cutoff: large
// enough to hold charge-density frequencies (2 G_max) without aliasing,
// rounded up to a 2-3-5-smooth FFT size.
Vec3i default_fft_grid(const Lattice& lat, double ecut_hartree);

}  // namespace ls3df
