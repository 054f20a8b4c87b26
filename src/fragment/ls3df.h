// The LS3DF solver: the paper's primary contribution (Sec. III, Fig. 2).
//
// Each self-consistent ("outer") iteration runs four phases, named after
// the paper's subroutines:
//   Gen_VF   - restrict the global input potential onto each fragment box
//              Omega_F (fragment cells + buffer) and add the fixed
//              passivation potential dV_F near the box boundary;
//   PEtot_F  - solve each fragment's Schroedinger equation independently
//              (all-band solver by default) and form its density;
//   Gen_dens - patch fragment densities into the global density with the
//              +- fragment signs:  rho_tot = sum_F alpha_F rho_F;
//   GENPOT   - solve the global Poisson equation by FFT, add LDA xc,
//              produce V_out; mix with V_in and iterate.
// Self-consistency is measured by  int |V_out - V_in| d3r  (Fig. 6).
//
// Fragments are independent given V_in, so all four phases run on the
// persistent execution engine (src/parallel/thread_pool.h): PEtot_F
// dispatches one task per LPT-scheduled group — the single-node analogue
// of the paper's processor groups — while Gen_VF fans out per fragment
// and Gen_dens per global-density slab. With batch_width > 0, PEtot_F's
// schedulable unit is a *batch* of same-size-class fragments (cost = sum
// of member costs): each batch runs the lockstep batched eigensolver
// (dft/eigensolver.h), fusing the members' Hamiltonian applications and
// subspace GEMMs into strided batched kernels whose internal work grids
// fan out over the batch's share of the worker lanes. Every batch owns a
// persistent BatchWorkspace, so the steady state (after the first outer
// iteration) allocates no fragment workspace memory at all, and results
// are bit-identical for any batch width and worker count.
//
// == Two drivers ==
//
// solve() runs one of exactly two drivers, selected by batch_width:
//   batch_width > 0   the production driver: the barrier-free TaskGraph
//                     iteration below, dense or sharded, on any
//                     transport (SPMD included), with live lane donation;
//   batch_width == 0  the reference driver: the paper's Fig. 2 loop as
//                     written — dense, phased, per-fragment — kept beside
//                     the fast path as its oracle.
// Both produce the same bits for any worker count, batch width, shard
// count and transport.
//
// == Barrier-free iteration (the production driver) ==
//
// The inner iteration is a TaskGraph, not a phase sequence: each
// fragment batch b becomes a chain
//
//   restrict(b) -> solve(b) -> patch(s, f) for every slab s and member f
//
// so the Gen_VF restriction of batch B overlaps the eigensolve of batch
// A, and Gen_dens patching of finished batches overlaps still-running
// solves — the LPT tail that idled whole phases becomes overlapped work.
// Determinism is kept by the *ordered-commit rule*: per destination
// slab, patch commits form a dependency chain in ascending fragment
// order (fragments whose interior window does not touch the slab are
// skipped — they contribute nothing there), so every grid point still
// receives its signed contributions in exactly the dense fragment order,
// whatever order solves finish in. The result is bit-identical to the
// reference driver for any batch width, worker count and shard count.
//
// On the sharded path the graph extends across the GENPOT seam: each
// rank's per-plane charge partials are graph nodes armed the moment that
// rank's slab has received all owed patches (overlapping tail solves),
// and GENPOT itself runs as chained nodes over ShardComm's phased
// collectives (forward transform + Coulomb kernel + inverse, then the
// slab-local xc assembly). The one surviving global sequence point is
// the charge normalization scalar: every slab's partials feed one
// plane-ordered sum whose scale multiplies the density before the
// forward transform, so the transpose pipeline cannot start before the
// last patch commits without changing bits. The L1 metric and the mixer
// update are the graph's final nodes.
//
// Profiling in the graph: phase windows are no longer disjoint, so the
// four phase keys carry *attributed* per-node busy time (one sample per
// iteration, summing to the iteration wall on one lane), "Mix" holds the
// convergence-metric + mixer tail, "Iter.wall" the measured iteration
// wall, and Ls3dfResult::overlap_fraction / chain_times report the
// measured phase-window overlap and the per-chain breakdown.
//
// With Ls3dfOptions::n_shards > 0 the *global* grid is sharded too: the
// density, potentials and mixer state live as x-slabs on a ShardComm
// (grid/sharded_field.h), Gen_dens accumulates fragment windows directly
// into owning shards, and GENPOT becomes a distributed-transpose
// pipeline (DistFft3D + per-shard Poisson/xc + shard-local mixing) in
// which no step materializes the full grid — the single-node analogue of
// the paper's multi-group machine layout, and the MPI seam for it. The
// sharded solve() is bit-identical to the dense path for any shard and
// worker count; n_shards = 0 is the dense production path (the full
// grid on one node, as the Fig. 6 alloy runs). Both use the plane-blocked
// reductions of grid/sharded_field.h for the charge normalization, the
// L1 convergence metric and the Pulay dots, which is what makes the
// equality exact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "atoms/structure.h"
#include "common/rng.h"
#include "common/timer.h"
#include "dft/eigensolver.h"
#include "dft/energy.h"
#include "dft/mixing.h"
#include "dft/scf.h"
#include "fft/plan_cache.h"
#include "fragment/decomposition.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "parallel/scheduler.h"
#include "transport/transport.h"

namespace ls3df {

class FaultPlan;       // checkpoint/fault_injection.h
class SnapshotReader;  // checkpoint/snapshot.h
class TraceRecorder;   // obs/trace.h

// Crash-safe checkpoint/restart (Ls3dfOptions::checkpoint). With a
// non-empty path, solve() writes a versioned CRC-protected snapshot
// (checkpoint/snapshot.h) at the end of every `every`-th completed outer
// iteration — the global sequence point where V_in, the mixer's DIIS
// stack, the fragment wavefunctions and the RNG stream together define
// the rest of the trajectory — and once more at convergence. The write
// is atomic (tmp + rename) and keeps one previous generation as a
// corruption fallback. Ls3dfSolver::resume() reconstructs the mid-SCF
// state from a snapshot and continues *bit-identically* to the
// uninterrupted run, on the dense and sharded paths alike.
struct CheckpointOptions {
  std::string path;  // empty = checkpointing off
  int every = 1;     // snapshot cadence in completed outer iterations
  // Test seam: torn-write injection for the snapshot writer
  // (checkpoint/fault_injection.h). Null in production.
  FaultPlan* fault = nullptr;
};

// PEtot_F eigensolver precision (Ls3dfOptions::precision).
enum class Precision {
  kDouble,  // fp64 everywhere: the bit-identity reference path
  kMixed,   // fp32 batched Davidson for early outer iterations, promoted
            // to fp64 once the mixer's L1 residual crosses the promotion threshold
};

// Per-outer-iteration progress report (Ls3dfOptions::progress), emitted
// at the end-of-iteration sequence point of every solve driver — the
// same point that writes checkpoints, after the mixer has produced the
// next iteration's input. All fields are observations of work already
// done; the callback cannot perturb the trajectory.
struct Ls3dfProgress {
  int iteration = 0;     // 1-based completed outer iteration
  double residual = 0;   // int |V_out - V_in| d3r (the L1 metric)
  // Rank-local signed band-energy partial: sum over *owned* fragments F
  // of alpha_F * sum_i occ_i eps_i. Deliberately communication-free —
  // enabling progress on one SPMD rank can never desynchronize the
  // collective sequence — so under SPMD each rank reports its own
  // share (they sum to the global signed band energy).
  double band_energy = 0;
  bool fp32 = false;     // this iteration ran the fp32 fast path
  double wall_s = 0;     // measured iteration wall seconds
  // Per-phase seconds attributed to this iteration (profiler deltas;
  // on the production path these are the attributed per-node busy sums).
  double gen_vf_s = 0;
  double petot_s = 0;
  double gen_dens_s = 0;
  double genpot_s = 0;
  double mix_s = 0;       // 0 on the reference path
  double checkpoint_s = 0;
};

struct Ls3dfOptions {
  Vec3i division{2, 2, 2};   // m1 x m2 x m3 cell grid
  int points_per_cell = 10;  // global grid points per cell edge
  int buffer_points = 5;     // max buffer thickness (grid points per side)
  double ecut = 1.2;         // fragment wavefunction cutoff (Ha)

  // Passivation potential dV_F: a smooth repulsive wall of the given
  // height (Ha) and width (Bohr) on the fragment-box faces that were
  // created artificially (axes where the fragment does not span the
  // whole supercell).
  double wall_height = 4.0;
  double wall_width = 1.0;
  // Atoms closer than this to an artificial face are excluded from the
  // fragment: inside the wall their electrons cannot bind and they would
  // poison the fragment density. < 0 selects 2.5 * wall_width.
  double atom_margin = -1.0;

  int extra_bands = 4;              // unoccupied bands per fragment
  double fragment_smearing = 0.0;   // occupation smearing in fragments (Ha)
  EigensolverOptions eig{12, 1e-6, true};
  bool all_band = true;             // PEtot_F solver flavour

  int max_iterations = 40;          // outer SCF loop
  double l1_tol = 1e-3;             // on int |V_out - V_in| d3r (a.u.)
  MixerType mixer = MixerType::kPulay;
  double mix_alpha = 0.6;

  std::uint64_t seed = 2718;
  int n_workers = 1;                // threads for PEtot_F
  // Max fragments per same-size-class batch in PEtot_F. A batch is the
  // schedulable unit: one fused Hamiltonian application / GEMM sweep
  // serves all members (bit-identical to per-fragment solves). > 0 runs
  // the production driver; 0 selects the reference driver (dense,
  // phased, per-fragment LPT dispatch) and so requires n_shards == 0.
  int batch_width = 4;
  // x-slab shards for the global grid (density, potentials, mixing,
  // GENPOT FFT). 0 = dense (full grid on one node); > 0 is clamped to
  // the global x extent and to the selected transport's rank ceiling
  // (transport_max_ranks). Results are bit-identical either way.
  int n_shards = 0;
  // Exchange backend for the sharded collectives (transport/transport.h):
  // kInProc (default) keeps today's zero-copy logical ranks; kProc runs
  // one forked worker process per shard over POSIX shared memory (true
  // multi-process LS3DF on one node, bit-identical to kInProc); kMpi
  // requires LS3DF_WITH_MPI and an SPMD launch. Ignored when n_shards
  // is 0.
  TransportKind transport = TransportKind::kInProc;
  bool compute_energy = true;
  // Eigensolver precision policy (see Precision above). kMixed runs the
  // fp32 fast path only on the batched all-band path (all_band &&
  // batch_width > 0) and only while the previous iteration's L1 residual
  // exceeds promote_factor * l1_tol; convergence is never declared from
  // an fp32 iteration, and the fp64 fixed point erases the fp32 rounding
  // history. NOT bit-identical to kDouble — guarded by the trajectory
  // checks in tests/test_mixed_precision.cpp, off by default.
  Precision precision = Precision::kDouble;
  // Promotion threshold as a multiple of l1_tol: kMixed keeps using fp32
  // while the last L1 residual exceeds promote_factor * l1_tol. Relative
  // because the L1 metric's absolute scale tracks system size (the Fig. 6
  // alloy starts ~1000x higher than a small H2 chain) while l1_tol is
  // chosen on the same scale, so one default serves both. Promotion is a
  // one-way latch per solve(): the first fp64 iteration perturbs the
  // mixer's L1 briefly, and dropping back to fp32 on that bounce would
  // park the SCF at the fp32 noise floor. The default promotes with a
  // few decades still to go — fp32 only carries the iterations whose
  // residual dwarfs single-precision rounding, which is where nearly all
  // of the PEtot_F cost lives anyway (the L1 falls orders of magnitude
  // in the first few iterations, Fig. 6).
  double promote_factor = 400.0;
  // Test seam: invoked at the start of every batch solve (the graph's
  // solve nodes and the petot_f hook) with the batch index. A throw propagates as a
  // clean latched error from solve(); the failure-propagation suite uses
  // it to inject eigensolver faults and worker kills. Null in production.
  std::function<void(int batch)> on_batch_solve;
  // SPMD seam: when set, the sharded state adopts this caller-built
  // transport instead of make_transport(transport). This is how a
  // thread-SPMD rank receives its instance of a make_thread_spmd_group
  // (transport/thread_transport.h) and how tests hand in custom MPI
  // communicators. The factory is called once, with the clamped shard
  // count, the worker count and the solver's arena-size hint; the
  // returned transport's n_ranks must match. A bit-invariant execution
  // knob — never part of the state fingerprint.
  std::function<std::unique_ptr<Transport>(int n_ranks, int n_workers,
                                           std::size_t arena_bytes)>
      transport_factory;
  // Checkpoint/restart snapshots (see CheckpointOptions above). Off by
  // default; an execution knob, never part of the state fingerprint.
  CheckpointOptions checkpoint;
  // --- observability (obs/) -------------------------------------------
  // Span recorder for end-to-end tracing (obs/trace.h): phase and
  // TaskGraph-node windows, pool lane activity, collective phases with
  // byte counts and wait split, Davidson sweeps, checkpoint writes.
  // Null (default) disables tracing; every instrumentation site then
  // costs one thread-local load + null check. Purely observational —
  // results are bit-identical with tracing on or off — and, like every
  // execution knob, never part of the state fingerprint. The recorder
  // must outlive the solve; one recorder may serve many solves (and
  // under SPMD each rank's solver typically gets its own recorder and
  // writes a per-rank trace file merged by tools/trace_merge).
  TraceRecorder* trace = nullptr;
  // Per-outer-iteration callback (see Ls3dfProgress above), invoked on
  // the driver thread at the end-of-iteration sequence point. An
  // execution knob: never fingerprinted, never affects a bit of any
  // result. Null disables it. If the callback throws, the solve latches
  // one clean solver-attributed error (std::runtime_error) after the
  // iteration's engine work has fully drained — the pool, transport and
  // solver instance all stay reusable.
  std::function<void(const Ls3dfProgress&)> progress;
  // Live worker-lane allowance (the SolverService seam). When set, every
  // outer iteration opens by clamping this solve's effective lane count
  // to min(n_workers, max(1, lane_allowance())) — so concurrent solver
  // instances can share one physical lane budget and a finishing job's
  // lanes flow to the survivors at their next iteration boundary.
  // Execution width is arithmetically invisible everywhere it is
  // consumed (ordered reductions, ordered-commit patching, worker-
  // invariant batched kernels), so a mid-run change of allowance cannot
  // change a bit of any result; in the production driver the graph
  // topology is built once from n_workers and the live value flows
  // through the per-iteration LaneBudget reset and the per-sweep
  // allowance re-reads. An execution knob: never part of the state
  // fingerprint. Null keeps the fixed n_workers width.
  std::function<int()> lane_allowance;
};

// Throws std::invalid_argument unless every division component is 1 or
// >= 3 (a division of exactly 2 is structurally degenerate: the size-2
// fragments wrap the whole axis and carry no artificial boundary, so the
// negative size-1 fragments' boundary effects have nothing to cancel
// against), points_per_cell >= 4, batch_width >= 0, n_shards >= 0, and
// batch_width == 0 only with n_shards == 0 (the reference driver is
// dense). Returns `opt`. Ls3dfSolver's constructor and
// SolverService::submit() both call it, so a bad configuration is
// refused up front instead of hanging or crashing a solve.
const Ls3dfOptions& validate(const Ls3dfOptions& opt);

struct Ls3dfResult {
  FieldR v_eff;                      // converged global effective potential
  FieldR rho;                        // patched global density
  EnergyBreakdown energy;            // patched total energy
  std::vector<double> conv_history;  // int |V_out - V_in| per iteration
  int iterations = 0;
  bool converged = false;
  double charge_patch_error = 0;     // |int rho_patched - N_e| before rescale
  // Gen_VF / PEtot_F / Gen_dens / GENPOT, plus the GENPOT.transpose
  // sub-phase (the all-to-all cost) on the sharded path. On the
  // production path the four phase keys hold attributed per-node busy
  // time (disjoint windows no longer exist), plus "Mix" (L1 metric +
  // mixer update) and
  // "Iter.wall" (measured iteration wall) — on one worker lane the
  // attributed keys sum to Iter.wall.
  PhaseProfiler profile;
  // Per-chain attribution (empty on the reference path): chain b is
  // batch b's restrict -> solve -> ordered-patch-commit chain, seconds
  // summed across outer iterations.
  struct ChainTimes {
    double restrict_s = 0, solve_s = 0, patch_s = 0;
  };
  std::vector<ChainTimes> chain_times;
  // Measured phase overlap, averaged over iterations: (sum of phase
  // window lengths - their union) / iteration wall. 0 when phases run
  // back to back (the reference path); > 0 when chains interleave phase
  // windows — even on one core, where the win is structural, not wall
  // time.
  double overlap_fraction = 0;
  // Snapshot of the solver's MetricsRegistry at the end of solve():
  // transport bytes and phase-wait histograms, deadline margins,
  // respawn events, checkpoint bytes/durations, fp32->fp64 promotions,
  // lane-donation totals, per-iteration residual/energy series.
  // Serialize with MetricsSnapshot::write_json ("ls3df-metrics-v1").
  MetricsSnapshot metrics;
};

class Ls3dfSolver {
 public:
  Ls3dfSolver(const Structure& s, const Ls3dfOptions& opt);
  ~Ls3dfSolver();

  const Structure& structure() const { return structure_; }
  const FragmentDecomposition& decomposition() const { return decomp_; }
  int num_fragments() const { return decomp_.size(); }
  Vec3i global_grid() const { return global_grid_; }
  const FieldR& ionic_potential() const { return vion_; }

  // Full outer SCF loop.
  Ls3dfResult solve();

  // Continue an interrupted solve from a snapshot written by a solver
  // with the same state fingerprint (structure + numerically relevant
  // options + shard count; execution knobs like worker count, transport
  // and cadence are free to differ). Loads `snapshot_path`, falling back
  // to the previous generation on corruption, restores the mid-SCF state
  // (V_in, density, mixer DIIS stack, fragment wavefunctions and
  // occupations, RNG stream, precision latches) and resumes the outer
  // loop — the completed run is bit-identical to one that was never
  // interrupted. A converged snapshot short-circuits: the saved result
  // is rebuilt and returned without further iterations. Throws
  // SnapshotError (kFingerprint on mismatch; kCrc/kTruncated/... when
  // both generations are damaged).
  Ls3dfResult resume(const std::string& snapshot_path);

  // FNV-1a fingerprint over the physical problem and every option that
  // shapes the numerical trajectory. Snapshots embed it; resume()
  // refuses a snapshot whose fingerprint differs. Bit-invariant knobs
  // (worker count, batch width, transport, iteration cap, checkpoint
  // settings) are deliberately excluded so a resume may run on a
  // different execution configuration.
  std::uint64_t state_fingerprint() const;

  // Individual phases, exposed for tests and benchmarks. gen_vf must be
  // called before petot_f; petot_f before gen_dens. With n_shards > 0
  // gen_dens and genpot run the sharded pipeline internally and gather
  // the result densely (the dense return is the hook's contract; the
  // solve() loop itself never gathers).
  void gen_vf(const FieldR& v_global);
  void petot_f();
  FieldR gen_dens() const;
  // V_out = V_ion + V_H[rho] + V_xc[rho] on the global grid.
  FieldR genpot(const FieldR& rho) const;

  // Sharded-path introspection. active_shards() is the clamped shard
  // count (0 on the dense path); shard_allocations() counts capacity
  // growths of the shard exchange buffers (transport lanes + reduction
  // tables, uniform per backend) — flat after the first exchange, probed
  // in tests. shard_transport() names the active exchange backend
  // ("none" on the dense path). shard_rank_footprint(r) is rank r's
  // persistent sharded-state size in double-equivalents (field slabs +
  // FFT slab/pencil scratch + exchange lanes): every term is
  // slab-proportional, so the probe asserting it scales as ~1/N is the
  // "no rank holds the full grid" contract.
  int active_shards() const;
  long shard_allocations() const;
  const char* shard_transport() const;
  std::size_t shard_rank_footprint(int r) const;
  // The live transport object (null on the dense path). Test seam: the
  // failure-propagation suite downcasts it to kill a proc worker
  // mid-solve.
  Transport* shard_transport_object() const;

  // Patched quantum-mechanical energies (kinetic + nonlocal), valid after
  // petot_f().
  double patched_kinetic_energy() const;
  double patched_nonlocal_energy() const;

  // Estimated solve cost per fragment for the load-balancing scheduler
  // and the performance model. Iteration 1 uses the analytic model
  // (basis size x bands); once every fragment has a measured solve time
  // from petot_f(), the analytic prior is blended 50/50 with the
  // measured exponential moving average (rescaled to the analytic
  // total), so LPT re-balances on real timings across outer iterations.
  std::vector<double> fragment_costs() const;

  // Number of atoms assigned to fragment f's box (incl. buffer).
  int fragment_atom_count(int f) const;
  // Electron count of fragment f's box.
  double fragment_electrons(int f) const;

  // Scheduling introspection (tests, benches). last_assignment() is the
  // LPT fragment-to-group assignment computed by the latest petot_f()
  // (flattened from the batch-level assignment when batching is on);
  // executed_group_of()[f] is the group whose task actually solved
  // fragment f — by construction these agree, and the scheduler
  // integration test asserts it.
  const GroupAssignment& last_assignment() const { return assignment_; }
  const std::vector<int>& executed_group_of() const {
    return executed_group_of_;
  }
  // Same-size-class batches PEtot_F schedules (empty when batch_width
  // is 0); stable across outer iterations.
  const std::vector<FragmentBatch>& batches() const { return batches_; }
  // Measured per-fragment solve seconds (EMA; < 0 before first measure).
  // The fp64 model; under Precision::kMixed a second EMA tracks fp32
  // solves so LPT schedules each precision from its own cost model.
  const std::vector<double>& measured_fragment_seconds() const {
    return measured_seconds_;
  }
  const std::vector<double>& measured_fragment_seconds_f32() const {
    return measured_seconds_f32_;
  }
  // Cumulative lane-donation events across all solve() calls and
  // batched petot_f() calls (a retiring batch/group left live holders to
  // widen; parallel/scheduler.h). 0 on the reference path.
  long donated_lane_events() const;
  // Whether the NEXT petot_f() call would run the fp32 fast path
  // (reflects the most recent precision-policy update).
  bool fp32_iteration_active() const { return use_fp32_iter_; }
  // Capacity-growth events across the per-group eigensolver arenas. The
  // count is flat after the first outer iteration: the steady state
  // solves every fragment with zero workspace heap traffic.
  long workspace_allocations() const;
  // Live view of the solver's metrics registry (Ls3dfResult::metrics is
  // the end-of-solve snapshot of the same registry).
  MetricsSnapshot metrics() const { return metrics_.snapshot(); }

  // --- job-facing execution-knob rebinding (service/) -------------------
  // A warm instance outlives one job: the SolverService re-points the
  // per-job hooks (trace recorder, progress callback, lane allowance,
  // checkpoint cadence/path) at the next job instead of rebuilding the
  // solver. All four are execution knobs excluded from
  // state_fingerprint(), so rebinding can never change a bit of any
  // result. Call between solves only — never while a solve is running.
  void set_trace(TraceRecorder* trace) { opt_.trace = trace; }
  void set_progress(std::function<void(const Ls3dfProgress&)> cb) {
    opt_.progress = std::move(cb);
  }
  void set_lane_allowance(std::function<int()> fn) {
    opt_.lane_allowance = std::move(fn);
  }
  void set_checkpoint(const CheckpointOptions& c) { opt_.checkpoint = c; }
  // The instance's options as constructed (plus any rebinding above).
  const Ls3dfOptions& options() const { return opt_; }

  // Restore the freshly-constructed numeric state. Wavefunctions are
  // warm-started across solve() calls (a deliberate convergence
  // accelerator for iterate-on-one-problem callers), so back-to-back
  // solves on one instance follow different — equally valid — SCF
  // trajectories. A caller that needs the next solve() bit-identical to
  // a brand-new instance (the SolverService reusing a pooled solver for
  // a new job, or cold-retrying after a failed attempt) calls this
  // first. resume() does not need it: snapshots restore psi wholesale.
  // Call between solves only.
  void reset_state();

 private:
  struct FragmentContext;
  struct ShardState;
  struct ResumeState;

  void solve_fragment(int f, EigenWorkspace& ws);
  // Occupations + density of a solved fragment (shared tail of the
  // per-fragment and batched paths). n_workers drives the density FFT
  // sweep (the batched dispatch passes its inner lanes).
  void finish_fragment(int f, int n_workers = 1);
  void petot_f_per_fragment(int n_groups);
  void petot_f_batched(int n_groups);
  // Mixed-precision policy: is the fp32 fast path available at all, and
  // should the upcoming outer iteration use it (conv_history empty, or
  // last L1 still above the promotion threshold)? Called by the solve()
  // drivers at the top of every outer iteration.
  bool mixed_precision_available() const;
  void update_precision_policy(const std::vector<double>& conv_history);
  // One batch's lockstep solve + densities + measured-cost bookkeeping:
  // the body shared by the batched petot_f() hook and the graph's solve
  // nodes. `group` is the executed_group_of marker (the LPT group in the
  // hook, the chain/batch id in the graph); the lane budget's live
  // allowance drives the batched kernels' internal work grids;
  // `analytic` apportions the measured batch time over members.
  void solve_batch(int b, int group, const std::vector<double>& analytic);
  // Presize every batch workspace to its members' solve extents (the
  // steady state allocates nothing afterwards).
  void prepare_batch_workspaces();
  std::vector<double> analytic_costs() const;
  void record_measured(int f, double seconds);
  // Does fragment f's interior window (the Gen_dens commit region) touch
  // any global x plane in [x_begin, x_end)? Pure geometry — the graph's
  // chains use it to skip no-op slab commits (and their solve edges).
  bool fragment_touches_planes(int f, int x_begin, int x_end) const;

  // The two solve() drivers, identical results bit for bit, and the
  // batch_width dispatch between them that solve() and resume() share.
  Ls3dfResult run_driver();
  // The reference driver (batch_width == 0): dense, phased, per-fragment.
  Ls3dfResult solve_reference();
  // The production driver (dense and sharded): per-batch TaskGraph
  // chains with ordered slab commits, graph-extended GENPOT on shards.
  Ls3dfResult solve_overlap();
  // Sharded phase bodies (n_shards > 0). gen_dens_sharded patches into
  // the internal sharded density; genpot_sharded assembles V_out on
  // slabs and records the GENPOT.transpose sub-phase.
  void gen_dens_sharded() const;
  void genpot_sharded(const ShardedFieldR& rho, ShardedFieldR& v_out) const;
  // --- rank-local (SPMD) phase bodies -----------------------------------
  // Under an SPMD transport each rank holds one slab and owns the
  // contiguous fragment range [own_begin_, own_end_); the cross-rank
  // reads the dense-per-process phases do implicitly become two explicit
  // exchanges (both bit-identical to their dense counterparts):
  //   Gen_VF  halo: every rank receives the global x planes its owned
  //           fragment boxes need beyond its own slab (one alltoallv),
  //           then extracts fragment boxes from slab + halo — a pure
  //           copy, so the restriction matches extract_into bitwise.
  //   Gen_dens windows: every owned fragment's interior window is sent
  //           raw to the slabs it lands in (one alltoallv); the owning
  //           rank applies `+= sign * value` in ascending global
  //           fragment order, then ascending (ix, iy, iz) — exactly the
  //           dense accumulation order, which is what keeps the patched
  //           density bit-identical across the rank boundary.
  int fragment_owner(int f) const;  // rank owning fragment f (SPMD)
  void spmd_fill_halo(const ShardedFieldR& v) const;
  void spmd_extract(const ShardedFieldR& v, Vec3i offset, FieldR& out) const;
  // Window exchange, split for the production driver: size (and cache)
  // the send lanes once per iteration, pack fragments as their solves
  // retire, exchange, apply in order. The gen_dens() hook calls them
  // back-to-back.
  void spmd_size_window_lanes() const;
  void spmd_pack_fragment(int f) const;
  void spmd_apply_windows() const;
  // Signed per-fragment sum folded in ascending global fragment order
  // (allgatherv of the owned block under SPMD).
  double fold_fragment_sum(const std::vector<double>& part) const;
  // Patched-energy epilogue shared by both drivers (uses result.rho).
  void compute_patched_energy(Ls3dfResult& result) const;

  // Checkpoint/restart internals. maybe_write_checkpoint runs at the
  // end-of-iteration sequence point in every driver (and at the
  // convergence break); exactly one of {mixer_d, mixer_s} is non-null,
  // matching the active path, and v_in_dense carries the dense V_in
  // (unused on shards — slabs are read from shards_). load_resume
  // validates the fingerprint and fills resume_; the drivers consume it
  // via their iter-0 setup and start the loop at the saved iteration.
  void maybe_write_checkpoint(const Ls3dfResult& result,
                              const FieldR* v_in_dense,
                              const PotentialMixer* mixer_d,
                              const ShardedPotentialMixer* mixer_s);
  void load_resume(const SnapshotReader& r);

  // --- observability internals (obs/) ----------------------------------
  // The context every public entry point installs on its thread (and
  // the pool propagates to every lane working for this solver): the
  // options' trace recorder, this instance's metrics registry and FFT
  // plan cache, and the local SPMD rank (0 otherwise).
  ObsContext obs_ctx() const;
  // End-of-iteration bookkeeping shared by the two drivers: pushes
  // the per-iteration metrics series (residual, band energy, wall) and
  // invokes the progress callback with phase-time deltas against
  // `prof0`, the profiler totals captured at iteration start.
  void record_iteration(const Ls3dfResult& result, double l1, double wall_s,
                        bool fp32,
                        const std::map<std::string, double>& prof0);
  // End-of-solve gauges (donation, respawns, overlap fraction) and the
  // registry snapshot into result.metrics.
  void finalize_observability(Ls3dfResult& result);

  Structure structure_;
  Ls3dfOptions opt_;
  FragmentDecomposition decomp_;
  Vec3i global_grid_;
  FieldR vion_;  // global bare ionic potential
  std::vector<std::unique_ptr<FragmentContext>> contexts_;
  // Persistent per-group scratch arenas (per-fragment path); presized to
  // the largest fragment so adaptive re-grouping can never grow them.
  // workspaces_[g] is only ever touched by the task executing group g,
  // and survives across outer iterations and solve() calls.
  std::vector<EigenWorkspace> workspaces_;
  // Batched path: the same-size-class batches (stable across iterations)
  // and one persistent workspace per batch, touched only by the task
  // executing that batch.
  std::vector<FragmentBatch> batches_;
  std::vector<std::unique_ptr<BatchWorkspace>> batch_workspaces_;
  // Measured per-fragment solve seconds (EMA), fed back into
  // fragment_costs() with the analytic model as the iteration-1 prior.
  // One EMA per precision: fp32 solves must not pollute the fp64 cost
  // model (and vice versa), so LPT balances whichever precision the
  // upcoming iteration runs from timings of the same kind.
  std::vector<double> measured_seconds_;
  std::vector<double> measured_seconds_f32_;
  // Live inner-lane budget of the current PEtot_F dispatch round
  // (parallel/scheduler.h): holders are LPT groups in the batched
  // petot_f() hook, solve chains in the graph. Donation events
  // accumulate across solve()s.
  LaneBudget lane_budget_;
  // Effective lane count for the current outer iteration:
  // min(n_workers, lane_allowance()) — refreshed at every iteration
  // boundary by refresh_live_lanes(). Pure execution width, bit-
  // invisible by the determinism contract (see Ls3dfOptions::
  // lane_allowance).
  int live_workers_ = 1;
  int refresh_live_lanes();
  // Set by update_precision_policy for the upcoming outer iteration.
  bool use_fp32_iter_ = false;
  // One-way promotion latch: once a kMixed solve has run an fp64
  // iteration it never drops back to fp32 (a fresh solve() re-arms it).
  bool fp64_promoted_ = false;
  GroupAssignment assignment_;
  std::vector<int> executed_group_of_;
  // Sharded-grid state (null on the dense path): ShardComm + DistFft3D +
  // persistent sharded fields. Scratch inside is reused across phases and
  // iterations; only the first exchange grows buffers.
  std::unique_ptr<ShardState> shards_;
  // SPMD fragment ownership (rank-local transports only). Fragments are
  // partitioned into contiguous cost-balanced ranges — rank r owns
  // [frag_rank_begin_[r], frag_rank_begin_[r+1]) — computed identically
  // on every rank from the analytic cost model over light pass-1
  // metadata, so all ranks agree on the exchange layouts without
  // communicating. Contiguity is load-bearing: scanning source ranks in
  // ascending order and fragments in ascending order within each source
  // visits fragments in ascending *global* order, which is the Gen_dens
  // bit-identity requirement. On non-SPMD paths own_* span all
  // fragments and frag_rank_begin_ is empty.
  bool spmd_ = false;
  int own_begin_ = 0, own_end_ = 0;
  std::vector<int> frag_rank_begin_;
  // Solver-level RNG stream, seeded from opt.seed. Part of the snapshot
  // contract (saved and restored bit-exactly) so any stochastic feature
  // drawing from it — and the determinism probes that do today —
  // inherits crash-safety for free.
  Rng rng_;
  // Pending restore state between resume() and the driver that consumes
  // it (null outside a resume).
  std::unique_ptr<ResumeState> resume_;
  // Per-instance observability and plan state (the SolverService
  // prerequisite: nothing this solver accumulates is global). The
  // profiler and registry are mutable because const phase hooks
  // (genpot, gen_dens) record into them; the plan cache is mutable
  // because const phases create plans on first use.
  mutable PhaseProfiler profile_;
  mutable MetricsRegistry metrics_;
  mutable FftPlanCache plan_cache_;
};

}  // namespace ls3df
