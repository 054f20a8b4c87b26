// Per-instance, per-thread cache of FFT plans keyed by grid shape.
//
// Planning (factorization, twiddle tables, Bluestein kernels) is cheap
// but not free, and the LS3DF pipeline transforms the same handful of
// shapes — the global grid every GENPOT/mixing step, one shape per
// fragment size class — thousands of times per run. The cache makes a
// plan once per (thread, shape) and keeps it warm across SCF
// iterations, exactly like the eigensolver arenas.
//
// Plans are cached per *thread*: each lane keeps its own warm plans
// and looks them up without a lock (the transforms themselves hold no
// mutable state; their pass scratch is thread-local, fft/fft.h). They
// are cached per FftPlanCache *instance* so that solver instances own
// their plan state (the SolverService prerequisite — no cross-tenant
// global state): each Ls3dfSolver carries its own cache and installs it in
// the thread-local ObsContext (obs/context.h) around everything it
// runs. The free functions below route through that context, falling
// back to a process-default cache when none is installed, so call
// sites keep their signatures and single-instance behavior (and
// output) is unchanged. Plans are pure functions of their shape, so
// which cache a plan comes from can never change a bit of any result.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fft/fft3d.h"

namespace ls3df {

// A set of FFT plans, sharded per recording thread. Thread-safe: any
// thread may request plans from the same cache concurrently; each gets
// plans private to (thread, cache).
class FftPlanCache {
 public:
  FftPlanCache();
  ~FftPlanCache();

  FftPlanCache(const FftPlanCache&) = delete;
  FftPlanCache& operator=(const FftPlanCache&) = delete;

  // Calling thread's plan for `shape`/`n`, created on first use. The
  // reference stays valid for the life of the cache. The 3D plans are
  // kept per precision (instantiated for double and float), so a thread
  // that never touches fp32 pays nothing for it.
  template <typename Real = double>
  const BasicFft3D<Real>& plan(Vec3i shape);
  const Fft1D& plan_1d(int n);

  // Number of distinct 3D double-precision plans cached by the calling
  // thread in this cache (diagnostics).
  int thread_plan_count();

  // The process-wide fallback cache used when no ObsContext installs
  // an instance cache — the pre-per-instance behavior.
  static FftPlanCache& process_default();

 private:
  struct Shard;
  Shard* shard_for_this_thread();

  const std::uint64_t id_;  // process-unique (cache keyed by id, not address)
  std::mutex mu_;           // guards shards_ registration
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Returns the active cache's plan for `shape` on this thread, creating
// it on first use. "Active" = ObsContext.plans if installed, else the
// process default. The reference stays valid for the life of that
// cache (for the process default: the life of the process).
// fft_plan<float> backs the mixed-precision Davidson (dft/eigensolver.h).
template <typename Real = double>
const BasicFft3D<Real>& fft_plan(Vec3i shape);

// This thread's cached 1D plan for length `n`. The distributed transform
// (fft/dist_fft3d.h) runs its per-slab line transforms through these, so
// each shard task picks up warm per-axis plans on whatever pool thread
// executes it — the 1D analogue of the Fft3D cache above.
const Fft1D& fft1d_plan(int n);

// Number of distinct 3D plans cached by the calling thread in the
// active cache (diagnostics).
int fft_plan_cache_size();

}  // namespace ls3df
