// A solve workload: one generated input, the solver options it runs
// with, and the bounds its output is checked against.
#pragma once

#include <string>

#include "atoms/structure.h"
#include "bench.h"
#include "fragment/ls3df.h"

namespace perfbench {

struct SolveCase {
  std::string name;
  ls3df::Structure structure;
  ls3df::Ls3dfOptions options;
  // Patched total energy reference (Ha) and the allowed deviation.
  double energy_ref = 0;
  double energy_tol = 0;
  // Bound on |int rho_patched - N_e| before the rescale (electrons).
  double charge_bound = 0;
};

// H2 chain along x: `cells` cubic cells of edge `cell` (Bohr), one
// molecule of the given bond length (Bohr) centred in each.
ls3df::Structure h2_chain(int cells, double bond, double cell);

// Output checks of one solve: convergence, charge-patch error and energy.
// Returns true when every check passes; failures are recorded in `r`.
bool check_solve(const SolveCase& c, bool converged, double charge_error,
                 double energy, Report& r);

// Kernel probes at the case's own shapes (largest fragment, global grid).
// Adds the fft.*, linalg.* and dft.* per-layer metrics to `r`.
void run_kernel_probes(const SolveCase& c, const ls3df::Ls3dfSolver& solver,
                       Tracer& tracer, Report& r);

}  // namespace perfbench
