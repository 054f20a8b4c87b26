// MPI-launched equivalence harness (not a gtest binary): run under
// `mpirun -np {2,4}` it asserts that a real SPMD launch — one MPI
// process per shard rank, each holding only ~global/N of the sharded
// state — reproduces the dense phased per-fragment single-process
// reference bit for bit: density, effective potential, convergence
// history, charge-patch error and total energy of the production
// driver's SPMD solve, plus a checkpoint/resume round trip from the
// previous snapshot generation. Every rank computes the dense reference
// itself (it is deterministic), compares locally, and the verdict is
// MPI_MIN-reduced so any rank's mismatch fails the launch. Exit status
// 0 = bit-identical everywhere; 1 = mismatch (details on stderr).
//
// Registered with ctest under the "mpi" label when LS3DF_WITH_MPI is ON
// and an mpirun is found; the tier-1 suite never runs it.
#include <mpi.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "atoms/builders.h"
#include "fragment/ls3df.h"
#include "transport/mpi_transport.h"

namespace {

using namespace ls3df;

Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

// The cheap-but-real settings the in-process equivalence suites use;
// four cells so every rank of an -np 4 launch owns at least one
// fragment (zero-owned ranks are legal but exercise less).
Ls3dfOptions base_options(int ncells) {
  Ls3dfOptions lo;
  lo.division = {ncells, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 6;
  lo.max_iterations = 3;
  lo.l1_tol = 0.0;  // fixed iteration count: compare full trajectories
  return lo;
}

bool bits_equal(const Ls3dfResult& r, const Ls3dfResult& ref,
                const char* what, int self) {
  bool ok = r.iterations == ref.iterations &&
            r.conv_history.size() == ref.conv_history.size() &&
            r.charge_patch_error == ref.charge_patch_error &&
            r.energy.total == ref.energy.total &&
            r.rho.size() == ref.rho.size() &&
            r.v_eff.size() == ref.v_eff.size();
  for (std::size_t i = 0; ok && i < ref.conv_history.size(); ++i)
    ok = r.conv_history[i] == ref.conv_history[i];
  for (std::size_t i = 0; ok && i < ref.rho.size(); ++i)
    ok = r.rho[i] == ref.rho[i];
  for (std::size_t i = 0; ok && i < ref.v_eff.size(); ++i)
    ok = r.v_eff[i] == ref.v_eff[i];
  if (!ok)
    std::fprintf(stderr,
                 "[rank %d] %s: NOT bit-identical to the dense reference\n",
                 self, what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  MPI_Init(&argc, &argv);
  int self = 0, world = 0;
  MPI_Comm_rank(MPI_COMM_WORLD, &self);
  MPI_Comm_size(MPI_COMM_WORLD, &world);

  const int ncells = 4;
  Structure s = h2_chain(ncells);
  Ls3dfOptions lo = base_options(ncells);

  // Reference-driver single-worker solve, computed identically on every
  // rank (the solver is deterministic).
  Ls3dfResult ref;
  Vec3i g{};
  {
    Ls3dfOptions d = lo;
    d.n_shards = 0;
    d.n_workers = 1;
    d.batch_width = 0;
    Ls3dfSolver solver(s, d);
    g = solver.global_grid();
    ref = solver.solve();
  }
  const std::size_t slab_ceil =
      static_cast<std::size_t>((g.x + world - 1) / world) * g.y * g.z;

  const auto spmd_options = [&]() {
    Ls3dfOptions o = lo;
    o.n_shards = world;
    o.n_workers = 1;
    o.transport = TransportKind::kMpi;
    o.transport_factory = [](int, int, std::size_t) {
      return std::make_unique<MpiTransport>(MPI_COMM_WORLD);
    };
    return o;
  };

  bool ok = true;
  {
    Ls3dfSolver solver(s, spmd_options());
    const Ls3dfResult r = solver.solve();
    ok = bits_equal(r, ref, "spmd solve", self) && ok;
    // Rank-local residency: this process's resident sharded state stays
    // slab-proportional (same budget the thread-SPMD suite pins).
    const std::size_t fp = solver.shard_rank_footprint(self);
    if (fp == 0 || fp > 20 * slab_ceil) {
      std::fprintf(stderr,
                   "[rank %d] footprint %zu doubles exceeds 20 x slab "
                   "(%zu)\n",
                   self, fp, slab_ceil);
      ok = false;
    }
  }

  // Checkpoint/resume round trip: a full run commits a snapshot per
  // iteration (rank 0 writes; the file is byte-portable across
  // transports); resuming from the previous generation — the
  // iteration-2 state — replays iteration 3 onto the same bits.
  const std::string path =
      "/tmp/ls3df_mpi_equiv_np" + std::to_string(world) + ".snap";
  if (self == 0) {
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }
  MPI_Barrier(MPI_COMM_WORLD);
  {
    Ls3dfOptions o = spmd_options();
    o.checkpoint.path = path;
    const Ls3dfResult full = Ls3dfSolver(s, o).solve();
    ok = bits_equal(full, ref, "checkpointed solve", self) && ok;
    MPI_Barrier(MPI_COMM_WORLD);  // rank 0's final commit is visible
    Ls3dfSolver resumer(s, spmd_options());
    const Ls3dfResult r = resumer.resume(path + ".1");
    ok = bits_equal(r, ref, "resume from iteration-2 snapshot", self) && ok;
  }
  MPI_Barrier(MPI_COMM_WORLD);
  if (self == 0) {
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }

  int flag = ok ? 1 : 0, all = 0;
  MPI_Allreduce(&flag, &all, 1, MPI_INT, MPI_MIN, MPI_COMM_WORLD);
  if (self == 0)
    std::printf("mpi_equivalence np=%d: %s\n", world,
                all ? "bit-identical to the dense reference"
                    : "FAILED (see stderr)");
  MPI_Finalize();
  return all ? 0 : 1;
}
