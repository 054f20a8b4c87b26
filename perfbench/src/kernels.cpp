// Kernel probes at a workload's own shapes.
//
// The shapes come from the solver's decomposition(): the largest fragment
// box grid, its band count and basis size, and the global grid. The
// fragment box and its atoms are rebuilt here with the solver's own rules
// (uniform smooth buffer per divided axis, atom window eroded by the wall
// margin), because the solver keeps its fragment contexts private. Rates
// use FlopCounter's analytic counts; flop-per-byte figures are computed
// from array sizes, not measured traffic.
#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "common/flops.h"
#include "common/rng.h"
#include "dft/eigensolver.h"
#include "dft/hamiltonian.h"
#include "fft/dist_fft3d.h"
#include "fft/fft.h"
#include "fft/fft3d.h"
#include "grid/gvectors.h"
#include "grid/sharded_field.h"
#include "linalg/blas.h"
#include "parallel/shard_comm.h"
#include "solve_case.h"

namespace perfbench {

using namespace ls3df;
using cd = std::complex<double>;

namespace {

struct FragmentShape {
  Vec3i grid;
  Structure local;  // atoms of the fragment box, box-local coordinates
  int n_bands = 0;
};

int smooth_uniform_buffer(int p, int m, int b_max) {
  for (int b = b_max; b > 0; --b)
    if (Fft1D::is_smooth(p + 2 * b) &&
        (m < 3 || Fft1D::is_smooth(2 * p + 2 * b)))
      return b;
  return 0;
}

// The largest fragment box of the decomposition (most grid points).
FragmentShape largest_fragment(const SolveCase& c, const Ls3dfSolver& s) {
  const Ls3dfOptions& o = c.options;
  const Vec3i m = o.division;
  const int p = o.points_per_cell;
  Vec3i axis_buffer{0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    if (m[i] == 1) continue;
    const int want = std::min(o.buffer_points, (m[i] - 2) * p / 2);
    axis_buffer[i] = want > 0 ? smooth_uniform_buffer(p, m[i], want) : 0;
  }
  const auto& frags = s.decomposition().fragments();
  int best = 0;
  long best_points = -1;
  Vec3i best_grid{0, 0, 0}, best_buffer{0, 0, 0};
  for (int f = 0; f < static_cast<int>(frags.size()); ++f) {
    Vec3i g, b;
    for (int i = 0; i < 3; ++i) {
      b[i] = frags[f].size[i] >= m[i] ? 0 : axis_buffer[i];
      g[i] = frags[f].size[i] * p + 2 * b[i];
    }
    const long n = static_cast<long>(g.x) * g.y * g.z;
    if (n > best_points) {
      best_points = n;
      best = f;
      best_grid = g;
      best_buffer = b;
    }
  }
  const Fragment& frag = frags[best];
  const Vec3d L = c.structure.lattice().lengths();
  const Vec3d cell{L.x / m.x, L.y / m.y, L.z / m.z};
  FragmentShape out;
  out.grid = best_grid;
  out.local = Structure(Lattice({cell.x * best_grid.x / p,
                                 cell.y * best_grid.y / p,
                                 cell.z * best_grid.z / p}));
  const double margin = o.atom_margin >= 0 ? o.atom_margin : 2.5 * o.wall_width;
  for (const Atom& atom : c.structure.atoms()) {
    const Vec3d u = c.structure.lattice().fractional(atom.position);
    Vec3d v;
    bool inside = true;
    for (int i = 0; i < 3 && inside; ++i) {
      const double ui = (u[i] - std::floor(u[i])) * m[i];
      const double buf = static_cast<double>(best_buffer[i]) / p;  // cells
      const double lo = frag.corner[i] - buf;
      const double width = frag.size[i] + 2.0 * buf;
      const double erode =
          frag.size[i] < m[i] ? std::min(margin / cell[i], buf) : 0.0;
      inside = false;
      for (int k = -1; k <= 1 && !inside; ++k) {
        const double vi = ui + k * m[i];
        if (vi >= lo + erode - 1e-12 && vi < lo + width - erode - 1e-12) {
          v[i] = (vi - lo) * cell[i];
          inside = true;
        }
      }
    }
    if (inside) out.local.add_atom(atom.species, v);
  }
  const int n_occ =
      static_cast<int>(std::ceil(s.fragment_electrons(best) / 2.0));
  out.n_bands = std::max(1, n_occ + o.extra_bands);
  return out;
}

void fill_random(cd* p, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i)
    p[i] = cd(rng.uniform() - 0.5, rng.uniform() - 0.5);
}

// Calls fn under a span until at least min_reps calls and min_s seconds
// have passed; returns the per-call durations.
template <typename Fn>
std::vector<double> timed(Tracer& tr, const char* name, int min_reps,
                          double min_s, Fn&& fn) {
  const double t_end = now_s() + min_s;
  for (int k = 0; k < min_reps || now_s() < t_end; ++k) {
    Span s(&tr, name);
    fn();
  }
  return tr.durations(name);
}

}  // namespace

void run_kernel_probes(const SolveCase& c, const Ls3dfSolver& solver,
                       Tracer& tr, Report& r) {
  Rng rng(c.options.seed);
  const FragmentShape fs = largest_fragment(c, solver);
  const Vec3i g = fs.grid;

  // Fragment-grid 3D FFT: one forward + inverse pair per call.
  {
    Fft3D fft(g);
    std::vector<cd> data(fft.size());
    fill_random(data.data(), data.size(), rng);
    const double t = 0.5 * median(timed(tr, "fft.fft3d_frag", 10, 0.3, [&] {
                       fft.forward(data);
                       fft.inverse(data);
                     }));
    const double flops = static_cast<double>(FlopCounter::fft3d(g.x, g.y, g.z));
    r.add("fft.fft3d_frag_s", t, "s");
    r.add("fft.fft3d_frag_gflops", flops / t * 1e-9, "Gflop/s");
    // Each axis pass reads and writes the whole complex grid once.
    r.add("fft.frag_flop_per_byte",
          flops / (3.0 * 2.0 * sizeof(cd) * static_cast<double>(fft.size())),
          "flop/B-computed");
  }

  // Global-grid 3D FFT (GENPOT's transform on the dense path).
  const Vec3i gg = solver.global_grid();
  {
    Fft3D fft(gg);
    std::vector<cd> data(fft.size());
    fill_random(data.data(), data.size(), rng);
    const double t = 0.5 * median(timed(tr, "fft.fft3d_global", 5, 0.3, [&] {
                       fft.forward(data);
                       fft.inverse(data);
                     }));
    r.add("fft.fft3d_global_gflops",
          static_cast<double>(FlopCounter::fft3d(gg.x, gg.y, gg.z)) / t * 1e-9,
          "Gflop/s");
  }

  // Four-shard distributed round trip (GENPOT's transform when sharded),
  // at the global grid of dense workloads too.
  {
    const int n = std::min(4, gg.x);
    ShardComm comm(n, std::max(1, c.options.n_workers));
    DistFft3D dfft(gg, comm);
    ShardedFieldR in(gg, n), out(gg, n);
    for (int rk = 0; rk < n; ++rk) {
      FieldR& s = in.slab(rk);
      for (std::size_t i = 0; i < s.size(); ++i) s.data()[i] = rng.uniform();
    }
    r.add("fft.dist_fft3d_s",
          median(timed(tr, "fft.dist_fft3d", 5, 0.3, [&] {
            dfft.forward(in);
            dfft.inverse(out);
          })),
          "s");
  }

  // Fragment Hamiltonian and its inputs at the largest fragment's shape.
  GVectors basis(fs.local.lattice(), g, c.options.ecut);
  const int ng = basis.count();
  const int nb = std::min(fs.n_bands, ng);
  Hamiltonian h(fs.local, basis);
  MatC psi0(ng, nb), hpsi(ng, nb);
  fill_random(psi0.data(), psi0.size(), rng);

  // ZGEMM at the nb x nb x ng overlap shape of the all-band solver.
  {
    MatC s(nb, nb);
    const double t = median(timed(tr, "linalg.zgemm", 20, 0.2, [&] {
      gemm(Op::kConjTrans, Op::kNone, cd(1, 0), psi0, psi0, cd(0, 0), s);
    }));
    const double flops = static_cast<double>(FlopCounter::zgemm(nb, nb, ng));
    r.add("linalg.zgemm_gflops", flops / t * 1e-9, "Gflop/s");
    r.add("linalg.zgemm_flop_per_byte",
          flops / (sizeof(cd) * (2.0 * ng * nb + 1.0 * nb * nb)),
          "flop/B-computed");
  }

  // Hamiltonian::apply on all bands, with its analytic flop count.
  {
    FlopCounter fc;
    h.set_flop_counter(&fc);
    const std::vector<double> d =
        timed(tr, "dft.h_apply", 10, 0.3, [&] { h.apply(psi0, hpsi); });
    h.set_flop_counter(nullptr);
    const double t = median(d);
    const double flops = static_cast<double>(fc.total()) / d.size();
    r.add("dft.h_apply_s", t, "s");
    r.add("dft.h_apply_gflops", flops / t * 1e-9, "Gflop/s");
  }

  // One all-band eigensolve from the same guess each call, at the
  // workload's eigensolver options.
  {
    EigenWorkspace ws;
    MatC psi;
    r.add("dft.eigensolve_s",
          median(timed(tr, "dft.eigensolve", 3, 0.3, [&] {
            psi = psi0;
            solve_all_band(h, psi, c.options.eig, ws);
          })),
          "s");
  }
}

}  // namespace perfbench
