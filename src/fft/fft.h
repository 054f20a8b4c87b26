// One-dimensional complex FFT of arbitrary length.
//
// Smooth lengths (factors 2, 3, 5, 7) run an iterative Stockham autosort
// transform: one pass per radix (4s first, then 2, 3, 5, 7), each pass
// reading one buffer and writing the other, so no bit reversal and no
// recursion. Radix-4 and radix-2 butterflies are written out; 3, 5 and 7
// use a precomputed p x p root table. Twiddles are tabulated per pass
// and per direction at plan time, so the inner loops carry no `%` or `/`.
// Lengths with larger prime factors use Bluestein's chirp-z algorithm,
// whose power-of-two convolution runs through the same Stockham passes.
// The plane-wave engine always chooses smooth grid sizes (see
// good_fft_size), but the general path keeps the transform correct for
// any size and is exercised by the property tests.
//
// Multi-line layout ("vector rank"): forward_lines/inverse_lines
// transform `howmany` interleaved lines at once, element i of line l at
// data[i * howmany + l]. Every butterfly's innermost loop runs over the
// lines, contiguous in memory, so strided 3D axes need no gather. The
// single-line calls are this entry point at howmany == 1.
//
// Bit contract: each line's arithmetic is the same sequence of IEEE
// operations whatever `howmany` is and however the lines are blocked,
// so a line transformed alone is bit-identical to the same line inside a
// multi-line pass. (The build selects no -march and ISO C++17 keeps
// -ffp-contract=off, so vectorising across lines changes no bits.) The
// distributed FFT (fft/dist_fft3d.h) relies on this to match Fft3D.
//
// Conventions: forward transform uses exp(-2*pi*i*j*k/n) with no scaling;
// the inverse uses exp(+2*pi*i*j*k/n) and scales by 1/n, so
// inverse(forward(x)) == x.
//
// The transform is templated over the real type: BasicFft1D<double> is
// the engine's bit-exact reference path, BasicFft1D<float> the
// single-precision instantiation behind the mixed-precision Davidson fast
// path (dft/eigensolver.h). Twiddle, root, chirp and Bluestein kernel
// tables are always computed in double and rounded once to the storage
// type, so the float transform carries no accumulated table error.
//
// Scratch is thread-local and shared by all plans on a thread; a plan
// holds only its tables, so one instance may transform from several
// threads at once.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ls3df {

using cplx = std::complex<double>;
using cplxf = std::complex<float>;

template <typename Real>
class BasicFft1D {
 public:
  using Cplx = std::complex<Real>;

  explicit BasicFft1D(int n);

  int size() const { return n_; }

  // In-place transforms on a contiguous array of length size().
  void forward(Cplx* data) const { forward_lines(data, 1); }
  void inverse(Cplx* data) const { inverse_lines(data, 1); }

  void forward(std::vector<Cplx>& data) const { forward(data.data()); }
  void inverse(std::vector<Cplx>& data) const { inverse(data.data()); }

  // In-place transforms of `howmany` interleaved lines: element i of
  // line l at data[i * howmany + l] (size() * howmany values).
  void forward_lines(Cplx* data, int howmany) const;
  void inverse_lines(Cplx* data, int howmany) const;

  // True if n factors entirely into {2,3,5,7} (fast path, no Bluestein).
  static bool is_smooth(int n);
  // Smallest m >= n whose prime factors are all in {2,3,5}; such sizes
  // keep the FFT cost low and divide evenly for fragment grids.
  static int good_fft_size(int n);

 private:
  // One Stockham pass over sub-transforms of length radix * m; `s` of
  // them run side by side (s * radix * m == the Stockham length).
  struct Pass {
    int radix = 0;
    int m = 0;
    int s = 0;
    // twiddle[dir][j * (radix - 1) + k - 1] = exp(sign 2 pi i j k / (radix m)).
    std::vector<Cplx> twiddle[2];
    // root[dir][k * radix + r] = exp(sign 2 pi i (r k mod radix) / radix),
    // radix 3, 5 and 7 only.
    std::vector<Cplx> root[2];
  };

  void transform(Cplx* data, int howmany, int dir) const;
  // Stockham passes over `lines` lines at element stride `ld`.
  void run_passes(Cplx* data, std::size_t ld, int lines, int dir,
                  Cplx* work) const;
  // One line at element stride `ld`; `a` is the bs_m_-long convolution
  // buffer, `work` the passes' scratch.
  void bluestein_line(Cplx* data, std::size_t ld, int dir, Cplx* a,
                      Cplx* work) const;

  int n_ = 0;
  int len_ = 0;             // Stockham length: n_, or bs_m_ for Bluestein
  std::vector<Pass> passes_;

  // Bluestein state (only populated when n_ is not smooth).
  int bs_m_ = 0;                     // power-of-two convolution length
  std::vector<Cplx> bs_chirp_;       // b_k = exp(+i pi k^2 / n)
  std::vector<Cplx> bs_kernel_fft_;  // FFT of zero-padded chirp kernel
};

using Fft1D = BasicFft1D<double>;
using Fft1DF = BasicFft1D<float>;

}  // namespace ls3df
