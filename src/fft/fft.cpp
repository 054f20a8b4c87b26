#include "fft/fft.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/constants.h"

namespace ls3df {

namespace {

// Most values one multi-line pass block holds per buffer: long axes with
// many lines run in blocks of lines so the ping-pong pair stays in cache.
constexpr int kBlockElems = 4096;

// This thread's pass scratch, grown to at least n values. Every plan of
// one real type on a thread shares it: a thread runs one transform at a
// time, and plans hold no mutable state, so one instance may be used
// from several threads at once.
template <typename Real>
std::complex<Real>* thread_scratch(std::size_t n) {
  thread_local std::vector<std::complex<Real>> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

int next_pow2(int n) {
  int m = 1;
  while (m < n) m <<= 1;
  return m;
}

// Pass radices of a smooth n: 4s first, then at most one 2, then 3, 5, 7.
std::vector<int> radices(int n) {
  std::vector<int> r;
  while (n % 4 == 0) {
    r.push_back(4);
    n /= 4;
  }
  for (int p : {2, 3, 5, 7}) {
    while (n % p == 0) {
      r.push_back(p);
      n /= p;
    }
  }
  assert(n == 1);
  return r;
}

template <typename C>
C polar_unit(double ang) {
  using R = typename C::value_type;
  return C(static_cast<R>(std::cos(ang)), static_cast<R>(std::sin(ang)));
}

// Complex product written out: std::complex's operator* adds a NaN
// recovery branch that blocks vectorisation.
template <typename C>
inline C cmul(C a, C w) {
  return C(a.real() * w.real() - a.imag() * w.imag(),
           a.real() * w.imag() + a.imag() * w.real());
}

// Butterflies over `lines` contiguous lines. Input r of line l is
// in[r * is + l], output k is out[k * os + l]; with kTw the outputs
// k >= 1 are multiplied by tw[k - 1]. Each line sees the same operation
// sequence regardless of `lines`.
template <typename C, bool kTw>
void radix2(const C* in, std::size_t is, C* out, std::size_t os, int lines,
            const C* tw) {
  const C w1 = kTw ? tw[0] : C(1, 0);
  for (int l = 0; l < lines; ++l) {
    const C a0 = in[l], a1 = in[is + l];
    out[l] = a0 + a1;
    out[os + l] = kTw ? cmul(a0 - a1, w1) : a0 - a1;
  }
}

template <typename C, bool kInv, bool kTw>
void radix4(const C* in, std::size_t is, C* out, std::size_t os, int lines,
            const C* tw) {
  const C w1 = kTw ? tw[0] : C(1, 0);
  const C w2 = kTw ? tw[1] : C(1, 0);
  const C w3 = kTw ? tw[2] : C(1, 0);
  for (int l = 0; l < lines; ++l) {
    const C a0 = in[l], a1 = in[is + l], a2 = in[2 * is + l],
            a3 = in[3 * is + l];
    const C t0 = a0 + a2, t1 = a0 - a2, t2 = a1 + a3, d = a1 - a3;
    // (a1 - a3) times the quarter root: -i forward, +i inverse.
    const C t3 = kInv ? C(-d.imag(), d.real()) : C(d.imag(), -d.real());
    const C b1 = t1 + t3, b2 = t0 - t2, b3 = t1 - t3;
    out[l] = t0 + t2;
    out[os + l] = kTw ? cmul(b1, w1) : b1;
    out[2 * os + l] = kTw ? cmul(b2, w2) : b2;
    out[3 * os + l] = kTw ? cmul(b3, w3) : b3;
  }
}

// Radix 3, 5, 7: a P-point DFT through the P x P root table.
template <typename C, int P, bool kTw>
void radixp(const C* in, std::size_t is, C* out, std::size_t os, int lines,
            const C* tw, const C* root_table) {
  using R = typename C::value_type;
  C root[P * P];
  std::copy(root_table, root_table + P * P, root);
  C w[P - 1];
  for (int k = 0; k < P - 1; ++k) w[k] = kTw ? tw[k] : C(1, 0);
  for (int l = 0; l < lines; ++l) {
    C a[P];
    for (int r = 0; r < P; ++r) a[r] = in[r * is + l];
    C sum = a[0];
    for (int r = 1; r < P; ++r) sum += a[r];
    out[l] = sum;
    for (int k = 1; k < P; ++k) {
      R re = a[0].real(), im = a[0].imag();
      for (int r = 1; r < P; ++r) {
        const C& g = root[k * P + r];
        re += a[r].real() * g.real() - a[r].imag() * g.imag();
        im += a[r].real() * g.imag() + a[r].imag() * g.real();
      }
      out[k * os + l] = kTw ? cmul(C(re, im), w[k - 1]) : C(re, im);
    }
  }
}

template <typename C, bool kTw>
void butterfly(int radix, bool inv, const C* in, std::size_t is, C* out,
               std::size_t os, int lines, const C* tw, const C* root) {
  switch (radix) {
    case 2:
      radix2<C, kTw>(in, is, out, os, lines, tw);
      break;
    case 4:
      if (inv)
        radix4<C, true, kTw>(in, is, out, os, lines, tw);
      else
        radix4<C, false, kTw>(in, is, out, os, lines, tw);
      break;
    case 3:
      radixp<C, 3, kTw>(in, is, out, os, lines, tw, root);
      break;
    case 5:
      radixp<C, 5, kTw>(in, is, out, os, lines, tw, root);
      break;
    case 7:
      radixp<C, 7, kTw>(in, is, out, os, lines, tw, root);
      break;
    default:
      assert(false && "radix outside {2,3,4,5,7}");
  }
}

}  // namespace

template <typename Real>
bool BasicFft1D<Real>::is_smooth(int n) {
  for (int p : {2, 3, 5, 7})
    while (n % p == 0) n /= p;
  return n == 1;
}

template <typename Real>
int BasicFft1D<Real>::good_fft_size(int n) {
  if (n < 1) return 1;
  for (int m = n;; ++m) {
    int r = m;
    for (int p : {2, 3, 5})
      while (r % p == 0) r /= p;
    if (r == 1) return m;
  }
}

template <typename Real>
BasicFft1D<Real>::BasicFft1D(int n) : n_(n) {
  assert(n >= 1);
  if (!is_smooth(n)) bs_m_ = next_pow2(2 * n - 1);
  len_ = bs_m_ > 0 ? bs_m_ : n;
  // Stockham passes: pass i splits sub-transforms of length `len` into
  // `radix` interleaved ones of length m, with s = len_ / len of them
  // already side by side.
  int len = len_, s = 1;
  for (int p : radices(len_)) {
    Pass ps;
    ps.radix = p;
    ps.m = len / p;
    ps.s = s;
    for (int dir = 0; dir < 2; ++dir) {
      const double sign = dir == 0 ? -1.0 : 1.0;
      ps.twiddle[dir].reserve(static_cast<std::size_t>(ps.m) * (p - 1));
      for (int j = 0; j < ps.m; ++j)
        for (int k = 1; k < p; ++k)
          ps.twiddle[dir].push_back(
              polar_unit<Cplx>(sign * units::kTwoPi * (j * k) / len));
      if (p % 2 == 1) {
        ps.root[dir].reserve(static_cast<std::size_t>(p) * p);
        for (int k = 0; k < p; ++k)
          for (int r = 0; r < p; ++r)
            ps.root[dir].push_back(
                polar_unit<Cplx>(sign * units::kTwoPi * ((r * k) % p) / p));
      }
    }
    passes_.push_back(std::move(ps));
    len /= p;
    s *= p;
  }
  if (bs_m_ > 0) {
    const int m = bs_m_;
    std::vector<cplx> chirp(n), kernel(m, cplx(0, 0));
    for (int k = 0; k < n; ++k) {
      // k^2 mod 2n keeps the argument bounded for large k.
      const long k2 = (static_cast<long>(k) * k) % (2L * n);
      chirp[k] = polar_unit<cplx>(units::kPi * static_cast<double>(k2) / n);
    }
    kernel[0] = chirp[0];
    for (int k = 1; k < n; ++k) {
      kernel[k] = chirp[k];
      kernel[m - k] = chirp[k];
    }
    // The kernel's spectrum is a table like the twiddles: computed in
    // double (m is a power of two, so this plan is pure Stockham) and
    // rounded once.
    BasicFft1D<double>(m).forward(kernel.data());
    bs_chirp_.assign(chirp.begin(), chirp.end());
    bs_kernel_fft_.assign(kernel.begin(), kernel.end());
  }
}

template <typename Real>
void BasicFft1D<Real>::forward_lines(Cplx* data, int howmany) const {
  transform(data, howmany, 0);
}

template <typename Real>
void BasicFft1D<Real>::inverse_lines(Cplx* data, int howmany) const {
  if (howmany <= 0) return;
  transform(data, howmany, 1);
  const Real s = static_cast<Real>(1) / static_cast<Real>(n_);
  const std::size_t total = static_cast<std::size_t>(n_) * howmany;
  for (std::size_t i = 0; i < total; ++i) data[i] *= s;
}

template <typename Real>
void BasicFft1D<Real>::transform(Cplx* data, int howmany, int dir) const {
  if (n_ == 1 || howmany <= 0) return;
  const std::size_t ld = static_cast<std::size_t>(howmany);
  if (bs_m_ > 0) {
    // Ping-pong pair for one line, then the convolution buffer.
    Cplx* work = thread_scratch<Real>(3 * static_cast<std::size_t>(bs_m_));
    for (int l = 0; l < howmany; ++l)
      bluestein_line(data + l, ld, dir, work + 2 * bs_m_, work);
    return;
  }
  const int block = std::max(1, std::min(howmany, kBlockElems / n_));
  Cplx* work = thread_scratch<Real>(2 * static_cast<std::size_t>(n_) * block);
  for (int l0 = 0; l0 < howmany; l0 += block)
    run_passes(data + l0, ld, std::min(block, howmany - l0), dir, work);
}

// Pass i reads `src` and writes `dst`: data -> work A -> work B -> ... ->
// data, with `work` holding the pair (2 * len_ * lines values). A lone
// pass (len_ a single radix) runs in place, which is safe because it has
// m == 1: every butterfly reads and writes the same slots.
template <typename Real>
void BasicFft1D<Real>::run_passes(Cplx* data, std::size_t ld, int lines,
                                  int dir, Cplx* work) const {
  Cplx* buf[2] = {work, work + static_cast<std::size_t>(len_) * lines};
  const Cplx* src = data;
  std::size_t sld = ld;
  const int np = static_cast<int>(passes_.size());
  for (int i = 0; i < np; ++i) {
    const Pass& p = passes_[i];
    const bool last = i + 1 == np;
    Cplx* dst = last ? data : buf[i & 1];
    const std::size_t dld = last ? ld : static_cast<std::size_t>(lines);
    // Element e of line l sits at e * stride + l. When both sides are
    // packed (stride == lines), the s side-by-side sub-transforms and the
    // lines fuse into one contiguous run of s * lines values.
    int s = p.s, run = lines;
    std::size_t il = sld, ol = dld;
    if (sld == static_cast<std::size_t>(lines) && dld == sld) {
      run = s * lines;
      il = ol = static_cast<std::size_t>(run);
      s = 1;
    }
    const std::size_t is = static_cast<std::size_t>(s) * p.m * il;
    const std::size_t os = static_cast<std::size_t>(s) * ol;
    const Cplx* root = p.root[dir].data();
    for (int j = 0; j < p.m; ++j) {
      const Cplx* tw = p.twiddle[dir].data() +
                       static_cast<std::size_t>(j) * (p.radix - 1);
      for (int q = 0; q < s; ++q) {
        const Cplx* in = src + (q + static_cast<std::size_t>(s) * j) * il;
        Cplx* out = dst + (q + static_cast<std::size_t>(s) * p.radix * j) * ol;
        if (j == 0)
          butterfly<Cplx, false>(p.radix, dir == 1, in, is, out, os, run, tw,
                                 root);
        else
          butterfly<Cplx, true>(p.radix, dir == 1, in, is, out, os, run, tw,
                                root);
      }
    }
    src = dst;
    sld = dld;
  }
}

template <typename Real>
void BasicFft1D<Real>::bluestein_line(Cplx* data, std::size_t ld, int dir,
                                      Cplx* a, Cplx* work) const {
  const int n = n_, m = bs_m_;
  for (int k = 0; k < n; ++k) {
    const Cplx c = dir == 0 ? std::conj(bs_chirp_[k]) : bs_chirp_[k];
    a[k] = cmul(data[k * ld], c);
  }
  std::fill(a + n, a + m, Cplx(0, 0));
  run_passes(a, 1, 1, 0, work);
  if (dir == 0) {
    for (int i = 0; i < m; ++i) a[i] = cmul(a[i], bs_kernel_fft_[i]);
  } else {
    // The inverse's kernel is the conjugate chirp, whose spectrum is
    // FFT(conj(g)) = conj(reverse(FFT(g))) of the stored one.
    for (int i = 0; i < m; ++i) {
      const int j = i == 0 ? 0 : m - i;
      a[i] = cmul(a[i], std::conj(bs_kernel_fft_[j]));
    }
  }
  run_passes(a, 1, 1, 1, work);
  const Real s = static_cast<Real>(1) / static_cast<Real>(m);
  for (int k = 0; k < n; ++k) {
    const Cplx c = dir == 0 ? std::conj(bs_chirp_[k]) : bs_chirp_[k];
    data[k * ld] = cmul(a[k] * s, c);
  }
}

template class BasicFft1D<double>;
template class BasicFft1D<float>;

}  // namespace ls3df
