//! The AVX back-end: two butterflies per 256-bit vector, each lane
//! doing the scalar butterfly's IEEE operations on the same operands.
//!
//! A vector holds two complex values, `[a.re, a.im, b.re, b.im]`. The
//! product `x·w` is `x·dup(w.re)` addsub `swap(x)·dup(w.im)`: its real
//! lane is `x.re·w.re − x.im·w.im`, as in [`Complex`]'s `Mul`, and its
//! imaginary lane `x.im·w.re + x.re·w.im`, the scalar sum with its
//! terms swapped, which IEEE addition makes the same bits. There is no
//! fused multiply-add, which would round once where the scalar code
//! rounds twice.
//!
//! Vectors are built from slice elements with `_mm256_setr_pd` and
//! taken apart through lane extracts, never through raw pointers, so
//! every function here is safe code; calling one from outside an AVX
//! context is the only thing that needs the CPU check.

use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd,
    _mm256_mul_pd, _mm256_permute_pd, _mm256_setr_pd, _mm256_sub_pd, _mm_cvtsd_f64,
    _mm_unpackhi_pd,
};

use super::{Fft, Pass};
use crate::complex::Complex;

/// A pair of twiddles as `(dup(re), dup(im))`.
type Twiddles = (__m256d, __m256d);

/// Runs `fft`'s stage schedule over `buf`, which holds `fft`'s size of
/// values (at least eight) in bit-reversed order.
#[target_feature(enable = "avx")]
pub(super) fn stages(fft: &Fft, buf: &mut [Complex], invert: bool) {
    if invert {
        run::<true>(fft, buf);
    } else {
        run::<false>(fft, buf);
    }
}

#[target_feature(enable = "avx")]
fn run<const INVERT: bool>(fft: &Fft, buf: &mut [Complex]) {
    for pass in fft.passes() {
        match pass {
            Pass::Pair(&[w1], &[w2_lo, w2_hi]) => first_pair::<INVERT>(buf, w1, w2_lo, w2_hi),
            Pass::Pair(w1, w2) => pair::<INVERT>(buf, w1, w2),
            Pass::Single(w) => single::<INVERT>(buf, w),
        }
    }
}

/// Two complex values in one vector.
#[target_feature(enable = "avx")]
fn load(a: Complex, b: Complex) -> __m256d {
    _mm256_setr_pd(a.re, a.im, b.re, b.im)
}

/// The two complex values of a vector.
#[target_feature(enable = "avx")]
fn split(v: __m256d) -> (Complex, Complex) {
    let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
    (
        Complex::new(_mm_cvtsd_f64(lo), _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo))),
        Complex::new(_mm_cvtsd_f64(hi), _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi))),
    )
}

/// Twiddles `a` and `b`, conjugated for `INVERT` as the scalar
/// back-end does.
#[target_feature(enable = "avx")]
fn twiddles<const INVERT: bool>(a: Complex, b: Complex) -> Twiddles {
    let (a, b) = if INVERT { (a.conj(), b.conj()) } else { (a, b) };
    (
        _mm256_setr_pd(a.re, a.re, b.re, b.re),
        _mm256_setr_pd(a.im, a.im, b.im, b.im),
    )
}

/// Two radix-2 butterflies, `(a + b·w, a − b·w)` per lane.
#[target_feature(enable = "avx")]
fn butterfly(a: __m256d, b: __m256d, (re, im): Twiddles) -> (__m256d, __m256d) {
    let swapped = _mm256_permute_pd::<0b0101>(b);
    let y = _mm256_addsub_pd(_mm256_mul_pd(b, re), _mm256_mul_pd(swapped, im));
    (_mm256_add_pd(a, y), _mm256_sub_pd(a, y))
}

/// The radix-2² group of the scalar back-end's `pair`, on two groups
/// at once: stage `len`'s butterflies with `w1`, then stage `2·len`'s
/// with `w2_lo` and `w2_hi`.
#[target_feature(enable = "avx")]
fn group(x: [__m256d; 4], w1: Twiddles, w2_lo: Twiddles, w2_hi: Twiddles) -> [__m256d; 4] {
    let (x0, x1) = butterfly(x[0], x[1], w1);
    let (x2, x3) = butterfly(x[2], x[3], w1);
    let (y0, y2) = butterfly(x0, x2, w2_lo);
    let (y1, y3) = butterfly(x1, x3, w2_hi);
    [y0, y1, y2, y3]
}

/// Stages 2 and 4. Each group is four neighbouring values, so a vector
/// takes the same value of two neighbouring groups.
#[target_feature(enable = "avx")]
fn first_pair<const INVERT: bool>(
    buf: &mut [Complex],
    w1: Complex,
    w2_lo: Complex,
    w2_hi: Complex,
) {
    let w1 = twiddles::<INVERT>(w1, w1);
    let w2_lo = twiddles::<INVERT>(w2_lo, w2_lo);
    let w2_hi = twiddles::<INVERT>(w2_hi, w2_hi);
    for block in buf.chunks_exact_mut(8) {
        let (a, b) = block.split_at_mut(4);
        let x = [
            load(a[0], b[0]),
            load(a[1], b[1]),
            load(a[2], b[2]),
            load(a[3], b[3]),
        ];
        for ((a, b), y) in a.iter_mut().zip(b).zip(group(x, w1, w2_lo, w2_hi)) {
            (*a, *b) = split(y);
        }
    }
}

/// Stages `len` and `2·len` for `len ≥ 4`: a vector takes groups `j`
/// and `j + 1`, which are neighbours in every quarter of a block.
#[target_feature(enable = "avx")]
fn pair<const INVERT: bool>(buf: &mut [Complex], w1: &[Complex], w2: &[Complex]) {
    let h = w1.len();
    let (w2_lo, w2_hi) = w2.split_at(h);
    for block in buf.chunks_exact_mut(4 * h) {
        let (lo, hi) = block.split_at_mut(2 * h);
        let (q0, q1) = lo.split_at_mut(h);
        let (q2, q3) = hi.split_at_mut(h);
        let values = q0
            .chunks_exact_mut(2)
            .zip(q1.chunks_exact_mut(2))
            .zip(q2.chunks_exact_mut(2).zip(q3.chunks_exact_mut(2)));
        let tables = w1
            .chunks_exact(2)
            .zip(w2_lo.chunks_exact(2).zip(w2_hi.chunks_exact(2)));
        for (((c0, c1), (c2, c3)), (w1, (w2_lo, w2_hi))) in values.zip(tables) {
            let x = [
                load(c0[0], c0[1]),
                load(c1[0], c1[1]),
                load(c2[0], c2[1]),
                load(c3[0], c3[1]),
            ];
            let y = group(
                x,
                twiddles::<INVERT>(w1[0], w1[1]),
                twiddles::<INVERT>(w2_lo[0], w2_lo[1]),
                twiddles::<INVERT>(w2_hi[0], w2_hi[1]),
            );
            for (c, y) in [c0, c1, c2, c3].into_iter().zip(y) {
                (c[0], c[1]) = split(y);
            }
        }
    }
}

/// The last stage on its own: one block, butterflies `j` and `j + 1`
/// per vector.
#[target_feature(enable = "avx")]
fn single<const INVERT: bool>(buf: &mut [Complex], w: &[Complex]) {
    let (lo, hi) = buf.split_at_mut(w.len());
    for ((a, b), w) in lo
        .chunks_exact_mut(2)
        .zip(hi.chunks_exact_mut(2))
        .zip(w.chunks_exact(2))
    {
        let (x, y) = butterfly(
            load(a[0], a[1]),
            load(b[0], b[1]),
            twiddles::<INVERT>(w[0], w[1]),
        );
        (a[0], a[1]) = split(x);
        (b[0], b[1]) = split(y);
    }
}
