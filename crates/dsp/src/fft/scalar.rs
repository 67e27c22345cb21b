//! The portable back-end: one butterfly at a time. It runs on every
//! host, and for transforms shorter than eight points everywhere.

use super::{Fft, Pass};
use crate::complex::Complex;

/// Runs `fft`'s stage schedule over `buf`, which holds `fft`'s size of
/// values in bit-reversed order.
pub(super) fn stages(fft: &Fft, buf: &mut [Complex], invert: bool) {
    if invert {
        run::<true>(fft, buf);
    } else {
        run::<false>(fft, buf);
    }
}

/// The schedule with the twiddles conjugated for `INVERT`: a
/// compile-time choice, so the hot loops have no branch.
fn run<const INVERT: bool>(fft: &Fft, buf: &mut [Complex]) {
    for pass in fft.passes() {
        match pass {
            Pass::Pair(w1, w2) => pair::<INVERT>(buf, w1, w2),
            Pass::Single(w) => single::<INVERT>(buf, w),
        }
    }
}

#[inline(always)]
fn twiddle<const INVERT: bool>(w: Complex) -> Complex {
    if INVERT {
        w.conj()
    } else {
        w
    }
}

/// One radix-2 butterfly, `(a + b·w, a − b·w)`.
#[inline(always)]
fn butterfly(a: Complex, b: Complex, w: Complex) -> (Complex, Complex) {
    let y = b * w;
    (a + y, a - y)
}

/// Stages `len` and `2·len` in one pass, `w1` and `w2` their tables.
/// In each block of `2·len` values, the values `j`, `j + len/2`,
/// `j + len` and `j + 3·len/2` meet only each other in the two stages,
/// so their four butterflies run together.
fn pair<const INVERT: bool>(buf: &mut [Complex], w1: &[Complex], w2: &[Complex]) {
    let h = w1.len();
    let (w2_lo, w2_hi) = w2.split_at(h);
    for block in buf.chunks_exact_mut(4 * h) {
        let (lo, hi) = block.split_at_mut(2 * h);
        let (q0, q1) = lo.split_at_mut(h);
        let (q2, q3) = hi.split_at_mut(h);
        for j in 0..h {
            let w = twiddle::<INVERT>(w1[j]);
            let (x0, x1) = butterfly(q0[j], q1[j], w);
            let (x2, x3) = butterfly(q2[j], q3[j], w);
            (q0[j], q2[j]) = butterfly(x0, x2, twiddle::<INVERT>(w2_lo[j]));
            (q1[j], q3[j]) = butterfly(x1, x3, twiddle::<INVERT>(w2_hi[j]));
        }
    }
}

/// The last stage on its own: one block, `w` its table.
fn single<const INVERT: bool>(buf: &mut [Complex], w: &[Complex]) {
    let (lo, hi) = buf.split_at_mut(w.len());
    for ((a, b), &w) in lo.iter_mut().zip(hi).zip(w) {
        (*a, *b) = butterfly(*a, *b, twiddle::<INVERT>(w));
    }
}
