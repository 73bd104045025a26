//! im2col / col2im lowering.
//!
//! `im2col` unrolls every receptive field of a convolution into one column of
//! a matrix so the convolution becomes a single GEMM — the classic lowering
//! used by CPU deep-learning frameworks. `col2im` is its adjoint and is the
//! core of the input-gradient pass.
//!
//! The convolution passes never build a whole column matrix: they lower
//! through bounded tiles, a range of rows × a range of columns, with
//! `im2col_tile` and scatter whole-height tiles back with `col2im_tile`
//! (see `gemm::conv_gemm`). The whole-sample [`im2col`] and [`col2im`]
//! remain as the straightforward reference the tiled passes are tested
//! against, bitwise.

use std::ops::Range;

/// Geometry of a 2-D convolution over one sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub c: usize,
    /// Input height (before padding).
    pub h: usize,
    /// Input width (before padding).
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Symmetric zero padding applied on every side.
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Number of rows of the column matrix (`c * kh * kw`).
    #[inline]
    pub fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Number of columns of the column matrix (`out_h * out_w`).
    #[inline]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validates that the geometry produces at least one output pixel.
    pub fn validate(&self) {
        assert!(self.stride >= 1, "ConvGeom: stride must be >= 1");
        assert!(
            self.h + 2 * self.pad >= self.kh && self.w + 2 * self.pad >= self.kw,
            "ConvGeom: kernel {}x{} larger than padded input {}x{}",
            self.kh,
            self.kw,
            self.h + 2 * self.pad,
            self.w + 2 * self.pad
        );
    }
}

/// Unrolls one `(C, H, W)` sample into the `(c*kh*kw) × (out_h*out_w)`
/// column matrix, writing into `cols` (which must be exactly that size).
///
/// Out-of-bounds (padding) positions contribute zeros.
pub fn im2col(input: &[f64], g: &ConvGeom, cols: &mut [f64]) {
    g.validate();
    assert_eq!(input.len(), g.c * g.h * g.w, "im2col: input length");
    assert_eq!(
        cols.len(),
        g.col_rows() * g.col_cols(),
        "im2col: cols length"
    );

    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    for c in 0..g.c {
        let plane = &input[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let out_row = &mut cols[row * n_cols..(row + 1) * n_cols];
                if g.stride == 1 {
                    // Stride 1 (every conv layer in the paper's network): for
                    // a fixed tap, valid output columns form one contiguous
                    // run `oj_lo..oj_hi` (`jj = oj + kj - pad ∈ [0, w)`), so
                    // each output row is zeros / one bulk copy / zeros —
                    // vector moves instead of a branch per element. Pure
                    // data movement: bit-identical to the general path.
                    let oj_lo = g.pad.saturating_sub(kj).min(ow);
                    let oj_hi = (g.w + g.pad).saturating_sub(kj).min(ow).max(oj_lo);
                    let jj0 = (oj_lo + kj).saturating_sub(g.pad).min(g.w);
                    for oi in 0..oh {
                        let ii = (oi + ki) as isize - g.pad as isize;
                        let base = oi * ow;
                        if ii < 0 || ii >= g.h as isize {
                            out_row[base..base + ow].fill(0.0);
                            continue;
                        }
                        let src_row = &plane[ii as usize * g.w..(ii as usize + 1) * g.w];
                        out_row[base..base + oj_lo].fill(0.0);
                        out_row[base + oj_lo..base + oj_hi]
                            .copy_from_slice(&src_row[jj0..jj0 + (oj_hi - oj_lo)]);
                        out_row[base + oj_hi..base + ow].fill(0.0);
                    }
                    continue;
                }
                for oi in 0..oh {
                    let ii = (oi * g.stride + ki) as isize - g.pad as isize;
                    let base = oi * ow;
                    if ii < 0 || ii >= g.h as isize {
                        out_row[base..base + ow].fill(0.0);
                        continue;
                    }
                    let src_row = &plane[ii as usize * g.w..(ii as usize + 1) * g.w];
                    for oj in 0..ow {
                        let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                        out_row[base + oj] = if jj < 0 || jj >= g.w as isize {
                            0.0
                        } else {
                            src_row[jj as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters (accumulates) the column matrix back onto
/// the `(C, H, W)` sample buffer. `output` is *accumulated into*, callers
/// must zero it when they want a plain adjoint.
pub fn col2im(cols: &[f64], g: &ConvGeom, output: &mut [f64]) {
    g.validate();
    assert_eq!(output.len(), g.c * g.h * g.w, "col2im: output length");
    assert_eq!(
        cols.len(),
        g.col_rows() * g.col_cols(),
        "col2im: cols length"
    );

    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    for c in 0..g.c {
        let plane = &mut output[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let in_row = &cols[row * n_cols..(row + 1) * n_cols];
                if g.stride == 1 {
                    // Same contiguous-run structure as the im2col fast path:
                    // the scatter becomes one dense `+=` sweep per row. The
                    // accumulation order over (ki, kj, oi, oj) is unchanged,
                    // so results stay bit-identical to the general path.
                    let oj_lo = g.pad.saturating_sub(kj).min(ow);
                    let oj_hi = (g.w + g.pad).saturating_sub(kj).min(ow).max(oj_lo);
                    let jj0 = (oj_lo + kj).saturating_sub(g.pad).min(g.w);
                    for oi in 0..oh {
                        let ii = (oi + ki) as isize - g.pad as isize;
                        if ii < 0 || ii >= g.h as isize {
                            continue;
                        }
                        let dst_row = &mut plane[ii as usize * g.w..(ii as usize + 1) * g.w];
                        let base = oi * ow;
                        let dst = &mut dst_row[jj0..jj0 + (oj_hi - oj_lo)];
                        let src = &in_row[base + oj_lo..base + oj_hi];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                    continue;
                }
                for oi in 0..oh {
                    let ii = (oi * g.stride + ki) as isize - g.pad as isize;
                    if ii < 0 || ii >= g.h as isize {
                        continue;
                    }
                    let dst_row = &mut plane[ii as usize * g.w..(ii as usize + 1) * g.w];
                    let base = oi * ow;
                    for oj in 0..ow {
                        let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                        if jj >= 0 && jj < g.w as isize {
                            dst_row[jj as usize] += in_row[base + oj];
                        }
                    }
                }
            }
        }
    }
}

/// The `(channel, ki, kj)` taps of column-matrix rows `rows`, in order,
/// stepped without a division per row (small grids have short rows).
fn taps(g: &ConvGeom, rows: Range<usize>) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let r = rows.start;
    let first = (r / (g.kh * g.kw), r / g.kw % g.kh, r % g.kw);
    std::iter::successors(Some(first), |&(c, ki, kj)| {
        Some(match (ki + 1 == g.kh, kj + 1 == g.kw) {
            (_, false) => (c, ki, kj + 1),
            (false, true) => (c, ki + 1, 0),
            (true, true) => (c + 1, 0, 0),
        })
    })
    .take(rows.len())
}

/// Column-matrix columns `cols` as runs along one output row each:
/// `(oi, oj_lo, oj_hi, offset)` in ascending column order, `offset` being the
/// run's first column relative to `cols.start`.
#[derive(Clone, Copy)]
struct Runs {
    oi: usize,
    oj: usize,
    ow: usize,
    len: usize,
}

impl Runs {
    fn new(g: &ConvGeom, cols: &Range<usize>) -> Self {
        let ow = g.out_w();
        Runs {
            oi: cols.start / ow,
            oj: cols.start % ow,
            ow,
            len: cols.len(),
        }
    }

    #[inline]
    fn for_each(self, mut f: impl FnMut(usize, usize, usize, usize)) {
        let (mut oi, mut oj_lo, mut off) = (self.oi, self.oj, 0);
        while off < self.len {
            let oj_hi = self.ow.min(oj_lo + (self.len - off));
            f(oi, oj_lo, oj_hi, off);
            off += oj_hi - oj_lo;
            (oi, oj_lo) = (oi + 1, 0);
        }
    }
}

/// Stride-1 output columns `oj ∈ lo..hi` of tap column `kj` whose input
/// column `oj + kj − pad` lies in `0..w` (computed once per tile row).
#[inline]
fn valid_cols(g: &ConvGeom, kj: usize) -> (usize, usize) {
    (g.pad.saturating_sub(kj), (g.w + g.pad).saturating_sub(kj))
}

/// `valid` (from [`valid_cols`]) cut to the run `oj_lo..oj_hi`: `lo ≤ hi`,
/// both within the run.
#[inline]
fn cut(valid: (usize, usize), oj_lo: usize, oj_hi: usize) -> (usize, usize) {
    let lo = valid.0.max(oj_lo).min(oj_hi);
    (lo, valid.1.min(oj_hi).max(lo))
}

/// `dst += src`, elementwise (two slices the caller knows do not overlap).
#[inline]
fn add_into(dst: &mut [f64], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Writes rows `rows` × columns `cols` of `input`'s column matrix — exactly
/// what [`im2col`] writes there — into `tile`, row-major with row stride
/// `cols.len()`. This is how the convolution passes lower: one bounded
/// tile at a time, straight from the sample.
pub(crate) fn im2col_tile(
    input: &[f64],
    g: &ConvGeom,
    rows: Range<usize>,
    cols: Range<usize>,
    tile: &mut [f64],
) {
    let (nb, runs) = (cols.len(), Runs::new(g, &cols));
    for ((c, ki, kj), dst) in taps(g, rows).zip(tile.chunks_exact_mut(nb)) {
        let plane = &input[c * g.h * g.w..][..g.h * g.w];
        let valid = valid_cols(g, kj);
        runs.for_each(|oi, oj_lo, oj_hi, off| {
            let run = &mut dst[off..off + oj_hi - oj_lo];
            let ii = (oi * g.stride + ki) as isize - g.pad as isize;
            if ii < 0 || ii >= g.h as isize {
                run.fill(0.0);
                return;
            }
            let src = &plane[ii as usize * g.w..][..g.w];
            if g.stride == 1 {
                // Zeros / one bulk copy / zeros, as in `im2col`.
                let (lo, hi) = cut(valid, oj_lo, oj_hi);
                run[..lo - oj_lo].fill(0.0);
                if hi > lo {
                    run[lo - oj_lo..hi - oj_lo]
                        .copy_from_slice(&src[lo + kj - g.pad..hi + kj - g.pad]);
                }
                run[hi - oj_lo..].fill(0.0);
                return;
            }
            for (v, oj) in run.iter_mut().zip(oj_lo..oj_hi) {
                let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                *v = if jj < 0 || jj >= g.w as isize {
                    0.0
                } else {
                    src[jj as usize]
                };
            }
        });
    }
}

/// Adjoint of [`im2col_tile`] for whole-height tiles: accumulates columns
/// `cols` of the column matrix (`tile`, every row, row stride `cols.len()`)
/// onto the `(C, H, W)` sample `output`, in [`col2im`]'s loop order.
///
/// Within a tile each output element receives its kernel taps `(ki, kj)`
/// in ascending order. Across tiles, a later column reaches a given input
/// pixel through an earlier tap, so callers that want [`col2im`]'s exact
/// sums scatter the tiles of a sample from the last column to the first.
pub(crate) fn col2im_tile(tile: &[f64], g: &ConvGeom, cols: Range<usize>, output: &mut [f64]) {
    let (nb, runs) = (cols.len(), Runs::new(g, &cols));
    for ((c, ki, kj), src) in taps(g, 0..g.col_rows()).zip(tile.chunks_exact(nb)) {
        let plane = &mut output[c * g.h * g.w..][..g.h * g.w];
        let valid = valid_cols(g, kj);
        runs.for_each(|oi, oj_lo, oj_hi, off| {
            let run = &src[off..off + oj_hi - oj_lo];
            let ii = (oi * g.stride + ki) as isize - g.pad as isize;
            if ii < 0 || ii >= g.h as isize {
                return;
            }
            let dst = &mut plane[ii as usize * g.w..][..g.w];
            if g.stride == 1 {
                let (lo, hi) = cut(valid, oj_lo, oj_hi);
                if hi > lo {
                    let dst = &mut dst[lo + kj - g.pad..hi + kj - g.pad];
                    add_into(dst, &run[lo - oj_lo..hi - oj_lo]);
                }
                return;
            }
            for (&v, oj) in run.iter().zip(oj_lo..oj_hi) {
                let jj = (oj * g.stride + kj) as isize - g.pad as isize;
                if jj >= 0 && jj < g.w as isize {
                    dst[jj as usize] += v;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_same_padding() {
        let g = ConvGeom {
            c: 4,
            h: 16,
            w: 16,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 2,
        };
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
        assert_eq!(g.col_rows(), 100);
        assert_eq!(g.col_cols(), 256);
    }

    #[test]
    fn geometry_valid_no_pad() {
        let g = ConvGeom {
            c: 1,
            h: 6,
            w: 7,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 0,
        };
        assert_eq!((g.out_h(), g.out_w()), (4, 5));
    }

    #[test]
    fn im2col_identity_kernel_geometry() {
        // 1×1 kernel, stride 1, no pad: cols == input.
        let g = ConvGeom {
            c: 2,
            h: 3,
            w: 3,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let input: Vec<f64> = (0..18).map(|x| x as f64).collect();
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&input, &g, &mut cols);
        assert_eq!(cols, input);
    }

    #[test]
    fn im2col_known_values() {
        // 1 channel, 3×3 input, 2×2 kernel, no pad → 2×2 output, 4 rows.
        let g = ConvGeom {
            c: 1,
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            stride: 1,
            pad: 0,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut cols = vec![0.0; 4 * 4];
        im2col(&input, &g, &mut cols);
        // Row layout: (ki,kj) = (0,0),(0,1),(1,0),(1,1); columns are the 4
        // output positions in row-major order.
        assert_eq!(&cols[0..4], &[1.0, 2.0, 4.0, 5.0]); // top-left taps
        assert_eq!(&cols[4..8], &[2.0, 3.0, 5.0, 6.0]);
        assert_eq!(&cols[8..12], &[4.0, 5.0, 7.0, 8.0]);
        assert_eq!(&cols[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_zeros() {
        let g = ConvGeom {
            c: 1,
            h: 2,
            w: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&input, &g, &mut cols);
        // Center tap (ki=1, kj=1) row must equal the input itself.
        let n = g.col_cols();
        assert_eq!(&cols[4 * n..5 * n], &input[..]);
        // Top-left tap at output (0,0) reads the padded corner → 0.
        assert_eq!(cols[0], 0.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> on random-ish data.
        let g = ConvGeom {
            c: 2,
            h: 4,
            w: 5,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let x: Vec<f64> = (0..g.c * g.h * g.w)
            .map(|i| ((i * 37 + 11) % 17) as f64 - 8.0)
            .collect();
        let y: Vec<f64> = (0..g.col_rows() * g.col_cols())
            .map(|i| ((i * 13 + 5) % 19) as f64 - 9.0)
            .collect();
        let mut cols = vec![0.0; y.len()];
        im2col(&x, &g, &mut cols);
        let lhs: f64 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut back = vec![0.0; x.len()];
        col2im(&y, &g, &mut back);
        let rhs: f64 = back.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn stride_two_geometry_and_values() {
        let g = ConvGeom {
            c: 1,
            h: 4,
            w: 4,
            kh: 2,
            kw: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!((g.out_h(), g.out_w()), (2, 2));
        let input: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let mut cols = vec![0.0; 4 * 4];
        im2col(&input, &g, &mut cols);
        // Tap (0,0) picks the even-even positions.
        assert_eq!(&cols[0..4], &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn validate_rejects_oversized_kernel() {
        let g = ConvGeom {
            c: 1,
            h: 2,
            w: 2,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 0,
        };
        g.validate();
    }
}
