//! Packed, register-tiled general matrix–matrix multiply with runtime-
//! selected SIMD micro-kernels and intra-rank threading.
//!
//! The kernels here are the single hot spot of the whole training pipeline:
//! every convolution forward/backward pass runs on them. A convolution never
//! materializes its column matrix: `conv_gemm`, the convolution entry,
//! fills one `rows × 256` im2col tile at a time straight from the input (or,
//! for the input gradient, scatters one tile of column gradients at a time)
//! and feeds the tile to the same micro-kernels, so a pass's working set is
//! L2-sized whatever the batch or grid. The architecture is two-level:
//!
//! * **Instruction level** — a [`KernelPath`] chosen once per process
//!   ([`kernel_path`]): explicit AVX-512 or AVX2+FMA micro-kernels from
//!   [`crate::simd`], or the portable scalar micro-kernel in this module
//!   (whose `f64::mul_add` chains the repo-level `.cargo/config.toml`
//!   lowers to FMA). `PDEML_KERNEL=scalar|simd` selects for A/B runs;
//!   [`force_kernel_path`] overrides for benches.
//! * **Thread level** — the driver's macro-loops fan out over
//!   [`crate::pool`]: batched calls chunk per sample, single-sample calls
//!   chunk per [`NC`]-column block (convolution passes chunk as
//!   `conv_gemm` describes). Each C element is written by exactly one
//!   chunk with a fixed operation order, so results are bit-for-bit
//!   identical at every thread budget.
//!
//! Operand handling depends on the layout: row-major B (`Trans::N`) is read
//! **in place** by the SIMD paths and by the dedicated small-`m` scalar edge
//! kernel (packing B costs as much as the FMA work at our shapes), while
//! `Trans::T` operands keep the classic packed-strip scheme — the
//! transposition happens for free during packing. A is always packed into
//! `mr`-interleaved row panels ([`KC`]-blocked, L2-resident).
//!
//! **Accumulation-order contract:** every path computes each C element as a
//! `p`-ascending fused-multiply-add chain from 0.0 within a KC block, added
//! into C once per block. Tile shape, packing, threading and vector width
//! all preserve that per-element chain, so *all* paths agree bitwise —
//! asserted by `tests/kernel_paths.rs`. (The documented fallback, a ≤1e-12
//! relative tolerance, is retained in the test helper for future kernels
//! that reassociate; today nothing needs it.)
//!
//! Pack buffers and im2col tiles live in thread-local storage and are
//! reused across calls, so steady-state GEMM performs no heap allocation —
//! including on pool workers, each of which owns its own buffers. Every
//! driver or convolution call makes one record of its FLOPs, kernel
//! nanoseconds and packing traffic in [`crate::perf`], however many tiles
//! it ran.

use crate::im2col::{col2im_tile, im2col_tile, ConvGeom};
use crate::{perf, pool, Matrix};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Scalar micro-tile rows: how many rows of C the scalar micro-kernel owns.
const MR: usize = 4;
/// Micro-tile columns; also the packed B strip width for every path.
const NR: usize = 8;
/// Shared-dimension block: one packed A panel (`KC × mr`) stays L1/L2
/// resident. Identical across kernel paths — KC blocking is part of the
/// accumulation-order contract.
const KC: usize = 256;
/// Column block: unit of B packing *and* of intra-rank column chunking
/// (`KC × NC` ≤ 512 KiB stays L2-resident; 256 is a multiple of every
/// tile width, so chunk boundaries never split a tile).
const NC: usize = 256;

thread_local! {
    /// Packed-A scratch, owned by the driver thread for the whole call.
    static A_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Packed-B scratch, borrowed per column chunk on whichever thread
    /// (caller or pool worker) runs the chunk.
    static B_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

// ---------------------------------------------------------------------------
// Kernel-path selection
// ---------------------------------------------------------------------------

/// Which micro-kernel family the driver dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable Rust micro-kernel (auto-vectorized under `-C
    /// target-cpu=native`, plain f64 otherwise).
    Scalar,
    /// Explicit AVX2+FMA intrinsics (4-row tiles).
    Avx2,
    /// Explicit AVX-512F intrinsics (8-row tiles, masked edges).
    Avx512,
}

impl KernelPath {
    /// Stable lowercase label, as printed in CLI headers and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx2 => "avx2",
            KernelPath::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this path.
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                KernelPath::Scalar => true,
                KernelPath::Avx2 => {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                KernelPath::Avx512 => is_x86_feature_detected!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == KernelPath::Scalar
        }
    }
}

/// Best path the running CPU supports.
fn best_supported() -> KernelPath {
    if KernelPath::Avx512.supported() {
        KernelPath::Avx512
    } else if KernelPath::Avx2.supported() {
        KernelPath::Avx2
    } else {
        KernelPath::Scalar
    }
}

/// Parses `PDEML_KERNEL` (+ runtime feature detection), once per process.
fn detect() -> KernelPath {
    match std::env::var("PDEML_KERNEL").as_deref() {
        Err(_) | Ok("simd") => best_supported(),
        Ok("scalar") => KernelPath::Scalar,
        Ok(explicit @ ("avx2" | "avx512")) => {
            let path = if explicit == "avx2" {
                KernelPath::Avx2
            } else {
                KernelPath::Avx512
            };
            assert!(
                path.supported(),
                "PDEML_KERNEL={explicit} requested but this CPU does not support it; \
                 use PDEML_KERNEL=simd to auto-select the best available path"
            );
            path
        }
        Ok(other) => panic!(
            "PDEML_KERNEL={other:?} is not a kernel path; \
             valid values: scalar, simd (auto), avx2, avx512"
        ),
    }
}

/// Bench/test override: 0 = none, else `KernelPath as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Overrides the kernel path process-wide (benches and the path-equivalence
/// tests use this to compare paths inside one process, where the
/// `PDEML_KERNEL` choice is already frozen). `None` restores the detected
/// path. Safe at any time: all paths produce bit-identical results, so
/// switching mid-run only changes speed.
///
/// # Panics
/// If the CPU does not support the requested path.
pub fn force_kernel_path(path: Option<KernelPath>) {
    let code = match path {
        None => 0,
        Some(p) => {
            assert!(
                p.supported(),
                "force_kernel_path({p:?}): not supported by this CPU"
            );
            p as u8 + 1
        }
    };
    FORCED.store(code, Ordering::Release);
}

/// The kernel path in effect: a [`force_kernel_path`] override if set, else
/// the cached `PDEML_KERNEL` / feature-detection choice.
pub fn kernel_path() -> KernelPath {
    match FORCED.load(Ordering::Acquire) {
        1 => KernelPath::Scalar,
        2 => KernelPath::Avx2,
        3 => KernelPath::Avx512,
        _ => *{
            static DETECTED: OnceLock<KernelPath> = OnceLock::new();
            DETECTED.get_or_init(detect)
        },
    }
}

/// Packed A panel height for this path/shape: AVX-512 widens to 8 rows
/// (16 zmm accumulators) except for `m ≤ 4`, where a 4-row panel keeps the
/// register file on live data (the layer-3 edge case).
fn panel_rows(path: KernelPath, m: usize) -> usize {
    match path {
        KernelPath::Avx512 if m > MR => 8,
        _ => MR,
    }
}

/// Operand layout: `N` means the slice stores the logical matrix row-major,
/// `T` means it stores the transpose (so packing walks it column-wise).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Trans {
    N,
    T,
}

/// Packs every `mr`-row panel of the logical `m × k` matrix A for the
/// shared-dimension block `p0 .. p0+kc` into `buf`, zero-padding the last
/// panel. Layout: panel `ip` at `buf[ip*kc*mr..]`, element `(p, r)` at
/// `p*mr + r`. Full 8-row `Trans::N` panels on the AVX-512 path transpose
/// in registers ([`crate::simd::pack_a8_n_512`]); packing is pure data
/// movement either way, so the layout (and every downstream result) is
/// identical.
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    path: KernelPath,
    op: Trans,
    a: &[f64],
    m: usize,
    k: usize,
    p0: usize,
    kc: usize,
    mr: usize,
    buf: &mut [f64],
) {
    let m_panels = m.div_ceil(mr);
    for ip in 0..m_panels {
        let i0 = ip * mr;
        let mr_eff = mr.min(m - i0);
        let panel = &mut buf[ip * kc * mr..][..kc * mr];
        match op {
            Trans::N => {
                #[cfg(target_arch = "x86_64")]
                if path == KernelPath::Avx512 && mr == 8 && mr_eff == 8 {
                    // SAFETY: AVX-512 is the selected (detected) path and
                    // the panel is full, so all 8 source rows exist.
                    unsafe { crate::simd::pack_a8_n_512(a, k, i0, p0, kc, panel) };
                    continue;
                }
                #[cfg(not(target_arch = "x86_64"))]
                let _ = path;
                // a[(i0+r)*k + p0+p] → panel[p*mr + r]
                if mr_eff < mr {
                    panel.fill(0.0);
                }
                for r in 0..mr_eff {
                    let row = &a[(i0 + r) * k + p0..][..kc];
                    for (p, &v) in row.iter().enumerate() {
                        panel[p * mr + r] = v;
                    }
                }
            }
            Trans::T => {
                // a stored k × m: a[(p0+p)*m + i0+r] → panel[p*mr + r]
                for p in 0..kc {
                    let src = &a[(p0 + p) * m + i0..][..mr_eff];
                    let dst = &mut panel[p * mr..][..mr];
                    dst[..mr_eff].copy_from_slice(src);
                    dst[mr_eff..].fill(0.0);
                }
            }
        }
    }
}

/// Packs a chunk of B — view columns `jc .. jc+nc_eff` of one KC block —
/// into `buf` as `ceil(nc_eff / NR)` NR-interleaved strips (strip `js` at
/// `buf[js*kc*NR..]`, element `(p, c)` at `p*NR + c`), zero-padding the last
/// strip.
///
/// `b` starts at the block's first shared row. For `Trans::N` element
/// `(p, j)` is `b[p*ldb + j]` and each row contributes one contiguous
/// `nc_eff`-wide run (`copy_from_slice`, i.e. vector moves), scattered
/// across the strips; for `Trans::T` it is `b[j*ldb + p]` and the
/// transposition happens here, walking contiguous columns — on the AVX-512
/// path full strips transpose 8×8 blocks in registers
/// ([`crate::simd::pack_a8_n_512`]: a strip of `Bᵀ` has exactly the layout
/// of an 8-row A panel). Packing is pure data movement either way.
#[allow(clippy::too_many_arguments)]
fn pack_b_chunk(
    path: KernelPath,
    op: Trans,
    b: &[f64],
    ldb: usize,
    kc: usize,
    jc: usize,
    nc_eff: usize,
    buf: &mut [f64],
) {
    let full = nc_eff / NR;
    let rem = nc_eff % NR;
    match op {
        Trans::N => {
            // b[p*ldb + jc+c] → strip[c/NR][p*NR + c%NR]
            for p in 0..kc {
                let src = &b[p * ldb + jc..][..nc_eff];
                for js in 0..full {
                    let dst = &mut buf[js * kc * NR + p * NR..][..NR];
                    dst.copy_from_slice(&src[js * NR..][..NR]);
                }
                if rem > 0 {
                    let dst = &mut buf[full * kc * NR + p * NR..][..NR];
                    dst[..rem].copy_from_slice(&src[full * NR..]);
                    dst[rem..].fill(0.0);
                }
            }
        }
        Trans::T => {
            // b[(jc+c)*ldb + p] → strip[c/NR][p*NR + c%NR]
            if rem > 0 {
                buf[full * kc * NR..][..kc * NR].fill(0.0);
            }
            let mut c0 = 0;
            #[cfg(target_arch = "x86_64")]
            if path == KernelPath::Avx512 {
                for js in 0..full {
                    let strip = &mut buf[js * kc * NR..][..kc * NR];
                    // SAFETY: AVX-512 is the selected (detected) path; the
                    // strip's NR = 8 source rows jc+js*8.. all exist.
                    unsafe { crate::simd::pack_a8_n_512(b, ldb, jc + js * NR, 0, kc, strip) };
                }
                c0 = full * NR;
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = path;
            for c in c0..nc_eff {
                let col = &b[(jc + c) * ldb..][..kc];
                let (js, cr) = (c / NR, c % NR);
                let strip = &mut buf[js * kc * NR..][..kc * NR];
                for (p, &v) in col.iter().enumerate() {
                    strip[p * NR + cr] = v;
                }
            }
        }
    }
}

/// Accumulator write-back: adds the live `mr_eff × nr_eff` corner of the
/// register tile into C (base pointer + row stride, so concurrent chunks
/// can write disjoint column ranges without materializing overlapping
/// `&mut` slices).
///
/// # Safety
/// `c` must be valid for the rows/columns addressed, and no other thread
/// may concurrently touch those elements.
#[inline(always)]
unsafe fn write_back(
    acc: &[[f64; NR]; MR],
    c: *mut f64,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    ldc: usize,
) {
    for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
        let row = unsafe { std::slice::from_raw_parts_mut(c.add((i0 + r) * ldc + j0), nr_eff) };
        for (dst, &v) in row.iter_mut().zip(&acc_row[..nr_eff]) {
            *dst += v;
        }
    }
}

/// The scalar register-tiled core: `C[i0.., j0..] += Ap · Bp` for one packed
/// A panel (`kc × MR`) against one packed B strip (`kc × NR`). The
/// accumulator tile lives entirely in locals (it compiles to 8 packed-FMA
/// chains under native codegen); edge tiles compute the full micro-tile on
/// the zero padding and clip only the write-back.
///
/// # Safety
/// See [`write_back`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel(
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    ldc: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    // `chunks_exact` + `zip` lets the compiler drop every bounds check in the
    // kc loop; both panels advance in lockstep, one micro-tile rank-1 update
    // per step. The fixed-size reborrows below are what lets the tile update
    // compile to packed FMA: with `[f64; NR]` operands the whole inner loop
    // unrolls into straight-line vector code.
    for (a_col, b_row) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let a_col: &[f64; MR] = a_col.try_into().unwrap();
        let b_row: &[f64; NR] = b_row.try_into().unwrap();
        for r in 0..MR {
            let av = a_col[r];
            for j in 0..NR {
                acc[r][j] = av.mul_add(b_row[j], acc[r][j]);
            }
        }
    }
    unsafe { write_back(&acc, c, i0, j0, mr_eff, nr_eff, ldc) };
}

/// Dedicated scalar edge kernel for `m ≤ MR` against row-major B (the
/// layer-3 shape): B is read in place — with a single A panel there is no
/// packing to amortize — and the C tile is held in *registers* across the
/// whole KC block, unlike the old `small_m_kernel`, which streamed C
/// through L1 once per shared-dimension step and capped layer 3 at ~6
/// GFLOP/s. The accumulation chain is identical to [`micro_kernel`]'s.
///
/// # Safety
/// See [`write_back`]; `b` must hold the block's `kc` rows (stride `ldb`).
#[allow(clippy::too_many_arguments)]
unsafe fn scalar_edge_block(
    m: usize,
    ap: &[f64],
    kc: usize,
    b: &[f64],
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    j_lo: usize,
    j_hi: usize,
) {
    let mut j0 = j_lo;
    while j0 < j_hi {
        let nr_eff = NR.min(j_hi - j0);
        let mut acc = [[0.0f64; NR]; MR];
        if nr_eff == NR {
            for (p, a_col) in ap.chunks_exact(MR).take(kc).enumerate() {
                let a_col: &[f64; MR] = a_col.try_into().unwrap();
                let b_row: &[f64; NR] = b[p * ldb + j0..][..NR].try_into().unwrap();
                for r in 0..MR {
                    let av = a_col[r];
                    for j in 0..NR {
                        acc[r][j] = av.mul_add(b_row[j], acc[r][j]);
                    }
                }
            }
        } else {
            for (p, a_col) in ap.chunks_exact(MR).take(kc).enumerate() {
                let b_row = &b[p * ldb + j0..][..nr_eff];
                for r in 0..MR {
                    let av = a_col[r];
                    for (j, &bv) in b_row.iter().enumerate() {
                        acc[r][j] = av.mul_add(bv, acc[r][j]);
                    }
                }
            }
        }
        unsafe { write_back(&acc, c, 0, j0, m, nr_eff, ldc) };
        j0 += NR;
    }
}

/// Packed-strip sweep of C columns `j_lo .. j_hi` for one sample and one KC
/// block: B chunks are packed [`NC`] columns at a time into *this thread's*
/// pack buffer (caller or pool worker alike), then swept strip by strip by
/// every A panel while cache-hot.
///
/// # Safety
/// See [`write_back`]; `abuf` must hold `ceil(m/mr)` packed panels; `b` is
/// the block's B view (see [`pack_b_chunk`]) and `c` has row stride `ldc`.
#[allow(clippy::too_many_arguments)]
unsafe fn packed_block(
    path: KernelPath,
    op_b: Trans,
    m: usize,
    abuf: &[f64],
    mr: usize,
    kc: usize,
    b: &[f64],
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    j_lo: usize,
    j_hi: usize,
) {
    let m_panels = m.div_ceil(mr);
    B_BUF.with(|bb| {
        let mut bbuf = bb.borrow_mut();
        let need = (NC / NR) * kc * NR;
        if bbuf.len() < need {
            bbuf.resize(need, 0.0);
        }
        for jc in (j_lo..j_hi).step_by(NC) {
            let nc_eff = NC.min(j_hi - jc);
            pack_b_chunk(path, op_b, b, ldb, kc, jc, nc_eff, &mut bbuf);
            for js in 0..nc_eff.div_ceil(NR) {
                let strip = &bbuf[js * kc * NR..][..kc * NR];
                let j0 = jc + js * NR;
                let nr_eff = NR.min(j_hi - j0);
                for ip in 0..m_panels {
                    let ap = &abuf[ip * kc * mr..][..kc * mr];
                    let (i0, mr_eff) = (ip * mr, mr.min(m - ip * mr));
                    match path {
                        // SAFETY (all arms): disjoint C tiles, panels sized
                        // by the driver, SIMD paths feature-checked at
                        // selection time.
                        KernelPath::Scalar => unsafe {
                            micro_kernel(ap, strip, c, i0, j0, mr_eff, nr_eff, ldc)
                        },
                        #[cfg(target_arch = "x86_64")]
                        KernelPath::Avx2 => unsafe {
                            crate::simd::packed_strip_avx2(
                                ap, strip, kc, c, i0, j0, mr_eff, nr_eff, ldc,
                            )
                        },
                        #[cfg(target_arch = "x86_64")]
                        KernelPath::Avx512 => unsafe {
                            crate::simd::packed_strip_512(
                                ap, mr, strip, kc, c, i0, j0, mr_eff, nr_eff, ldc,
                            )
                        },
                        #[cfg(not(target_arch = "x86_64"))]
                        _ => unreachable!("SIMD kernel paths are x86_64-only"),
                    }
                }
            }
        }
    });
}

/// One KC block × one column range, dispatched to the selected kernel
/// family: `C[.., j_lo..j_hi] += A_block · B_block`. This is the unit of
/// work a pool chunk executes, for the plain GEMM entry points and for the
/// convolution tiles alike.
///
/// `b` is the block's B view — it starts at the block's first shared row;
/// element `(p, j)` is `b[p*ldb + j]` for `Trans::N` and `b[j*ldb + p]` for
/// `Trans::T` — and `c` points at C's column 0 with row stride `ldc`, so a
/// B tile and the C it feeds need not share a stride.
///
/// # Safety
/// No other thread may write columns `j_lo .. j_hi` of C; `b` must cover
/// the block; `abuf` must be packed with `mr`-row panels for this block;
/// SIMD paths require their CPU features (guaranteed by [`kernel_path`]).
#[allow(clippy::too_many_arguments)]
unsafe fn sample_block(
    path: KernelPath,
    op_b: Trans,
    m: usize,
    abuf: &[f64],
    mr: usize,
    kc: usize,
    b: &[f64],
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    j_lo: usize,
    j_hi: usize,
) {
    match op_b {
        Trans::N => match path {
            KernelPath::Scalar if m <= MR => unsafe {
                scalar_edge_block(m, abuf, kc, b, ldb, c, ldc, j_lo, j_hi)
            },
            KernelPath::Scalar => unsafe {
                packed_block(path, op_b, m, abuf, mr, kc, b, ldb, c, ldc, j_lo, j_hi)
            },
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => unsafe {
                crate::simd::direct_block_avx2(abuf, m, kc, b.as_ptr(), ldb, c, ldc, j_lo, j_hi)
            },
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx512 => unsafe {
                crate::simd::direct_block_512(abuf, mr, m, kc, b.as_ptr(), ldb, c, ldc, j_lo, j_hi)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("SIMD kernel paths are x86_64-only"),
        },
        Trans::T => unsafe {
            packed_block(path, op_b, m, abuf, mr, kc, b, ldb, c, ldc, j_lo, j_hi)
        },
    }
}

use crate::pool::SendPtr;

/// B view of the KC block starting at shared row `p0` of a `k × n` operand
/// stored per `op` (see [`sample_block`]): the slice and its stride.
fn b_block(op: Trans, b: &[f64], k: usize, n: usize, p0: usize) -> (&[f64], usize) {
    match op {
        Trans::N => (&b[p0 * n..], n),
        Trans::T => (&b[p0..], k),
    }
}

/// Shared driver behind the public GEMM entry points.
///
/// Computes `C_s += op_a(A) · op_b(B_s)` for `samples` consecutive
/// `k × n` / `m × n` operand pairs in `b_all` / `c_all`, sharing one packed
/// copy of A across all samples ([`gemm_batch`] uses `samples > 1`; the
/// plain entry points pass `samples == 1`).
///
/// Loop order: the shared dimension is blocked by [`KC`] and A packed once
/// per block. Inside the block the work fans out over [`crate::pool`]:
/// batched calls run one chunk per sample, single-sample calls one chunk
/// per [`NC`]-column range — both partitions write disjoint C regions, and
/// the per-element operation order is independent of the partition, so
/// every thread budget produces identical bits.
#[allow(clippy::too_many_arguments)]
fn gemm_driver(
    op_a: Trans,
    op_b: Trans,
    samples: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b_all: &[f64],
    c_all: &mut [f64],
) {
    if samples == 0 || m == 0 || n == 0 {
        return;
    }
    let t0 = Instant::now();
    let path = kernel_path();
    let mr = panel_rows(path, m);
    let m_panels = m.div_ceil(mr);
    A_BUF.with(|ab| {
        let mut abuf = ab.borrow_mut();
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            grow(&mut abuf, m_panels * kc * mr);
            pack_a_block(path, op_a, a, m, k, p0, kc, mr, &mut abuf);
            let abuf: &[f64] = &abuf[..m_panels * kc * mr];
            let c_base = SendPtr(c_all.as_mut_ptr());
            if samples > 1 {
                pool::run(samples, &|s| {
                    // Bind the wrapper whole so closure capture keeps the
                    // `Send + Sync` `SendPtr`, not its raw-pointer field.
                    #[allow(clippy::redundant_locals)]
                    let c_base = c_base;
                    let (b, ldb) = b_block(op_b, &b_all[s * k * n..][..k * n], k, n, p0);
                    // SAFETY: chunk `s` owns sample `s`'s C region.
                    unsafe {
                        sample_block(
                            path,
                            op_b,
                            m,
                            abuf,
                            mr,
                            kc,
                            b,
                            ldb,
                            c_base.0.add(s * m * n),
                            n,
                            0,
                            n,
                        )
                    };
                });
            } else {
                let (b, ldb) = b_block(op_b, b_all, k, n, p0);
                pool::run(n.div_ceil(NC), &|ci| {
                    // Whole-value rebind for disjoint capture (see above).
                    #[allow(clippy::redundant_locals)]
                    let c_base = c_base;
                    let j_lo = ci * NC;
                    let j_hi = (j_lo + NC).min(n);
                    // SAFETY: chunk `ci` owns columns `j_lo..j_hi` alone.
                    unsafe {
                        sample_block(path, op_b, m, abuf, mr, kc, b, ldb, c_base.0, n, j_lo, j_hi)
                    };
                });
            }
        }
    });
    let mut packed_elems = (m_panels * mr * k) as u64;
    if packs_b(path, op_b, m) {
        packed_elems += (samples as u64) * (n.div_ceil(NR) * NR * k) as u64;
    }
    let ns = t0.elapsed().as_nanos() as u64;
    record(path, samples * m * k * n, packed_elems, ns);
}

/// Whether this path/layout packs B into strips (else B is read in place).
fn packs_b(path: KernelPath, op_b: Trans, m: usize) -> bool {
    op_b == Trans::T || (path == KernelPath::Scalar && m > MR)
}

/// Grows a scratch buffer to at least `len` elements (never shrinks, so a
/// buffer that has seen its largest shape never reallocates again).
fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// One perf record: `mkn` multiply-adds (2·mkn FLOPs), `packed_elems` f64s
/// of packing traffic, `ns` nanoseconds.
fn record(path: KernelPath, mkn: usize, packed_elems: u64, ns: u64) {
    perf::record_gemm(
        2 * mkn as u64,
        packed_elems * std::mem::size_of::<f64>() as u64,
        ns,
        path != KernelPath::Scalar,
    );
}

// ---------------------------------------------------------------------------
// Convolution lowering through bounded im2col tiles
// ---------------------------------------------------------------------------

/// Column-matrix columns per im2col tile (and per backward-input block). A
/// tile is `rows × TILE_COLS` f64s — 800 KiB for the widest Table I layer
/// (16·5·5 = 400 rows), L2-resident next to the packed panels — whatever
/// the batch or the grid. Equal to [`KC`], so the backward-weight tiles are
/// exactly the KC blocks of its shared dimension.
const TILE_COLS: usize = KC;

/// This thread's im2col tile. The size it holds is published as the
/// per-rank `pdeml_conv_workspace_bytes` gauge and [`perf`]'s thread-local
/// reading; `Drop` takes it back off the gauge when the thread exits.
struct TileBuf {
    buf: Vec<f64>,
    /// Telemetry shard the current size is counted under.
    shard: usize,
}

impl TileBuf {
    /// The first `len` elements, after growing the buffer to `cap`
    /// (`cap ≥ len`; it depends on the layer's rows only).
    fn take(&mut self, cap: usize, len: usize) -> &mut [f64] {
        if self.buf.len() < cap {
            let old = self.bytes();
            self.buf.resize(cap, 0.0);
            let shard = crate::live::rank();
            crate::live::add_conv_workspace(self.shard, -old);
            crate::live::add_conv_workspace(shard, self.bytes());
            self.shard = shard;
            perf::set_conv_workspace(self.bytes() as u64);
        }
        &mut self.buf[..len]
    }

    fn bytes(&self) -> i64 {
        (self.buf.len() * std::mem::size_of::<f64>()) as i64
    }
}

impl Drop for TileBuf {
    fn drop(&mut self) {
        crate::live::add_conv_workspace(self.shard, -self.bytes());
    }
}

thread_local! {
    static TILE_BUF: RefCell<TileBuf> = const {
        RefCell::new(TileBuf { buf: Vec::new(), shard: 0 })
    };
}

/// Runs `f` on this thread's tile of `rows × cols` elements (a lowering of a
/// `rows`-row column matrix never needs more than `rows × TILE_COLS`).
fn with_tile<R>(rows: usize, cols: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    TILE_BUF.with(|t| f(t.borrow_mut().take(rows * TILE_COLS, rows * cols)))
}

/// One convolution pass for [`conv_gemm`], over `samples` consecutive
/// samples. With `rows = c·kh·kw`, `cols = out_h·out_w` and `cols_s` sample
/// `s`'s column matrix (`im2col`, never materialized):
pub(crate) enum ConvPass<'a> {
    /// `out_s (out_c × cols) += weight (out_c × rows) · cols_s`.
    Forward {
        input: &'a [f64],
        weight: &'a [f64],
        out: &'a mut [f64],
    },
    /// `grad_in_s += col2im(weightᵀ (rows × out_c) · grad_out_s)`.
    BackwardInput {
        weight: &'a [f64],
        grad_out: &'a [f64],
        grad_in: &'a mut [f64],
    },
    /// `grad_weight (out_c × rows) += Σ_s grad_out_s (out_c × cols) · cols_sᵀ`,
    /// samples in ascending order.
    BackwardWeight {
        input: &'a [f64],
        grad_out: &'a [f64],
        grad_weight: &'a mut [f64],
    },
}

/// Lowers one convolution pass through `rows × TILE_COLS` im2col tiles that
/// are filled straight from the input and fed to the same micro-kernels as
/// [`gemm`], so no batch- or grid-sized column matrix ever exists. Every
/// element gets the operations the whole-matrix lowering would give it, in
/// the same order, so the results are bitwise those of `im2col` followed by
/// [`gemm_batch`] / [`gemm_tn`] / [`gemm_nt`] (asserted by
/// `tests/conv_lowering.rs`):
///
/// * **Forward** — per sample and column tile, the KC blocks of the shared
///   dimension in ascending order, each added into the output once.
/// * **Backward-input** — `weightᵀ · grad_out` for one tile of columns at a
///   time, then scattered into `grad_in`. The tiles are walked from the
///   last column to the first: a later column reaches any input pixel
///   through an earlier kernel tap `(ki, kj)`, so each `grad_in` element
///   still receives its taps in ascending order, from 0.0.
/// * **Backward-weight** — tiles are the KC blocks of the shared (column)
///   dimension; samples in ascending order, blocks in ascending order.
///
/// Pool chunks: one per sample (forward and backward-input), one per
/// column tile for a single-sample forward, and for backward-weight one
/// equal share of `grad_weight`'s columns per kernel thread. Each output
/// element is owned by one chunk with a fixed operation order, so every
/// thread budget gives the same bits. Makes one [`perf`] record with the
/// pass's FLOPs — one per sample for backward-weight — never one per tile.
pub(crate) fn conv_gemm(g: &ConvGeom, out_c: usize, samples: usize, pass: ConvPass<'_>) {
    let (rows, cols) = (g.col_rows(), g.col_cols());
    if samples == 0 || out_c == 0 || cols == 0 {
        return;
    }
    let t0 = Instant::now();
    let path = kernel_path();
    let (packed_elems, records) = match pass {
        ConvPass::Forward { input, weight, out } => {
            (conv_forward(path, g, out_c, samples, input, weight, out), 1)
        }
        ConvPass::BackwardInput {
            weight,
            grad_out,
            grad_in,
        } => (
            conv_backward_input(path, g, out_c, samples, weight, grad_out, grad_in),
            1,
        ),
        ConvPass::BackwardWeight {
            input,
            grad_out,
            grad_weight,
        } => (
            conv_backward_weight(path, g, out_c, samples, input, grad_out, grad_weight),
            samples,
        ),
    };
    // Backward-weight keeps one record per sample, as the per-sample GEMMs
    // of the batch-fused lowering counted it; each gets an equal share.
    let ns = t0.elapsed().as_nanos() as u64 / records as u64;
    for _ in 0..records {
        let mkn = samples / records * out_c * rows * cols;
        record(path, mkn, packed_elems / records as u64, ns);
    }
}

/// Packs every KC block of the `m × k` matrix `a` (stored per `op`) into
/// `abuf`, block `p0` at offset `m_panels·mr·p0`.
fn pack_a_all(
    path: KernelPath,
    op: Trans,
    a: &[f64],
    m: usize,
    k: usize,
    mr: usize,
    abuf: &mut Vec<f64>,
) {
    let panel_len = m.div_ceil(mr) * mr;
    grow(abuf, panel_len * k);
    for p0 in (0..k).step_by(KC) {
        pack_a_block(
            path,
            op,
            a,
            m,
            k,
            p0,
            KC.min(k - p0),
            mr,
            &mut abuf[panel_len * p0..],
        );
    }
}

/// The [`ConvPass::Forward`] lowering; returns the packed element count.
fn conv_forward(
    path: KernelPath,
    g: &ConvGeom,
    m: usize,
    samples: usize,
    input: &[f64],
    weight: &[f64],
    out: &mut [f64],
) -> u64 {
    let (k, n) = (g.col_rows(), g.col_cols());
    let x_len = g.c * g.h * g.w;
    let mr = panel_rows(path, m);
    let panel_len = m.div_ceil(mr) * mr;
    let tiles = n.div_ceil(TILE_COLS);
    let out_base = SendPtr(out.as_mut_ptr());
    A_BUF.with(|ab| {
        let mut abuf = ab.borrow_mut();
        pack_a_all(path, Trans::N, weight, m, k, mr, &mut abuf);
        let abuf: &[f64] = &abuf[..panel_len * k];
        // Sample `s`, column tile `t`: fill, then every KC block in order.
        let tile_job = |s: usize, t: usize, out_base: SendPtr| {
            let (j0, nb) = (t * TILE_COLS, TILE_COLS.min(n - t * TILE_COLS));
            with_tile(k, nb, |tile| {
                im2col_tile(&input[s * x_len..][..x_len], g, 0..k, j0..j0 + nb, tile);
                for p0 in (0..k).step_by(KC) {
                    let kc = KC.min(k - p0);
                    let ap = &abuf[panel_len * p0..][..panel_len * kc];
                    // SAFETY: the caller's chunk owns columns j0..j0+nb of
                    // sample s's output (row stride n).
                    unsafe {
                        sample_block(
                            path,
                            Trans::N,
                            m,
                            ap,
                            mr,
                            kc,
                            &tile[p0 * nb..],
                            nb,
                            out_base.0.add(s * m * n + j0),
                            n,
                            0,
                            nb,
                        )
                    };
                }
            });
        };
        if samples > 1 {
            pool::run(samples, &|s| {
                (0..tiles).for_each(|t| tile_job(s, t, out_base))
            });
        } else {
            pool::run(tiles, &|t| tile_job(0, t, out_base));
        }
    });
    let mut packed = (panel_len * k) as u64;
    if packs_b(path, Trans::N, m) {
        packed += (samples * n.div_ceil(NR) * NR * k) as u64;
    }
    packed
}

/// The [`ConvPass::BackwardInput`] lowering; returns the packed element
/// count.
fn conv_backward_input(
    path: KernelPath,
    g: &ConvGeom,
    out_c: usize,
    samples: usize,
    weight: &[f64],
    grad_out: &[f64],
    grad_in: &mut [f64],
) -> u64 {
    // The GEMM is (rows × out_c) · (out_c × n): m = rows, k = out_c.
    let (m, k, n) = (g.col_rows(), out_c, g.col_cols());
    let x_len = g.c * g.h * g.w;
    let mr = panel_rows(path, m);
    let panel_len = m.div_ceil(mr) * mr;
    let gi_base = SendPtr(grad_in.as_mut_ptr());
    A_BUF.with(|ab| {
        let mut abuf = ab.borrow_mut();
        pack_a_all(path, Trans::T, weight, m, k, mr, &mut abuf);
        let abuf: &[f64] = &abuf[..panel_len * k];
        pool::run(samples, &|s| {
            // Whole-value rebind keeps the `Send + Sync` SendPtr in the capture.
            #[allow(clippy::redundant_locals)]
            let gi_base = gi_base;
            let go = &grad_out[s * k * n..][..k * n];
            // SAFETY: chunk `s` owns sample `s`'s disjoint grad_in region.
            let gi = unsafe { std::slice::from_raw_parts_mut(gi_base.0.add(s * x_len), x_len) };
            for t in (0..n.div_ceil(TILE_COLS)).rev() {
                let (j0, nb) = (t * TILE_COLS, TILE_COLS.min(n - t * TILE_COLS));
                with_tile(m, nb, |tile| {
                    tile.fill(0.0);
                    for p0 in (0..k).step_by(KC) {
                        let kc = KC.min(k - p0);
                        let ap = &abuf[panel_len * p0..][..panel_len * kc];
                        // SAFETY: the tile is this chunk's own (row stride nb).
                        unsafe {
                            sample_block(
                                path,
                                Trans::N,
                                m,
                                ap,
                                mr,
                                kc,
                                &go[p0 * n + j0..],
                                n,
                                tile.as_mut_ptr(),
                                nb,
                                0,
                                nb,
                            )
                        };
                    }
                    col2im_tile(tile, g, j0..j0 + nb, gi);
                });
            }
        });
    });
    let mut packed = (panel_len * k) as u64;
    if packs_b(path, Trans::N, m) {
        packed += (samples * n.div_ceil(NR) * NR * k) as u64;
    }
    packed
}

/// The [`ConvPass::BackwardWeight`] lowering; returns the packed element
/// count.
fn conv_backward_weight(
    path: KernelPath,
    g: &ConvGeom,
    m: usize,
    samples: usize,
    input: &[f64],
    grad_out: &[f64],
    grad_weight: &mut [f64],
) -> u64 {
    // The GEMM is (out_c × cols) · (cols × rows): k = cols, n = rows.
    let (k, n) = (g.col_cols(), g.col_rows());
    let x_len = g.c * g.h * g.w;
    let mr = panel_rows(path, m);
    let panel_len = m.div_ceil(mr) * mr;
    // One chunk per kernel thread, each walking every sample: a chunk lowers
    // only its own rows of the tile, so splitting costs just a repacked A
    // block per chunk.
    let width = n.div_ceil(pool::thread_budget()).next_multiple_of(NR);
    let chunks = n.div_ceil(width);
    let gw_base = SendPtr(grad_weight.as_mut_ptr());
    pool::run(chunks, &|ci| {
        // Whole-value rebind keeps the `Send + Sync` SendPtr in the capture.
        #[allow(clippy::redundant_locals)]
        let gw_base = gw_base;
        let (r0, r1) = (ci * width, (ci * width + width).min(n));
        A_BUF.with(|ab| {
            let mut abuf = ab.borrow_mut();
            grow(&mut abuf, panel_len * KC);
            for s in 0..samples {
                let x = &input[s * x_len..][..x_len];
                let go = &grad_out[s * m * k..][..m * k];
                for p0 in (0..k).step_by(KC) {
                    let kc = KC.min(k - p0);
                    pack_a_block(path, Trans::N, go, m, k, p0, kc, mr, &mut abuf);
                    // The tile is Bᵀ's block: column-matrix rows r0..r1,
                    // columns p0..p0+kc, i.e. `Trans::T` with stride kc.
                    with_tile(n, kc, |tile| {
                        let tile = &mut tile[..(r1 - r0) * kc];
                        im2col_tile(x, g, r0..r1, p0..p0 + kc, tile);
                        // SAFETY: chunk `ci` owns grad_weight columns r0..r1.
                        unsafe {
                            packed_block(
                                path,
                                Trans::T,
                                m,
                                &abuf[..panel_len * kc],
                                mr,
                                kc,
                                tile,
                                kc,
                                gw_base.0.add(r0),
                                n,
                                0,
                                r1 - r0,
                            )
                        };
                    });
                }
            }
        });
    });
    (samples * (chunks * panel_len * k + n.div_ceil(NR) * NR * k)) as u64
}

/// `C += A * B` on flat row-major buffers.
///
/// `a` is `m × k`, `b` is `k × n`, `c` is `m × n`. Accumulates into `c`
/// (callers wanting a plain product must zero `c` first).
///
/// # Panics
/// If any buffer length disagrees with the given dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    assert_eq!(c.len(), m * n, "gemm: C length");
    gemm_driver(Trans::N, Trans::N, 1, m, k, n, a, b, c);
}

/// `C += Aᵀ * B` on flat row-major buffers, without materializing `Aᵀ`.
///
/// `a` is `k × m` (so `aᵀ` is `m × k`), `b` is `k × n`, `c` is `m × n`.
/// This is the shape needed by the convolution input-gradient pass.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), k * m, "gemm_tn: A length");
    assert_eq!(b.len(), k * n, "gemm_tn: B length");
    assert_eq!(c.len(), m * n, "gemm_tn: C length");
    gemm_driver(Trans::T, Trans::N, 1, m, k, n, a, b, c);
}

/// `C += A * Bᵀ` on flat row-major buffers, without materializing `Bᵀ`.
///
/// `a` is `m × k`, `b` is `n × k`, `c` is `m × n`. Used by the convolution
/// weight-gradient pass.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm_nt: A length");
    assert_eq!(b.len(), n * k, "gemm_nt: B length");
    assert_eq!(c.len(), m * n, "gemm_nt: C length");
    gemm_driver(Trans::N, Trans::T, 1, m, k, n, a, b, c);
}

/// Batched `C_s += A * B_s` sharing one packed copy of A across the batch.
///
/// `a` is `m × k`; `b_all` holds `samples` consecutive `k × n` matrices and
/// `c_all` the matching `m × n` outputs. Bitwise equal to per-sample
/// [`gemm`] calls.
pub fn gemm_batch(
    samples: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b_all: &[f64],
    c_all: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "gemm_batch: A length");
    assert_eq!(b_all.len(), samples * k * n, "gemm_batch: B length");
    assert_eq!(c_all.len(), samples * m * n, "gemm_batch: C length");
    gemm_driver(Trans::N, Trans::N, samples, m, k, n, a, b_all, c_all);
}

/// Convenience wrapper: full product of two [`Matrix`] values.
///
/// # Panics
/// If the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimension mismatch");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(
        a.rows(),
        a.cols(),
        b.cols(),
        a.as_slice(),
        b.as_slice(),
        c.as_mut_slice(),
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference triple loop, no blocking.
    fn naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn det_fill(len: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random values without pulling in `rand`.
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_matches_naive_on_odd_sizes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (65, 64, 63),
            (130, 17, 70),
            // Exercise micro-tile edges and KC-block boundaries.
            (4, 8, 8),
            (5, 256, 9),
            (7, 300, 17),
            (1, 513, 1),
            // Tile-width edges of the SIMD paths (16-col tiles, 8-row panels).
            (8, 64, 16),
            (9, 300, 33),
            (16, 150, 47),
        ] {
            let a = det_fill(m * k, 42);
            let b = det_fill(k * n, 7);
            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            let r = naive(m, k, n, &a, &b);
            crate::assert_slice_close(&c, &r, 1e-10, 1e-10, "gemm vs naive");
        }
    }

    #[test]
    fn gemm_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut c = vec![1.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn gemm_with_empty_shared_dim_is_identity() {
        let mut c = vec![1.5; 6];
        gemm(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![1.5; 6]);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let (m, k, n) = (9, 13, 11);
        let a = det_fill(k * m, 3); // k × m
        let b = det_fill(k * n, 4);
        // Explicit Aᵀ.
        let mut at = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                at[i * k + p] = a[p * m + i];
            }
        }
        let r = naive(m, k, n, &at, &b);
        let mut c = vec![0.0; m * n];
        gemm_tn(m, k, n, &a, &b, &mut c);
        crate::assert_slice_close(&c, &r, 1e-10, 1e-10, "gemm_tn");
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let (m, k, n) = (6, 10, 8);
        let a = det_fill(m * k, 5);
        let b = det_fill(n * k, 6); // n × k
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let r = naive(m, k, n, &a, &bt);
        let mut c = vec![0.0; m * n];
        gemm_nt(m, k, n, &a, &b, &mut c);
        crate::assert_slice_close(&c, &r, 1e-10, 1e-10, "gemm_nt");
    }

    #[test]
    fn batched_variants_match_per_sample_calls() {
        let (samples, m, k, n) = (3, 5, 13, 9);
        let a = det_fill(m * k, 11);
        let b_all = det_fill(samples * k * n, 13);

        // gemm_batch vs per-sample gemm.
        let mut c_batch = vec![0.0; samples * m * n];
        gemm_batch(samples, m, k, n, &a, &b_all, &mut c_batch);
        for s in 0..samples {
            let mut c_one = vec![0.0; m * n];
            gemm(m, k, n, &a, &b_all[s * k * n..][..k * n], &mut c_one);
            assert_eq!(
                &c_batch[s * m * n..][..m * n],
                &c_one[..],
                "gemm_batch sample {s}"
            );
        }
    }

    #[test]
    fn gemm_records_perf_counters() {
        let (m, k, n) = (4, 6, 8);
        let a = det_fill(m * k, 1);
        let b = det_fill(k * n, 2);
        let mut c = vec![0.0; m * n];
        let before = perf::snapshot();
        gemm(m, k, n, &a, &b, &mut c);
        let spent = perf::snapshot().since(&before);
        assert_eq!(spent.gemm_calls, 1);
        assert_eq!(spent.flops, 2 * (m * k * n) as u64);
        assert!(spent.bytes_packed > 0);
        if kernel_path() != KernelPath::Scalar {
            assert_eq!(spent.simd_calls, 1);
        }
    }

    #[test]
    fn default_kernel_path_is_supported() {
        // Whatever detection picked must actually run here, and the scalar
        // fallback must always be available.
        assert!(kernel_path().supported());
        assert!(KernelPath::Scalar.supported());
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let id = Matrix::identity(4);
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
