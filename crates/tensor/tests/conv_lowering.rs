//! The tiled convolution lowering against the batch-fused one it replaced.
//!
//! The reference below materializes every sample's whole column matrix with
//! the public `im2col` / `col2im` and multiplies with the public GEMM entry
//! points — `gemm_batch` for the forward pass, `gemm_tn` per sample for the
//! column gradients, `gemm_nt` per sample for the weight gradient. The
//! tiled passes in `pde_tensor::conv` must reproduce it *bitwise* on every
//! kernel path and thread budget, with shapes large enough that each pass
//! spans several tiles (and a ragged last one), at batch 1 and batch 5.
//!
//! The other two tests pin the accounting (one GEMM record per pass with
//! the pass's FLOPs) and the bound on the lowering's workspace (sized by
//! the layer, never by the batch or grid).
//!
//! `force_kernel_path` is process-global, so every test that touches it
//! holds [`PATH_LOCK`] and restores the default before releasing it.

use pde_tensor::conv::{
    conv2d_backward_input_into, conv2d_backward_weight, conv2d_im2col_into, ConvScratch,
};
use pde_tensor::im2col::{col2im, im2col};
use pde_tensor::{
    force_kernel_path, gemm_batch, gemm_nt, gemm_tn, perf, pool, Conv2dSpec, KernelPath, Tensor4,
};
use std::sync::Mutex;

static PATH_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic fill in [-1, 1).
fn det(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

fn det_t4(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor4 {
    Tensor4::from_vec(n, c, h, w, det(n * c * h * w, seed))
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One layer and input size under test.
struct Case {
    spec: Conv2dSpec,
    h: usize,
    w: usize,
}

/// Each case spans ≥ 3 column tiles (256 columns each) with a ragged last
/// one: 16→6 valid (400 rows, more than one KC block of the forward pass),
/// 4→6 "same" (the zero-pad strategy), 2→4 stride 2.
fn cases() -> Vec<Case> {
    vec![
        // out 26×24 = 624 columns
        Case {
            spec: Conv2dSpec::square(16, 6, 5, 0),
            h: 30,
            w: 28,
        },
        // out 27×25 = 675 columns
        Case {
            spec: Conv2dSpec::same(4, 6, 5),
            h: 27,
            w: 25,
        },
        // out 25×23 = 575 columns
        Case {
            spec: Conv2dSpec {
                in_c: 2,
                out_c: 4,
                kh: 3,
                kw: 3,
                stride: 2,
                pad: 1,
            },
            h: 50,
            w: 45,
        },
    ]
}

/// Forward output, weight gradient, bias gradient and input gradient.
struct Passes {
    y: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    gi: Vec<f64>,
}

/// Operands shared by the reference and the tiled run.
struct Operands {
    x: Tensor4,
    wt: Tensor4,
    bias: Vec<f64>,
    grad_out: Tensor4,
    gw0: Vec<f64>,
    gb0: Vec<f64>,
}

fn operands(case: &Case, n: usize) -> Operands {
    let s = &case.spec;
    let (oh, ow) = s.out_dims(case.h, case.w);
    Operands {
        x: det_t4(n, s.in_c, case.h, case.w, 1),
        wt: det_t4(s.out_c, s.in_c, s.kh, s.kw, 2),
        bias: det(s.out_c, 3),
        grad_out: det_t4(n, s.out_c, oh, ow, 4),
        // Gradients accumulate: start both from non-zero values.
        gw0: det(s.weight_count(), 5),
        gb0: det(s.out_c, 6),
    }
}

/// The batch-fused lowering: whole column matrices, public GEMMs.
fn reference(case: &Case, ops: &Operands) -> Passes {
    let s = &case.spec;
    let n = ops.x.n();
    let g = s.geom(case.h, case.w);
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let mut cols_all = vec![0.0; n * rows * cols];
    for i in 0..n {
        im2col(
            ops.x.sample(i),
            &g,
            &mut cols_all[i * rows * cols..][..rows * cols],
        );
    }
    let mut y = vec![0.0; n * s.out_c * cols];
    for (oc, chunk) in y.chunks_exact_mut(cols).enumerate() {
        chunk.fill(ops.bias[oc % s.out_c]);
    }
    gemm_batch(n, s.out_c, rows, cols, ops.wt.as_slice(), &cols_all, &mut y);

    let mut gw = ops.gw0.clone();
    let mut gb = ops.gb0.clone();
    for i in 0..n {
        let go = ops.grad_out.sample(i);
        gemm_nt(
            s.out_c,
            cols,
            rows,
            go,
            &cols_all[i * rows * cols..][..rows * cols],
            &mut gw,
        );
        for oc in 0..s.out_c {
            gb[oc] += go[oc * cols..(oc + 1) * cols].iter().sum::<f64>();
        }
    }

    let x_len = s.in_c * case.h * case.w;
    let mut gi = vec![0.0; n * x_len];
    for i in 0..n {
        let mut col_grad = vec![0.0; rows * cols];
        gemm_tn(
            rows,
            s.out_c,
            cols,
            ops.wt.as_slice(),
            ops.grad_out.sample(i),
            &mut col_grad,
        );
        col2im(&col_grad, &g, &mut gi[i * x_len..][..x_len]);
    }
    Passes { y, gw, gb, gi }
}

/// The library's tiled passes on the same operands.
fn tiled(case: &Case, ops: &Operands) -> Passes {
    let s = &case.spec;
    let mut scratch = ConvScratch::new();
    let mut y = Tensor4::zeros(0, 0, 0, 0);
    conv2d_im2col_into(&ops.x, &ops.wt, &ops.bias, s, &mut scratch, &mut y);
    let (o, kh, kw) = (s.out_c, s.kh, s.kw);
    let mut gw = Tensor4::from_vec(o, s.in_c, kh, kw, ops.gw0.clone());
    let mut gb = ops.gb0.clone();
    conv2d_backward_weight(&ops.x, &ops.grad_out, s, &mut gw, &mut gb, &mut scratch);
    let mut gi = Tensor4::zeros(0, 0, 0, 0);
    conv2d_backward_input_into(
        &ops.grad_out,
        &ops.wt,
        s,
        case.h,
        case.w,
        &mut scratch,
        &mut gi,
    );
    Passes {
        y: y.as_slice().to_vec(),
        gw: gw.as_slice().to_vec(),
        gb,
        gi: gi.as_slice().to_vec(),
    }
}

/// Kernel paths this machine runs: scalar plus the best SIMD path.
fn paths() -> Vec<KernelPath> {
    let mut paths = vec![KernelPath::Scalar];
    if let Some(simd) = [KernelPath::Avx512, KernelPath::Avx2]
        .into_iter()
        .find(|p| p.supported())
    {
        paths.push(simd);
    }
    paths
}

#[test]
fn tiled_passes_equal_the_batch_fused_lowering_bitwise() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for case in cases() {
        for n in [1, 5] {
            let ops = operands(&case, n);
            for path in paths() {
                force_kernel_path(Some(path));
                let want = reference(&case, &ops);
                for budget in [1, 4] {
                    pool::set_thread_budget(budget);
                    let got = tiled(&case, &ops);
                    pool::set_thread_budget(1);
                    let what = format!(
                        "{:?} {}x{} batch {n} under {} x {budget} thread(s)",
                        case.spec,
                        case.h,
                        case.w,
                        path.label()
                    );
                    assert!(same_bits(&got.y, &want.y), "forward differs: {what}");
                    assert!(same_bits(&got.gw, &want.gw), "weight grad differs: {what}");
                    assert!(same_bits(&got.gb, &want.gb), "bias grad differs: {what}");
                    assert!(same_bits(&got.gi, &want.gi), "input grad differs: {what}");
                }
            }
            force_kernel_path(None);
        }
    }
}

/// One GEMM record per forward and backward-input pass (and one per sample
/// for backward-weight, as the batch-fused lowering counted it), each with
/// the pass's exact FLOPs — not one per tile.
#[test]
fn each_pass_records_one_gemm_with_its_flops() {
    let case = &cases()[0];
    let s = &case.spec;
    let g = s.geom(case.h, case.w);
    let (rows, cols) = (g.col_rows(), g.col_cols());
    for n in [1usize, 5] {
        let ops = operands(case, n);
        let flops = (2 * n * s.out_c * rows * cols) as u64;
        let mut scratch = ConvScratch::new();

        let before = perf::snapshot();
        let mut y = Tensor4::zeros(0, 0, 0, 0);
        conv2d_im2col_into(&ops.x, &ops.wt, &ops.bias, s, &mut scratch, &mut y);
        let spent = perf::snapshot().since(&before);
        assert_eq!(
            (spent.gemm_calls, spent.flops),
            (1, flops),
            "forward, batch {n}"
        );

        let before = perf::snapshot();
        let mut gi = Tensor4::zeros(0, 0, 0, 0);
        conv2d_backward_input_into(
            &ops.grad_out,
            &ops.wt,
            s,
            case.h,
            case.w,
            &mut scratch,
            &mut gi,
        );
        let spent = perf::snapshot().since(&before);
        assert_eq!(
            (spent.gemm_calls, spent.flops),
            (1, flops),
            "backward-input, batch {n}"
        );

        let before = perf::snapshot();
        let mut gw = Tensor4::zeros(s.out_c, s.in_c, s.kh, s.kw);
        let mut gb = vec![0.0; s.out_c];
        conv2d_backward_weight(&ops.x, &ops.grad_out, s, &mut gw, &mut gb, &mut scratch);
        let spent = perf::snapshot().since(&before);
        assert_eq!(
            (spent.gemm_calls, spent.flops),
            (n as u64, flops),
            "backward-weight, batch {n}"
        );
    }
}

/// Runs the Table I stack (4→6→16→6→4, 5×5 valid, as the neighbor-pad
/// strategy trains it) forward and backward on a fresh thread and returns
/// that thread's convolution workspace bytes.
fn stack_workspace(n: usize, h: usize, w: usize) -> u64 {
    std::thread::spawn(move || {
        pool::set_thread_budget(1);
        let channels = [4, 6, 16, 6, 4];
        let mut scratch = ConvScratch::new();
        let (mut x, mut hh, mut ww) = (det_t4(n, channels[0], h, w, 7), h, w);
        for (l, pair) in channels.windows(2).enumerate() {
            let spec = Conv2dSpec::square(pair[0], pair[1], 5, 0);
            let wt = det_t4(pair[1], pair[0], 5, 5, 8 + l as u64);
            let mut y = Tensor4::zeros(0, 0, 0, 0);
            conv2d_im2col_into(&x, &wt, &[], &spec, &mut scratch, &mut y);
            let mut gw = Tensor4::zeros(pair[1], pair[0], 5, 5);
            conv2d_backward_weight(&x, &y, &spec, &mut gw, &mut [], &mut scratch);
            let mut gi = Tensor4::zeros(0, 0, 0, 0);
            conv2d_backward_input_into(&y, &wt, &spec, hh, ww, &mut scratch, &mut gi);
            (hh, ww) = (y.h(), y.w());
            x = y;
        }
        perf::conv_workspace_bytes()
    })
    .join()
    .unwrap()
}

/// The lowering's workspace is set by the layers alone: the same bytes at
/// batch 1 and 16, and at a 64² subdomain and the paper's 272×144 padded
/// per-rank block — a bounded, L2-sized amount.
#[test]
fn conv_workspace_depends_on_the_layers_only() {
    let base = stack_workspace(1, 64, 64);
    assert!(base > 0, "the stack lowered through no tile");
    assert!(base <= 1 << 20, "workspace {base} B is not L2-sized");
    assert_eq!(stack_workspace(16, 64, 64), base, "batch 16 vs batch 1");
    assert_eq!(stack_workspace(1, 272, 144), base, "272x144 vs 64x64");
}
