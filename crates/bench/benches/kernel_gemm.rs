//! GEMM kernel throughput on the Table-I layer shapes.
//!
//! Benchmarks the kernel layer in `pde-tensor` against the repo's previous
//! cache-blocked kernel (reproduced below verbatim as `seed_gemm`), so the
//! speedup is measured in the same run with identical codegen flags. Each
//! shape gets one row per configuration — `scalar-1t` (portable floor),
//! `simd-1t` / `tn-simd-1t` / `nt-simd-1t` (the three transpose variants on
//! the best SIMD path, one thread) and `simd-nt` (SIMD × all cores) — so
//! the two acceleration levels are separable in `BENCH_kernels.json`.
//! Shapes are the `(out_c × col_rows × col_cols)` GEMMs every conv layer of
//! `ArchSpec::paper()` (4→6→16→6→4, 5×5) lowers to on a 64×64 subdomain:
//! 6×100×4096, 16×150×4096, 6×400×4096 and 4×150×4096. The column count is
//! a cache-resident stand-in; `kernel_conv` times the layers at training
//! shape.
//!
//! The final "report" step writes `BENCH_kernels.json` at the workspace root
//! with mean seconds/iter and derived GFLOP/s per benchmark.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pde_ml_core::arch::ArchSpec;
use pde_tensor::{force_kernel_path, gemm, kernel_path, pool, KernelPath};

/// The pre-packing seed kernel: cache-blocked triple loop with a zero-skip
/// branch, copied unchanged so the comparison is honest.
#[allow(clippy::needless_range_loop)]
fn seed_gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    const BLOCK: usize = 64;
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for p0 in (0..k).step_by(BLOCK) {
            let p1 = (p0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                for i in i0..i1 {
                    let a_row = &a[i * k..(i + 1) * k];
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for p in p0..p1 {
                        let av = a_row[p];
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[p * n..(p + 1) * n];
                        for j in j0..j1 {
                            c_row[j] += av * b_row[j];
                        }
                    }
                }
            }
        }
    }
}

fn det_fill(len: usize, seed: u64) -> Vec<f64> {
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

/// Output pixels of the 64×64 subdomain every shape is timed at.
const COLS: usize = 64 * 64;

/// Table-I layer GEMM shapes `(label, m, k, n)`, one per conv layer of
/// `ArchSpec::paper()`. Labels end in `-MxKxN`, which `report` (and the CI
/// bench smoke) parse back.
fn shapes() -> Vec<(String, usize, usize, usize)> {
    let arch = ArchSpec::paper();
    arch.channels
        .windows(2)
        .enumerate()
        .map(|(l, pair)| {
            let (m, k) = (pair[1], pair[0] * arch.kernel * arch.kernel);
            (format!("layer{}-{m}x{k}x{COLS}", l + 1), m, k, COLS)
        })
        .collect()
}

/// The SIMD flavor for the `simd-*` rows: the detected default, which is
/// the best supported path unless `PDEML_KERNEL` overrides it — so
/// `PDEML_KERNEL=avx2 cargo bench` measures the AVX2 rows on an AVX-512
/// machine.
fn best_simd() -> KernelPath {
    kernel_path()
}

fn bench_gemm(c: &mut Criterion) {
    let simd = best_simd();
    let cores = pool::available_cores();
    println!(
        "kernel paths: scalar + {} (detected default {}), {} core(s) for the -nt rows",
        simd.label(),
        kernel_path().label(),
        cores
    );
    let mut group = c.benchmark_group("gemm");
    for (label, m, k, n) in shapes() {
        let label = label.as_str();
        let a = det_fill(m * k, 42);
        let b = det_fill(k * n, 7);
        let bt = det_fill(n * k, 7); // B stored n × k for the *Bᵀ path
        let mut out = vec![0.0; m * n];
        group.throughput(Throughput::Elements((2 * m * k * n) as u64));
        group.bench_with_input(BenchmarkId::new("seed", label), &(), |bencher, _| {
            bencher.iter(|| seed_gemm(m, k, n, &a, &b, &mut out));
        });
        // Single-threaded scalar: the portable floor every machine shares,
        // and the baseline the CI bench-smoke holds the SIMD rows against.
        pool::set_thread_budget(1);
        force_kernel_path(Some(KernelPath::Scalar));
        group.bench_with_input(BenchmarkId::new("scalar-1t", label), &(), |bencher, _| {
            bencher.iter(|| gemm::gemm(m, k, n, &a, &b, &mut out));
        });
        // Single-threaded SIMD: isolates the micro-kernel speedup.
        force_kernel_path(Some(simd));
        group.bench_with_input(BenchmarkId::new("simd-1t", label), &(), |bencher, _| {
            bencher.iter(|| gemm::gemm(m, k, n, &a, &b, &mut out));
        });
        group.bench_with_input(BenchmarkId::new("tn-simd-1t", label), &(), |bencher, _| {
            // A stored k × m for the transposed-A path.
            bencher.iter(|| gemm::gemm_tn(m, k, n, &a, &b, &mut out));
        });
        group.bench_with_input(BenchmarkId::new("nt-simd-1t", label), &(), |bencher, _| {
            bencher.iter(|| gemm::gemm_nt(m, k, n, &a, &bt, &mut out));
        });
        // SIMD with the full machine: the two levels composed.
        pool::set_thread_budget(cores);
        group.bench_with_input(BenchmarkId::new("simd-nt", label), &(), |bencher, _| {
            bencher.iter(|| gemm::gemm(m, k, n, &a, &b, &mut out));
        });
        pool::set_thread_budget(1);
        force_kernel_path(None);
    }
    group.finish();
}

/// Not a benchmark: prints GFLOP/s for every result and merges them into the
/// JSON baseline. Runs last in the group so it sees all records.
fn report(c: &mut Criterion) {
    let mut entries = Vec::new();
    println!("\n{:<38} {:>12} {:>10}", "benchmark", "s/iter", "GFLOP/s");
    for r in c.results() {
        // Recover the shape from the id suffix "...-MxKxN".
        let shape = r.id.rsplit('-').next().unwrap_or("");
        let dims: Vec<f64> = shape.split('x').filter_map(|t| t.parse().ok()).collect();
        let gflops = if dims.len() == 3 && r.mean_s > 0.0 {
            2.0 * dims.iter().product::<f64>() / r.mean_s / 1e9
        } else {
            0.0
        };
        println!("{:<38} {:>12.3e} {:>10.2}", r.id, r.mean_s, gflops);
        entries.push(pde_bench::KernelEntry {
            id: r.id.clone(),
            mean_s: r.mean_s,
            gflops,
        });
    }
    pde_bench::merge_kernel_baseline("gemm/", &entries);
}

criterion_group!(benches, bench_gemm, report);
criterion_main!(benches);
