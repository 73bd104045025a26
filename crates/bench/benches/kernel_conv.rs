//! Convolution kernel throughput on the Table-I layers at training shape.
//!
//! Times the im2col+GEMM forward pass and both backward passes for every
//! conv layer of `ArchSpec::paper()`, as the neighbor-pad strategy trains
//! it: valid 5×5 convolutions on rank 0's block of the paper's 256² grid
//! split over 2 ranks, plus the strategy's input halo (272×144 in, shrinking
//! by 4 per layer), at the paper's batch of 16. Reports sustained GFLOP/s
//! (2 · out_c · in_c·kh·kw · out_h·out_w FLOPs per sample per pass).
//! Results merge into the `BENCH_kernels.json` baseline next to the raw GEMM
//! numbers from `kernel_gemm`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pde_domain::GridPartition;
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::padding::PaddingStrategy;
use pde_ml_core::train::TrainConfig;
use pde_tensor::conv::ConvScratch;
use pde_tensor::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_im2col, Conv2dSpec, Tensor4,
};

/// The paper's grid edge and the rank count whose rank-0 block is timed.
const GRID: usize = 256;
const RANKS: usize = 2;

/// One timed layer: its label, spec and input size.
struct Layer {
    label: String,
    spec: Conv2dSpec,
    in_hw: (usize, usize),
}

impl Layer {
    /// FLOPs of one pass over a batch of `samples`.
    fn flops(&self, samples: usize) -> u64 {
        let (oh, ow) = self.spec.out_dims(self.in_hw.0, self.in_hw.1);
        (2 * samples * self.spec.weight_count() * oh * ow) as u64
    }
}

/// Every conv layer of the paper's net on rank 0's neighbor-pad block.
fn layers() -> Vec<Layer> {
    let arch = ArchSpec::paper();
    let halo = PaddingStrategy::NeighborPad.input_halo(arch.halo());
    let block = GridPartition::for_ranks(GRID, GRID, RANKS).block_of_rank(0);
    let (mut h, mut w) = (block.h + 2 * halo, block.w + 2 * halo);
    let mut out = Vec::new();
    for (l, pair) in arch.channels.windows(2).enumerate() {
        let spec = Conv2dSpec::square(pair[0], pair[1], arch.kernel, 0);
        out.push(Layer {
            label: format!("layer{}-{}to{}", l + 1, pair[0], pair[1]),
            spec,
            in_hw: (h, w),
        });
        (h, w) = spec.out_dims(h, w);
    }
    out
}

fn det_t4(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor4 {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let data = (0..n * c * h * w)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 2000) as f64 / 1000.0 - 1.0
        })
        .collect();
    Tensor4::from_vec(n, c, h, w, data)
}

fn bench_conv(c: &mut Criterion) {
    let samples = TrainConfig::paper().batch_size;
    let mut group = c.benchmark_group("conv");
    group.sample_size(10);
    for layer in layers() {
        let (spec, (h, w)) = (layer.spec, layer.in_hw);
        let x = det_t4(samples, spec.in_c, h, w, 11);
        let wt = det_t4(spec.out_c, spec.in_c, spec.kh, spec.kw, 12);
        let bias = vec![0.01; spec.out_c];
        let mut scratch = ConvScratch::new();
        let y = conv2d_im2col(&x, &wt, &bias, &spec, &mut scratch);
        group.throughput(Throughput::Elements(layer.flops(samples)));
        let label = &layer.label;
        group.bench_with_input(BenchmarkId::new("forward", label), &(), |bencher, _| {
            bencher.iter(|| conv2d_im2col(&x, &wt, &bias, &spec, &mut scratch));
        });
        group.bench_with_input(
            BenchmarkId::new("backward_input", label),
            &(),
            |bencher, _| {
                bencher.iter(|| conv2d_backward_input(&y, &wt, &spec, h, w, &mut scratch));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("backward_weight", label),
            &(),
            |bencher, _| {
                let mut gw = Tensor4::zeros(spec.out_c, spec.in_c, spec.kh, spec.kw);
                let mut gb = vec![0.0; spec.out_c];
                bencher
                    .iter(|| conv2d_backward_weight(&x, &y, &spec, &mut gw, &mut gb, &mut scratch));
            },
        );
    }
    group.finish();
}

/// Prints GFLOP/s per result and merges them into the JSON baseline.
fn report(c: &mut Criterion) {
    let samples = TrainConfig::paper().batch_size;
    let layers = layers();
    let mut entries = Vec::new();
    println!("\n{:<38} {:>12} {:>10}", "benchmark", "s/iter", "GFLOP/s");
    for r in c.results() {
        let flops = layers
            .iter()
            .find(|l| r.id.ends_with(&l.label))
            .map(|l| l.flops(samples))
            .unwrap_or(0);
        let gflops = if r.mean_s > 0.0 {
            flops as f64 / r.mean_s / 1e9
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
    pde_bench::merge_kernel_baseline("conv/", &entries);
}

criterion_group!(benches, bench_conv, report);
criterion_main!(benches);
