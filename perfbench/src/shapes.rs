//! Everything the workloads size themselves by. The network and batch come
//! from `ArchSpec::paper()` and `TrainConfig::paper()`; conv shapes are read
//! off the built network, so they cannot drift from what the program runs.

use pde_euler::{Boundary, DataSet, InitialCondition, SnapshotRecorder, SolverConfig};
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::padding::PaddingStrategy;

/// The paper's grid edge (§IV: a 256 × 256 domain).
pub const PAPER_GRID: usize = 256;
/// Rank threads of the multi-rank workloads — the reference host's cores,
/// so ranks never outnumber cores.
pub const RANKS: usize = 2;
/// Neighbor-data padding: the paper's scheme, and the one whose rollout
/// exchanges halos.
pub const STRATEGY: PaddingStrategy = PaddingStrategy::NeighborPad;

/// splitmix64: the seed → input stream.
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded Gaussian pressure pulse: the paper's pulse with its centre,
/// width and amplitude drawn around the published values.
pub fn seeded_pulse(seed: u64) -> InitialCondition {
    let mut rng = SeedRng::new(seed);
    InitialCondition::GaussianPulse {
        x0: rng.uniform(-0.25, 0.25),
        y0: rng.uniform(-0.25, 0.25),
        half_width: rng.uniform(0.25, 0.35),
        amplitude: rng.uniform(0.4, 0.6),
    }
}

/// `snapshots` solver states of the seeded pulse on a `grid`² domain.
pub fn seeded_dataset(grid: usize, snapshots: usize, seed: u64) -> DataSet {
    SnapshotRecorder::new(
        SolverConfig::paper(grid, grid),
        Boundary::Outflow,
        &seeded_pulse(seed),
        1,
    )
    .record(snapshots)
}

/// Weight-init seed of a run (the trainer adds the rank).
pub fn weight_seed(seed: u64) -> u64 {
    SeedRng::new(seed ^ 0x5EED).next_u64()
}

/// One conv layer at one rank's block, as the built network runs it.
#[derive(Clone, Copy, Debug)]
pub struct ConvShape {
    pub in_c: usize,
    pub out_c: usize,
    pub k: usize,
    pub in_hw: (usize, usize),
    pub out_hw: (usize, usize),
}

impl ConvShape {
    /// im2col rows × columns of one sample.
    pub fn cols(&self) -> (usize, usize) {
        (self.in_c * self.k * self.k, self.out_hw.0 * self.out_hw.1)
    }

    /// Bytes of the batch-fused im2col buffer for `samples` samples.
    pub fn im2col_bytes(&self, samples: usize) -> u64 {
        let (r, c) = self.cols();
        (samples * r * c * 8) as u64
    }
}

/// The conv layers of `arch` on a `bh × bw` block (plus the strategy's
/// input halo), read off the network `arch.build_for` produces.
pub fn conv_shapes(arch: &ArchSpec, bh: usize, bw: usize) -> Vec<ConvShape> {
    let net = arch.build_for(STRATEGY, 0);
    let halo = STRATEGY.input_halo(arch.halo());
    let (mut h, mut w) = (bh + 2 * halo, bw + 2 * halo);
    let mut out = Vec::new();
    for (i, layer) in net.layers().iter().enumerate() {
        let (oh, ow) = layer.out_dims(h, w);
        if i % 2 == 0 {
            let l = i / 2;
            out.push(ConvShape {
                in_c: arch.channels[l],
                out_c: arch.channels[l + 1],
                k: arch.kernel,
                in_hw: (h, w),
                out_hw: (oh, ow),
            });
        }
        (h, w) = (oh, ow);
    }
    assert_eq!(out.len(), arch.n_layers(), "conv/activation alternation");
    out
}

/// Prints what a result ran on: shapes, cores, kernel path, thread budget,
/// seed, and the computed working set next to the L3 size.
pub fn stamp(
    workload: &str,
    seed: u64,
    grid: usize,
    ranks: usize,
    threads_per_rank: usize,
    batch: usize,
    shapes: &[ConvShape],
) {
    let arch = ArchSpec::paper();
    println!(
        "stamp: workload {workload}, seed {seed}, nproc {}, kernel path {}, \
         {ranks} rank(s) x {threads_per_rank} kernel thread(s)",
        pde_tensor::pool::available_cores(),
        pde_tensor::kernel_path().label()
    );
    println!(
        "stamp: net {:?} k={} (ArchSpec::paper), batch {batch}, grid {grid}x{grid}, {}",
        arch.channels,
        arch.kernel,
        STRATEGY.label()
    );
    let mut total = 0u64;
    for (l, s) in shapes.iter().enumerate() {
        let (r, c) = s.cols();
        total += s.im2col_bytes(batch);
        println!(
            "stamp: conv{} {}->{} in {}x{} out {}x{} im2col {r}x{c} x{batch} = {:.1} MB/rank (computed)",
            l + 1,
            s.in_c,
            s.out_c,
            s.in_hw.0,
            s.in_hw.1,
            s.out_hw.0,
            s.out_hw.1,
            s.im2col_bytes(batch) as f64 / 1e6
        );
    }
    match crate::procfs::l3_bytes() {
        Some(l3) => println!(
            "stamp: working set {:.1} MB/rank of im2col vs L3 {:.1} MB ({:.1}x)",
            total as f64 / 1e6,
            l3 as f64 / 1e6,
            total as f64 / l3 as f64
        ),
        None => println!(
            "stamp: working set {:.1} MB/rank of im2col (L3 size unknown)",
            total as f64 / 1e6
        ),
    }
}
