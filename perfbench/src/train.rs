//! `train-paper`: the paper's communication-free training at 256², Table I
//! net, batch 16, on `RANKS` ranks × 1 kernel thread.
//!
//! The untraced run goes through `ParallelTrainer::train`. Epoch boundaries
//! are read from the program's `pdeml_train_epochs_total` counter (each
//! rank bumps it as it starts an epoch), so the page-faulting first epoch
//! is set-up and the epochs after it are the measured steady state. One
//! epoch is one optimizer step per rank: the dataset holds exactly one
//! batch of pairs.
//!
//! The traced run executes the same step piecewise through public calls —
//! `BatchCursor::next_into`, each layer's `forward_into`/`backward_into`,
//! `Loss::value_and_grad_into`, `Optimizer::step_visit` — then splits each
//! conv's backward into `conv2d_backward_weight` and
//! `conv2d_backward_input_into` at the layer's real tensors, and finally
//! times rank 0's step on one rank with every core as its kernel budget,
//! the only place the intra-rank `tensor::pool` does real work.

use crate::procfs::{self, ProcSample};
use crate::report::{mean, quantile, same_bits, Report};
use crate::shapes::{self, ConvShape, PAPER_GRID, RANKS, STRATEGY};
use crate::spans::{write_trace, Spans};
use crate::Ctx;
use pde_commsim::World;
use pde_domain::GridPartition;
use pde_euler::DataSet;
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::norm::ChannelNorm;
use pde_ml_core::train::{fit_norm, train_rank, ParallelTrainer, TrainConfig, TrainSession};
use pde_nn::serialize::snapshot;
use pde_nn::Layer;
use pde_tensor::conv::{conv2d_backward_input_into, conv2d_backward_weight, ConvScratch};
use pde_tensor::{perf, Conv2dSpec, PerfCounters, Tensor4};
use pde_trace::Category;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Kernel threads per rank: ranks equal cores.
const THREADS_PER_RANK: usize = 1;

/// Wall seconds of one paper-shape step on the 2-core reference host (6–7 s
/// on a calm host): a run times `--seconds / 6.5` whole epochs, at least one.
const STEP_SECONDS_ESTIMATE: f64 = 6.5;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let arch = ArchSpec::paper();
    let base = TrainConfig::paper();
    let pairs = base.batch_size;
    let measured = ((ctx.seconds / STEP_SECONDS_ESTIMATE) as usize).max(1);
    let cfg = TrainConfig {
        epochs: 1 + measured,
        threads_per_rank: Some(THREADS_PER_RANK),
        seed: shapes::weight_seed(ctx.seed),
        ..base
    };
    let part = GridPartition::for_ranks(PAPER_GRID, PAPER_GRID, RANKS);
    let block = part.block_of_rank(0);
    let convs = shapes::conv_shapes(&arch, block.h, block.w);
    shapes::stamp(
        &ctx.workload,
        ctx.seed,
        PAPER_GRID,
        RANKS,
        THREADS_PER_RANK,
        cfg.batch_size,
        &convs,
    );
    println!(
        "train: {pairs} pairs = 1 step per epoch per rank; epoch 0 is set-up, \
         {measured} measured epoch(s)"
    );
    let mut report = Report::new();
    if ctx.trace {
        traced(ctx, &mut report, &arch, &cfg, pairs, &convs)?;
    } else {
        untraced(ctx, &mut report, &arch, &cfg, pairs)?;
    }
    Ok(report)
}

/// Bitwise check of rank 0's weights against the thread-free `train_rank`,
/// run on the calling thread with every core as its kernel budget.
#[allow(clippy::too_many_arguments)]
fn check_rank0(
    ctx: &Ctx,
    report: &mut Report,
    arch: &ArchSpec,
    cfg: &TrainConfig,
    data: &DataSet,
    pairs: usize,
    part: &GridPartition,
    weights: &[f64],
) {
    pde_tensor::pool::set_thread_budget(ctx.cores);
    let (want, losses) = train_rank(arch, STRATEGY, cfg, &data.view(0, pairs), part, 0);
    report.check(
        same_bits(weights, &want),
        "rank 0 weights bitwise equal to thread-free train_rank",
    );
    report.check(
        losses.iter().all(|l| l.is_finite()),
        "train_rank losses finite",
    );
}

/// Watches `pdeml_train_epochs_total` until `done`: entry `e` is when every
/// rank has started epoch `e` (to the 10 ms poll).
fn watch_epochs(ranks: usize, done: &AtomicBool) -> Vec<Instant> {
    let counter = pde_telemetry::counter("pdeml_train_epochs_total", "Training epochs completed");
    let base = counter.total();
    let mut marks = Vec::new();
    loop {
        let finished = done.load(Ordering::Acquire);
        let started = counter.total() - base;
        while started >= (marks.len() as u64 + 1) * ranks as u64 {
            marks.push(Instant::now());
        }
        if finished {
            return marks;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn untraced(
    ctx: &Ctx,
    report: &mut Report,
    arch: &ArchSpec,
    cfg: &TrainConfig,
    pairs: usize,
) -> Result<(), String> {
    let ranks = RANKS;
    let t0 = Instant::now();
    let data = shapes::seeded_dataset(PAPER_GRID, pairs + 1, ctx.seed);
    let trainer = ParallelTrainer::new(arch.clone(), STRATEGY, cfg.clone());
    let done = AtomicBool::new(false);
    let (outcome, marks, t_end) = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch_epochs(ranks, &done));
        let outcome = trainer.train(&data, ranks);
        let t_end = Instant::now();
        done.store(true, Ordering::Release);
        (
            outcome,
            watcher.join().expect("epoch watcher panicked"),
            t_end,
        )
    });
    let outcome = outcome.map_err(|e| e.to_string())?;
    if marks.len() != cfg.epochs {
        return Err(format!(
            "saw {} epoch starts, expected {}",
            marks.len(),
            cfg.epochs
        ));
    }

    let setup_end = marks[1];
    let step_ms: Vec<f64> = (1..cfg.epochs)
        .map(|e| {
            let end = marks.get(e + 1).copied().unwrap_or(t_end);
            end.duration_since(marks[e]).as_secs_f64() * 1e3
        })
        .collect();
    let measured_s = t_end.duration_since(setup_end).as_secs_f64();
    let pairs_per_s = ((cfg.epochs - 1) * pairs) as f64 / measured_s;
    println!(
        "step ms: {}",
        step_ms
            .iter()
            .map(|t| format!("{t:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    report.attempted = (ranks * cfg.epochs) as u64;
    report.failed = outcome
        .rank_results
        .iter()
        .flat_map(|r| &r.epoch_losses)
        .filter(|l| !l.is_finite())
        .count() as u64;
    report.check(
        outcome.total_bytes_sent() == 0 && outcome.rank_results.iter().all(|r| r.msgs_sent == 0),
        "training sent zero messages and zero bytes",
    );
    report.check(
        outcome.rank_results.iter().all(|r| {
            r.epoch_losses.len() == cfg.epochs && r.epoch_losses.iter().all(|l| l.is_finite())
        }),
        "every epoch loss finite",
    );
    check_rank0(
        ctx,
        report,
        arch,
        cfg,
        &data,
        pairs,
        &outcome.partition,
        &outcome.rank_results[0].weights,
    );

    println!("train_pairs_per_s = {pairs_per_s:.4} pairs/s (full-grid pairs, after set-up)");
    println!(
        "train_loss = {:.6} (mean final-epoch loss over ranks, {})",
        outcome.mean_final_loss(),
        cfg.loss.label()
    );
    println!(
        "set-up: {:.2} s before epoch 0 (simulate, norm fit, shards, world), {:.2} s epoch 0",
        marks[0].duration_since(t0).as_secs_f64(),
        setup_end.duration_since(marks[0]).as_secs_f64()
    );
    report.metric("setup_s", setup_end.duration_since(t0).as_secs_f64(), "s");
    report.metric(
        "peak_rss_mb",
        procfs::peak_rss_mb(None).map_err(|e| e.to_string())?,
        "MB",
    );
    report.metric("throughput_per_s", pairs_per_s, "1/s");
    report.metric("latency_ms_p50", quantile(&step_ms, 0.5), "ms");
    report.metric("latency_ms_p90", quantile(&step_ms, 0.9), "ms");
    report.metric("ops_ok_ratio", report.ok_ratio(), "ratio");
    Ok(())
}

/// Per-step timings of one rank's traced step, in seconds.
#[derive(Default)]
struct StepTrace {
    fill: f64,
    fwd: Vec<f64>,
    fwd_flops: Vec<u64>,
    loss: f64,
    bwd: Vec<f64>,
    optim: f64,
    step: f64,
}

impl StepTrace {
    fn parts(&self) -> f64 {
        self.fill
            + self.fwd.iter().sum::<f64>()
            + self.loss
            + self.bwd.iter().sum::<f64>()
            + self.optim
    }
}

/// What one rank of the traced run measured.
struct RankTrace {
    shard_build_s: f64,
    steps: Vec<StepTrace>,
    /// Per conv layer: (bwd-weight s, FLOPs, bwd-input s, FLOPs).
    split: Vec<(f64, u64, f64, u64)>,
    untraced_step_s: f64,
    untraced_perf: PerfCounters,
    msgs: u64,
    bytes: u64,
    weights: Vec<f64>,
    losses: Vec<f64>,
    /// `/proc` counters when this rank finished epoch 0 and the last
    /// traced epoch.
    proc_marks: (ProcSample, ProcSample),
    events: Vec<pde_trace::TraceEvent>,
}

#[allow(clippy::too_many_arguments)]
fn rank_traced(
    comm: pde_commsim::Comm,
    origin: Instant,
    arch: &ArchSpec,
    cfg: &TrainConfig,
    data: &DataSet,
    part: &GridPartition,
    norm: &ChannelNorm,
    pairs: usize,
) -> RankTrace {
    pde_tensor::pool::set_thread_budget(THREADS_PER_RANK);
    let rank = comm.rank();
    let mut sp = Spans::new(origin, rank as u32);
    let (ds, shard_build_s) = sp.time(Category::Train, "shard_build", 0, || {
        pde_ml_core::data::build_windowed(
            data,
            0,
            pairs,
            part,
            rank,
            arch.halo(),
            STRATEGY,
            norm,
            cfg.prediction,
            cfg.window,
        )
    });
    let mut net = arch.build_for(STRATEGY, cfg.seed + rank as u64);
    let n = net.len();
    let loss = cfg.loss.build();
    let mut opt = cfg.optimizer.build(cfg.lr);
    let empty = || Tensor4::zeros(0, 0, 0, 0);
    let (mut x, mut y) = (empty(), empty());
    // acts[i] = output of layer i; grads[i] = dL/d(input of layer i),
    // grads[n] = dL/d(prediction). Kept per layer (not ping-ponged) so the
    // backward split below can rerun each conv at its real tensors.
    let mut acts: Vec<Tensor4> = (0..n).map(|_| empty()).collect();
    let mut grads: Vec<Tensor4> = (0..=n).map(|_| empty()).collect();
    let mut order = Vec::new();
    let mut steps = Vec::new();
    let mut losses = Vec::new();
    let mut proc_warm = None;
    let stats0 = (comm.stats().sent(), comm.stats().bytes_sent());
    for epoch in 0..cfg.epochs {
        opt.set_learning_rate(cfg.rate(epoch));
        ds.fill_epoch_order(cfg.shuffle, cfg.seed, epoch, &mut order);
        let mut cursor = ds.batch_cursor(&order, cfg.batch_size);
        let (mut sum, mut batches) = (0.0, 0usize);
        loop {
            let t0 = Instant::now();
            let (more, fill) = sp.time(Category::Train, "batch_fill", epoch, || {
                cursor.next_into(&mut x, &mut y)
            });
            if !more {
                break;
            }
            let mut st = StepTrace {
                fill,
                ..Default::default()
            };
            let (_, zero) = sp.time(Category::Nn, "zero_grad", 0, || net.zero_grad());
            for i in 0..n {
                let (done, rest) = acts.split_at_mut(i);
                let input = if i == 0 { &x } else { &done[i - 1] };
                let layer = &mut net.layers_mut()[i];
                let p0 = perf::snapshot();
                let (_, t) = sp.time(Category::Nn, "fwd", i, || {
                    layer.forward_into(input, true, &mut rest[0])
                });
                st.fwd.push(t);
                st.fwd_flops.push(perf::snapshot().since(&p0).flops);
            }
            let (l, t) = sp.time(Category::Nn, "loss", 0, || {
                loss.value_and_grad_into(&acts[n - 1], &y, &mut grads[n])
            });
            st.loss = t;
            st.bwd = vec![0.0; n];
            for i in (0..n).rev() {
                let (lo, hi) = grads.split_at_mut(i + 1);
                let layer = &mut net.layers_mut()[i];
                st.bwd[i] = sp
                    .time(Category::Nn, "bwd", i, || {
                        layer.backward_into(&hi[0], &mut lo[i])
                    })
                    .1;
            }
            let (_, t) = sp.time(Category::Nn, "optim_step", 0, || {
                if let Some(max_norm) = cfg.grad_clip {
                    let norm = pde_nn::optim::gradient_norm_of(&mut net);
                    if norm > max_norm {
                        net.scale_gradients(max_norm / norm);
                    }
                }
                opt.step_visit(&mut net)
            });
            st.optim = zero + t;
            st.step = sp.close(Category::Train, "step", epoch, t0);
            sum += l;
            batches += 1;
            if epoch > 0 {
                steps.push(st);
            }
        }
        losses.push(sum / batches as f64);
        if epoch == 0 {
            proc_warm = Some(procfs::sample(None).expect("/proc/self/stat is readable"));
        }
    }
    let proc_end = procfs::sample(None).expect("/proc/self/stat is readable");
    let msgs = comm.stats().sent() - stats0.0;
    let bytes = comm.stats().bytes_sent() - stats0.1;
    let weights = snapshot(&mut net);

    // Untraced reference step: the program's own TrainSession on the same
    // warm network. Its first epoch grows the session's buffers; the
    // second is timed and its counters are the exact per-step counts.
    let mut session = TrainSession::new(cfg);
    session.run_epoch(&mut net, &ds, cfg, cfg.epochs);
    let p0 = perf::snapshot();
    let t = Instant::now();
    session.run_epoch(&mut net, &ds, cfg, cfg.epochs + 1);
    let untraced_step_s = t.elapsed().as_secs_f64();
    let untraced_perf = perf::snapshot().since(&p0);

    // Backward split. The network (and its im2col scratch) is dropped
    // first so the split's own scratch does not double the footprint.
    let mut conv_w = Vec::new();
    net.visit_param_groups(&mut |g| {
        if g.name == "weight" {
            conv_w.push(g.param.to_vec());
        }
    });
    drop(net);
    let mut scratch = ConvScratch::new();
    let mut gi = empty();
    let mut split = Vec::new();
    // Pass 0 grows the scratch and grad tensor (page faults); pass 1 is
    // recorded.
    for pass in 0..2 {
        split.clear();
        for (l, conv_weights) in conv_w.iter().enumerate() {
            let i = 2 * l;
            let input = if i == 0 { &x } else { &acts[i - 1] };
            let grad_out = &grads[i + 1];
            let (ci, co, k) = (arch.channels[l], arch.channels[l + 1], arch.kernel);
            let spec = Conv2dSpec::square(ci, co, k, 0);
            assert_eq!(
                spec.out_dims(input.h(), input.w()),
                (grad_out.h(), grad_out.w()),
                "conv{} spec does not match the layer",
                l + 1
            );
            let w = Tensor4::from_vec(co, ci, k, k, conv_weights.clone());
            let mut gw = Tensor4::zeros(co, ci, k, k);
            let mut gb = vec![0.0; co];
            let time = |sp: &mut Spans, name, f: &mut dyn FnMut()| {
                let p0 = perf::snapshot();
                let t = if pass == 1 {
                    sp.time(Category::Kernel, name, l, f).1
                } else {
                    f();
                    0.0
                };
                (t, perf::snapshot().since(&p0).flops)
            };
            let (wt, wf) = time(&mut sp, "conv_bwd_weight", &mut || {
                conv2d_backward_weight(input, grad_out, &spec, &mut gw, &mut gb, &mut scratch)
            });
            let (it, iflops) = time(&mut sp, "conv_bwd_input", &mut || {
                conv2d_backward_input_into(
                    grad_out,
                    &w,
                    &spec,
                    input.h(),
                    input.w(),
                    &mut scratch,
                    &mut gi,
                )
            });
            split.push((wt, wf, it, iflops));
        }
    }
    RankTrace {
        shard_build_s,
        steps,
        split,
        untraced_step_s,
        untraced_perf,
        msgs,
        bytes,
        weights,
        losses,
        proc_marks: (proc_warm.expect("at least one epoch"), proc_end),
        events: sp.into_events(),
    }
}

/// Rank 0's untraced step on one rank with every core as its kernel budget,
/// so the intra-rank `tensor::pool` splits each conv. Like the reference
/// step in `rank_traced`, the first epoch grows the session's buffers and
/// the second is timed. Returns seconds.
#[allow(clippy::too_many_arguments)]
fn pooled_step(
    sp: &mut Spans,
    cores: usize,
    arch: &ArchSpec,
    cfg: &TrainConfig,
    data: &DataSet,
    part: &GridPartition,
    norm: &ChannelNorm,
    pairs: usize,
) -> f64 {
    pde_tensor::pool::set_thread_budget(cores);
    let ds = pde_ml_core::data::build_windowed(
        data,
        0,
        pairs,
        part,
        0,
        arch.halo(),
        STRATEGY,
        norm,
        cfg.prediction,
        cfg.window,
    );
    let mut net = arch.build_for(STRATEGY, cfg.seed);
    let mut session = TrainSession::new(cfg);
    session.run_epoch(&mut net, &ds, cfg, 0);
    sp.time(Category::Train, "pooled_step", cores, || {
        session.run_epoch(&mut net, &ds, cfg, 1)
    })
    .1
}

fn traced(
    ctx: &Ctx,
    report: &mut Report,
    arch: &ArchSpec,
    cfg: &TrainConfig,
    pairs: usize,
    convs: &[ConvShape],
) -> Result<(), String> {
    let ranks = RANKS;
    let origin = Instant::now();
    let proc0 = procfs::sample(None).map_err(|e| e.to_string())?;
    let mut sp = Spans::new(origin, pde_trace::DRIVER_RANK);
    let (data, simulate_s) = sp.time(Category::Train, "simulate", 0, || {
        shapes::seeded_dataset(PAPER_GRID, pairs + 1, ctx.seed)
    });
    let (norm, fit_s) = sp.time(Category::Train, "norm_fit", 0, || {
        fit_norm(cfg, &data.view(0, pairs), arch)
    });
    let (_, spawn_s) = sp.time(Category::Comm, "world_spawn", ranks, || {
        World::new(ranks).run(|_comm| ())
    });
    let part = GridPartition::for_ranks(PAPER_GRID, PAPER_GRID, ranks);
    let mut out = World::new(ranks)
        .run(|comm| rank_traced(comm, origin, arch, cfg, &data, &part, &norm, pairs));
    // The rank threads have ended and freed their buffers.
    let pooled_s = pooled_step(&mut sp, ctx.cores, arch, cfg, &data, &part, &norm, pairs);
    let mut events = sp.into_events();
    for r in &mut out {
        events.append(&mut r.events);
    }
    let path = ctx
        .out_dir
        .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    write_trace(&path, &events)?;

    // Output checks.
    report.attempted = (ranks * cfg.epochs) as u64;
    report.failed = out
        .iter()
        .flat_map(|r| &r.losses)
        .filter(|l| !l.is_finite())
        .count() as u64;
    report.check(
        out.iter().all(|r| r.msgs == 0 && r.bytes == 0),
        "training sent zero messages and zero bytes",
    );
    report.check(
        out.iter().all(|r| r.losses.iter().all(|l| l.is_finite())),
        "every epoch loss finite",
    );
    check_rank0(ctx, report, arch, cfg, &data, pairs, &part, &out[0].weights);

    // Per-layer aggregation: means over ranks × measured steps.
    let all: Vec<&StepTrace> = out.iter().flat_map(|r| &r.steps).collect();
    let ms =
        |f: &dyn Fn(&StepTrace) -> f64| mean(&all.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>());
    let n = all[0].fwd.len();
    for (l, shape) in convs.iter().enumerate() {
        let i = 2 * l;
        let fwd_s: f64 = all.iter().map(|s| s.fwd[i]).sum();
        let fwd_flops: u64 = all.iter().map(|s| s.fwd_flops[i]).sum();
        report.metric(
            format!("tensor.conv{}.fwd_ms", l + 1),
            ms(&|s| s.fwd[i]),
            "ms",
        );
        report.metric(
            format!("tensor.conv{}.fwd_gflops", l + 1),
            fwd_flops as f64 / fwd_s / 1e9,
            "GFLOP/s",
        );
        let (mut wt, mut wf, mut it, mut iflops) = (0.0, 0u64, 0.0, 0u64);
        for r in &out {
            let (a, b, c, d) = r.split[l];
            (wt, wf, it, iflops) = (wt + a, wf + b, it + c, iflops + d);
        }
        let per_rank = out.len() as f64;
        report.metric(
            format!("tensor.conv{}.bwd_input_ms", l + 1),
            it / per_rank * 1e3,
            "ms",
        );
        report.metric(
            format!("tensor.conv{}.bwd_input_gflops", l + 1),
            iflops as f64 / it / 1e9,
            "GFLOP/s",
        );
        report.metric(
            format!("tensor.conv{}.bwd_weight_ms", l + 1),
            wt / per_rank * 1e3,
            "ms",
        );
        report.metric(
            format!("tensor.conv{}.bwd_weight_gflops", l + 1),
            wf as f64 / wt / 1e9,
            "GFLOP/s",
        );
        report.metric(
            format!("tensor.conv{}.im2col_mb", l + 1),
            (shape.im2col_bytes(cfg.batch_size) * ranks as u64) as f64 / (1u64 << 20) as f64,
            "MB",
        );
        println!(
            "conv{}: in-step bwd {:.1} ms vs split weight+input {:.1} ms",
            l + 1,
            ms(&|s| s.bwd[i]),
            (wt + it) / per_rank * 1e3
        );
    }
    let acts: Vec<usize> = (1..n).step_by(2).collect();
    report.metric(
        "nn.act.fwd_ms",
        ms(&|s| acts.iter().map(|&i| s.fwd[i]).sum()),
        "ms",
    );
    report.metric(
        "nn.act.bwd_ms",
        ms(&|s| acts.iter().map(|&i| s.bwd[i]).sum()),
        "ms",
    );
    report.metric("nn.loss_ms", ms(&|s| s.loss), "ms");
    report.metric("nn.optim_step_ms", ms(&|s| s.optim), "ms");
    report.metric("core.data.batch_fill_ms", ms(&|s| s.fill), "ms");
    let step_ms = ms(&|s| s.step);
    report.metric("core.train.step_ms", step_ms, "ms");
    let coverage = mean(&all.iter().map(|s| s.parts() / s.step).collect::<Vec<_>>());
    report.metric("core.train.coverage", coverage, "ratio");
    let rank_step: Vec<f64> = out
        .iter()
        .map(|r| mean(&r.steps.iter().map(|s| s.step).collect::<Vec<_>>()))
        .collect();
    for (r, (t, trace)) in rank_step.iter().zip(&out).enumerate() {
        println!(
            "rank {r}: compute {:.1} ms/step, communication {} messages / {} bytes",
            t * 1e3,
            trace.msgs,
            trace.bytes
        );
    }
    let skew = rank_step.iter().cloned().fold(f64::MIN, f64::max)
        / rank_step.iter().cloned().fold(f64::MAX, f64::min);
    report.metric("core.train.rank_skew", skew, "ratio");
    let total = |f: &dyn Fn(&PerfCounters) -> u64| {
        out.iter().map(|r| f(&r.untraced_perf)).sum::<u64>() as f64
    };
    report.metric("tensor.flops_per_step", total(&|p| p.flops), "count");
    report.metric(
        "tensor.gemm_calls_per_step",
        total(&|p| p.gemm_calls),
        "count",
    );
    report.metric("tensor.allocs_per_step", total(&|p| p.allocs), "count");
    let single_ms = out[0].untraced_step_s * 1e3;
    report.metric("tensor.pool.step_ms", pooled_s * 1e3, "ms");
    report.metric("tensor.pool.speedup", single_ms / (pooled_s * 1e3), "ratio");
    println!(
        "tensor.pool: rank 0's step on 1 rank x {} kernel threads {:.1} ms vs 1 thread {:.1} ms",
        ctx.cores,
        pooled_s * 1e3,
        single_ms
    );
    let steps_per_rank = out[0].steps.len().max(1) as f64;
    report.metric(
        "commsim.msgs_per_step",
        out.iter().map(|r| r.msgs).sum::<u64>() as f64 / steps_per_rank,
        "count",
    );
    report.metric(
        "commsim.bytes_per_step",
        out.iter().map(|r| r.bytes).sum::<u64>() as f64 / steps_per_rank,
        "B",
    );
    report.metric("euler.simulate_s", simulate_s, "s");
    report.metric("core.norm.fit_s", fit_s, "s");
    report.metric(
        "core.train.shard_build_s",
        out.iter().map(|r| r.shard_build_s).fold(0.0, f64::max),
        "s",
    );
    report.metric("commsim.world_spawn_ms", spawn_s * 1e3, "ms");
    let (warm, end) = out[0].proc_marks;
    let setup = warm.since(&proc0);
    let steady = end.since(&warm);
    report.metric("proc.sys_s.setup", setup.sys_s, "s");
    report.metric("proc.sys_s.steady", steady.sys_s, "s");
    report.metric("proc.minflt.setup", setup.minflt as f64, "count");
    report.metric("proc.minflt.steady", steady.minflt as f64, "count");
    let untraced_ms = mean(
        &out.iter()
            .map(|r| r.untraced_step_s * 1e3)
            .collect::<Vec<_>>(),
    );
    report.metric(
        "perfbench.trace_overhead_ratio",
        step_ms / untraced_ms - 1.0,
        "ratio",
    );
    println!(
        "core.train.coverage = {:.1}% ({} 95%); tracing overhead {:+.2}% \
         (traced step {step_ms:.1} ms vs untraced TrainSession step {untraced_ms:.1} ms)",
        coverage * 1e2,
        if coverage >= 0.95 { "meets" } else { "BELOW" },
        (step_ms / untraced_ms - 1.0) * 1e2
    );
    Ok(())
}
