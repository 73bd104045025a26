//! `rollout-paper`: 256², `RANKS` ranks, seeded paper-net weights
//! registered once on a warm `InferEngine`, then repeated 4-step
//! `rollout_from_history` requests over the strict halo path.
//!
//! The traced run adds the engine's own `EnginePhases` split and a cold
//! world that executes the same steps piecewise: `assemble_halo_input`,
//! then each layer's `forward_into`, then the residual update.

use crate::procfs;
use crate::report::{mean, quantile, same_bits, Report};
use crate::shapes::{self, PAPER_GRID, RANKS, STRATEGY};
use crate::spans::{write_trace, Spans};
use crate::Ctx;
use pde_commsim::{CartComm, World};
use pde_domain::GridPartition;
use pde_ml_core::arch::ArchSpec;
use pde_ml_core::engine::{EngineConfig, InferEngine};
use pde_ml_core::infer::{assemble_halo_input, ParallelInference};
use pde_ml_core::train::{fit_norm, PredictionMode, TrainConfig};
use pde_nn::serialize::{restore, snapshot};
use pde_tensor::{perf, Tensor3, Tensor4};
use pde_trace::Category;
use std::time::Instant;

/// Prediction steps per request.
const STEPS: usize = 4;
/// Distinct request histories, cycled through.
const HISTORIES: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const MODEL: &str = "paper";

struct Setup {
    histories: Vec<Tensor3>,
    weights: Vec<Vec<f64>>,
    inf: ParallelInference,
    engine: InferEngine,
    simulate_s: f64,
    fit_s: f64,
    spawn_s: f64,
    register_s: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Dataset, norm, seeded weights, engine spawn, registration and the first
/// (page-faulting) request.
fn setup(ctx: &Ctx, arch: &ArchSpec, part: GridPartition) -> Result<Setup, String> {
    let base = TrainConfig::paper();
    let t = Instant::now();
    let data = shapes::seeded_dataset(PAPER_GRID, base.batch_size + 1, ctx.seed);
    let simulate_s = secs(t);
    let t = Instant::now();
    let norm = fit_norm(&base, &data.view(0, base.batch_size), arch);
    let fit_s = secs(t);
    let wseed = shapes::weight_seed(ctx.seed);
    let weights: Vec<Vec<f64>> = (0..part.rank_count())
        .map(|r| snapshot(&mut arch.build_for(STRATEGY, wseed + r as u64)))
        .collect();
    let inf = ParallelInference::new(
        arch.clone(),
        STRATEGY,
        part,
        weights.clone(),
        norm,
        PredictionMode::Residual,
    );
    let t = Instant::now();
    let mut engine = InferEngine::with_config(EngineConfig {
        threads_per_rank: Some(1),
        ..EngineConfig::new(part.rank_count())
    });
    let spawn_s = secs(t);
    let t = Instant::now();
    engine
        .register(MODEL, inf.clone())
        .map_err(|e| e.to_string())?;
    let register_s = secs(t);
    let last = data.len() - 1;
    let histories: Vec<Tensor3> = (0..HISTORIES)
        .map(|i| data.snapshot(i * last / HISTORIES).clone())
        .collect();
    engine
        .rollout_from_history(MODEL, std::slice::from_ref(&histories[0]), STEPS)
        .map_err(|e| format!("first request: {e}"))?;
    Ok(Setup {
        histories,
        weights,
        inf,
        engine,
        simulate_s,
        fit_s,
        spawn_s,
        register_s,
    })
}

/// Thread-free references for every history, on all cores.
fn references(ctx: &Ctx, s: &Setup) -> Vec<Vec<Tensor3>> {
    pde_tensor::pool::set_thread_budget(ctx.cores);
    s.histories
        .iter()
        .map(|h| {
            s.inf
                .reference_rollout_from_history(std::slice::from_ref(h), STEPS)
        })
        .collect()
}

fn matches(states: &[Tensor3], want: &[Tensor3]) -> bool {
    states.len() == want.len()
        && states.iter().zip(want).all(|(a, b)| {
            a.as_slice().iter().all(|v| v.is_finite()) && same_bits(a.as_slice(), b.as_slice())
        })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let arch = ArchSpec::paper();
    let part = GridPartition::for_ranks(PAPER_GRID, PAPER_GRID, RANKS);
    let block = part.block_of_rank(0);
    shapes::stamp(
        &ctx.workload,
        ctx.seed,
        PAPER_GRID,
        RANKS,
        1,
        1,
        &shapes::conv_shapes(&arch, block.h, block.w),
    );
    println!("rollout: {STEPS}-step requests, {HISTORIES} distinct histories, strict halos");
    let mut report = Report::new();
    if ctx.trace {
        traced(ctx, &mut report, &arch, part)?;
    } else {
        untraced(ctx, &mut report, &arch, part)?;
    }
    Ok(report)
}

fn untraced(
    ctx: &Ctx,
    report: &mut Report,
    arch: &ArchSpec,
    part: GridPartition,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // The previous engine's world joins before the next one spawns.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(ctx, arch, part)?);
        setup_s.push(secs(t));
    }
    let mut s = kept.expect("at least one set-up");
    let refs = references(ctx, &s);

    let (mut lat_ms, mut all_match) = (Vec::new(), true);
    let t_run = Instant::now();
    while secs(t_run) < ctx.seconds {
        let d = report.attempted as usize % HISTORIES;
        report.attempted += 1;
        let t = Instant::now();
        let res =
            s.engine
                .rollout_from_history(MODEL, std::slice::from_ref(&s.histories[d]), STEPS);
        lat_ms.push(secs(t) * 1e3);
        match res {
            Ok(r) if matches(&r.states, &refs[d]) => {}
            Ok(_) => {
                all_match = false;
                report.failed += 1;
            }
            Err(e) => {
                println!("request failed: {e}");
                report.failed += 1;
            }
        }
    }
    report.check(
        all_match,
        "every rollout bitwise equal to reference_rollout_from_history and finite",
    );
    // From the median request, so one stalled request does not move it.
    let steps_per_s = STEPS as f64 * 1e3 / quantile(&lat_ms, 0.5);
    println!("rollout_steps_per_s = {steps_per_s:.4} steps/s");
    println!(
        "rollout_request_ms_p50 = {:.3} ms over {} requests",
        quantile(&lat_ms, 0.5),
        lat_ms.len()
    );
    println!("set-up repeats: {setup_s:.3?} s");
    report.metric("setup_s", quantile(&setup_s, 0.5), "s");
    report.metric(
        "peak_rss_mb",
        procfs::peak_rss_mb(None).map_err(|e| e.to_string())?,
        "MB",
    );
    report.metric("throughput_per_s", steps_per_s, "1/s");
    report.metric("latency_ms_p50", quantile(&lat_ms, 0.5), "ms");
    report.metric("latency_ms_p90", quantile(&lat_ms, 0.9), "ms");
    report.metric("ops_ok_ratio", report.ok_ratio(), "ratio");
    Ok(())
}

/// One rank-step of the instrumented cold rollout, in seconds.
struct StepTrace {
    assemble: f64,
    fwd: Vec<f64>,
    update: f64,
    step: f64,
    msgs: u64,
    bytes: u64,
}

struct RankOut {
    steps: Vec<StepTrace>,
    /// Per measured request: the rank's normalized local states, initial
    /// first.
    produced: Vec<Vec<Tensor3>>,
    events: Vec<pde_trace::TraceEvent>,
}

fn rank_rollout(
    comm: pde_commsim::Comm,
    origin: Instant,
    arch: &ArchSpec,
    part: &GridPartition,
    weights: &[Vec<f64>],
    scattered: &[Vec<Vec<Tensor3>>],
) -> RankOut {
    pde_tensor::pool::set_thread_budget(1);
    let rank = comm.rank();
    let mut cart = CartComm::new(comm, part.py(), part.px(), false);
    let mut net = arch.build_for(STRATEGY, 0);
    restore(&mut net, &weights[rank]);
    let halo = STRATEGY.input_halo(arch.halo());
    let n = net.len();
    let mut input = Tensor4::zeros(0, 0, 0, 0);
    let mut acts: Vec<Tensor4> = (0..n).map(|_| Tensor4::zeros(0, 0, 0, 0)).collect();
    let mut sp = Spans::new(origin, rank as u32);
    let (mut steps, mut produced) = (Vec::new(), Vec::new());
    // Request 0 warms the buffers; requests 1..=HISTORIES are measured.
    for req in 0..=HISTORIES {
        sp.req = req as u64 + 1;
        let d = req.saturating_sub(1);
        let mut state = scattered[d][rank][0].clone();
        let mut states = vec![state.clone()];
        for step in 0..STEPS {
            let stats0 = (cart.comm().stats().sent(), cart.comm().stats().bytes_sent());
            let t0 = Instant::now();
            let (_, assemble) = sp.time(Category::Infer, "halo_assemble", step, || {
                let padded = assemble_halo_input(&mut cart, &state, halo, step as u32);
                let (c, h, w) = padded.shape();
                input.resize(1, c, h, w);
                input.sample_mut(0).copy_from_slice(padded.as_slice());
            });
            let mut fwd = Vec::with_capacity(n);
            for i in 0..n {
                let (done, rest) = acts.split_at_mut(i);
                let src = if i == 0 { &input } else { &done[i - 1] };
                let layer = &mut net.layers_mut()[i];
                fwd.push(
                    sp.time(Category::Nn, "infer_fwd", i, || {
                        layer.forward_into(src, false, &mut rest[0])
                    })
                    .1,
                );
            }
            // Residual prediction: next = state + f(state), in place.
            let (_, update) = sp.time(Category::Infer, "update", step, || {
                for (v, dy) in state.as_mut_slice().iter_mut().zip(acts[n - 1].sample(0)) {
                    *v += *dy;
                }
            });
            let step_s = sp.close(Category::Infer, "step", step, t0);
            states.push(state.clone());
            if req > 0 {
                steps.push(StepTrace {
                    assemble,
                    fwd,
                    update,
                    step: step_s,
                    msgs: cart.comm().stats().sent() - stats0.0,
                    bytes: cart.comm().stats().bytes_sent() - stats0.1,
                });
            }
        }
        if req > 0 {
            produced.push(states);
        }
    }
    RankOut {
        steps,
        produced,
        events: sp.into_events(),
    }
}

fn traced(
    ctx: &Ctx,
    report: &mut Report,
    arch: &ArchSpec,
    part: GridPartition,
) -> Result<(), String> {
    let origin = Instant::now();
    let proc0 = procfs::sample(None).map_err(|e| e.to_string())?;
    let mut s = setup(ctx, arch, part)?;
    let proc_setup = procfs::sample(None).map_err(|e| e.to_string())?;
    let refs = references(ctx, &s);
    let proc_warm = procfs::sample(None).map_err(|e| e.to_string())?;
    let mut all_match = true;

    // The program's own per-request split, untraced by this benchmark.
    let (mut dispatch_ms, mut rollout_ms) = (Vec::new(), Vec::new());
    let mut counts = perf::PerfCounters::default();
    let engine_requests = 2 * HISTORIES;
    for i in 0..engine_requests {
        let d = i % HISTORIES;
        let (r, ph) = s
            .engine
            .rollout_from_history_traced(
                MODEL,
                std::slice::from_ref(&s.histories[d]),
                STEPS,
                i as u64 + 1,
            )
            .map_err(|e| e.to_string())?;
        report.attempted += 1;
        all_match &= matches(&r.states, &refs[d]);
        dispatch_ms.push(ph.dispatch_us as f64 / 1e3);
        rollout_ms.push(ph.rollout_us as f64 / 1e3);
        for p in &r.rank_perf {
            counts.flops += p.flops;
            counts.gemm_calls += p.gemm_calls;
            counts.allocs += p.allocs;
        }
    }
    let proc_end = procfs::sample(None).map_err(|e| e.to_string())?;

    let scattered: Vec<Vec<Vec<Tensor3>>> = s
        .histories
        .iter()
        .map(|h| s.inf.scatter_history(std::slice::from_ref(h)))
        .collect();
    let mut out = World::new(RANKS)
        .run(|comm| rank_rollout(comm, origin, arch, &part, &s.weights, &scattered));
    let mut events = Vec::new();
    for r in &mut out {
        events.append(&mut r.events);
    }
    write_trace(
        &ctx.out_dir
            .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed)),
        &events,
    )?;
    for (d, history) in s.histories.iter().enumerate() {
        let locals: Vec<Vec<Tensor3>> = out.iter().map(|r| r.produced[d].clone()).collect();
        let states = s.inf.stitch_states(history, &locals, STEPS);
        report.attempted += 1;
        all_match &= matches(&states, &refs[d]);
    }
    report.check(
        all_match,
        "engine and instrumented rollouts bitwise equal to reference_rollout_from_history and finite",
    );
    if !all_match {
        report.failed += 1;
    }

    let all: Vec<&StepTrace> = out.iter().flat_map(|r| &r.steps).collect();
    let ms =
        |f: &dyn Fn(&StepTrace) -> f64| mean(&all.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>());
    let n = all[0].fwd.len();
    for l in 0..arch.n_layers() {
        report.metric(
            format!("tensor.conv{}.infer_fwd_ms", l + 1),
            ms(&|s| s.fwd[2 * l]),
            "ms",
        );
    }
    report.metric(
        "nn.act.fwd_ms",
        ms(&|s| (1..n).step_by(2).map(|i| s.fwd[i]).sum()),
        "ms",
    );
    report.metric("core.infer.halo_assemble_ms", ms(&|s| s.assemble), "ms");
    report.metric("core.infer.forward_ms", ms(&|s| s.fwd.iter().sum()), "ms");
    let step_ms = ms(&|s| s.step);
    report.metric("core.infer.step_ms", step_ms, "ms");
    let coverage = mean(
        &all.iter()
            .map(|s| (s.assemble + s.fwd.iter().sum::<f64>() + s.update) / s.step)
            .collect::<Vec<_>>(),
    );
    report.metric("core.infer.coverage", coverage, "ratio");
    for (r, rank) in out.iter().enumerate() {
        let m = |f: &dyn Fn(&StepTrace) -> f64| {
            mean(&rank.steps.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>())
        };
        println!(
            "rank {r}: compute {:.2} ms/step (forward + update), communication {:.2} ms/step \
             (halo assembly incl. receive wait)",
            m(&|s| s.fwd.iter().sum::<f64>() + s.update),
            m(&|s| s.assemble)
        );
    }
    let per_rank = out[0].steps.len();
    let skew: Vec<f64> = (0..per_rank)
        .map(|k| {
            let t: Vec<f64> = out.iter().map(|r| r.steps[k].step).collect();
            (t.iter().cloned().fold(f64::MIN, f64::max)
                - t.iter().cloned().fold(f64::MAX, f64::min))
                * 1e3
        })
        .collect();
    report.metric("core.infer.rank_skew_ms", mean(&skew), "ms");
    report.metric(
        "commsim.msgs_per_step",
        all.iter().map(|s| s.msgs).sum::<u64>() as f64 / per_rank as f64,
        "count",
    );
    report.metric(
        "commsim.bytes_per_step",
        all.iter().map(|s| s.bytes).sum::<u64>() as f64 / per_rank as f64,
        "B",
    );
    report.metric("core.engine.dispatch_ms", quantile(&dispatch_ms, 0.5), "ms");
    let engine_rollout_ms = quantile(&rollout_ms, 0.5);
    report.metric("core.engine.rollout_ms", engine_rollout_ms, "ms");
    report.metric(
        "tensor.flops_per_step",
        counts.flops as f64 / (engine_requests * STEPS) as f64,
        "count",
    );
    report.metric(
        "tensor.gemm_calls_per_step",
        counts.gemm_calls as f64 / (engine_requests * STEPS) as f64,
        "count",
    );
    report.metric(
        "tensor.allocs_per_step",
        counts.allocs as f64 / (engine_requests * STEPS) as f64,
        "count",
    );
    report.metric("euler.simulate_s", s.simulate_s, "s");
    report.metric("core.norm.fit_s", s.fit_s, "s");
    report.metric("commsim.world_spawn_ms", s.spawn_s * 1e3, "ms");
    report.metric("core.engine.register_ms", s.register_s * 1e3, "ms");
    let setup = proc_setup.since(&proc0);
    let steady = proc_end.since(&proc_warm);
    report.metric("proc.sys_s.setup", setup.sys_s, "s");
    report.metric("proc.sys_s.steady", steady.sys_s, "s");
    report.metric("proc.minflt.setup", setup.minflt as f64, "count");
    report.metric("proc.minflt.steady", steady.minflt as f64, "count");
    let untraced_step_ms = engine_rollout_ms / STEPS as f64;
    report.metric(
        "perfbench.trace_overhead_ratio",
        step_ms / untraced_step_ms - 1.0,
        "ratio",
    );
    println!(
        "core.infer.coverage = {:.1}% ({} 95%); tracing overhead {:+.2}% \
         (instrumented step {step_ms:.2} ms vs engine step {untraced_step_ms:.2} ms)",
        coverage * 1e2,
        if coverage >= 0.95 { "meets" } else { "BELOW" },
        (step_ms / untraced_step_ms - 1.0) * 1e2
    );
    Ok(())
}
