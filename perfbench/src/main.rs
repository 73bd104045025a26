//! Paper-shape benchmark of the pde-ml workspace.
//!
//! One binary, one workload per invocation:
//!
//! ```text
//! perfbench --workload <train-paper|rollout-paper|serve-http>
//!           --seed N --seconds S --trace 0|1 --pdeml PATH --out-dir DIR
//! ```
//!
//! With `--trace 0` it runs the workload through the program's public entry
//! points with no instrumentation and reports the end-to-end metrics; with
//! `--trace 1` it runs the same problem through the benchmark's own spans
//! around each layer's public functions and reports the per-layer metrics.
//! Human-readable lines go to stdout first; the last line is one JSON
//! object (see `report.rs`). `run.py` builds the binaries and checks that
//! line against `BENCHMARK.json`.

mod procfs;
mod report;
mod rollout;
mod serve;
mod shapes;
mod spans;
mod train;

use std::path::PathBuf;

/// What every workload gets from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `pdeml` binary (only `serve-http` runs it).
    pub pdeml: PathBuf,
    /// Scratch directory for datasets, models and the trace file.
    pub out_dir: PathBuf,
    /// Cores visible to this process (`nproc`).
    pub cores: usize,
}

fn parse_args() -> Result<Ctx, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Ctx {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed: not an unsigned integer".to_string())?,
        seconds,
        trace,
        pdeml: PathBuf::from(get("--pdeml")?),
        out_dir: PathBuf::from(get("--out-dir")?),
        cores: pde_tensor::pool::available_cores(),
    })
}

fn main() {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if ctx.cores < shapes::RANKS {
        eprintln!(
            "perfbench: the workloads run {} rank threads and need as many cores; \
             this machine has {}",
            shapes::RANKS,
            ctx.cores
        );
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    let steal0 = procfs::host_steal_s().ok();
    let result = match ctx.workload.as_str() {
        "train-paper" => train::run(&ctx),
        "rollout-paper" => rollout::run(&ctx),
        "serve-http" => serve::run(&ctx),
        other => Err(format!("unknown workload '{other}'")),
    };
    match result {
        Ok(report) => {
            if let (Some(s0), Ok(s1)) = (steal0, procfs::host_steal_s()) {
                let wall = t0.elapsed().as_secs_f64();
                println!(
                    "host: {:.2} CPU s stolen by the hypervisor in {wall:.1} s \
                     ({:.1}% of {} cores)",
                    s1 - s0,
                    (s1 - s0) / (wall * ctx.cores as f64) * 1e2,
                    ctx.cores
                );
            }
            report.print_summary();
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    }
}
