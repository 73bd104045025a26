//! Kernel-layer live telemetry: per-rank throughput and thread-budget
//! gauges in the shared [`pde_telemetry`] registry (scraped at `/metrics`).
//!
//! Attribution follows the rank tag each worker thread carries in
//! [`pde_trace`] (`set_thread_rank`), falling back to the driver shard on
//! untagged threads. Updates are one sharded atomic store per GEMM driver
//! call — cheap enough to leave on unconditionally, matching the policy of
//! the other `live` modules in the workspace. The convolution workspace
//! gauge moves only when a thread's im2col tile grows or is freed.

use pde_telemetry::{Counter, Gauge};
use std::sync::OnceLock;

/// Telemetry shard for the current thread's rank tag.
pub(crate) fn rank() -> usize {
    let r = pde_trace::thread_rank();
    if r == pde_trace::DRIVER_RANK {
        pde_telemetry::DRIVER
    } else {
        r as usize
    }
}

fn gflops_gauge() -> &'static Gauge {
    static G: OnceLock<&'static Gauge> = OnceLock::new();
    G.get_or_init(|| {
        pde_telemetry::gauge(
            "pdeml_kernel_gflops",
            "Most recent GEMM driver throughput per rank (GFLOP/s)",
        )
    })
}

fn threads_gauge() -> &'static Gauge {
    static G: OnceLock<&'static Gauge> = OnceLock::new();
    G.get_or_init(|| {
        pde_telemetry::gauge(
            "pdeml_kernel_threads_active",
            "Configured intra-rank kernel thread budget per rank",
        )
    })
}

fn flops_total() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| {
        pde_telemetry::counter(
            "pdeml_kernel_flops_total",
            "Floating-point operations issued by the GEMM kernels",
        )
    })
}

fn time_ns_total() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| {
        pde_telemetry::counter(
            "pdeml_kernel_time_ns_total",
            "Wall-clock nanoseconds spent inside the GEMM driver",
        )
    })
}

fn conv_workspace_gauge() -> &'static Gauge {
    static G: OnceLock<&'static Gauge> = OnceLock::new();
    G.get_or_init(|| {
        pde_telemetry::gauge(
            "pdeml_conv_workspace_bytes",
            "Bytes of im2col tile held for the convolution passes per rank",
        )
    })
}

/// Moves `shard`'s convolution workspace gauge by `delta` bytes.
pub(crate) fn add_conv_workspace(shard: usize, delta: i64) {
    if delta != 0 {
        conv_workspace_gauge().add(shard, delta);
    }
}

/// Publishes one GEMM driver invocation. The gauge stores whole GFLOP/s:
/// `flops / ns` is exact in those units (1e9 cancels).
pub(crate) fn record_kernel(flops: u64, ns: u64) {
    let r = rank();
    flops_total().add(r, flops);
    time_ns_total().add(r, ns);
    if let Some(gflops) = flops.checked_div(ns) {
        gflops_gauge().set(r, gflops as i64);
    }
}

/// Publishes the kernel thread budget installed on this rank.
pub(crate) fn set_threads_active(n: usize) {
    threads_gauge().set(rank(), n as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_gauges_register_and_accumulate() {
        record_kernel(2_000_000_000, 1_000_000_000);
        set_threads_active(3);
        add_conv_workspace(rank(), 8);
        let text = pde_telemetry::render_prometheus();
        assert!(
            text.contains("pdeml_kernel_gflops"),
            "gauge missing:\n{text}"
        );
        assert!(
            text.contains("pdeml_kernel_threads_active"),
            "thread gauge missing:\n{text}"
        );
        assert!(
            text.contains("pdeml_conv_workspace_bytes"),
            "workspace gauge missing:\n{text}"
        );
        assert!(flops_total().total() >= 2_000_000_000);
        assert!(time_ns_total().total() >= 1_000_000_000);
    }
}
