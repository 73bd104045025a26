//! The benchmark's own spans: each wraps one call into a public function of
//! the layer under measurement. Spans stay in memory (one buffer per
//! thread) and are written out as one Chrome trace when the run ends, using
//! `pde_trace`'s writer so the file opens like every other trace of the
//! repository.

use pde_trace::{Category, Kind, TraceEvent};
use std::path::Path;
use std::time::Instant;

pub struct Spans {
    origin: Instant,
    rank: u32,
    /// Request id stamped on new spans (0 = none).
    pub req: u64,
    events: Vec<TraceEvent>,
}

impl Spans {
    /// A recorder for track `rank`; `origin` is the run's shared time zero.
    pub fn new(origin: Instant, rank: u32) -> Self {
        Spans {
            origin,
            rank,
            req: 0,
            // Reserved up front so recording never allocates on the
            // measured thread (the program's allocation counters see it).
            events: Vec::with_capacity(1 << 14),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        cat: Category,
        name: &'static str,
        a0: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let secs = self.close(cat, name, a0, t0);
        (out, secs)
    }

    /// Records a span that started at `t0` and ends now; returns its
    /// duration in seconds. Used for parents whose children were recorded
    /// with [`Spans::time`].
    pub fn close(&mut self, cat: Category, name: &'static str, a0: usize, t0: Instant) -> f64 {
        let t1 = Instant::now();
        if self.events.len() < self.events.capacity() {
            self.events.push(TraceEvent {
                rank: self.rank,
                cat,
                kind: Kind::Span,
                name,
                ts_us: t0.duration_since(self.origin).as_micros() as u64,
                dur_us: t1.duration_since(t0).as_micros() as u64,
                a0: a0 as u64,
                a1: 0,
                req: self.req,
            });
        }
        t1.duration_since(t0).as_secs_f64()
    }

    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// Writes all recorded spans as one Chrome trace.
pub fn write_trace(path: &Path, events: &[TraceEvent]) -> Result<(), String> {
    std::fs::write(path, pde_trace::chrome_trace_json(events))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace: {} spans -> {}", events.len(), path.display());
    Ok(())
}
