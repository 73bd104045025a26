//! Self-healing worlds: deterministic chaos plans and the supervisor that
//! respawns dead ranks.
//!
//! A [`ChaosPlan`] is the kill-side mirror of [`crate::FaultPlan`]: a
//! deterministic schedule of rank deaths (`kill:RANK:REQUEST[:STEP]`)
//! injected by the serving engine at step boundaries. Each event fires
//! **exactly once** — after the supervisor heals the world, the retried
//! request runs clean, which is what makes post-recovery rollouts
//! bitwise-comparable to a never-killed world.
//!
//! [`Supervisor::heal`] is the membership-recovery protocol over
//! [`PersistentWorld::respawn`] (the ezmpc synchronizer's
//! Start/Next/Abort epoch handshake is the reference shape): detect the
//! dead ranks, rebuild the mesh under a fresh generation epoch, hand every
//! rank its new communicator, and time the whole gap onto the
//! `pdeml_rank_respawns_total` / `pdeml_recovery_ms` series.

use crate::comm::Comm;
use crate::world::{PersistentWorld, RankContext};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scheduled rank death.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// The rank that dies.
    pub rank: usize,
    /// The request (serving epoch) during which it dies.
    pub request: usize,
    /// The rollout step within that request (0 = before the first step).
    pub step: usize,
}

struct ChaosEvent {
    spec: KillSpec,
    fired: AtomicBool,
}

/// A deterministic kill schedule. Cloning shares the fired-state, so a
/// plan distributed across many rank threads still fires each event
/// exactly once no matter which thread asks first.
#[derive(Clone)]
pub struct ChaosPlan {
    events: Arc<Vec<ChaosEvent>>,
}

impl ChaosPlan {
    /// A plan firing each of `kills` once.
    pub fn new(kills: Vec<KillSpec>) -> Self {
        Self {
            events: Arc::new(
                kills
                    .into_iter()
                    .map(|spec| ChaosEvent {
                        spec,
                        fired: AtomicBool::new(false),
                    })
                    .collect(),
            ),
        }
    }

    /// Parses the CLI chaos grammar: comma-separated
    /// `kill:RANK:REQUEST[:STEP]` events (STEP defaults to 0 — death at
    /// the top of the request).
    pub fn parse(spec: &str) -> Result<Self, String> {
        Self::parse_impl(spec, None)
    }

    /// Like [`ChaosPlan::parse`], additionally rejecting ranks outside
    /// `world_size` with a hint — a kill aimed at a rank that does not
    /// exist would otherwise silently never fire.
    pub fn parse_for(spec: &str, world_size: usize) -> Result<Self, String> {
        Self::parse_impl(spec, Some(world_size))
    }

    fn parse_impl(spec: &str, world_size: Option<usize>) -> Result<Self, String> {
        let mut kills = Vec::new();
        for part in spec.split(',') {
            let fields: Vec<&str> = part.split(':').collect();
            let (rank, request, step) = match fields.as_slice() {
                ["kill", rank, request] => (*rank, *request, "0"),
                ["kill", rank, request, step] => (*rank, *request, *step),
                ["kill", ..] => {
                    return Err(format!(
                        "chaos spec '{part}': kill takes kill:RANK:REQUEST or \
                         kill:RANK:REQUEST:STEP"
                    ))
                }
                [other, ..] if !other.is_empty() => {
                    return Err(format!(
                        "unknown chaos directive '{other}' (known: kill; e.g. kill:2:1 \
                         kills rank 2 during request 1)"
                    ))
                }
                _ => return Err("empty chaos spec (expected kill:RANK:REQUEST[:STEP])".to_string()),
            };
            let rank: usize = rank
                .parse()
                .map_err(|_| format!("chaos kill rank '{rank}' is not a rank"))?;
            let request: usize = request
                .parse()
                .map_err(|_| format!("chaos kill request '{request}' is not a request index"))?;
            let step: usize = step
                .parse()
                .map_err(|_| format!("chaos kill step '{step}' is not a step index"))?;
            if let Some(n) = world_size {
                if rank >= n {
                    return Err(format!(
                        "chaos kill rank {rank} does not exist in a {n}-rank world \
                         (ranks are 0..={})",
                        n - 1
                    ));
                }
            }
            kills.push(KillSpec {
                rank,
                request,
                step,
            });
        }
        Ok(Self::new(kills))
    }

    /// True exactly once for the event matching `(rank, request, step)` —
    /// the engine's per-step kill check. Compare-and-swap on the event's
    /// fired flag, so the retried (post-recovery) request sails through.
    pub fn should_kill(&self, rank: usize, request: usize, step: usize) -> bool {
        self.events.iter().any(|ev| {
            ev.spec.rank == rank
                && ev.spec.request == request
                && ev.spec.step == step
                && !ev.fired.swap(true, Ordering::AcqRel)
        })
    }

    /// The scheduled kills (fired or not), for drivers that vet a plan
    /// before running it — e.g. the multi-process launcher refusing a kill
    /// aimed at its in-process rank 0 or at a request it never serves.
    pub fn kills(&self) -> Vec<KillSpec> {
        self.events.iter().map(|ev| ev.spec).collect()
    }
}

/// What one healing pass did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Ranks that were dead and came back.
    pub respawned: Vec<usize>,
    /// Wall-clock time from detection to a fully rebuilt mesh.
    pub elapsed: Duration,
}

/// Detects dead ranks on a [`PersistentWorld`] and brings them back.
pub struct Supervisor;

impl Supervisor {
    /// One healing pass: if any rank is dead, respawn it via
    /// [`PersistentWorld::respawn`] (the caller's `reinit` restores state
    /// — survivors re-wrap the fresh comm, the formerly dead rebuild from
    /// checkpoints), record the recovery on the metrics series and report
    /// it. `None` when every rank is alive.
    pub fn heal<F>(world: &mut PersistentWorld, reinit: F) -> Option<RecoveryReport>
    where
        F: Fn(RankContext<'_>, Comm, bool) + Send + Sync,
    {
        if world.dead_ranks().is_empty() {
            return None;
        }
        let start = Instant::now();
        let respawned = world.respawn(reinit);
        let elapsed = start.elapsed();
        record_recovery(&respawned, elapsed);
        Some(RecoveryReport { respawned, elapsed })
    }
}

/// Records one completed recovery on the live series: one
/// `pdeml_rank_respawns_total` increment per rank (on that rank's shard,
/// so `/metrics` shows `{rank="N"}`) and the gap duration on the
/// `pdeml_recovery_ms` histogram. Shared by [`Supervisor::heal`] and the
/// multi-process driver (which respawns OS processes instead of threads
/// but reports identically).
pub fn record_recovery(respawned: &[usize], elapsed: Duration) {
    for &rank in respawned {
        crate::live::respawns().inc(rank);
    }
    crate::live::recovery_ms().record(elapsed.as_millis() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_kill_grammar() {
        let plan = ChaosPlan::parse("kill:2:1").unwrap();
        assert_eq!(
            plan.kills(),
            vec![KillSpec {
                rank: 2,
                request: 1,
                step: 0
            }]
        );
        let plan = ChaosPlan::parse("kill:0:3:5,kill:1:4").unwrap();
        assert_eq!(plan.kills().len(), 2);
        assert_eq!(plan.kills()[0].step, 5);
    }

    #[test]
    fn parse_rejects_bad_specs_with_hints() {
        for (bad, hint) in [
            ("boom:1:2", "unknown chaos directive 'boom'"),
            ("kill:1", "kill takes kill:RANK:REQUEST"),
            ("kill:x:1", "'x' is not a rank"),
            ("kill:1:y", "'y' is not a request index"),
            ("kill:1:2:z", "'z' is not a step index"),
            ("", "empty chaos spec"),
        ] {
            let err = ChaosPlan::parse(bad).err().expect("spec must be rejected");
            assert!(err.contains(hint), "'{bad}': got '{err}', wanted '{hint}'");
        }
    }

    #[test]
    fn parse_for_rejects_out_of_range_ranks() {
        assert!(ChaosPlan::parse_for("kill:3:0", 4).is_ok());
        let err = ChaosPlan::parse_for("kill:4:0", 4)
            .err()
            .expect("rank 4 must be rejected");
        assert!(
            err.contains("rank 4 does not exist in a 4-rank world (ranks are 0..=3)"),
            "got '{err}'"
        );
    }

    #[test]
    fn should_kill_fires_exactly_once_even_via_clones() {
        let plan = ChaosPlan::parse("kill:2:1:3").unwrap();
        let clone = plan.clone();
        assert!(!plan.should_kill(2, 1, 2), "wrong step");
        assert!(!plan.should_kill(1, 1, 3), "wrong rank");
        assert!(plan.should_kill(2, 1, 3), "first match fires");
        assert!(
            !clone.should_kill(2, 1, 3),
            "clones share fired-state: the retried request must run clean"
        );
    }
}
