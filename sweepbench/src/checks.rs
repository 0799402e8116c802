//! Correctness checks run on every operation's result. A failed check
//! marks the operation failed; any failed operation makes the command
//! exit non-zero.

use std::collections::HashMap;

use dmm_core::manager::PolicyAllocator;
use dmm_core::methodology::{EngineCounters, ExplorationEngine, ExplorationOutcome};
use dmm_core::metrics::FootprintStats;
use dmm_core::space::DmConfig;
use dmm_core::trace::{replay, Trace};

use crate::inputs::WorkloadKind;

/// Reference winners, one line per checked sweep:
/// `<workload> <seed> <op> <trace fingerprint> <winner fingerprint> <peak>`.
/// Written by the `make_references` binary from the unpruned
/// classic-interpreter fold `methodology::exhaustive_best`.
const REFERENCES: &str = include_str!("../references.txt");

/// Seeds with reference winners.
pub const DEFAULT_SEEDS: std::ops::Range<u64> = 0..10;

/// Operations per default seed with a reference winner.
pub const REFERENCE_OPS: usize = 3;

/// Reference winners keyed by `(workload, seed, op index)`.
#[derive(Debug, Default)]
pub struct References {
    map: HashMap<(String, u64, usize), Reference>,
}

/// One reference winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Fingerprint of the trace the reference was computed on.
    pub trace_fp: u64,
    /// Fingerprint of the winning configuration.
    pub winner_fp: u64,
    /// The winner's peak footprint.
    pub peak: usize,
}

impl References {
    /// The references compiled into the binary.
    ///
    /// # Errors
    ///
    /// A message naming the malformed line.
    pub fn embedded() -> Result<References, String> {
        References::parse(REFERENCES)
    }

    /// Parse the reference format; `#` starts a comment line.
    ///
    /// # Errors
    ///
    /// A message naming the malformed line.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("references.txt line {}: malformed '{line}'", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 6 {
                return Err(bad());
            }
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            let key = (
                f[0].to_string(),
                f[1].parse().map_err(|_| bad())?,
                f[2].parse().map_err(|_| bad())?,
            );
            let reference = Reference {
                trace_fp: hex(f[3])?,
                winner_fp: hex(f[4])?,
                peak: f[5].parse().map_err(|_| bad())?,
            };
            if map.insert(key, reference).is_some() {
                return Err(format!("references.txt line {}: duplicate entry", n + 1));
            }
        }
        Ok(References { map })
    }

    /// Entries loaded.
    pub fn entries(&self) -> usize {
        self.map.len()
    }

    /// The reference for op `k` of `kind` at `seed`, if one is kept.
    pub fn get(&self, kind: WorkloadKind, seed: u64, k: usize) -> Option<Reference> {
        self.map.get(&(kind.name().to_string(), seed, k)).copied()
    }

    /// Check a sweep winner against its reference, if one is kept.
    /// Returns whether a reference applied.
    ///
    /// # Errors
    ///
    /// A message describing the mismatch.
    pub fn check(
        &self,
        kind: WorkloadKind,
        seed: u64,
        k: usize,
        trace_fp: u64,
        winner: &DmConfig,
        peak: usize,
    ) -> Result<bool, String> {
        let Some(r) = self.get(kind, seed, k) else {
            return Ok(false);
        };
        if r.trace_fp != trace_fp {
            return Err(format!(
                "reference trace {:016x} but this run recorded {trace_fp:016x}: the inputs \
                 changed, regenerate references.txt",
                r.trace_fp
            ));
        }
        if (r.winner_fp, r.peak) != (winner.fingerprint(), peak) {
            return Err(format!(
                "winner {:016x}/{peak} B differs from the reference {:016x}/{} B",
                winner.fingerprint(),
                r.winner_fp,
                r.peak
            ));
        }
        Ok(true)
    }
}

/// The engine partition invariant of one sweep on a fresh engine:
/// every enumerated candidate is evaluated, served by projection, pruned,
/// quarantined or over budget — exactly once.
///
/// # Errors
///
/// A message with the unbalanced counters.
pub fn partition(c: &EngineCounters, enumerated: usize, evaluated: usize) -> Result<(), String> {
    let decided = c.evaluations
        + c.projection_hits
        + c.statically_pruned
        + c.bound_pruned
        + c.quarantined
        + c.budget_exceeded;
    if decided != enumerated || evaluated != c.evaluations + c.projection_hits {
        return Err(format!(
            "partition broken: {c} decide {decided} of {enumerated} candidates, sweep \
             reported {evaluated} evaluated"
        ));
    }
    if c.quarantined + c.budget_exceeded > 0 {
        return Err(format!("{c}: candidates failed"));
    }
    Ok(())
}

/// Re-replay a sweep winner through the classic interpreter: its
/// statistics must equal the engine's and its peak the one the sweep
/// returned.
///
/// # Errors
///
/// A message describing the mismatch.
pub fn winner_replays(
    trace: &Trace,
    winner: &DmConfig,
    peak: usize,
    engine: &ExplorationEngine,
) -> Result<(), String> {
    let classic = classic_replay(trace, winner)?;
    let engine_stats = engine
        .evaluate_config(trace, winner)
        .map_err(|e| format!("engine re-evaluation of the winner failed: {e}"))?
        .stats;
    if classic != engine_stats || classic.peak_footprint != peak {
        return Err(format!(
            "winner {:016x}: sweep peak {peak} B; classic replay and engine differ in {}",
            winner.fingerprint(),
            differing_fields(&classic, &engine_stats)
        ));
    }
    Ok(())
}

/// A greedy design must validate and its footprint must equal a classic
/// replay of the designed configuration.
///
/// # Errors
///
/// A message describing the failure.
pub fn greedy_design(trace: &Trace, outcome: &ExplorationOutcome) -> Result<(), String> {
    outcome
        .config
        .validate()
        .map_err(|e| format!("designed config does not validate: {e}"))?;
    let classic = classic_replay(trace, &outcome.config)?;
    if classic != outcome.footprint {
        return Err(format!(
            "design {:016x}: classic replay and the design's footprint differ in {}",
            outcome.config.fingerprint(),
            differing_fields(&classic, &outcome.footprint)
        ));
    }
    Ok(())
}

/// Names of the `FootprintStats` fields on which `a` and `b` differ.
fn differing_fields(a: &FootprintStats, b: &FootprintStats) -> String {
    let fields = [
        ("manager", a.manager != b.manager),
        ("peak_footprint", a.peak_footprint != b.peak_footprint),
        ("final_footprint", a.final_footprint != b.final_footprint),
        ("peak_requested", a.peak_requested != b.peak_requested),
        ("events", a.events != b.events),
        ("stats", a.stats != b.stats),
        ("series", a.series != b.series),
    ];
    let names: Vec<&str> = fields.iter().filter(|f| f.1).map(|f| f.0).collect();
    if names.is_empty() {
        "nothing (the sweep's peak is off)".into()
    } else {
        names.join(", ")
    }
}

fn classic_replay(trace: &Trace, cfg: &DmConfig) -> Result<FootprintStats, String> {
    let mut mgr = PolicyAllocator::new(cfg.clone())
        .map_err(|e| format!("winner {:016x} does not construct: {e}", cfg.fingerprint()))?;
    replay(trace, &mut mgr).map_err(|e| format!("classic replay failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_format_round_trips_and_rejects_garbage() {
        let r = References::parse("# c\nsweep_drr 3 1 00000000000000ff 0000000000000abc 4096\n")
            .unwrap();
        let got = r.get(WorkloadKind::SweepDrr, 3, 1).unwrap();
        assert_eq!((got.trace_fp, got.winner_fp, got.peak), (0xff, 0xabc, 4096));
        assert!(r.get(WorkloadKind::SweepDrr, 3, 2).is_none());
        assert!(References::parse("sweep_drr 3 1 zz 0 1\n").is_err());
        assert!(References::parse("sweep_drr 3 1 1 2\n").is_err());
        assert!(References::parse("a 1 1 1 1 1\na 1 1 1 1 1\n").is_err());
    }

    #[test]
    fn embedded_references_cover_every_default_seed() {
        let r = References::embedded().unwrap();
        for kind in [WorkloadKind::SweepDrr, WorkloadKind::SweepResume] {
            for seed in DEFAULT_SEEDS {
                for k in 0..REFERENCE_OPS {
                    assert!(r.get(kind, seed, k).is_some(), "{} {seed} {k}", kind.name());
                }
            }
        }
    }

    #[test]
    fn partition_detects_an_unbalanced_ledger() {
        let c = EngineCounters {
            evaluations: 5,
            replays: 4,
            cache_hits: 1,
            projection_hits: 2,
            statically_pruned: 3,
            bound_pruned: 10,
            ..EngineCounters::default()
        };
        assert!(partition(&c, 20, 7).is_ok());
        assert!(partition(&c, 21, 7).is_err());
        assert!(partition(&c, 20, 6).is_err());
    }
}
