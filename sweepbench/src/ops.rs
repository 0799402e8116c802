//! One operation of each workload, as a user of the library runs it, plus
//! the checks of its result. Only the operation itself is timed.

use std::fs::OpenOptions;
use std::path::Path;
use std::time::Instant;

use dmm_core::methodology::cache::TraceKey;
use dmm_core::methodology::{
    exhaustive_best_with_engine, CheckpointJournal, ExplorationEngine, Methodology,
};
use dmm_core::space::DmConfig;
use dmm_core::trace::{read_trace, write_trace};

use crate::checks::{self, References};
use crate::inputs::{sweep_params, Input, WorkloadKind};

/// What every operation needs besides its input.
#[derive(Debug)]
pub struct Env {
    /// Engine worker threads (the machine's available parallelism).
    pub jobs: usize,
    /// Candidates in the swept space.
    pub enumerated: usize,
    /// Reference winners.
    pub refs: References,
    /// Seed of the run (selects reference winners).
    pub seed: u64,
}

/// The result of one operation.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    /// Wall-clock seconds of the operation.
    pub seconds: f64,
    /// Peak footprint of the returned design (simulated bytes).
    pub winner_peak: usize,
    /// Peak live requested bytes of the input trace.
    pub live_peak: usize,
    /// Failed checks and errors.
    pub failures: Vec<String>,
    /// Whether a reference winner was checked.
    pub referenced: bool,
}

/// A fresh sweep engine: projection on, serial kernel, `jobs` workers.
pub fn sweep_engine(jobs: usize) -> ExplorationEngine {
    ExplorationEngine::new(jobs).with_projection(true)
}

/// A full branch-and-bound sweep of `input`, untraced.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn sweep(
    input: &Input,
    engine: &ExplorationEngine,
) -> dmm_core::Result<(DmConfig, usize, usize)> {
    exhaustive_best_with_engine(&input.trace, sweep_params(), None, engine)
}

/// Run operation `k` of `kind` on `input`. `scratch` is a private
/// directory for the files the resume workload writes.
pub fn run(kind: WorkloadKind, env: &Env, input: &Input, k: usize, scratch: &Path) -> OpOutcome {
    let mut out = OpOutcome {
        live_peak: input.trace.peak_live_requested(),
        ..OpOutcome::default()
    };
    let result = match kind {
        WorkloadKind::SweepDrr => sweep_op(env, input, k, kind, &mut out),
        WorkloadKind::SweepResume => resume_op(env, input, k, scratch, &mut out),
        WorkloadKind::DesignGreedy => design_op(env, input, &mut out),
    };
    if let Err(e) = result {
        out.failures.push(format!("{}: {e}", input.label()));
    }
    out
}

/// Check a finished sweep: partition, classic re-replay, reference.
fn check_sweep(
    env: &Env,
    kind: WorkloadKind,
    k: usize,
    input: &Input,
    engine: &ExplorationEngine,
    (winner, peak, evaluated): (&DmConfig, usize, usize),
    out: &mut OpOutcome,
) -> Result<(), String> {
    checks::partition(&engine.counters(), env.enumerated, evaluated)?;
    checks::winner_replays(&input.trace, winner, peak, engine)?;
    let fp = TraceKey::of(&input.trace).fingerprint();
    out.referenced = env.refs.check(kind, env.seed, k, fp, winner, peak)?;
    Ok(())
}

fn sweep_op(
    env: &Env,
    input: &Input,
    k: usize,
    kind: WorkloadKind,
    out: &mut OpOutcome,
) -> Result<(), String> {
    let start = Instant::now();
    let engine = sweep_engine(env.jobs);
    let result = sweep(input, &engine);
    out.seconds = start.elapsed().as_secs_f64();
    let (winner, peak, evaluated) = result.map_err(|e| e.to_string())?;
    out.winner_peak = peak;
    check_sweep(
        env,
        kind,
        k,
        input,
        &engine,
        (&winner, peak, evaluated),
        out,
    )
}

/// Cut a journal to half its length, as a crash mid-append would.
///
/// # Errors
///
/// I/O failures.
pub fn cut_in_half(path: &Path) -> std::io::Result<u64> {
    let len = std::fs::metadata(path)?.len();
    OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(len / 2)?;
    Ok(len)
}

fn resume_op(
    env: &Env,
    input: &Input,
    k: usize,
    scratch: &Path,
    out: &mut OpOutcome,
) -> Result<(), String> {
    let trace_path = scratch.join("input.dmmt");
    let journal_path = scratch.join("sweep.journal");
    let err = |e: dmm_core::Error| e.to_string();

    let start = Instant::now();
    write_trace(&trace_path, &input.trace).map_err(err)?;
    let stored = read_trace(&trace_path).map_err(err)?;
    let fresh_engine =
        sweep_engine(env.jobs).with_journal(CheckpointJournal::create(&journal_path).map_err(err)?);
    let stored_input = Input {
        trace: stored,
        ..input.clone()
    };
    let fresh = sweep(&stored_input, &fresh_engine).map_err(err)?;
    let fresh_counters = fresh_engine.counters();
    drop(fresh_engine);
    cut_in_half(&journal_path).map_err(|e| format!("cannot cut the journal: {e}"))?;
    let resumed_engine =
        sweep_engine(env.jobs).with_journal(CheckpointJournal::resume(&journal_path).map_err(err)?);
    let resumed = sweep(&stored_input, &resumed_engine).map_err(err)?;
    out.seconds = start.elapsed().as_secs_f64();

    out.winner_peak = fresh.1;
    if stored_input.trace != input.trace {
        return Err("the stored trace reads back different".into());
    }
    checks::partition(&fresh_counters, env.enumerated, fresh.2)?;
    if (&resumed.0, resumed.1) != (&fresh.0, fresh.1) {
        return Err(format!(
            "resumed winner {:016x}/{} B differs from the fresh sweep's {:016x}/{} B",
            resumed.0.fingerprint(),
            resumed.1,
            fresh.0.fingerprint(),
            fresh.1
        ));
    }
    check_sweep(
        env,
        WorkloadKind::SweepResume,
        k,
        input,
        &resumed_engine,
        (&resumed.0, resumed.1, resumed.2),
        out,
    )
}

fn design_op(env: &Env, input: &Input, out: &mut OpOutcome) -> Result<(), String> {
    let start = Instant::now();
    let engine = ExplorationEngine::new(env.jobs);
    let outcome = Methodology::new()
        .with_jobs(env.jobs)
        .explore_with_engine(&input.trace, &engine);
    out.seconds = start.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| e.to_string())?;
    out.winner_peak = outcome.footprint.peak_footprint;
    checks::greedy_design(&input.trace, &outcome)
}
