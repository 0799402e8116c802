//! `sweepbench`: the repository's benchmark of DM-manager design.
//!
//! ```text
//! sweepbench --workload <sweep_drr|sweep_resume|design_greedy> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the timed closed loop and reports the end-to-end
//! metrics; `--trace 1` runs the traced census and reports the per-layer
//! metrics. Every operation's result is checked; the last line of standard
//! output is one JSON object, and the exit code is non-zero when any check
//! failed. See README.md beside this file.

pub mod args;
pub mod census;
pub mod checks;
pub mod inputs;
pub mod ops;
pub mod report;
pub mod stats;
pub mod traced;

use std::path::{Path, PathBuf};
use std::time::Instant;

use dmm_core::space::enumerate::SpaceIter;
use dmm_core::space::order::TRAVERSAL_ORDER;

use crate::args::Args;
use crate::checks::References;
use crate::inputs::{sweep_params, Pool, WorkloadKind};
use crate::ops::Env;
use crate::report::Report;

/// Set-ups per timed run, at least and at most; `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (3, 9);
/// Further set-ups start only while the set-ups so far took less than this.
const SETUP_BUDGET_S: f64 = 3.0;

/// Operations the quality metrics are taken over: the first ones of every
/// run, so they repeat exactly per seed.
const QUALITY_OPS: usize = 100;

/// A timed run stops starting operations after this long, so that it
/// exits well inside three minutes even on a much slower tree.
const HARD_CAP_S: f64 = 150.0;

/// Files a run writes live under the directory it is started in.
pub const SCRATCH_DIR: &str = ".sweepbench-tmp";
/// Span dumps of traced runs.
pub const OUT_DIR: &str = "sweepbench-out";

/// A private directory under [`SCRATCH_DIR`], removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Create this process's scratch directory.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn create() -> std::io::Result<Scratch> {
        let dir = Path::new(SCRATCH_DIR).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

/// Candidates in the swept space.
fn enumerate_space() -> usize {
    SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), sweep_params()).count()
}

/// Engine worker threads: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Record the pool and enumerate the space, [`SETUP_REPS`] times: cheap
/// set-ups are repeated more often, so their median is not a cold start.
fn setup(kind: WorkloadKind, seed: u64) -> Result<(Pool, usize, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS.0
        || (times.len() < SETUP_REPS.1 && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let pool = Pool::record(kind, seed).map_err(|e| format!("recording inputs: {e}"))?;
        let enumerated = if kind.sweeps() { enumerate_space() } else { 0 };
        times.push(start.elapsed().as_secs_f64());
        last = Some((pool, enumerated));
    }
    let (pool, enumerated) = last.expect("at least one set-up ran");
    Ok((pool, enumerated, times))
}

/// Run the timed closed loop of `args.workload`.
///
/// # Errors
///
/// Set-up failures; failed checks are booked in the report instead.
pub fn timed_run(args: &Args, scratch: &Path) -> Result<Report, String> {
    let kind = args.workload;
    let (pool, enumerated, setup_times) = setup(kind, args.seed)?;
    let env = Env {
        jobs: nproc(),
        enumerated,
        refs: References::embedded()?,
        seed: args.seed,
    };
    let start = Instant::now();
    let mut outcomes = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = outcomes.len() >= kind.min_ops() && elapsed >= args.seconds;
        if done || (!outcomes.is_empty() && elapsed >= HARD_CAP_S) {
            break;
        }
        let k = outcomes.len();
        outcomes.push(ops::run(kind, &env, pool.get(k), k, scratch));
    }
    Ok(report::timed(
        args,
        &env,
        &pool,
        &setup_times,
        &outcomes,
        QUALITY_OPS,
    ))
}
