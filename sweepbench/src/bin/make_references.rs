//! Regenerate `references.txt`: the reference winner of the first
//! `REFERENCE_OPS` sweeps of each sweep workload for every default seed,
//! from the unpruned classic-interpreter fold `methodology::exhaustive_best`
//! (no bounds, lints, projection or compiled kernel).
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml --bin make_references > sweepbench/references.txt
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dmm_core::methodology::cache::TraceKey;
use dmm_core::methodology::exhaustive_best;
use sweepbench::checks::{DEFAULT_SEEDS, REFERENCE_OPS};
use sweepbench::inputs::{sweep_params, Pool, WorkloadKind};

fn main() -> Result<(), String> {
    let mut jobs = Vec::new();
    for kind in [WorkloadKind::SweepDrr, WorkloadKind::SweepResume] {
        for seed in DEFAULT_SEEDS {
            let pool = Pool::record(kind, seed).map_err(|e| e.to_string())?;
            for k in 0..REFERENCE_OPS {
                jobs.push((kind, seed, k, pool.get(k).clone()));
            }
        }
    }
    let next = AtomicUsize::new(0);
    let lines = Mutex::new(vec![String::new(); jobs.len()]);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((kind, seed, k, input)) = jobs.get(i) else {
                            return Ok(());
                        };
                        let (cfg, peak, _) = exhaustive_best(&input.trace, sweep_params(), None)
                            .map_err(|e| format!("{} {seed} {k}: {e}", kind.name()))?;
                        let line = format!(
                            "{} {seed} {k} {:016x} {:016x} {peak}",
                            kind.name(),
                            TraceKey::of(&input.trace).fingerprint(),
                            cfg.fingerprint()
                        );
                        eprintln!("{line}");
                        lines.lock().expect("no worker panics holding the lock")[i] = line;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "a worker panicked".to_string())?)
    })?;
    println!("# Reference winners: <workload> <seed> <op> <trace fp> <winner fp> <peak B>.");
    println!("# Generated by src/bin/make_references.rs from methodology::exhaustive_best.");
    for line in lines.into_inner().expect("workers joined") {
        println!("{line}");
    }
    Ok(())
}
