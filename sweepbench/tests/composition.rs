//! The traced sweep, composed from public calls, must be the same program
//! as the black-box `exhaustive_best_with_engine`: same winner, same
//! evaluated count, same engine counters, at one job and at nproc jobs.

use dmm_core::trace::Trace;
use sweepbench::inputs::{sweep_params, Input, Scale, Study};
use sweepbench::ops::{sweep, sweep_engine};
use sweepbench::traced::{composed_sweep, SweepCensus, Tracer};

fn small_trace() -> Trace {
    // Interleaved lifetimes of mixed sizes: enough fragmentation that the
    // bound, lint and projection tiers all fire.
    let mut b = Trace::builder();
    let mut live = Vec::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..40 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if live.is_empty() || !x.is_multiple_of(3) {
            live.push(b.alloc(16 + (x % 700) as usize));
        } else {
            let i = (x as usize / 7) % live.len();
            b.free(live.swap_remove(i));
        }
    }
    for id in live {
        b.free(id);
    }
    b.finish().expect("balanced trace")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "sweeps 39,840 candidates twice per job count; run with --release"
)]
fn composed_sweep_reproduces_the_black_box_sweep() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let input = Input {
        study: Study::Drr,
        study_seed: 0,
        trace: small_trace(),
    };
    for jobs in [1, nproc] {
        let bb_engine = sweep_engine(jobs);
        let (winner, peak, evaluated) = sweep(&input, &bb_engine).unwrap();
        let engine = sweep_engine(jobs);
        let mut census = SweepCensus::default();
        let composed =
            composed_sweep(&input.trace, &engine, &mut Tracer::new(), &mut census).unwrap();
        assert_eq!(composed, (winner, peak, evaluated), "jobs = {jobs}");
        let c = engine.counters();
        assert_eq!(c, bb_engine.counters(), "jobs = {jobs}");
        // The census classified every candidate exactly once.
        assert_eq!(
            census.statically_pruned
                + census.bound_pruned
                + census.projection_hits
                + census.cache_hits
                + census.replays,
            census.candidates
        );
        assert_eq!(census.replays, c.replays);
        assert!(census.statically_pruned > 0 && census.bound_pruned > 0 && census.replays > 0);
        assert_eq!(census.candidates, sweep_params_count());
    }
}

fn sweep_params_count() -> usize {
    dmm_core::space::enumerate::SpaceIter::with_order_and_params(
        dmm_core::space::order::TRAVERSAL_ORDER.to_vec(),
        sweep_params(),
    )
    .count()
}

#[test]
fn recorded_inputs_are_deterministic_per_seed() {
    for (study, scale) in [(Study::Drr, Scale::Quick), (Study::Render, Scale::Quick)] {
        let a = Input::record(study, scale, 9).unwrap();
        let b = Input::record(study, scale, 9).unwrap();
        assert_eq!(a.trace, b.trace);
        assert!(!a.trace.is_empty());
    }
}
