//! Space-wide replay digests.
//!
//! The preset goldens (`golden_replay.rs`) pin four managers; none of them
//! uses every decision-tree arm (no preset picks `A1 = address-ordered
//! list`, for one). This file pins a fixed stride sample of the whole
//! sweep space instead: every sampled configuration is replayed through
//! the compiled kernel on two fixed test-scale traces, and its full digest
//! — footprints, peaks and every charged counter — must match the
//! committed table `tests/data/golden_space.txt`, one line per
//! configuration. The sample covers all 39 arms.
//!
//! The `#[ignore]`d variant replays the *whole* space in release and
//! compares one FNV-1a hash of all its digest lines per trace:
//!
//! ```sh
//! cargo test --release --test golden_space -- --ignored full_space
//! ```
//!
//! A second ignored test checks the sweep's memoised set-up stages (bound
//! ranking, static-prune verdicts) against their direct calls over the
//! whole space on the same traces.
//!
//! Regenerate (only for an intentional behaviour change) with:
//!
//! ```sh
//! cargo test --release --test golden_space -- --ignored print_space_goldens --nocapture
//! ```

use std::collections::HashSet;

use dmm::core::analyze::{lower_bound_peak, prune_reason, rank_by_bound, PruneMemo, TraceFacts};
use dmm::core::space::enumerate::SpaceIter;
use dmm::core::space::order::TRAVERSAL_ORDER;
use dmm::core::space::trees::{Leaf, TreeId};
use dmm::core::units::MIN_BLOCK;
use dmm::netbench::DrrConfig;
use dmm::prelude::*;
use dmm::trafficgen::TrafficConfig;

/// Every `STRIDE`-th configuration of the enumeration is sampled.
const STRIDE: usize = 97;

/// The committed sample table: `trace index fingerprint digest` per line.
const TABLE: &str = include_str!("data/golden_space.txt");

/// FNV-1a 64 of every full-space digest line (newline-terminated), per
/// trace, in [`traces`] order.
const FULL_SPACE_HASHES: [(&str, u64); 2] = [
    ("drr", 0xec01_6a8f_6d9b_c041),
    ("recon", 0xd988_71a8_f275_cae3),
];

/// The two fixed traces: 15 ms of DRR case-study traffic and the
/// test-scale reconstruction.
fn recorded_traces() -> Vec<(&'static str, Trace)> {
    let drr = DrrWorkload::with_configs(
        3,
        TrafficConfig {
            duration_ms: 15,
            ..TrafficConfig::drr_case_study(3)
        },
        DrrConfig {
            quantum: 1500,
            link_rate_bps: 12_000_000,
        },
    );
    let recon = ReconWorkload::quick(1);
    [("drr", drr.record()), ("recon", recon.record())]
        .into_iter()
        .map(|(name, t)| (name, t.expect("records")))
        .collect()
}

/// [`recorded_traces`], compiled.
fn traces() -> Vec<(&'static str, CompiledTrace)> {
    recorded_traces()
        .into_iter()
        .map(|(name, t)| (name, CompiledTrace::compile(&t)))
        .collect()
}

/// The sweep space: footprint-optimised parameters with the four
/// profiled classes the exhaustive sweeps use, in traversal order.
fn space() -> SpaceIter {
    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
    SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params)
}

/// One configuration's digest: every counter a replay can influence, or
/// the error it failed with.
fn digest(compiled: &CompiledTrace, cfg: &DmConfig, scratch: &mut ReplayScratch) -> String {
    let replayed = PolicyAllocator::new(cfg.clone())
        .and_then(|mut m| replay_compiled_with(compiled, &mut m, scratch));
    match replayed {
        Ok(fs) => format!(
            "({}, {}, {}, {}, {}, {}, {}, {}, {}, {})",
            fs.peak_footprint,
            fs.final_footprint,
            fs.peak_requested,
            fs.stats.search_steps,
            fs.stats.splits,
            fs.stats.coalesces,
            fs.stats.trims,
            fs.stats.sbrk_calls,
            fs.stats.failed_fits,
            fs.stats.static_overhead
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// Digest lines of every `stride`-th configuration on every trace.
fn digest_lines(stride: usize) -> Vec<String> {
    let configs: Vec<(usize, DmConfig)> = space().enumerate().step_by(stride).collect();
    let mut scratch = ReplayScratch::new();
    let mut lines = Vec::new();
    for (name, compiled) in traces() {
        for (i, cfg) in &configs {
            let d = digest(&compiled, cfg, &mut scratch);
            lines.push(format!("{name} {i} {:016x} {d}", cfg.fingerprint()));
        }
    }
    lines
}

/// FNV-1a 64 of the digest lines of every configuration on one trace.
fn full_space_hash(compiled: &CompiledTrace, configs: &[DmConfig]) -> u64 {
    let mut scratch = ReplayScratch::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, cfg) in configs.iter().enumerate() {
        let d = digest(compiled, cfg, &mut scratch);
        let line = format!("{i} {:016x} {d}\n", cfg.fingerprint());
        for &b in line.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn sampled_space_matches_committed_digests() {
    let expected: Vec<&str> = TABLE.lines().collect();
    let computed = digest_lines(STRIDE);
    assert_eq!(computed.len(), expected.len(), "sample coverage changed");
    for (got, want) in computed.iter().zip(&expected) {
        assert_eq!(got, want, "replay diverged from the committed digest");
    }
}

#[test]
fn sample_covers_every_arm() {
    let all: HashSet<Leaf> = TreeId::ALL.iter().flat_map(|t| t.leaves()).collect();
    assert_eq!(all.len(), 39, "the decision trees changed shape");
    let covered: HashSet<Leaf> = space()
        .step_by(STRIDE)
        .flat_map(|cfg| TreeId::ALL.map(|t| cfg.leaf(t)))
        .collect();
    let missing: Vec<&Leaf> = all.difference(&covered).collect();
    assert!(missing.is_empty(), "stride {STRIDE} misses arms {missing:?}");
}

#[test]
#[ignore = "replays the whole 39,840-config space; run in release"]
fn full_space_matches_committed_hashes() {
    let configs: Vec<DmConfig> = space().collect();
    assert_eq!(configs.len(), 39_840, "sweep space size changed");
    for ((name, compiled), (want_name, want)) in traces().into_iter().zip(FULL_SPACE_HASHES) {
        assert_eq!(name, want_name);
        let h = full_space_hash(&compiled, &configs);
        assert_eq!(h, want, "{name}: full-space digest hash {h:#018x} diverged");
    }
}

#[test]
#[ignore = "ranks and lints the whole 39,840-config space; run in release"]
fn memoised_sweep_stages_match_direct_calls_over_the_space() {
    // The sweep computes bounds and static-prune verdicts once per
    // distinct input. Over the whole space, the memoised ranking must equal
    // a per-configuration `lower_bound_peak` sort on both traces, and the
    // memoised verdict must equal `prune_reason` for every configuration.
    let configs: Vec<DmConfig> = space().collect();
    for (name, trace) in recorded_traces() {
        let facts = TraceFacts::of(&trace);
        let mut direct: Vec<(usize, usize)> = configs
            .iter()
            .enumerate()
            .map(|(i, cfg)| (i, lower_bound_peak(&facts, cfg)))
            .collect();
        direct.sort_by_key(|&(i, b)| (b, i));
        assert!(
            rank_by_bound(&facts, &configs) == direct,
            "{name}: ranking diverged"
        );
    }
    let mut memo = PruneMemo::new();
    let mut pruned = 0;
    for cfg in &configs {
        let direct = prune_reason(cfg).is_some();
        assert_eq!(memo.pruned(cfg), direct, "{}", cfg.summary());
        pruned += usize::from(direct);
    }
    assert!(pruned > 0 && pruned < configs.len(), "{pruned} pruned");
    assert!(
        memo.distinct() < 200,
        "{} distinct verdict inputs",
        memo.distinct()
    );
}

#[test]
#[ignore = "run manually to regenerate the committed table and hashes"]
fn print_space_goldens() {
    for line in digest_lines(STRIDE) {
        println!("{line}");
    }
    let configs: Vec<DmConfig> = space().collect();
    for (name, compiled) in traces() {
        let h = full_space_hash(&compiled, &configs);
        println!("(\"{name}\", {h:#018x}),");
    }
}
