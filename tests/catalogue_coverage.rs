//! Catalogue coverage: every diagnostic code ships with a fixture.
//!
//! The `DM0xx`/`TR0xx`/`BD0xx` codes are stable API — `dmm lint --explain`
//! documents them and CI gates on them — so a code nothing can produce is
//! either dead or its trigger regressed silently. This test keeps a
//! fixture per code (a deliberately-miswired configuration, a malformed
//! event stream, or a (trace, config) pair for the bound advisories) and
//! asserts two directions:
//!
//! - every fixture produces the exact codes it claims to produce;
//! - the union of produced codes covers the whole catalogue, so adding a
//!   catalogue entry without a fixture fails here.

use std::collections::BTreeSet;

use dmm::core::analyze::{
    catalogue, lint_bounds, lint_config, lint_events, lint_exploration, ResilienceReport,
    TraceFacts,
};
use dmm::core::error::Error;
use dmm::core::fault::{flip_bit, truncate_at, FaultPlan};
use dmm::core::methodology::{
    cache::TraceKey, ExplorationEngine, ShardFailurePolicy,
};
use dmm::core::trace::{decode_trace, encode_trace, read_trace, TraceEvent};
use dmm::core::units::MIN_BLOCK;
use dmm::prelude::*;

use dmm::core::space::trees::{
    BlockSizes, BlockTags, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm, FlexibleSize, Leaf,
    PoolDivision, PoolStructure, RecordedInfo, SplitMinSizes, SplitWhen,
};

/// Configuration fixtures: each produces at least the listed codes
/// through [`lint_config`].
fn config_fixtures() -> Vec<(Vec<&'static str>, DmConfig)> {
    let mut dm012 = presets::kingsley_like();
    dm012.block_sizes = BlockSizes::ProfiledClasses;
    dm012.params.profiled_classes = vec![64, 32]; // not ascending

    let mut unreachable = presets::drr_paper()
        .with_leaf(Leaf::E2(SplitWhen::Threshold))
        .with_leaf(Leaf::E1(SplitMinSizes::Floored))
        .with_leaf(Leaf::D1(CoalesceMaxSizes::Capped));
    unreachable.params.split_threshold = MIN_BLOCK; // <= min remainder
    unreachable.params.split_floor = MIN_BLOCK; // <= MIN_BLOCK
    unreachable.params.coalesce_cap = 1 << 30;
    unreachable.params.arena_limit = Some(1 << 20); // cap >= limit

    let mut toothless_cap = presets::drr_paper().with_leaf(Leaf::D1(CoalesceMaxSizes::Capped));
    toothless_cap.params.coalesce_cap = MIN_BLOCK; // below the smallest merge

    vec![
        // Hard interdependency rules (error). Each fixture miswires
        // exactly the trees its rule names.
        (vec!["DM001"], presets::neutral().with_leaf(Leaf::A3(BlockTags::None))),
        (
            vec!["DM002", "DM003"],
            presets::neutral().with_leaf(Leaf::A4(RecordedInfo::None)),
        ),
        (
            vec!["DM004", "DM008"],
            presets::kingsley_like().with_leaf(Leaf::D2(CoalesceWhen::Always)),
        ),
        (vec!["DM005"], presets::neutral().with_leaf(Leaf::D2(CoalesceWhen::Never))),
        (vec!["DM006"], presets::kingsley_like().with_leaf(Leaf::E2(SplitWhen::Always))),
        (vec!["DM007"], presets::neutral().with_leaf(Leaf::E2(SplitWhen::Never))),
        (vec!["DM009"], presets::neutral().with_leaf(Leaf::B4(PoolStructure::LinkedList))),
        (
            vec!["DM010"],
            presets::kingsley_like().with_leaf(Leaf::D1(CoalesceMaxSizes::Capped)),
        ),
        (
            vec!["DM011"],
            presets::kingsley_like().with_leaf(Leaf::E1(SplitMinSizes::Floored)),
        ),
        // Parameter validation (error).
        (vec!["DM012"], dm012),
        // Soft-arrow advisories (note).
        (
            vec!["DM020", "DM022"],
            presets::kingsley_like().with_leaf(Leaf::C1(FitAlgorithm::BestFit)),
        ),
        (vec!["DM021"], presets::kingsley_like().with_leaf(Leaf::B1(PoolDivision::SinglePool))),
        // drr: exact fit over a DLL (DM022) and immediate coalescing with
        // a header-only tag and no prev-size (DM023).
        (vec!["DM022", "DM023"], presets::drr_paper()),
        // lea: deferred sweeps over a size-ordered tree (DM024) plus
        // split+coalesce machinery on per-class pools (DM025, DM026).
        (vec!["DM024", "DM025", "DM026"], presets::lea_like()),
        // Dominance / redundancy (warn).
        (
            vec!["DM030", "DM031"],
            presets::kingsley_like()
                .with_leaf(Leaf::A3(BlockTags::Footer))
                .with_leaf(Leaf::A4(RecordedInfo::SizeAndStatus)),
        ),
        (
            vec!["DM032"],
            presets::kingsley_like().with_leaf(Leaf::A4(RecordedInfo::SizeStatusPrevSize)),
        ),
        (vec!["DM033", "DM034", "DM035"], unreachable),
        (
            vec!["DM036"],
            presets::kingsley_like().with_leaf(Leaf::A3(BlockTags::HeaderAndFooter)),
        ),
        (vec!["DM037"], toothless_cap),
        (
            vec!["DM038"],
            presets::neutral()
                .with_leaf(Leaf::A5(FlexibleSize::None))
                .with_leaf(Leaf::E2(SplitWhen::Never))
                .with_leaf(Leaf::D2(CoalesceWhen::Never)),
        ),
    ]
}

/// Event-stream fixtures for the trace sanitizer codes.
fn trace_fixtures() -> Vec<(Vec<&'static str>, Vec<TraceEvent>)> {
    let leak = {
        let mut b = Trace::builder();
        let _held = b.alloc(100);
        let ok = b.alloc(50);
        b.free(ok);
        b.finish().unwrap().events().to_vec()
    };
    let uncuttable = {
        // One object spans the whole (long) trace: every cut carries it.
        let mut b = Trace::builder();
        let long = b.alloc(1000);
        for i in 0..40 {
            let id = b.alloc(32 + i);
            b.free(id);
        }
        b.free(long);
        b.finish().unwrap().events().to_vec()
    };
    vec![
        (
            vec!["TR001"],
            vec![
                TraceEvent::Alloc { id: 1, size: 64 },
                TraceEvent::Free { id: 1 },
                TraceEvent::Free { id: 1 },
            ],
        ),
        (vec!["TR002"], vec![TraceEvent::Free { id: 9 }]),
        (vec!["TR003"], vec![TraceEvent::Alloc { id: 1, size: 0 }]),
        (
            vec!["TR004"],
            vec![
                TraceEvent::Alloc { id: 1, size: 64 },
                TraceEvent::Alloc { id: 1, size: 32 },
                TraceEvent::Free { id: 1 },
            ],
        ),
        (vec!["TR005"], leak),
        (vec!["TR006"], vec![TraceEvent::Phase { phase: 0 }]),
        (vec!["TR007"], uncuttable),
    ]
}

/// (trace, config) fixtures for the footprint-bound advisories.
fn bounds_fixtures() -> Vec<(Vec<&'static str>, Trace, DmConfig)> {
    let small = {
        let mut b = Trace::builder();
        let id = b.alloc(8);
        b.free(id);
        b.finish().unwrap()
    };
    let misgridded = {
        // Sizes just above a power of two round up ~2x on pow2 classes.
        let mut b = Trace::builder();
        let ids: Vec<u64> = (0..32).map(|_| b.alloc(65)).collect();
        for id in ids {
            b.free(id);
        }
        b.finish().unwrap()
    };
    let tiny_objects = {
        // Many simultaneously-live 8-byte objects: tag bytes dominate.
        let mut b = Trace::builder();
        let ids: Vec<u64> = (0..100).map(|_| b.alloc(8)).collect();
        for id in ids {
            b.free(id);
        }
        b.finish().unwrap()
    };
    vec![
        // BD001 is unconditional; BD003 fires because one tiny alloc
        // never reaches the fixed-class sbrk granule.
        (vec!["BD001", "BD003"], small.clone(), presets::kingsley_like()),
        (vec!["BD001", "BD002"], misgridded, presets::kingsley_like()),
        (vec!["BD001", "BD004"], tiny_objects, presets::drr_paper()),
        (vec!["BD001"], small, presets::drr_paper()),
    ]
}

/// Durable-store fixtures: each corruption produces its `TR01x` code as a
/// structured [`Error::TraceStore`].
fn store_fixtures() -> Vec<(&'static str, Error)> {
    let trace = {
        let mut b = Trace::builder();
        for i in 0..50 {
            let id = b.alloc(24 + i);
            b.free(id);
        }
        b.finish().unwrap()
    };
    let bytes = encode_trace(&trace);
    vec![
        ("TR010", decode_trace(b"JUNKJUNKJUNK").unwrap_err()),
        (
            "TR011",
            decode_trace(&truncate_at(&bytes, bytes.len() - 5)).unwrap_err(),
        ),
        // Flip one payload bit well past the headers: checksum mismatch.
        (
            "TR012",
            decode_trace(&flip_bit(&bytes, (bytes.len() - 3) * 8)).unwrap_err(),
        ),
        (
            "TR013",
            read_trace(std::path::Path::new("/nonexistent/dir/x.dmmt")).unwrap_err(),
        ),
    ]
}

/// Exploration-resilience fixtures: inject every fault kind through a
/// [`FaultPlan`], then lint the surviving run's telemetry — each `EX0xx`
/// code must fire from a genuinely recovered fault, not a hand-built
/// report.
fn exploration_fixture_codes() -> BTreeSet<String> {
    let trace = {
        let mut b = Trace::builder();
        for w in 0..3 {
            let ids: Vec<u64> = (0..30).map(|i| b.alloc(24 + w * 13 + i)).collect();
            for id in ids {
                b.free(id);
            }
        }
        b.finish().unwrap()
    };
    // EX001 + EX002: quarantine one panicking candidate and one
    // budget-exhausted candidate inside a sweep evaluation.
    let victims: Vec<DmConfig> = vec![presets::drr_paper(), presets::lea_like()];
    let engine = ExplorationEngine::serial()
        .with_quarantine(true)
        .with_fault_plan(
            FaultPlan::new()
                .panic_candidate(victims[0].fingerprint())
                .exhaust_candidate(victims[1].fingerprint()),
        );
    let key = TraceKey::of(&trace);
    for cfg in &victims {
        let skipped = engine.evaluate_bounded(&trace, key, cfg, 0, 0, None).unwrap();
        assert!(skipped.is_none(), "faulted candidate must be skipped");
    }
    let mut report = ResilienceReport::from_counters(&engine.counters());
    // EX003 + EX004: one transient shard death (retried) and one fatal
    // shard (dropped under Degrade).
    let engine = ExplorationEngine::serial().with_fault_plan(
        FaultPlan::new()
            .kill_shard_transiently(0, 1)
            .kill_shard(1),
    );
    let sharded = Methodology::new()
        .with_shard_failure_policy(ShardFailurePolicy::Degrade)
        .explore_sharded_with_engine(&trace, 3, &engine)
        .unwrap();
    report = report.with_shards(
        sharded.shard_retries,
        sharded.failed_shards.len(),
        sharded.confidence,
    );
    lint_exploration(&report).into_iter().map(|d| d.code).collect()
}

#[test]
fn every_catalogue_code_has_a_producing_fixture() {
    let mut produced: BTreeSet<String> = BTreeSet::new();
    let mut claimed: BTreeSet<&'static str> = BTreeSet::new();

    for (expect, cfg) in config_fixtures() {
        let codes: BTreeSet<String> =
            lint_config(&cfg).into_iter().map(|d| d.code).collect();
        for want in &expect {
            assert!(
                codes.contains(*want),
                "config fixture for {want} produced {codes:?} instead ({})",
                cfg.summary()
            );
            claimed.insert(want);
        }
        produced.extend(codes);
    }
    for (expect, events) in trace_fixtures() {
        let codes: BTreeSet<String> =
            lint_events(&events).into_iter().map(|d| d.code).collect();
        for want in &expect {
            assert!(
                codes.contains(*want),
                "trace fixture for {want} produced {codes:?} instead"
            );
            claimed.insert(want);
        }
        produced.extend(codes);
    }
    for (expect, trace, cfg) in bounds_fixtures() {
        let facts = TraceFacts::of(&trace);
        let codes: BTreeSet<String> =
            lint_bounds(&facts, &cfg).into_iter().map(|d| d.code).collect();
        for want in &expect {
            assert!(
                codes.contains(*want),
                "bounds fixture for {want} produced {codes:?} instead ({})",
                cfg.summary()
            );
            claimed.insert(want);
        }
        produced.extend(codes);
    }
    for (want, err) in store_fixtures() {
        let Error::TraceStore { code, .. } = &err else {
            panic!("store fixture for {want} produced {err} instead");
        };
        assert_eq!(code, want, "store fixture corruption mapped to the wrong code");
        claimed.insert(want);
        produced.insert(code.clone());
    }
    {
        let codes = exploration_fixture_codes();
        for want in ["EX001", "EX002", "EX003", "EX004"] {
            assert!(
                codes.contains(want),
                "exploration fixture for {want} produced {codes:?} instead"
            );
            claimed.insert(want);
        }
        produced.extend(codes);
    }

    // Coverage in both directions: nothing in the catalogue without a
    // fixture that *claims* it, and nothing produced that the catalogue
    // does not document.
    let documented: BTreeSet<String> =
        catalogue().iter().map(|e| e.code.to_string()).collect();
    for code in &documented {
        assert!(
            claimed.contains(code.as_str()),
            "catalogue code {code} has no fixture claiming it"
        );
    }
    for code in &produced {
        assert!(
            documented.contains(code),
            "fixtures produced undocumented code {code}"
        );
    }
}
