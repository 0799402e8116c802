//! Interdependencies between the orthogonal trees (Figures 2 and 3).
//!
//! The trees are orthogonal — any leaf combines with any leaf into a
//! *potentially* valid manager — but certain leaves **disable** coherent
//! choices elsewhere (full arrows in Figure 2) or merely **influence** them
//! (dotted arrows). Hard rules are enforced by [`admissible_leaves`] /
//! [`validate_complete`]; soft rules are descriptive and drive the
//! preference order of [`default_leaf`].
//!
//! The canonical example (Figure 3): choosing the *none* leaf in the
//! *Block tags* tree (A3) prohibits the whole *Block recorded info* tree
//! (A4), because no space is reserved to store any information — and
//! transitively disables splitting and coalescing.

use std::fmt;

use crate::error::{Error, Result};
use crate::space::config::PartialConfig;
use crate::space::trees::{
    BlockSizes, BlockStructure, BlockTags, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm,
    FlexibleSize, Leaf, PoolDivision, PoolStructure, RecordedInfo, SplitMinSizes, SplitWhen,
    TreeId,
};

/// Tri-state outcome of checking one rule against a partial configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// The rule holds for every completion of the partial configuration.
    Satisfied,
    /// The rule is already broken; no completion can fix it.
    Violated,
    /// Not enough trees are decided to tell.
    Undetermined,
}

/// Strength of an interdependency arrow in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrowKind {
    /// Full arrow: the source leaf disables leaves of the target tree.
    Hard,
    /// Dotted arrow: linked purposes; influences but does not forbid.
    Soft,
}

/// One hard interdependency rule.
pub struct Rule {
    /// Stable identifier, used in error messages and tests.
    pub id: &'static str,
    /// Stable diagnostic code (`DM0xx`) under which [`crate::analyze`]
    /// re-surfaces this rule. One rule, one code — the lint engine reads
    /// this table instead of encoding the rules a second time.
    pub code: &'static str,
    /// Trees mentioned by the rule (source first).
    pub trees: &'static [TreeId],
    /// Prose description (printed by the Figure 2/3 regenerators).
    pub description: &'static str,
    check: fn(&PartialConfig) -> RuleStatus,
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("id", &self.id)
            .field("trees", &self.trees)
            .finish_non_exhaustive()
    }
}

impl Rule {
    /// Evaluate the rule against a partial configuration.
    pub fn check(&self, partial: &PartialConfig) -> RuleStatus {
        (self.check)(partial)
    }
}

/// Helper: logical implication over optionally-decided facts.
///
/// `None` premise/conclusion means the relevant tree is still open.
fn implies(premise: Option<bool>, conclusion: Option<bool>) -> RuleStatus {
    match premise {
        None => RuleStatus::Undetermined,
        Some(false) => RuleStatus::Satisfied,
        Some(true) => match conclusion {
            None => RuleStatus::Undetermined,
            Some(true) => RuleStatus::Satisfied,
            Some(false) => RuleStatus::Violated,
        },
    }
}

fn a3(p: &PartialConfig) -> Option<BlockTags> {
    match p.get(TreeId::A3BlockTags) {
        Some(Leaf::A3(l)) => Some(l),
        _ => None,
    }
}
fn a4(p: &PartialConfig) -> Option<RecordedInfo> {
    match p.get(TreeId::A4RecordedInfo) {
        Some(Leaf::A4(l)) => Some(l),
        _ => None,
    }
}
fn a5(p: &PartialConfig) -> Option<FlexibleSize> {
    match p.get(TreeId::A5FlexibleSize) {
        Some(Leaf::A5(l)) => Some(l),
        _ => None,
    }
}
fn b1(p: &PartialConfig) -> Option<PoolDivision> {
    match p.get(TreeId::B1PoolDivision) {
        Some(Leaf::B1(l)) => Some(l),
        _ => None,
    }
}
fn b4(p: &PartialConfig) -> Option<PoolStructure> {
    match p.get(TreeId::B4PoolStructure) {
        Some(Leaf::B4(l)) => Some(l),
        _ => None,
    }
}
fn d1(p: &PartialConfig) -> Option<CoalesceMaxSizes> {
    match p.get(TreeId::D1CoalesceMaxSizes) {
        Some(Leaf::D1(l)) => Some(l),
        _ => None,
    }
}
fn d2(p: &PartialConfig) -> Option<CoalesceWhen> {
    match p.get(TreeId::D2CoalesceWhen) {
        Some(Leaf::D2(l)) => Some(l),
        _ => None,
    }
}
fn e1(p: &PartialConfig) -> Option<SplitMinSizes> {
    match p.get(TreeId::E1SplitMinSizes) {
        Some(Leaf::E1(l)) => Some(l),
        _ => None,
    }
}
fn e2(p: &PartialConfig) -> Option<SplitWhen> {
    match p.get(TreeId::E2SplitWhen) {
        Some(Leaf::E2(l)) => Some(l),
        _ => None,
    }
}

/// All hard interdependency rules of the search space.
pub const RULES: &[Rule] = &[
    Rule {
        id: "R1a",
        code: "DM001",
        trees: &[TreeId::A3BlockTags, TreeId::A4RecordedInfo],
        description: "A3 = none reserves no space, so A4 must be none (Figure 3)",
        check: |p| {
            implies(
                a3(p).map(|t| t == BlockTags::None),
                a4(p).map(|i| i == RecordedInfo::None),
            )
        },
    },
    Rule {
        id: "R1b",
        code: "DM002",
        trees: &[TreeId::A4RecordedInfo, TreeId::A3BlockTags],
        description: "a tag that records nothing is pointless: A4 = none forces A3 = none",
        check: |p| {
            implies(
                a4(p).map(|i| i == RecordedInfo::None),
                a3(p).map(|t| t == BlockTags::None),
            )
        },
    },
    Rule {
        id: "R2",
        code: "DM003",
        trees: &[TreeId::A5FlexibleSize, TreeId::A4RecordedInfo],
        description: "split/coalesce machinery needs the block size recorded in the tag",
        check: |p| {
            implies(
                a5(p).map(|f| f != FlexibleSize::None),
                a4(p).map(|i| i.knows_size()),
            )
        },
    },
    Rule {
        id: "R3a",
        code: "DM004",
        trees: &[TreeId::D2CoalesceWhen, TreeId::A5FlexibleSize],
        description: "coalescing can only run if A5 provides the coalescing mechanism",
        check: |p| {
            implies(
                d2(p).map(|w| w != CoalesceWhen::Never),
                a5(p).map(|f| f.allows_coalesce()),
            )
        },
    },
    Rule {
        id: "R3b",
        code: "DM005",
        trees: &[TreeId::A5FlexibleSize, TreeId::D2CoalesceWhen],
        description: "a coalescing mechanism that never runs is dead weight",
        check: |p| {
            implies(
                a5(p).map(|f| f.allows_coalesce()),
                d2(p).map(|w| w != CoalesceWhen::Never),
            )
        },
    },
    Rule {
        id: "R4a",
        code: "DM006",
        trees: &[TreeId::E2SplitWhen, TreeId::A5FlexibleSize],
        description: "splitting can only run if A5 provides the splitting mechanism",
        check: |p| {
            implies(
                e2(p).map(|w| w != SplitWhen::Never),
                a5(p).map(|f| f.allows_split()),
            )
        },
    },
    Rule {
        id: "R4b",
        code: "DM007",
        trees: &[TreeId::A5FlexibleSize, TreeId::E2SplitWhen],
        description: "a splitting mechanism that never runs is dead weight",
        check: |p| {
            implies(
                a5(p).map(|f| f.allows_split()),
                e2(p).map(|w| w != SplitWhen::Never),
            )
        },
    },
    Rule {
        id: "R5",
        code: "DM008",
        trees: &[TreeId::D2CoalesceWhen, TreeId::A4RecordedInfo],
        description: "coalescing must see the free/used status of neighbours in the tag",
        check: |p| {
            implies(
                d2(p).map(|w| w != CoalesceWhen::Never),
                a4(p).map(|i| i.knows_status()),
            )
        },
    },
    Rule {
        id: "R6",
        code: "DM009",
        trees: &[TreeId::B1PoolDivision, TreeId::B4PoolStructure],
        description: "a single pool needs no pool index beyond a trivial array slot",
        check: |p| {
            implies(
                b1(p).map(|d| d == PoolDivision::SinglePool),
                b4(p).map(|s| s == PoolStructure::Array),
            )
        },
    },
    Rule {
        id: "R7",
        code: "DM010",
        trees: &[TreeId::D2CoalesceWhen, TreeId::D1CoalesceMaxSizes],
        description: "with D2 = never, D1 is moot; canonical form fixes it to unlimited",
        check: |p| {
            implies(
                d2(p).map(|w| w == CoalesceWhen::Never),
                d1(p).map(|m| m == CoalesceMaxSizes::Unlimited),
            )
        },
    },
    Rule {
        id: "R8",
        code: "DM011",
        trees: &[TreeId::E2SplitWhen, TreeId::E1SplitMinSizes],
        description: "with E2 = never, E1 is moot; canonical form fixes it to unrestricted",
        check: |p| {
            implies(
                e2(p).map(|w| w == SplitWhen::Never),
                e1(p).map(|m| m == SplitMinSizes::Unrestricted),
            )
        },
    },
];

/// A descriptive interdependency arrow for the Figure 2 regenerator.
#[derive(Debug, Clone, Copy)]
pub struct Arrow {
    /// Source tree (the restricting side).
    pub from: TreeId,
    /// Target tree (the restricted / influenced side).
    pub to: TreeId,
    /// Full (hard) or dotted (soft) arrow.
    pub kind: ArrowKind,
    /// Why the arrow exists.
    pub why: &'static str,
}

/// Every arrow of Figure 2: the hard arrows mirror [`RULES`]; the dotted
/// arrows document linked purposes that influence — but do not forbid —
/// later decisions.
pub const ARROWS: &[Arrow] = &[
    Arrow {
        from: TreeId::A3BlockTags,
        to: TreeId::A4RecordedInfo,
        kind: ArrowKind::Hard,
        why: "none tags leave no space for recorded info (Figure 3)",
    },
    Arrow {
        from: TreeId::A4RecordedInfo,
        to: TreeId::A5FlexibleSize,
        kind: ArrowKind::Hard,
        why: "split/coalesce need size (and status) fields",
    },
    Arrow {
        from: TreeId::A5FlexibleSize,
        to: TreeId::D2CoalesceWhen,
        kind: ArrowKind::Hard,
        why: "no coalescing mechanism => never coalesce",
    },
    Arrow {
        from: TreeId::A5FlexibleSize,
        to: TreeId::E2SplitWhen,
        kind: ArrowKind::Hard,
        why: "no splitting mechanism => never split",
    },
    Arrow {
        from: TreeId::B1PoolDivision,
        to: TreeId::B4PoolStructure,
        kind: ArrowKind::Hard,
        why: "single pool degenerates the pool index",
    },
    Arrow {
        from: TreeId::D2CoalesceWhen,
        to: TreeId::D1CoalesceMaxSizes,
        kind: ArrowKind::Hard,
        why: "never coalescing makes the max-size tree moot",
    },
    Arrow {
        from: TreeId::E2SplitWhen,
        to: TreeId::E1SplitMinSizes,
        kind: ArrowKind::Hard,
        why: "never splitting makes the min-size tree moot",
    },
    Arrow {
        from: TreeId::A2BlockSizes,
        to: TreeId::C1FitAlgorithm,
        kind: ArrowKind::Soft,
        why: "fixed classes make first/best/exact fit coincide inside a class",
    },
    Arrow {
        from: TreeId::A2BlockSizes,
        to: TreeId::B1PoolDivision,
        kind: ArrowKind::Soft,
        why: "fixed classes suggest one pool per class",
    },
    Arrow {
        from: TreeId::C1FitAlgorithm,
        to: TreeId::A1BlockStructure,
        kind: ArrowKind::Soft,
        why: "best/exact fit profit from a size-ordered tree",
    },
    Arrow {
        from: TreeId::D2CoalesceWhen,
        to: TreeId::A3BlockTags,
        kind: ArrowKind::Soft,
        why: "immediate coalescing is O(1) with footers/prev-size, slow otherwise (Figure 4)",
    },
    Arrow {
        from: TreeId::D2CoalesceWhen,
        to: TreeId::A1BlockStructure,
        kind: ArrowKind::Soft,
        why: "deferred sweeps profit from an address-ordered free list",
    },
    Arrow {
        from: TreeId::B1PoolDivision,
        to: TreeId::D2CoalesceWhen,
        kind: ArrowKind::Soft,
        why: "pool division prevents the fragmentation that coalescing cures",
    },
    Arrow {
        from: TreeId::B1PoolDivision,
        to: TreeId::E2SplitWhen,
        kind: ArrowKind::Soft,
        why: "pool division prevents the fragmentation that splitting cures",
    },
];

fn no_violation(partial: &PartialConfig) -> bool {
    RULES
        .iter()
        .all(|r| r.check(partial) != RuleStatus::Violated)
}

/// Whether some completion of `partial` satisfies every hard rule.
///
/// Rules chain (e.g. `A5 = split-and-coalesce` with `A4 = size` is pairwise
/// fine but jointly unsatisfiable once D2 must be decided), so admissibility
/// needs a genuine satisfiability check, not per-rule tri-state logic. The
/// space is tiny (twelve trees, at most five leaves), and violations prune
/// eagerly, so a backtracking search terminates in microseconds.
pub fn completable(partial: &PartialConfig) -> bool {
    if !no_violation(partial) {
        return false;
    }
    let undecided = TreeId::ALL.iter().find(|t| partial.get(**t).is_none());
    match undecided {
        None => true,
        Some(&tree) => tree.leaves().into_iter().any(|leaf| {
            let mut trial = *partial;
            trial.set(leaf);
            completable(&trial)
        }),
    }
}

/// Leaves of `tree` that keep the partial configuration completable: the
/// hard-arrow constraint propagation of Figures 2–4.
pub fn admissible_leaves(tree: TreeId, partial: &PartialConfig) -> Vec<Leaf> {
    tree.leaves()
        .into_iter()
        .filter(|leaf| {
            let mut trial = *partial;
            trial.set(*leaf);
            completable(&trial)
        })
        .collect()
}

/// The preferred admissible leaf of `tree` given the decisions in `partial`.
///
/// Preference orders implement the *soft* arrows: e.g. the neutral default
/// for A3 is a plain header, and for C1 first fit.
///
/// # Errors
///
/// Returns [`Error::EmptySearchSpace`] if every leaf of `tree` is
/// inadmissible (cannot happen from a consistent partial configuration).
pub fn default_leaf(tree: TreeId, partial: &PartialConfig) -> Result<Leaf> {
    let prefs: Vec<Leaf> = match tree {
        TreeId::A1BlockStructure => [
            BlockStructure::DoublyLinkedList,
            BlockStructure::SinglyLinkedList,
            BlockStructure::AddressOrderedList,
            BlockStructure::SizeOrderedTree,
        ]
        .into_iter()
        .map(Leaf::A1)
        .collect(),
        TreeId::A2BlockSizes => [
            BlockSizes::Many,
            BlockSizes::PowerOfTwoClasses,
            BlockSizes::ProfiledClasses,
        ]
        .into_iter()
        .map(Leaf::A2)
        .collect(),
        TreeId::A3BlockTags => [
            BlockTags::Header,
            BlockTags::HeaderAndFooter,
            BlockTags::Footer,
            BlockTags::None,
        ]
        .into_iter()
        .map(Leaf::A3)
        .collect(),
        TreeId::A4RecordedInfo => [
            RecordedInfo::SizeAndStatus,
            RecordedInfo::Size,
            RecordedInfo::SizeStatusPrevSize,
            RecordedInfo::None,
        ]
        .into_iter()
        .map(Leaf::A4)
        .collect(),
        TreeId::A5FlexibleSize => [
            FlexibleSize::SplitAndCoalesce,
            FlexibleSize::SplitOnly,
            FlexibleSize::CoalesceOnly,
            FlexibleSize::None,
        ]
        .into_iter()
        .map(Leaf::A5)
        .collect(),
        TreeId::B1PoolDivision => [PoolDivision::SinglePool, PoolDivision::PoolPerSizeClass]
            .into_iter()
            .map(Leaf::B1)
            .collect(),
        TreeId::B4PoolStructure => [
            PoolStructure::Array,
            PoolStructure::LinkedList,
            PoolStructure::BinaryTree,
        ]
        .into_iter()
        .map(Leaf::B4)
        .collect(),
        TreeId::C1FitAlgorithm => [
            FitAlgorithm::FirstFit,
            FitAlgorithm::BestFit,
            FitAlgorithm::ExactFit,
            FitAlgorithm::NextFit,
            FitAlgorithm::WorstFit,
        ]
        .into_iter()
        .map(Leaf::C1)
        .collect(),
        TreeId::D1CoalesceMaxSizes => [CoalesceMaxSizes::Unlimited, CoalesceMaxSizes::Capped]
            .into_iter()
            .map(Leaf::D1)
            .collect(),
        TreeId::D2CoalesceWhen => [
            CoalesceWhen::Always,
            CoalesceWhen::Deferred,
            CoalesceWhen::Never,
        ]
        .into_iter()
        .map(Leaf::D2)
        .collect(),
        TreeId::E1SplitMinSizes => [SplitMinSizes::Unrestricted, SplitMinSizes::Floored]
            .into_iter()
            .map(Leaf::E1)
            .collect(),
        TreeId::E2SplitWhen => [SplitWhen::Always, SplitWhen::Threshold, SplitWhen::Never]
            .into_iter()
            .map(Leaf::E2)
            .collect(),
    };
    let admissible = admissible_leaves(tree, partial);
    prefs
        .into_iter()
        .find(|l| admissible.contains(l))
        .ok_or_else(|| {
            Error::EmptySearchSpace(format!(
                "no admissible leaf for tree {} under current constraints",
                tree.code()
            ))
        })
}

/// The rules that are outright violated by `partial`.
///
/// Undetermined rules are *not* reported — use [`validate_complete`] when
/// completeness matters. This is the structured accessor behind the
/// `DM001`–`DM011` diagnostics of [`crate::analyze`] and the rule-naming
/// builder errors, so callers match on `Rule::id`/`Rule::code` instead of
/// error prose.
pub fn violations(partial: &PartialConfig) -> Vec<&'static Rule> {
    RULES
        .iter()
        .filter(|r| r.check(partial) == RuleStatus::Violated)
        .collect()
}

/// Check that a *complete* configuration satisfies every hard rule.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] naming the first violated or
/// undetermined rule by its `Rule::id` *and* its stable `DM0xx` diagnostic
/// code, so callers can match on either identifier instead of the prose.
pub fn validate_complete(partial: &PartialConfig) -> Result<()> {
    for rule in RULES {
        match rule.check(partial) {
            RuleStatus::Satisfied => {}
            RuleStatus::Violated => {
                return Err(Error::InvalidConfig(format!(
                    "rule {} [{}] violated: {}",
                    rule.id, rule.code, rule.description
                )))
            }
            RuleStatus::Undetermined => {
                return Err(Error::InvalidConfig(format!(
                    "rule {} [{}] undetermined: configuration incomplete",
                    rule.id, rule.code
                )))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> PartialConfig {
        PartialConfig::default()
    }

    #[test]
    fn all_leaves_admissible_on_empty_config() {
        for tree in TreeId::ALL {
            assert_eq!(
                admissible_leaves(tree, &empty()).len(),
                tree.leaves().len(),
                "{tree}"
            );
        }
    }

    #[test]
    fn figure3_none_tags_disable_recorded_info() {
        let mut p = empty();
        p.set(Leaf::A3(BlockTags::None));
        let a4 = admissible_leaves(TreeId::A4RecordedInfo, &p);
        assert_eq!(a4, vec![Leaf::A4(RecordedInfo::None)]);
        // ... and transitively the flexible-size machinery.
        p.set(Leaf::A4(RecordedInfo::None));
        let a5 = admissible_leaves(TreeId::A5FlexibleSize, &p);
        assert_eq!(a5, vec![Leaf::A5(FlexibleSize::None)]);
        p.set(Leaf::A5(FlexibleSize::None));
        assert_eq!(
            admissible_leaves(TreeId::D2CoalesceWhen, &p),
            vec![Leaf::D2(CoalesceWhen::Never)]
        );
        assert_eq!(
            admissible_leaves(TreeId::E2SplitWhen, &p),
            vec![Leaf::E2(SplitWhen::Never)]
        );
    }

    #[test]
    fn figure4_always_coalesce_restricts_tags() {
        // Deciding D2/E2 = always first (the paper's correct order)...
        let mut p = empty();
        p.set(Leaf::D2(CoalesceWhen::Always));
        p.set(Leaf::E2(SplitWhen::Always));
        // ...forbids the none leaves in A3/A4 when they are decided later.
        let a4: Vec<_> = admissible_leaves(TreeId::A4RecordedInfo, &p);
        assert!(!a4.contains(&Leaf::A4(RecordedInfo::None)));
        assert!(!a4.contains(&Leaf::A4(RecordedInfo::Size))); // lacks status
        assert!(a4.contains(&Leaf::A4(RecordedInfo::SizeAndStatus)));
        // A5 must provide both mechanisms.
        let a5 = admissible_leaves(TreeId::A5FlexibleSize, &p);
        assert_eq!(a5, vec![Leaf::A5(FlexibleSize::SplitAndCoalesce)]);
    }

    #[test]
    fn single_pool_forces_array_pool_structure() {
        let mut p = empty();
        p.set(Leaf::B1(PoolDivision::SinglePool));
        assert_eq!(
            admissible_leaves(TreeId::B4PoolStructure, &p),
            vec![Leaf::B4(PoolStructure::Array)]
        );
    }

    #[test]
    fn default_leaf_respects_constraints() {
        let mut p = empty();
        p.set(Leaf::A3(BlockTags::None));
        let d = default_leaf(TreeId::A4RecordedInfo, &p).unwrap();
        assert_eq!(d, Leaf::A4(RecordedInfo::None));
        // Unconstrained default is the neutral choice.
        let d = default_leaf(TreeId::A4RecordedInfo, &empty()).unwrap();
        assert_eq!(d, Leaf::A4(RecordedInfo::SizeAndStatus));
    }

    #[test]
    fn defaults_complete_into_valid_config_from_any_single_leaf() {
        // Property: fixing any single leaf first, the default completion
        // never violates a rule.
        for tree in TreeId::ALL {
            for leaf in tree.leaves() {
                let mut p = empty();
                p.set(leaf);
                for t in TreeId::ALL {
                    if p.get(t).is_none() {
                        let d = default_leaf(t, &p).unwrap();
                        p.set(d);
                    }
                }
                validate_complete(&p).unwrap_or_else(|e| {
                    panic!("completion of {leaf:?} invalid: {e}");
                });
            }
        }
    }

    #[test]
    fn validate_complete_rejects_incomplete() {
        assert!(validate_complete(&empty()).is_err());
    }

    #[test]
    fn rules_cover_all_hard_arrows() {
        use std::collections::HashSet;
        let rule_pairs: HashSet<(TreeId, TreeId)> = RULES
            .iter()
            .filter(|r| r.trees.len() == 2)
            .map(|r| (r.trees[0], r.trees[1]))
            .collect();
        for arrow in ARROWS.iter().filter(|a| a.kind == ArrowKind::Hard) {
            // Every hard arrow must be backed by at least one rule touching
            // the same pair (in either direction).
            assert!(
                rule_pairs.contains(&(arrow.from, arrow.to))
                    || rule_pairs.contains(&(arrow.to, arrow.from)),
                "hard arrow {:?} -> {:?} has no backing rule",
                arrow.from,
                arrow.to
            );
        }
    }

    #[test]
    fn rule_codes_are_unique_and_well_formed() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for rule in RULES {
            assert!(
                rule.code.len() == 5 && rule.code.starts_with("DM"),
                "rule {} has malformed code {}",
                rule.id,
                rule.code
            );
            assert!(seen.insert(rule.code), "duplicate code {}", rule.code);
        }
    }

    #[test]
    fn violations_names_the_broken_rule() {
        let mut p = empty();
        p.set(Leaf::A3(BlockTags::None));
        p.set(Leaf::A4(RecordedInfo::SizeAndStatus));
        let v = violations(&p);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, "R1a");
        assert_eq!(v[0].code, "DM001");
    }

    #[test]
    fn implies_truth_table() {
        use RuleStatus::*;
        assert_eq!(implies(None, None), Undetermined);
        assert_eq!(implies(None, Some(true)), Undetermined);
        assert_eq!(implies(Some(false), None), Satisfied);
        assert_eq!(implies(Some(false), Some(false)), Satisfied);
        assert_eq!(implies(Some(true), None), Undetermined);
        assert_eq!(implies(Some(true), Some(true)), Satisfied);
        assert_eq!(implies(Some(true), Some(false)), Violated);
    }
}
