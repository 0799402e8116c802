//! Sweep memos of the per-configuration analysis stages.
//!
//! Before any replay, a sweep asks two questions of every candidate: its
//! admissible footprint floor ([`super::lower_bound_peak`]) and whether a
//! prune-safe lint skips it ([`super::prune_reason`]). Each stage reads
//! only a few of a configuration's twelve leaves plus its [`Params`], so
//! the 39,840 candidates of the default space collapse to 192 distinct
//! bound inputs and 166 distinct verdict inputs. A [`StageMemo`] computes
//! the stage once per distinct input:
//!
//! - the **key** is the tuple of leaves the stage reads — its type is the
//!   stage's own statement of what it reads ([`super::bounds::BoundMemo`],
//!   [`super::config_lints::PruneMemo`]);
//! - the memo is valid for **one `Params` block**: a candidate with other
//!   parameters empties it first, so `Params` never needs hashing.
//!
//! Debug builds check every memoised value against the direct call (the
//! repository's shadow-oracle pattern): a key that misses a field the
//! stage reads trips at the first candidate where that field matters.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use crate::space::config::{DmConfig, Params};

/// One stage's values by key, for the `Params` block of the last lookup.
#[derive(Debug)]
pub(crate) struct StageMemo<K, V> {
    params: Option<Params>,
    values: HashMap<K, V>,
}

impl<K, V> Default for StageMemo<K, V> {
    fn default() -> Self {
        StageMemo {
            params: None,
            values: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash, V: Copy + PartialEq + Debug> StageMemo<K, V> {
    /// `stage(cfg)`, computed once per distinct `key` under `cfg.params`.
    /// `key` must capture every leaf `stage` reads.
    pub(crate) fn get(&mut self, cfg: &DmConfig, key: K, stage: impl Fn(&DmConfig) -> V) -> V {
        if self.params.as_ref() != Some(&cfg.params) {
            self.values.clear();
            self.params = Some(cfg.params.clone());
        }
        let value = *self.values.entry(key).or_insert_with(|| stage(cfg));
        debug_assert_eq!(
            value,
            stage(cfg),
            "memoised stage disagrees with the direct call for {}",
            cfg.summary()
        );
        value
    }

    /// Distinct inputs computed under the current `Params` block.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}
