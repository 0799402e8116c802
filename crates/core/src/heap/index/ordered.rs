//! Ordered free indexes (A1 leaves *address-ordered list* and
//! *size-ordered tree*).
//!
//! The address-ordered list keeps free blocks sorted by offset — sweeps and
//! address-local placement are cheap, size searches are linear. The
//! size-ordered tree keys blocks by `(len, offset)` — best/exact fit are
//! logarithmic, which is why the soft interdependency arrows point best-fit
//! searchers at it.
//!
//! Both indexes key directly on the span the caller hands to
//! [`FreeIndex::remove`] and store the [`BlockRef`] of the backing tiling
//! block next to it, so a hit resolves to the block in O(1).
//!
//! # The address-ordered list as a blocked sorted array
//!
//! [`AddrIndex`] models a linear list: its charges are walk distances in
//! address order. It stores its entries in exactly that order, as one
//! sorted array cut into chunks of at most [`CHUNK_MAX`] entries, and each
//! chunk records its largest span length. A find *is* the faithful walk: a
//! chunk whose maximum cannot satisfy the fit is passed in one step and
//! charged its entry count, any other chunk is scanned entry by entry. So
//! every charge equals the node-by-node scan by construction, and there is
//! no replica to keep in step. Inserts and removes binary-search the chunk
//! and shift entries within it; a chunk that outgrows [`CHUNK_MAX`] splits
//! in half, and a chunk that empties is dropped.
//!
//! The naive scan ([`walk_find`]) stays compiled in as the debug shadow
//! oracle: debug builds assert every find's winner and charge against it,
//! and [`FreeIndex::check_oracle`] validates the chunk invariants per
//! replay event. Chunking and the chunk maxima are simulator-side
//! acceleration, not part of the modelled manager — they cost nothing in
//! `control_overhead_bytes`.
//!
//! [`SizeTreeIndex`] needs none of this: its `(len, offset)` tree *is* the
//! modelled structure, and its logarithmic charge (`log_cost`, the subtree
//! descent depth) is already computed from the tree size in one add.

use std::collections::BTreeMap;

use crate::heap::block::Span;
use crate::heap::index::{Found, FreeIndex};
use crate::heap::tiling::BlockRef;
use crate::space::trees::FitAlgorithm;
use crate::units::POINTER_BYTES;

/// Ordered indexes need no unlink token — removal keys on the span.
const NO_TOKEN: usize = 0;

/// Entries a chunk of [`AddrIndex`] may hold; one more splits it in half.
const CHUNK_MAX: usize = 256;

fn log_cost(n: usize) -> u64 {
    (usize::BITS - n.max(1).leading_zeros()) as u64
}

/// One run of [`AddrIndex`]'s address-ordered array.
#[derive(Debug, Clone)]
struct Chunk {
    /// Free spans in ascending offset order, with their backing blocks.
    /// Never empty.
    entries: Vec<(Span, BlockRef)>,
    /// The largest span length in `entries`.
    max_len: usize,
}

impl Chunk {
    fn new(entries: Vec<(Span, BlockRef)>) -> Chunk {
        let mut chunk = Chunk {
            entries,
            max_len: 0,
        };
        chunk.recompute_max();
        chunk
    }

    fn recompute_max(&mut self) {
        self.max_len = self.entries.iter().map(|(s, _)| s.len).max().unwrap_or(0);
    }

    /// Position of the first entry at or above `offset`.
    fn lower_bound(&self, offset: usize) -> usize {
        self.entries.partition_point(|(s, _)| s.offset < offset)
    }
}

/// A position in the walk: `(chunk, entry within the chunk)`. The end of
/// the walk is `(chunks.len(), 0)`.
type Pos = (usize, usize);

/// Free list kept sorted by block address (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct AddrIndex {
    /// Non-empty chunks in address order.
    chunks: Vec<Chunk>,
    /// Total entries over all chunks.
    len: usize,
    /// Next-fit roving pointer: the walk resumes at the first offset at or
    /// above it.
    cursor: Option<usize>,
}

impl AddrIndex {
    /// An empty address-ordered index.
    pub fn new() -> Self {
        AddrIndex::default()
    }

    /// The chunk an entry at `offset` belongs in: the last chunk starting
    /// at or below it, else the first chunk. Needs a chunk to exist.
    fn chunk_for(&self, offset: usize) -> usize {
        self.chunks
            .partition_point(|c| c.entries[0].0.offset <= offset)
            .saturating_sub(1)
    }

    /// The walk position of the first entry at or above `offset`.
    fn seek(&self, offset: usize) -> Pos {
        let ci = self
            .chunks
            .partition_point(|c| c.entries[c.entries.len() - 1].0.offset < offset);
        match self.chunks.get(ci) {
            Some(chunk) => (ci, chunk.lower_bound(offset)),
            None => (ci, 0),
        }
    }

    fn end(&self) -> Pos {
        (self.chunks.len(), 0)
    }

    /// Walk `[from, to)` in address order to the first entry whose length
    /// is `len` (`exact`) or at least `len`, charging one step per entry
    /// visited. A chunk whose maximum is below `len` holds no such entry
    /// and is passed in one step for its whole count.
    fn walk(&self, from: Pos, to: Pos, len: usize, exact: bool, steps: &mut u64) -> Option<Pos> {
        let (mut ci, mut k) = from;
        while (ci, k) < to {
            let chunk = &self.chunks[ci];
            let stop = if ci == to.0 { to.1 } else { chunk.entries.len() };
            if chunk.max_len >= len {
                let hit = chunk.entries[k..stop]
                    .iter()
                    .position(|(s, _)| s.len == len || (!exact && s.len > len));
                if let Some(j) = hit {
                    *steps += j as u64 + 1;
                    return Some((ci, k + j));
                }
            }
            *steps += (stop - k) as u64;
            ci += 1;
            k = 0;
        }
        None
    }

    /// The faithful best-fit walk: it stops at the first exact-size entry;
    /// otherwise it visits every entry and keeps the lowest-addressed
    /// entry of the smallest fitting length.
    fn best_fit(&self, len: usize, steps: &mut u64) -> Option<Pos> {
        let mut best: Option<(Pos, usize)> = None;
        for (ci, chunk) in self.chunks.iter().enumerate() {
            if chunk.max_len >= len {
                for (k, (s, _)) in chunk.entries.iter().enumerate() {
                    if s.len >= len && best.is_none_or(|(_, b)| s.len < b) {
                        if s.len == len {
                            *steps += k as u64 + 1;
                            return Some((ci, k));
                        }
                        best = Some(((ci, k), s.len));
                    }
                }
            }
            *steps += chunk.entries.len() as u64;
        }
        best.map(|(pos, _)| pos)
    }

    /// The faithful worst-fit walk visits every entry and keeps the
    /// lowest-addressed entry of the largest length: the first entry of
    /// that length in the first chunk whose maximum equals it.
    fn worst_fit(&self, len: usize, steps: &mut u64) -> Option<Pos> {
        *steps += self.len as u64;
        let max = self.chunks.iter().map(|c| c.max_len).max().filter(|&m| m >= len)?;
        let ci = self.chunks.iter().position(|c| c.max_len == max)?;
        let k = self.chunks[ci].entries.iter().position(|(s, _)| s.len == max)?;
        Some((ci, k))
    }

    /// Every entry's span in address order.
    fn iter_spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.chunks.iter().flat_map(|c| c.entries.iter().map(|(s, _)| *s))
    }
}

/// The faithful address-order scan over `walk` (sorted by offset) — the
/// shadow oracle for [`AddrIndex::find`]: `(winner offset, charge)`. This
/// is the modelled cost of the A1 leaf. Stays compiled in release builds
/// even though only debug builds call it.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
fn walk_find(
    walk: &[Span],
    cursor: Option<usize>,
    fit: FitAlgorithm,
    len: usize,
) -> (Option<usize>, u64) {
    let total = walk.len() as u64;
    let first = |order: &mut dyn Iterator<Item = &Span>, fits: &dyn Fn(usize) -> bool| {
        match order.enumerate().find(|(_, s)| fits(s.len)) {
            Some((i, s)) => (Some(s.offset), i as u64 + 1),
            None => (None, total),
        }
    };
    match fit {
        FitAlgorithm::FirstFit => first(&mut walk.iter(), &|l| l >= len),
        FitAlgorithm::ExactFit => first(&mut walk.iter(), &|l| l == len),
        FitAlgorithm::NextFit => {
            let at = walk.partition_point(|s| s.offset < cursor.unwrap_or(0));
            first(&mut walk[at..].iter().chain(&walk[..at]), &|l| l >= len)
        }
        FitAlgorithm::BestFit => {
            let mut best: Option<&Span> = None;
            for (i, s) in walk.iter().enumerate() {
                if s.len >= len && best.is_none_or(|b| s.len < b.len) {
                    if s.len == len {
                        return (Some(s.offset), i as u64 + 1);
                    }
                    best = Some(s);
                }
            }
            (best.map(|b| b.offset), total)
        }
        FitAlgorithm::WorstFit => {
            let mut worst: Option<&Span> = None;
            for s in walk {
                if s.len >= len && worst.is_none_or(|w| s.len > w.len) {
                    worst = Some(s);
                }
            }
            (worst.map(|w| w.offset), total)
        }
    }
}

impl FreeIndex for AddrIndex {
    fn insert(&mut self, span: Span, block: BlockRef, steps: &mut u64) -> usize {
        *steps += log_cost(self.len);
        self.len += 1;
        if self.chunks.is_empty() {
            self.chunks.push(Chunk::new(vec![(span, block)]));
            return NO_TOKEN;
        }
        let ci = self.chunk_for(span.offset);
        let chunk = &mut self.chunks[ci];
        let at = chunk.lower_bound(span.offset);
        debug_assert!(
            chunk.entries.get(at).is_none_or(|(s, _)| s.offset != span.offset),
            "duplicate span at {}",
            span.offset
        );
        chunk.entries.insert(at, (span, block));
        chunk.max_len = chunk.max_len.max(span.len);
        if chunk.entries.len() > CHUNK_MAX {
            let tail = chunk.entries.split_off(CHUNK_MAX / 2);
            chunk.recompute_max();
            self.chunks.insert(ci + 1, Chunk::new(tail));
        }
        NO_TOKEN
    }

    fn remove(&mut self, _token: usize, span: Span, steps: &mut u64) -> Option<BlockRef> {
        *steps += log_cost(self.len);
        if self.chunks.is_empty() {
            return None;
        }
        let ci = self.chunk_for(span.offset);
        let chunk = &mut self.chunks[ci];
        let at = chunk.lower_bound(span.offset);
        if chunk.entries.get(at).is_none_or(|(s, _)| s.offset != span.offset) {
            return None;
        }
        let (removed, block) = chunk.entries.remove(at);
        debug_assert_eq!(removed.len, span.len, "span length disagrees with the index");
        if chunk.entries.is_empty() {
            self.chunks.remove(ci);
        } else if removed.len == chunk.max_len {
            chunk.recompute_max();
        }
        self.len -= 1;
        if self.cursor == Some(span.offset) {
            let (ci, k) = self.seek(span.offset);
            self.cursor = self.chunks.get(ci).map(|c| c.entries[k].0.offset);
        }
        Some(block)
    }

    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found> {
        let mut charged = 0u64;
        let hit = match fit {
            FitAlgorithm::FirstFit => self.walk((0, 0), self.end(), len, false, &mut charged),
            FitAlgorithm::ExactFit => self.walk((0, 0), self.end(), len, true, &mut charged),
            FitAlgorithm::NextFit => {
                // From the parked cursor to the end, then wrap to it.
                let start = self.seek(self.cursor.unwrap_or(0));
                self.walk(start, self.end(), len, false, &mut charged)
                    .or_else(|| self.walk((0, 0), start, len, false, &mut charged))
            }
            FitAlgorithm::BestFit => self.best_fit(len, &mut charged),
            FitAlgorithm::WorstFit => self.worst_fit(len, &mut charged),
        };
        #[cfg(debug_assertions)]
        {
            let walk: Vec<Span> = self.iter_spans().collect();
            let winner = hit.map(|(ci, k)| self.chunks[ci].entries[k].0.offset);
            debug_assert_eq!(
                (winner, charged),
                walk_find(&walk, self.cursor, fit, len),
                "blocked {fit:?} find for {len} diverged from the faithful scan"
            );
        }
        *steps += charged;
        let (ci, k) = hit?;
        let (span, block) = self.chunks[ci].entries[k];
        if fit == FitAlgorithm::NextFit {
            self.cursor = Some(span.offset + 1);
        }
        Some(Found {
            span,
            block,
            token: NO_TOKEN,
        })
    }

    fn len(&self) -> usize {
        self.len
    }

    fn spans(&self) -> Vec<Span> {
        self.iter_spans().collect()
    }

    fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
        self.cursor = None;
    }

    fn control_overhead_bytes(&self) -> usize {
        POINTER_BYTES // head pointer; links are in-band in free blocks
    }

    fn check_oracle(&self) -> Result<(), String> {
        let mut prev: Option<usize> = None;
        let mut total = 0;
        for (ci, chunk) in self.chunks.iter().enumerate() {
            let n = chunk.entries.len();
            if n == 0 || n > CHUNK_MAX {
                return Err(format!("chunk {ci} holds {n} entries (allowed 1..={CHUNK_MAX})"));
            }
            for (s, _) in &chunk.entries {
                if prev.is_some_and(|p| p >= s.offset) {
                    return Err(format!("chunk {ci}: offset {} out of address order", s.offset));
                }
                prev = Some(s.offset);
            }
            let max = chunk.entries.iter().map(|(s, _)| s.len).max().unwrap_or(0);
            if max != chunk.max_len {
                return Err(format!(
                    "chunk {ci} records max length {} but holds {max}",
                    chunk.max_len
                ));
            }
            total += n;
        }
        if total != self.len {
            return Err(format!("chunks hold {total} entries, index counts {}", self.len));
        }
        Ok(())
    }
}

/// Balanced tree of free blocks keyed by `(len, offset)`.
#[derive(Debug, Clone, Default)]
pub struct SizeTreeIndex {
    by_size: BTreeMap<(usize, usize), BlockRef>,
    cursor: Option<(usize, usize)>,
}

impl SizeTreeIndex {
    /// An empty size-ordered index.
    pub fn new() -> Self {
        SizeTreeIndex::default()
    }
}

impl FreeIndex for SizeTreeIndex {
    fn insert(&mut self, span: Span, block: BlockRef, steps: &mut u64) -> usize {
        *steps += log_cost(self.by_size.len());
        let dup = self.by_size.insert((span.len, span.offset), block);
        debug_assert!(dup.is_none(), "duplicate span at {}", span.offset);
        NO_TOKEN
    }

    fn remove(&mut self, _token: usize, span: Span, steps: &mut u64) -> Option<BlockRef> {
        *steps += log_cost(self.by_size.len());
        let block = self.by_size.remove(&(span.len, span.offset))?;
        // `find` parks the NextFit cursor just *past* the block it
        // returned, i.e. at `(len, offset + 1)` — compare against that
        // stored form. Matching the block's own key `(len, offset)` can
        // never fire, so the roving pointer used to survive its block's
        // removal and skip blocks re-inserted at or below that key.
        if self.cursor == Some((span.len, span.offset + 1)) {
            self.cursor = None;
        }
        Some(block)
    }

    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found> {
        *steps += log_cost(self.by_size.len());
        let found = |(&(l, o), &b): (&(usize, usize), &BlockRef)| Found {
            span: Span::new(o, l),
            block: b,
            token: NO_TOKEN,
        };
        match fit {
            // In a size-ordered structure the "first" block that fits *is*
            // the best fit — a realistic consequence of the A1 choice.
            FitAlgorithm::FirstFit | FitAlgorithm::BestFit => {
                self.by_size.range((len, 0)..).next().map(found)
            }
            FitAlgorithm::NextFit => {
                let start = self.cursor.unwrap_or((len, 0)).max((len, 0));
                let hit = self
                    .by_size
                    .range(start..)
                    .next()
                    .or_else(|| self.by_size.range((len, 0)..).next())
                    .map(found);
                if let Some(f) = hit {
                    self.cursor = Some((f.span.len, f.span.offset + 1));
                }
                hit
            }
            FitAlgorithm::WorstFit => self
                .by_size
                .iter()
                .next_back()
                .map(found)
                .filter(|f| f.span.len >= len),
            FitAlgorithm::ExactFit => self
                .by_size
                .range((len, 0)..(len + 1, 0))
                .next()
                .map(found),
        }
    }

    fn len(&self) -> usize {
        self.by_size.len()
    }

    fn spans(&self) -> Vec<Span> {
        self.by_size
            .keys()
            .map(|&(l, o)| Span::new(o, l))
            .collect()
    }

    fn clear(&mut self) {
        self.by_size.clear();
        self.cursor = None;
    }

    fn control_overhead_bytes(&self) -> usize {
        POINTER_BYTES // root pointer; node links are in-band
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bref(offset: usize) -> BlockRef {
        BlockRef::from_index((offset / 8) as u32)
    }

    #[test]
    fn addr_index_first_fit_is_lowest_address() {
        let mut idx = AddrIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(200, 64), bref(200), &mut s);
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        idx.insert(Span::new(100, 64), bref(100), &mut s);
        let hit = idx.find(FitAlgorithm::FirstFit, 32, &mut s).unwrap();
        assert_eq!(hit.span.offset, 0);
        assert_eq!(hit.block, bref(0));
    }

    #[test]
    fn size_tree_first_fit_equals_best_fit() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 256), bref(0), &mut s);
        idx.insert(Span::new(256, 32), bref(256), &mut s);
        idx.insert(Span::new(288, 64), bref(288), &mut s);
        let first = idx.find(FitAlgorithm::FirstFit, 48, &mut s).unwrap();
        let best = idx.find(FitAlgorithm::BestFit, 48, &mut s).unwrap();
        assert_eq!(first, best);
        assert_eq!(first.span.len, 64);
    }

    #[test]
    fn size_tree_worst_fit_is_largest() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 128), bref(0), &mut s);
        idx.insert(Span::new(128, 512), bref(128), &mut s);
        let hit = idx.find(FitAlgorithm::WorstFit, 64, &mut s).unwrap();
        assert_eq!(hit.span.len, 512);
        assert!(idx.find(FitAlgorithm::WorstFit, 1024, &mut s).is_none());
    }

    #[test]
    fn size_tree_exact_fit_misses_close_sizes() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        assert!(idx.find(FitAlgorithm::ExactFit, 63, &mut s).is_none());
        assert!(idx.find(FitAlgorithm::ExactFit, 65, &mut s).is_none());
        assert_eq!(
            idx.find(FitAlgorithm::ExactFit, 64, &mut s).unwrap().span.offset,
            0
        );
    }

    #[test]
    fn addr_index_search_is_linear_tree_is_logarithmic() {
        let mut addr = AddrIndex::new();
        let mut tree = SizeTreeIndex::new();
        let mut s = 0u64;
        for i in 0..1024 {
            addr.insert(Span::new(i * 64, 32), bref(i * 64), &mut s);
            tree.insert(Span::new(i * 64, 32), bref(i * 64), &mut s);
        }
        // Add the only fitting block at the high end.
        addr.insert(Span::new(1024 * 64, 4096), bref(1024 * 64), &mut s);
        tree.insert(Span::new(1024 * 64, 4096), bref(1024 * 64), &mut s);
        let mut addr_steps = 0u64;
        let hit = addr.find(FitAlgorithm::BestFit, 4096, &mut addr_steps).unwrap();
        let mut tree_steps = 0u64;
        tree.find(FitAlgorithm::BestFit, 4096, &mut tree_steps).unwrap();
        // The linear charge must equal an independently computed faithful
        // best-fit scan over the same spans (early-break on exact), not a
        // pinned magic constant.
        let mut spans = addr.spans();
        spans.sort();
        let mut want_steps = 0u64;
        let mut want: Option<Span> = None;
        for sp in &spans {
            want_steps += 1;
            if sp.len >= 4096 && want.is_none_or(|b| sp.len < b.len) {
                want = Some(*sp);
                if sp.len == 4096 {
                    break;
                }
            }
        }
        assert_eq!(hit.span, want.unwrap(), "winner diverged from the scan");
        assert_eq!(addr_steps, want_steps, "charge diverged from the scan");
        assert!(
            addr_steps as usize > spans.len() / 2,
            "scan should be linear here: {addr_steps}"
        );
        assert!(tree_steps < 16, "{tree_steps}");
    }

    /// Cross-check answer AND charge of every AddrIndex fit — including
    /// the roving NextFit with its parked cursor — against an independent
    /// flat scan of the sorted spans, on a churned index.
    #[test]
    fn addr_find_matches_reference_scan_under_churn() {
        struct RefScan {
            spans: Vec<Span>, // sorted by offset
            cursor: Option<usize>,
        }
        impl RefScan {
            fn find(&mut self, fit: FitAlgorithm, len: usize) -> (Option<Span>, u64) {
                let mut steps = 0u64;
                let (hit, charge) = match fit {
                    FitAlgorithm::NextFit => {
                        let start = self.cursor.unwrap_or(0);
                        let at = self.spans.partition_point(|s| s.offset < start);
                        let mut hit = None;
                        for s in &self.spans[at..] {
                            steps += 1;
                            if s.len >= len {
                                hit = Some(*s);
                                break;
                            }
                        }
                        if hit.is_none() {
                            for s in &self.spans[..at] {
                                steps += 1;
                                if s.len >= len {
                                    hit = Some(*s);
                                    break;
                                }
                            }
                        }
                        if let Some(h) = hit {
                            self.cursor = Some(h.offset + 1);
                        }
                        (hit, steps)
                    }
                    FitAlgorithm::FirstFit => {
                        let mut hit = None;
                        for s in &self.spans {
                            steps += 1;
                            if s.len >= len {
                                hit = Some(*s);
                                break;
                            }
                        }
                        (hit, steps)
                    }
                    FitAlgorithm::BestFit => {
                        let mut best: Option<Span> = None;
                        for s in &self.spans {
                            steps += 1;
                            if s.len >= len && best.is_none_or(|b| s.len < b.len) {
                                best = Some(*s);
                                if s.len == len {
                                    break;
                                }
                            }
                        }
                        (best, steps)
                    }
                    FitAlgorithm::WorstFit => {
                        let mut worst: Option<Span> = None;
                        for s in &self.spans {
                            steps += 1;
                            if s.len >= len && worst.is_none_or(|w| s.len > w.len) {
                                worst = Some(*s);
                            }
                        }
                        (worst, steps)
                    }
                    FitAlgorithm::ExactFit => {
                        let mut hit = None;
                        for s in &self.spans {
                            steps += 1;
                            if s.len == len {
                                hit = Some(*s);
                                break;
                            }
                        }
                        (hit, steps)
                    }
                };
                (hit, charge)
            }
        }

        let mut idx = AddrIndex::new();
        let mut reference = RefScan {
            spans: Vec::new(),
            cursor: None,
        };
        let mut x: u64 = 0xC0FF_EE00_DEAD_0001;
        let mut s = 0u64;
        for _ in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if reference.spans.len() < 3 || !x.is_multiple_of(3) {
                let offset = (x % 4096) as usize * 64;
                if !reference.spans.iter().any(|sp| sp.offset == offset) {
                    let span = Span::new(offset, 16 + (x >> 32) as usize % 9 * 8);
                    idx.insert(span, bref(span.offset), &mut s);
                    let at = reference.spans.partition_point(|sp| sp.offset < offset);
                    reference.spans.insert(at, span);
                }
            } else {
                let i = (x as usize / 5) % reference.spans.len();
                let span = reference.spans.remove(i);
                idx.remove(NO_TOKEN, span, &mut s).unwrap();
                // Mirror AddrIndex's cursor repair on removal.
                if reference.cursor == Some(span.offset) {
                    reference.cursor = reference.spans[i..].first().map(|sp| sp.offset);
                }
            }
            for fit in FitAlgorithm::ALL {
                for len in [16, 40, 56, 88, 512] {
                    let (want, want_steps) = reference.find(fit, len);
                    let mut got_steps = 0u64;
                    let got = idx.find(fit, len, &mut got_steps);
                    assert_eq!(got.map(|f| f.span), want, "{fit:?}/{len}");
                    assert_eq!(got_steps, want_steps, "{fit:?}/{len} charge diverged");
                    assert_eq!(idx.cursor, reference.cursor, "{fit:?}/{len} cursor");
                }
            }
            idx.check_oracle().unwrap();
        }
    }

    #[test]
    fn size_tree_next_fit_cursor_resets_when_its_block_is_removed() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        idx.insert(Span::new(100, 64), bref(100), &mut s);
        // NextFit lands on (64, 0) and parks the cursor at (64, 1).
        let first = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(first.span.offset, 0);
        // The found block is taken (allocated), then returned (freed) —
        // the remove must invalidate the cursor it derived from, or the
        // roving pointer skips the re-inserted block forever.
        idx.remove(first.token, first.span, &mut s).unwrap();
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        let second = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(
            second.span.offset, 0,
            "stale cursor skipped the re-inserted block"
        );
    }

    #[test]
    fn size_tree_next_fit_cursor_survives_removal_of_other_blocks() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        for off in [0usize, 100, 200] {
            idx.insert(Span::new(off, 64), bref(off), &mut s);
        }
        let first = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(first.span.offset, 0);
        // Removing a block the cursor was *not* derived from keeps the
        // roving behaviour: the next search continues past the last hit.
        idx.remove(NO_TOKEN, Span::new(200, 64), &mut s).unwrap();
        let second = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(second.span.offset, 100, "cursor must keep roving");
    }

    #[test]
    fn remove_returns_block_and_none_for_absent() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(64, 96), bref(64), &mut s);
        assert_eq!(idx.remove(NO_TOKEN, Span::new(64, 96), &mut s), Some(bref(64)));
        assert_eq!(idx.remove(NO_TOKEN, Span::new(64, 96), &mut s), None);
        assert_eq!(idx.len(), 0);
    }

    /// Naive model of the address-ordered list: a `BTreeMap` walked node
    /// by node, with the same next-fit cursor rules.
    #[derive(Default)]
    struct WalkModel {
        map: BTreeMap<usize, usize>,
        cursor: Option<usize>,
    }

    impl WalkModel {
        fn find(&mut self, fit: FitAlgorithm, len: usize) -> (Option<Span>, u64) {
            let start = self.cursor.unwrap_or(0);
            let order: Vec<(usize, usize)> = match fit {
                FitAlgorithm::NextFit => self.map.range(start..).chain(self.map.range(..start)),
                _ => self.map.range(0..).chain(self.map.range(..0)),
            }
            .map(|(&o, &l)| (o, l))
            .collect();
            let mut steps = 0u64;
            let mut pick: Option<(usize, usize)> = None;
            for (o, l) in order {
                steps += 1;
                let better = match fit {
                    FitAlgorithm::FirstFit | FitAlgorithm::NextFit => l >= len,
                    FitAlgorithm::ExactFit => l == len,
                    FitAlgorithm::BestFit => l >= len && pick.is_none_or(|(_, p)| l < p),
                    FitAlgorithm::WorstFit => l >= len && pick.is_none_or(|(_, p)| l > p),
                };
                if better {
                    pick = Some((o, l));
                    let stops = match fit {
                        FitAlgorithm::BestFit => l == len,
                        FitAlgorithm::WorstFit => false,
                        _ => true,
                    };
                    if stops {
                        break;
                    }
                }
            }
            if let (FitAlgorithm::NextFit, Some((o, _))) = (fit, pick) {
                self.cursor = Some(o + 1);
            }
            (pick.map(|(o, l)| Span::new(o, l)), steps)
        }

        fn remove(&mut self, offset: usize) {
            self.map.remove(&offset);
            if self.cursor == Some(offset) {
                self.cursor = self.map.range(offset..).next().map(|(&o, _)| o);
            }
        }
    }

    /// Model test of the blocked array: two grow-to-2,000-then-drain
    /// cycles, so chunks split and empty many times, with inserts at the
    /// next-fit cursor, removes of the cursor block and removes of a
    /// chunk's longest entry mixed in. Every fit's winner and charge, the
    /// length and the cursor must match the naive model throughout.
    #[test]
    fn addr_index_matches_btreemap_model_across_chunk_splits() {
        let mut idx = AddrIndex::new();
        let mut model = WalkModel::default();
        let mut x: u64 = 0x5EED_B10C_4ED5_0F0F;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut splits, mut drops, mut peak) = (0usize, 0usize, 0usize);
        let mut s = 0u64;
        for cycle in 0..2 {
            let mut growing = true;
            let mut op = 0usize;
            while growing || !model.map.is_empty() {
                op += 1;
                let r = rand();
                let chunks_before = idx.chunks.len();
                let mut special = true;
                match (r % 32, model.cursor) {
                    // The cursor block goes, or a block lands on the cursor.
                    (0, Some(c)) if model.map.contains_key(&c) => {
                        let len = model.map[&c];
                        idx.remove(NO_TOKEN, Span::new(c, len), &mut s).unwrap();
                        model.remove(c);
                    }
                    (0, Some(c)) => {
                        let span = Span::new(c, 8 + (r >> 20) as usize % 64 * 8);
                        idx.insert(span, bref(c), &mut s);
                        model.map.insert(c, span.len);
                    }
                    // A chunk loses its longest entry.
                    (1, _) if !idx.chunks.is_empty() => {
                        let chunk = &idx.chunks[(r >> 8) as usize % idx.chunks.len()];
                        let &(span, _) = chunk
                            .entries
                            .iter()
                            .find(|(sp, _)| sp.len == chunk.max_len)
                            .unwrap();
                        idx.remove(NO_TOKEN, span, &mut s).unwrap();
                        model.remove(span.offset);
                    }
                    _ => {
                        special = false;
                        let insert = if growing { r % 5 != 0 } else { r % 5 == 0 };
                        if insert || model.map.is_empty() {
                            let offset = (r >> 16) as usize % (1 << 16) * 16;
                            if let std::collections::btree_map::Entry::Vacant(v) =
                                model.map.entry(offset)
                            {
                                let span = Span::new(offset, 8 + (r >> 40) as usize % 64 * 8);
                                v.insert(span.len);
                                idx.insert(span, bref(offset), &mut s);
                            }
                        } else {
                            let i = (r >> 24) as usize % model.map.len();
                            let (&o, &l) = model.map.iter().nth(i).unwrap();
                            assert_eq!(idx.remove(NO_TOKEN, Span::new(o, l), &mut s), Some(bref(o)));
                            model.remove(o);
                        }
                    }
                }
                match idx.chunks.len().cmp(&chunks_before) {
                    std::cmp::Ordering::Greater => splits += 1,
                    std::cmp::Ordering::Less => drops += 1,
                    std::cmp::Ordering::Equal => {}
                }
                peak = peak.max(model.map.len());
                if model.map.len() >= 2_000 {
                    growing = false;
                }
                assert_eq!(idx.len(), model.map.len(), "cycle {cycle} op {op}: len");
                assert_eq!(idx.cursor, model.cursor, "cycle {cycle} op {op}: cursor");
                if !special && !op.is_multiple_of(16) {
                    continue;
                }
                idx.check_oracle().unwrap();
                let some_len = model.map.values().nth(op % model.map.len().max(1)).copied();
                for fit in FitAlgorithm::ALL {
                    for len in [8, 264, 520].into_iter().chain(some_len) {
                        let mut got_steps = 0u64;
                        let got = idx.find(fit, len, &mut got_steps).map(|f| f.span);
                        let want = model.find(fit, len);
                        assert_eq!((got, got_steps), want, "cycle {cycle} op {op}: {fit:?}/{len}");
                        assert_eq!(idx.cursor, model.cursor, "cycle {cycle} op {op}: {fit:?}");
                    }
                }
            }
            assert!(idx.chunks.is_empty(), "a drained index keeps no chunk");
        }
        assert!(peak >= 2_000, "peak {peak}");
        assert!(splits >= 10 && drops >= 10, "{splits} splits, {drops} drops");
    }
}
