//! The query synopsis `Q_n` (paper Definition 2): past snippets with their
//! raw answers and errors, capped per aggregate function with LRU eviction
//! (§2.3: "the query synopsis retains a maximum of C_g query snippets by
//! following a least recently used snippet replacement policy").
//!
//! **Layout.** The entries live in `Arc`-shared chunks of at most
//! `CHUNK` (64) entries. Reading them front to back gives insertion order,
//! with evicted entries removed in place. Each chunk keeps, beside its
//! entries, one 64-bit fingerprint per region and its smallest stamp. A
//! chunk that an eviction empties is dropped, and an eviction merges its
//! chunk with a neighbour when the two fit in one, so every adjacent pair
//! of chunks holds more than `CHUNK` entries.
//!
//! **Cost.** A published snapshot shares the chunks, so a write after a
//! publish copies one pointer per chunk plus the chunks it changes: the
//! refreshed or evicted entry's chunk and the tail it appends to — at
//! most two chunks, never all `n` regions. [`QuerySynopsis::record`]
//! finds a repeated region by comparing fingerprints (confirmed with
//! `Region::eq`) and the LRU victim from the per-chunk minimum stamps.

use std::sync::Arc;

use crate::region::{DimConstraint, Region};
use crate::snippet::Observation;

/// Entries per chunk: the most one write to a shared synopsis copies.
const CHUNK: usize = 64;

/// One retained snippet record.
#[derive(Debug, Clone)]
pub struct SynopsisEntry {
    /// The snippet's predicate region.
    pub region: Region,
    /// The raw answer/error pair from the AQP engine.
    pub observation: Observation,
    /// Monotone recency stamp (larger = more recent).
    stamp: u64,
}

impl SynopsisEntry {
    /// The entry's recency stamp.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Rebuilds an entry from persisted parts (see [`crate::persist`]).
    pub fn from_parts(region: Region, observation: Observation, stamp: u64) -> Self {
        SynopsisEntry {
            region,
            observation,
            stamp,
        }
    }
}

/// Up to [`CHUNK`] consecutive entries, never empty inside a synopsis.
#[derive(Debug, Clone)]
struct Chunk {
    entries: Vec<SynopsisEntry>,
    /// `fingerprint(&entries[i].region)`, parallel to `entries`.
    fingerprints: Vec<u64>,
    /// The smallest stamp in `entries`.
    min_stamp: u64,
}

impl Chunk {
    fn new(entries: Vec<SynopsisEntry>) -> Chunk {
        let fingerprints = entries.iter().map(|e| fingerprint(&e.region)).collect();
        let mut chunk = Chunk {
            entries,
            fingerprints,
            min_stamp: 0,
        };
        chunk.refresh_min();
        chunk
    }

    fn push(&mut self, entry: SynopsisEntry, fp: u64) {
        self.min_stamp = if self.entries.is_empty() {
            entry.stamp
        } else {
            self.min_stamp.min(entry.stamp)
        };
        self.entries.push(entry);
        self.fingerprints.push(fp);
    }

    fn remove(&mut self, i: usize) {
        self.entries.remove(i);
        self.fingerprints.remove(i);
        self.refresh_min();
    }

    fn refresh_min(&mut self) {
        self.min_stamp = self
            .entries
            .iter()
            .map(|e| e.stamp)
            .min()
            .unwrap_or(u64::MAX);
    }
}

/// A 64-bit hash of `region` that agrees with `Region::eq`: equal regions
/// hash equal. `-0.0` folds to `0.0` because the two compare equal. A NaN
/// end hashes its bits, which is harmless: such a region equals nothing,
/// itself included, and every fingerprint match is confirmed with `==`.
/// Fixed-key multiply-rotate mixing, so the value is the same in every
/// process.
fn fingerprint(region: &Region) -> u64 {
    fn mix(h: u64, word: u64) -> u64 {
        (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    }
    fn end(x: f64) -> u64 {
        if x == 0.0 {
            0
        } else {
            x.to_bits()
        }
    }
    let constraints = region.constraints();
    let mut h = mix(0, constraints.len() as u64);
    for c in constraints {
        h = match c {
            DimConstraint::Range { lo, hi } => mix(mix(mix(h, 0), end(*lo)), end(*hi)),
            DimConstraint::Set(None) => mix(h, 1),
            DimConstraint::Set(Some(codes)) => codes
                .iter()
                .fold(mix(mix(h, 2), codes.len() as u64), |h, &c| mix(h, c as u64)),
        };
    }
    h
}

/// LRU-capped store of past snippets for one aggregate function.
#[derive(Debug, Clone)]
pub struct QuerySynopsis {
    chunks: Vec<Arc<Chunk>>,
    capacity: usize,
    clock: u64,
}

/// A borrowed view of a synopsis's entries in insertion order (see
/// [`QuerySynopsis::entries`]).
#[derive(Debug, Clone, Copy)]
pub struct Entries<'a> {
    chunks: &'a [Arc<Chunk>],
    len: usize,
}

impl<'a> Entries<'a> {
    /// The entries, front to back.
    pub fn iter(&self) -> EntryIter<'a> {
        EntryIter {
            chunks: self.chunks.iter(),
            current: [].iter(),
            remaining: self.len,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for Entries<'a> {
    type Item = &'a SynopsisEntry;
    type IntoIter = EntryIter<'a>;

    fn into_iter(self) -> EntryIter<'a> {
        self.iter()
    }
}

/// Iterator over [`Entries`].
#[derive(Debug, Clone)]
pub struct EntryIter<'a> {
    chunks: std::slice::Iter<'a, Arc<Chunk>>,
    current: std::slice::Iter<'a, SynopsisEntry>,
    remaining: usize,
}

impl<'a> Iterator for EntryIter<'a> {
    type Item = &'a SynopsisEntry;

    fn next(&mut self) -> Option<&'a SynopsisEntry> {
        loop {
            if let Some(entry) = self.current.next() {
                self.remaining -= 1;
                return Some(entry);
            }
            self.current = self.chunks.next()?.entries.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for EntryIter<'_> {}

impl QuerySynopsis {
    /// Creates a synopsis with the given capacity (`C_g`).
    pub fn new(capacity: usize) -> Self {
        QuerySynopsis {
            chunks: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// Number of retained snippets (`n`).
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.entries.len()).sum()
    }

    /// Whether the synopsis is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Capacity `C_g`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current recency clock (equals the largest stamp handed out).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Rebuilds a synopsis from persisted parts (see [`crate::persist`]).
    /// The clock is floored at the largest entry stamp so recency keeps
    /// advancing monotonically after a reload.
    pub fn from_parts(capacity: usize, clock: u64, entries: Vec<SynopsisEntry>) -> Self {
        let max_stamp = entries.iter().map(|e| e.stamp).max().unwrap_or(0);
        let mut chunks = Vec::with_capacity(entries.len().div_ceil(CHUNK));
        let mut rest = entries.into_iter().peekable();
        while rest.peek().is_some() {
            chunks.push(Arc::new(Chunk::new(rest.by_ref().take(CHUNK).collect())));
        }
        QuerySynopsis {
            chunks,
            capacity: capacity.max(1),
            clock: clock.max(max_stamp),
        }
    }

    /// Retained entries in insertion order.
    pub fn entries(&self) -> Entries<'_> {
        Entries {
            chunks: &self.chunks,
            len: self.len(),
        }
    }

    /// Rewrites in place the observation of every entry whose region
    /// satisfies `select` (data-append adjustment, Appendix D; `select`
    /// is asked once per entry, front to back). Only the chunks holding a
    /// selected entry are copied. Returns the number of observations
    /// rewritten.
    pub(crate) fn rewrite_where(
        &mut self,
        mut select: impl FnMut(&Region) -> bool,
        mut rewrite: impl FnMut(Observation) -> Observation,
    ) -> usize {
        let mut rewritten = 0;
        let mut picked = Vec::new();
        for chunk in &mut self.chunks {
            picked.clear();
            picked.extend((0..chunk.entries.len()).filter(|&i| select(&chunk.entries[i].region)));
            if picked.is_empty() {
                continue;
            }
            let chunk = Arc::make_mut(chunk);
            for &i in &picked {
                let obs = &mut chunk.entries[i].observation;
                *obs = rewrite(*obs);
            }
            rewritten += picked.len();
        }
        rewritten
    }

    /// Records a snippet observation.
    ///
    /// If an identical region is already present, the entry is refreshed:
    /// its recency is bumped and the observation with the *smaller* error
    /// wins (re-running a query on a larger sample should never degrade the
    /// synopsis). Otherwise the snippet is appended, evicting the
    /// least-recently-used entry when at capacity.
    pub fn record(&mut self, region: Region, observation: Observation) {
        self.clock += 1;
        let fp = fingerprint(&region);
        if let Some((c, i)) = self.find(&region, fp) {
            let chunk = Arc::make_mut(&mut self.chunks[c]);
            let existing = &mut chunk.entries[i];
            let was_min = existing.stamp == chunk.min_stamp;
            existing.stamp = self.clock;
            if observation.error < existing.observation.error {
                existing.observation = observation;
            }
            if was_min {
                chunk.refresh_min();
            }
            return;
        }
        if self.len() >= self.capacity {
            self.evict_lru();
        }
        let entry = SynopsisEntry {
            region,
            observation,
            stamp: self.clock,
        };
        match self.chunks.last_mut() {
            Some(tail) if tail.entries.len() < CHUNK => Arc::make_mut(tail).push(entry, fp),
            _ => self.chunks.push(Arc::new(Chunk::new(vec![entry]))),
        }
    }

    /// The (chunk, slot) of the first entry whose region equals `region`;
    /// `fp` is `fingerprint(region)`.
    fn find(&self, region: &Region, fp: u64) -> Option<(usize, usize)> {
        self.chunks.iter().enumerate().find_map(|(c, chunk)| {
            chunk
                .fingerprints
                .iter()
                .zip(&chunk.entries)
                .position(|(&f, e)| f == fp && e.region == *region)
                .map(|i| (c, i))
        })
    }

    /// Drops the entry with the smallest stamp — the first one in
    /// insertion order on a tie — then drops its chunk if empty, or merges
    /// it with a neighbour the two fit in.
    fn evict_lru(&mut self) {
        let Some(c) = (0..self.chunks.len()).min_by_key(|&c| self.chunks[c].min_stamp) else {
            return;
        };
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        let victim = chunk
            .entries
            .iter()
            .position(|e| e.stamp == chunk.min_stamp);
        chunk.remove(victim.expect("a chunk's min_stamp is one of its stamps"));
        let len = |c: usize| self.chunks[c].entries.len();
        if len(c) == 0 {
            self.chunks.remove(c);
        } else if c > 0 && len(c - 1) + len(c) <= CHUNK {
            self.merge_into_previous(c);
        } else if c + 1 < self.chunks.len() && len(c) + len(c + 1) <= CHUNK {
            self.merge_into_previous(c + 1);
        }
    }

    /// Appends chunk `c`'s entries to chunk `c - 1` and drops chunk `c`.
    fn merge_into_previous(&mut self, c: usize) {
        let next = Arc::unwrap_or_clone(self.chunks.remove(c));
        let prev = Arc::make_mut(&mut self.chunks[c - 1]);
        for (entry, fp) in next.entries.into_iter().zip(next.fingerprints) {
            prev.push(entry, fp);
        }
    }

    /// The `k` most recent entries (for bounded training sets).
    pub fn most_recent(&self, k: usize) -> Vec<&SynopsisEntry> {
        let mut refs: Vec<&SynopsisEntry> = self.entries().iter().collect();
        refs.sort_by_key(|e| std::cmp::Reverse(e.stamp));
        refs.truncate(k);
        refs
    }

    /// The stored observation for an identical region.
    #[cfg(test)]
    pub(crate) fn observation_of(&self, region: &Region) -> Option<&Observation> {
        let (c, i) = self.find(region, fingerprint(region))?;
        Some(&self.chunks[c].entries[i].observation)
    }

    /// How many of this synopsis's chunks `other` shares (`Arc::ptr_eq`),
    /// and how many chunks this synopsis has.
    #[cfg(test)]
    pub(crate) fn chunks_shared_with(&self, other: &QuerySynopsis) -> (usize, usize) {
        let shared = self
            .chunks
            .iter()
            .filter(|c| other.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count();
        (shared, self.chunks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{DimensionSpec, Region, SchemaInfo};
    use verdict_storage::Predicate;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![DimensionSpec::numeric("x", 0.0, 100.0)]).unwrap()
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::from_predicate(&schema(), &Predicate::between("x", lo, hi)).unwrap()
    }

    fn raw_region(lo: f64, hi: f64) -> Region {
        Region::from_constraints(vec![DimConstraint::Range { lo, hi }])
    }

    /// Every layout invariant the module docs promise.
    fn assert_layout(s: &QuerySynopsis) {
        for (c, chunk) in s.chunks.iter().enumerate() {
            assert!(!chunk.entries.is_empty() && chunk.entries.len() <= CHUNK);
            assert_eq!(chunk.entries.len(), chunk.fingerprints.len());
            for (e, &fp) in chunk.entries.iter().zip(&chunk.fingerprints) {
                assert_eq!(fp, fingerprint(&e.region));
            }
            let min = chunk.entries.iter().map(|e| e.stamp).min().unwrap();
            assert_eq!(chunk.min_stamp, min);
            if c > 0 {
                assert!(s.chunks[c - 1].entries.len() + chunk.entries.len() > CHUNK);
            }
        }
    }

    #[test]
    fn record_and_find() {
        let mut s = QuerySynopsis::new(10);
        s.record(region(0.0, 10.0), Observation::new(5.0, 0.1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.observation_of(&region(0.0, 10.0)).unwrap().answer, 5.0);
        assert!(s.observation_of(&region(0.0, 11.0)).is_none());
    }

    #[test]
    fn duplicate_region_keeps_better_error() {
        let mut s = QuerySynopsis::new(10);
        s.record(region(0.0, 10.0), Observation::new(5.0, 0.5));
        s.record(region(0.0, 10.0), Observation::new(5.2, 0.1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.observation_of(&region(0.0, 10.0)).unwrap().error, 0.1);
        // A worse re-observation does not overwrite.
        s.record(region(0.0, 10.0), Observation::new(9.9, 2.0));
        assert_eq!(s.observation_of(&region(0.0, 10.0)).unwrap().answer, 5.2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut s = QuerySynopsis::new(2);
        s.record(region(0.0, 1.0), Observation::new(1.0, 0.1));
        s.record(region(1.0, 2.0), Observation::new(2.0, 0.1));
        // Refresh the first entry, making the second the LRU victim.
        s.record(region(0.0, 1.0), Observation::new(1.0, 0.05));
        s.record(region(2.0, 3.0), Observation::new(3.0, 0.1));
        assert_eq!(s.len(), 2);
        assert!(s.observation_of(&region(0.0, 1.0)).is_some());
        assert!(s.observation_of(&region(1.0, 2.0)).is_none());
        assert!(s.observation_of(&region(2.0, 3.0)).is_some());
    }

    #[test]
    fn most_recent_ordering() {
        let mut s = QuerySynopsis::new(10);
        for i in 0..5 {
            s.record(
                region(i as f64, i as f64 + 1.0),
                Observation::new(i as f64, 0.1),
            );
        }
        let top2 = s.most_recent(2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].observation.answer, 4.0);
        assert_eq!(top2[1].observation.answer, 3.0);
    }

    #[test]
    fn capacity_minimum_one() {
        let mut s = QuerySynopsis::new(0);
        s.record(region(0.0, 1.0), Observation::new(1.0, 0.1));
        s.record(region(1.0, 2.0), Observation::new(2.0, 0.1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fingerprint_matches_region_eq() {
        // `-0.0 == 0.0`, so the two regions are one entry, as they were
        // when `record` compared regions with `==` alone.
        let pos = raw_region(0.0, 5.0);
        let neg = raw_region(-0.0, 5.0);
        assert_eq!(pos, neg);
        assert_eq!(fingerprint(&pos), fingerprint(&neg));
        let mut s = QuerySynopsis::new(10);
        s.record(pos, Observation::new(1.0, 0.5));
        s.record(neg, Observation::new(2.0, 0.1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries().iter().next().unwrap().observation.answer, 2.0);
        // A NaN bound equals nothing, itself included: never merged.
        let nan = raw_region(f64::NAN, 5.0);
        s.record(nan.clone(), Observation::new(3.0, 0.1));
        s.record(nan, Observation::new(3.0, 0.1));
        assert_eq!(s.len(), 3);
        // Differently shaped constraints do not collide by construction.
        assert_ne!(
            fingerprint(&Region::from_constraints(vec![DimConstraint::Set(None)])),
            fingerprint(&Region::from_constraints(vec![DimConstraint::Set(Some(
                vec![]
            ))]))
        );
    }

    #[test]
    fn layout_holds_under_churn() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for capacity in [1, 63, 64, 65, 130, 300] {
            let mut s = QuerySynopsis::new(capacity);
            for step in 0..1_500 {
                let lo = next(400) as f64 / 4.0;
                s.record(region(lo, lo + 1.0), Observation::new(lo, 0.1));
                if step % 97 == 0 {
                    s.rewrite_where(|r| r.range(0).unwrap().0 < 50.0, |o| o);
                }
                assert!(s.len() <= capacity);
                assert_layout(&s);
            }
            let rebuilt = QuerySynopsis::from_parts(
                capacity,
                s.clock(),
                s.entries().iter().cloned().collect(),
            );
            assert_layout(&rebuilt);
        }
    }

    #[test]
    fn a_write_copies_at_most_two_chunks() {
        let mut s = QuerySynopsis::new(2_000);
        for i in 0..2_000 {
            s.record(
                raw_region(i as f64, i as f64 + 0.5),
                Observation::new(1.0, 0.1),
            );
        }
        for i in 0..200 {
            let published = s.clone();
            // New regions evict; every third write refreshes an old one.
            let lo = if i % 3 == 0 {
                (i * 7 % 2_000) as f64
            } else {
                5_000.0 + i as f64
            };
            s.record(raw_region(lo, lo + 0.5), Observation::new(2.0, 0.05));
            let (shared, total) = s.chunks_shared_with(&published);
            assert!(
                total - shared <= 2,
                "write {i} copied {} chunks",
                total - shared
            );
        }
        // A selective rewrite copies only the chunks it rewrites.
        let published = s.clone();
        let n = s.rewrite_where(|r| r.range(0).unwrap().0 < 10.0, |o| o);
        let (shared, total) = s.chunks_shared_with(&published);
        assert!(n > 0);
        assert_eq!(total - shared, 1);
    }
}
