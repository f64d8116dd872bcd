//! The chunked `QuerySynopsis` against a flat reference model.
//!
//! The reference is the synopsis as one `Vec` in insertion order: a linear
//! `==` search for a repeated region, a first-minimum LRU victim and an
//! in-place removal. Random sequences of records (repeats and `0.0`/`-0.0`
//! bounds included), evictions, Lemma-3 rewrites and `from_parts` rebuilds
//! run on both, at capacities on both sides of the chunk size, and every
//! step must leave the same entries in the same order with the same
//! stamps, observations, clock, `most_recent(k)` and persisted bytes.

use proptest::prelude::*;
use verdict_core::append::AppendAdjustment;
use verdict_core::persist::{Encoder, Persist};
use verdict_core::region::DimConstraint;
use verdict_core::synopsis::SynopsisEntry;
use verdict_core::{Observation, QuerySynopsis, Region};

/// The flat synopsis every chunked one must match.
struct Flat {
    entries: Vec<(Region, Observation, u64)>,
    capacity: usize,
    clock: u64,
}

impl Flat {
    fn from_parts(capacity: usize, clock: u64, entries: Vec<(Region, Observation, u64)>) -> Flat {
        let max_stamp = entries.iter().map(|e| e.2).max().unwrap_or(0);
        Flat {
            entries,
            capacity: capacity.max(1),
            clock: clock.max(max_stamp),
        }
    }

    fn record(&mut self, region: Region, observation: Observation) {
        self.clock += 1;
        if let Some(existing) = self.entries.iter_mut().find(|e| e.0 == region) {
            existing.2 = self.clock;
            if observation.error < existing.1.error {
                existing.1 = observation;
            }
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some((idx, _)) = self.entries.iter().enumerate().min_by_key(|(_, e)| e.2) {
                self.entries.remove(idx);
            }
        }
        self.entries.push((region, observation, self.clock));
    }

    fn most_recent(&self, k: usize) -> Vec<u64> {
        let mut stamps: Vec<u64> = self.entries.iter().map(|e| e.2).collect();
        stamps.sort_by_key(|&s| std::cmp::Reverse(s));
        stamps.truncate(k);
        stamps
    }

    fn bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_len(self.capacity);
        enc.put_u64(self.clock);
        enc.put_len(self.entries.len());
        for (region, obs, stamp) in &self.entries {
            region.encode(&mut enc);
            obs.encode(&mut enc);
            enc.put_u64(*stamp);
        }
        enc.into_bytes()
    }
}

/// Region `i` of a small pool, so records repeat. Region 0 takes a `-0.0`
/// or `0.0` lower bound (equal regions); region 1 may take a NaN bound
/// (equal to nothing, never refreshed).
fn region(i: usize, flag: bool) -> Region {
    let lo = match (i, flag) {
        (0, true) => -0.0,
        (1, true) => f64::NAN,
        _ => i as f64,
    };
    Region::from_constraints(vec![
        DimConstraint::Range {
            lo,
            hi: i as f64 + 1.0,
        },
        DimConstraint::Set(if i.is_multiple_of(3) {
            None
        } else {
            Some(vec![i as u32 % 5])
        }),
    ])
}

fn flat_entries(s: &QuerySynopsis) -> Vec<(Region, Observation, u64)> {
    s.entries()
        .iter()
        .map(|e| (e.region.clone(), e.observation, e.stamp()))
        .collect()
}

fn assert_same(s: &QuerySynopsis, flat: &Flat) -> Result<(), TestCaseError> {
    prop_assert_eq!(s.len(), flat.entries.len());
    prop_assert_eq!(s.entries().len(), flat.entries.len());
    prop_assert_eq!(s.is_empty(), flat.entries.is_empty());
    prop_assert_eq!(s.capacity(), flat.capacity);
    prop_assert_eq!(s.clock(), flat.clock);
    for (e, (region, obs, stamp)) in s.entries().iter().zip(&flat.entries) {
        prop_assert_eq!(e.region.to_bytes(), region.to_bytes());
        prop_assert_eq!(e.observation.answer.to_bits(), obs.answer.to_bits());
        prop_assert_eq!(e.observation.error.to_bits(), obs.error.to_bits());
        prop_assert_eq!(e.stamp(), *stamp);
    }
    for k in [0, 1, 7, 64, 65, 1_000] {
        let ours: Vec<u64> = s.most_recent(k).iter().map(|e| e.stamp()).collect();
        prop_assert_eq!(ours, flat.most_recent(k));
    }
    prop_assert_eq!(s.to_bytes(), flat.bytes());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunked_synopsis_matches_the_flat_reference(
        capacity in 1usize..=200,
        ops in prop::collection::vec(
            (0u8..20, 0usize..260, any::<bool>(), -5.0..5.0f64, 0.01..2.0f64),
            0..500,
        ),
    ) {
        let mut s = QuerySynopsis::new(capacity);
        let mut flat = Flat::from_parts(capacity, 0, Vec::new());
        let adjustment = AppendAdjustment {
            mu_shift: 0.5,
            eta: 0.25,
            old_rows: 100,
            appended_rows: 10,
        };
        for (op, i, flag, answer, error) in ops {
            match op {
                // Lemma 3 over every entry.
                0 => {
                    let n = adjustment.adjust_synopsis(&mut s);
                    prop_assert_eq!(n, flat.entries.len());
                    for e in &mut flat.entries {
                        e.1 = adjustment.adjust(e.1);
                    }
                }
                // Lemma 3 over the entries a filter selects.
                1 => {
                    let widen = |r: &Region| r.range(0).is_some_and(|(lo, _)| lo < i as f64);
                    let n = adjustment.adjust_synopsis_where(&mut s, widen);
                    let mut m = 0;
                    for e in &mut flat.entries {
                        if widen(&e.0) {
                            e.1 = adjustment.adjust(e.1);
                            m += 1;
                        }
                    }
                    prop_assert_eq!(n, m);
                }
                // A persist round trip.
                2 => {
                    s = QuerySynopsis::from_bytes(&s.to_bytes()).expect("decodes");
                }
                // A rebuild from parts: a new capacity (possibly below the
                // length) and, when `flag`, stamps folded so they tie.
                3 => {
                    let capacity = i % 200 + 1;
                    let fold = |stamp: u64| if flag { stamp % 7 } else { stamp };
                    let parts: Vec<SynopsisEntry> = flat_entries(&s)
                        .into_iter()
                        .map(|(r, o, stamp)| SynopsisEntry::from_parts(r, o, fold(stamp)))
                        .collect();
                    let clock = if flag { 0 } else { s.clock() };
                    s = QuerySynopsis::from_parts(capacity, clock, parts);
                    let entries = flat.entries.drain(..).map(|(r, o, st)| (r, o, fold(st))).collect();
                    flat = Flat::from_parts(capacity, clock, entries);
                }
                // Record (new regions, repeats, `-0.0` and NaN bounds).
                _ => {
                    let observation = Observation::new(answer, error);
                    s.record(region(i, flag), observation);
                    flat.record(region(i, flag), observation);
                }
            }
            assert_same(&s, &flat)?;
        }
    }
}
