//! The read-path / learn-path split: immutable published snapshots of the
//! learned state, and the serialized learner that produces them.
//!
//! The paper's engine *answers* queries from frozen state — trained models
//! (Algorithm 1 output) plus the synopsis — and only *mutates* that state
//! when a new snippet is absorbed or a model is retrained. This module
//! makes the split explicit so any number of threads can read while one
//! writer learns:
//!
//! - [`EngineSnapshot`] — an immutable copy of a [`Verdict`]'s learned
//!   state at one [`epoch`](EngineSnapshot::epoch), sharing per-key state
//!   with the engine copy-on-write (publishing clones `Arc` handles, not
//!   synopses or models). `Send + Sync`; share it behind an `Arc` and run
//!   inference from as many threads as you like via
//!   [`EngineSnapshot::view`].
//! - [`Learner`] — the serialized write path: owns the live [`Verdict`],
//!   absorbs snippet observations, retrains, and publishes a new snapshot
//!   after each. Exactly one `Learner` exists per engine; its owner
//!   serializes writers (a shard keeps it behind its writer mutex) and
//!   hands each published snapshot to readers.
//!
//! A query that read epoch `e` is answered entirely from that epoch's
//! state even if the learner publishes `e + 1` mid-scan — snapshot
//! isolation for free, because snapshots are immutable.

use std::collections::HashMap;
use std::sync::Arc;

use crate::engine::{EngineStats, EngineView, TrainReport, Verdict};
use crate::inference::TrainedModel;
use crate::region::SchemaInfo;
use crate::snippet::{AggKey, Observation, Snippet};
use crate::synopsis::QuerySynopsis;
use crate::{Result, VerdictConfig};

/// An immutable snapshot of the learned state at one epoch.
///
/// Everything the query-time read path consumes — schema, config, trained
/// models — plus the synopsis contents for introspection. Constructed by
/// [`Verdict::publish`]; shared via `Arc`.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub(crate) epoch: u64,
    pub(crate) data_epoch: u64,
    pub(crate) model_epoch: u64,
    pub(crate) schema: SchemaInfo,
    pub(crate) config: VerdictConfig,
    /// Per-key state is shared with the engine via `Arc`: publishing
    /// copies only the map of handles, and the engine's next write to a
    /// key copies that key's synopsis handle list plus the one or two
    /// chunks the write changes (copy-on-write, see [`crate::synopsis`]),
    /// so snapshot cost grows with neither the synopsis nor the models.
    pub(crate) synopses: HashMap<AggKey, Arc<QuerySynopsis>>,
    pub(crate) models: HashMap<AggKey, Arc<TrainedModel>>,
    pub(crate) stats: EngineStats,
}

impl EngineSnapshot {
    /// The epoch of the learned state this snapshot froze.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The data epoch the frozen state describes: how many ingested
    /// batches it has been adjusted for. A pinned read is bit-reproducible
    /// only against the table/sample version with the same data epoch.
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch
    }

    /// The model epoch the frozen state was cut at: how many
    /// answer-affecting mutations (train / append adjustment / ingest /
    /// restore) the engine had applied. Unlike
    /// [`EngineSnapshot::epoch`], synopsis observes do *not* move it, so
    /// two snapshots with equal `(model_epoch, data_epoch)` answer every
    /// query bit-identically — the invariant a memoizing answer cache
    /// keys on.
    pub fn model_epoch(&self) -> u64 {
        self.model_epoch
    }

    /// The dimension universe.
    pub fn schema(&self) -> &SchemaInfo {
        &self.schema
    }

    /// The engine configuration.
    pub fn config(&self) -> &VerdictConfig {
        &self.config
    }

    /// The engine counters as of the snapshot.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of snippets the snapshot's synopsis retains for `key`.
    pub fn synopsis_len(&self, key: &AggKey) -> usize {
        self.synopses.get(key).map_or(0, |s| s.len())
    }

    /// Total snippets retained across every key (the synopsis-size gauge
    /// the observability layer exports).
    pub fn synopsis_total_snippets(&self) -> usize {
        self.synopses.values().map(|s| s.len()).sum()
    }

    /// Number of distinct keys with a retained synopsis.
    pub fn synopsis_num_keys(&self) -> usize {
        self.synopses.len()
    }

    /// Every key the snapshot retains a synopsis for, sorted (the map
    /// itself has no stable order).
    pub fn synopsis_keys(&self) -> Vec<AggKey> {
        let mut keys: Vec<AggKey> = self.synopses.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Whether the snapshot carries a trained model for `key`.
    pub fn has_model(&self, key: &AggKey) -> bool {
        self.models.contains_key(key)
    }

    /// The read view over this snapshot — same inference code as the live
    /// engine's [`Verdict::view`], so answers agree bit for bit.
    pub fn view(&self) -> EngineView<'_> {
        EngineView::from_parts(&self.schema, &self.config, &self.models)
    }

    /// Encodes the snapshot's learned state, byte-identical to
    /// [`Verdict::state_bytes`] on the engine the snapshot was published
    /// from — two states are bit-identical iff these bytes are equal
    /// (both go through the same crate-internal encoder).
    pub fn state_bytes(&self) -> Vec<u8> {
        crate::engine::encode_state(&self.schema, &self.synopses, &self.models, &self.stats)
    }
}

impl Verdict {
    /// Publishes the current learned state as an immutable snapshot
    /// stamped with the current epoch. Cheap: per-key state is shared
    /// (`Arc`); the engine clones an entry only when it next mutates it.
    pub fn publish(&self) -> EngineSnapshot {
        EngineSnapshot {
            epoch: self.epoch(),
            data_epoch: self.data_epoch(),
            model_epoch: self.model_epoch(),
            schema: self.schema().clone(),
            config: self.config().clone(),
            synopses: self.synopses_cloned(),
            models: self.models_cloned(),
            stats: self.stats(),
        }
    }
}

/// The serialized learn path: the live engine plus the latest snapshot
/// it published.
///
/// All mutation of learned state funnels through one `Learner` (callers
/// wrap it in a `Mutex` for multi-threaded writers): snippet absorption,
/// retraining, append adjustments. Each mutating batch republishes, so
/// epochs move forward in the order the writer produced them.
#[derive(Debug)]
pub struct Learner {
    engine: Verdict,
    latest: Arc<EngineSnapshot>,
}

impl Learner {
    /// Wraps a live engine and publishes its current state as the first
    /// snapshot.
    pub fn new(engine: Verdict) -> Learner {
        let latest = Arc::new(engine.publish());
        Learner { engine, latest }
    }

    /// The latest published snapshot.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.latest)
    }

    /// The live engine (read-only).
    pub fn engine(&self) -> &Verdict {
        &self.engine
    }

    /// Escape hatch to the live engine. Mutations made through this handle
    /// are **not visible to readers** until [`Learner::republish`] — use
    /// the learner's own methods where one exists.
    pub fn engine_mut(&mut self) -> &mut Verdict {
        &mut self.engine
    }

    /// Absorbs one query's recorded snippet observations (Algorithm 2
    /// line 6) plus its read-stats delta, then republishes once for the
    /// whole batch. Observations are applied in slice order, so the
    /// engine's append hook (WAL persistence) sees exactly the order the
    /// serial session would have produced.
    pub fn absorb(&mut self, recorded: &[(Snippet, Observation)], read_stats: EngineStats) {
        self.engine.merge_read_stats(read_stats);
        for (snippet, obs) in recorded {
            self.engine.observe(snippet, *obs);
        }
        self.republish();
    }

    /// Offline training pass (Algorithm 1), then republish.
    pub fn train(&mut self) -> Result<TrainReport> {
        let result = self.engine.train();
        self.republish();
        result
    }

    /// Publishes the engine's current state as the latest snapshot.
    pub fn republish(&mut self) {
        self.latest = Arc::new(self.engine.publish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{DimensionSpec, Region};
    use verdict_storage::Predicate;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap()
    }

    fn snippet(lo: f64, hi: f64) -> Snippet {
        Snippet::new(
            AggKey::avg("v"),
            Region::from_predicate(&schema(), &Predicate::between("t", lo, hi)).unwrap(),
        )
    }

    fn seeded_engine() -> Verdict {
        let mut v = Verdict::new(schema(), VerdictConfig::default());
        for i in 0..12 {
            let lo = i as f64 * 8.0;
            let ans = 10.0 + (lo / 25.0).sin() * 2.0;
            v.observe(&snippet(lo, lo + 8.0), Observation::new(ans, 0.15));
        }
        v.train().unwrap();
        v
    }

    #[test]
    fn snapshot_answers_match_live_engine() {
        let mut live = seeded_engine();
        let snap = live.publish();
        assert_eq!(snap.epoch(), live.epoch());
        assert!(snap.has_model(&AggKey::avg("v")));
        let raw = Observation::new(10.5, 0.8);
        let mut delta = EngineStats::default();
        let from_snap = snap.view().improve(&snippet(10.0, 30.0), raw, &mut delta);
        let from_live = live.improve(&snippet(10.0, 30.0), raw);
        assert_eq!(from_snap.answer.to_bits(), from_live.answer.to_bits());
        assert_eq!(from_snap.error.to_bits(), from_live.error.to_bits());
        assert_eq!(from_snap.used_model, from_live.used_model);
        assert_eq!(delta.improved, 1);
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutations() {
        let mut live = seeded_engine();
        let before = live.publish();
        let n_before = before.synopsis_len(&AggKey::avg("v"));
        live.observe(&snippet(0.0, 99.0), Observation::new(10.0, 0.2));
        assert_eq!(before.synopsis_len(&AggKey::avg("v")), n_before);
        assert!(live.epoch() > before.epoch());
    }

    /// Observing after a publish copies at most two of the synopsis's
    /// chunks (the refreshed or evicted entry's, and the tail), never the
    /// whole synopsis, and leaves the snapshot's bytes alone.
    #[test]
    fn observe_after_publish_copies_at_most_two_chunks() {
        let key = AggKey::avg("v");
        let mut live = Verdict::new(schema(), VerdictConfig::default());
        assert_eq!(live.config().synopsis_capacity, 2_000);
        for i in 0..2_000 {
            let lo = i as f64 * 0.04;
            live.observe(&snippet(lo, lo + 10.0), Observation::new(1.0, 0.1));
        }
        let first = live.publish();
        let first_bytes = first.state_bytes();
        for i in 0..50 {
            let published = live.publish();
            // Mostly new regions (each evicts one), every fifth a refresh.
            let lo = if i % 5 == 0 {
                (1_000 + i) as f64 * 0.04
            } else {
                0.01 + i as f64 * 0.5
            };
            live.observe(&snippet(lo, lo + 10.0), Observation::new(2.0, 0.05));
            let ours = live.synopsis(&key).unwrap();
            let (shared, total) = ours.chunks_shared_with(&published.synopses[&key]);
            assert!(
                total - shared <= 2,
                "observe {i} copied {} chunks",
                total - shared
            );
        }
        assert_eq!(first.state_bytes(), first_bytes);
        assert_eq!(live.synopsis(&key).unwrap().len(), 2_000);
    }

    #[test]
    fn learner_absorb_publishes_monotone_epochs() {
        let mut learner = Learner::new(seeded_engine());
        let e0 = learner.snapshot().epoch();
        learner.absorb(
            &[(snippet(3.0, 9.0), Observation::new(10.1, 0.2))],
            EngineStats::default(),
        );
        let e1 = learner.snapshot().epoch();
        assert!(e1 > e0);
        learner.train().unwrap();
        assert!(learner.snapshot().epoch() > e1);
        assert_eq!(
            learner.snapshot().synopsis_len(&AggKey::avg("v")),
            learner.engine().synopsis_len(&AggKey::avg("v"))
        );
    }

    #[test]
    fn stats_merge_reaches_next_snapshot() {
        let mut learner = Learner::new(seeded_engine());
        let delta = EngineStats {
            improved: 3,
            rejected: 1,
            passed_through: 2,
            observed: 0,
        };
        let stats_before = learner.snapshot().stats();
        learner.engine.merge_read_stats(delta);
        // Not republished yet: readers still see the old counters.
        assert_eq!(learner.snapshot().stats(), stats_before);
        learner.republish();
        let stats_after = learner.snapshot().stats();
        assert_eq!(stats_after.improved, stats_before.improved + 3);
        assert_eq!(stats_after.passed_through, stats_before.passed_through + 2);
    }

    #[test]
    fn snapshot_state_bytes_match_engine_state_bytes() {
        let live = seeded_engine();
        let snap = live.publish();
        assert_eq!(snap.state_bytes(), live.state_bytes());
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineSnapshot>();
        assert_send_sync::<Arc<EngineSnapshot>>();
    }
}
