//! The `Verdict` engine: synopsis + model + inference behind one façade
//! (paper Figure 2, Algorithms 1 and 2).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use verdict_stats::normal::confidence_multiplier;

use crate::append::{AppendAdjustment, IngestBounds};
use crate::covariance::AggMode;
use crate::inference::{CellPrior, TrainedModel};
use crate::kernel::KernelParams;
use crate::learning::{estimate_prior_mean, estimate_sigma2, learn_params};
use crate::region::{Region, SchemaInfo};
use crate::snippet::{AggKey, Observation, Snippet};
use crate::synopsis::QuerySynopsis;
use crate::validation::{clamp_freq_interval, validate, Verdict2};
use crate::{Result, VerdictConfig};

/// An improved answer `(θ̂, β̂)` plus provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprovedAnswer {
    /// Improved answer `θ̂_{n+1}`.
    pub answer: f64,
    /// Improved error `β̂_{n+1}` (never larger than the raw error,
    /// Theorem 1).
    pub error: f64,
    /// Whether the model-based answer was used (false = validation
    /// rejected it or no model was available, so raw passed through).
    pub used_model: bool,
}

impl ImprovedAnswer {
    /// Error bound `±α_δ · β̂` at confidence `delta` (§3.4).
    pub fn bound(&self, delta: f64) -> f64 {
        if self.error.is_finite() {
            confidence_multiplier(delta) * self.error
        } else {
            f64::INFINITY
        }
    }

    /// Confidence interval at `delta`; `is_freq` floors it at zero
    /// (Appendix B).
    pub fn interval(&self, delta: f64, is_freq: bool) -> (f64, f64) {
        let b = self.bound(delta);
        let (lo, hi) = (self.answer - b, self.answer + b);
        if is_freq {
            clamp_freq_interval(lo, hi)
        } else {
            (lo, hi)
        }
    }
}

/// Running counters for observability and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Snippets whose model answer was accepted.
    pub improved: u64,
    /// Snippets whose model answer was rejected by validation.
    pub rejected: u64,
    /// Snippets answered while no model was available.
    pub passed_through: u64,
    /// Snippets recorded into synopses.
    pub observed: u64,
}

impl EngineStats {
    /// Folds another counter set into this one. Read-path inference runs
    /// against immutable state and accumulates its counters into a local
    /// delta; the learn path merges that delta here, so concurrent readers
    /// never need write access to the engine.
    pub fn merge(&mut self, delta: EngineStats) {
        self.improved += delta.improved;
        self.rejected += delta.rejected;
        self.passed_through += delta.passed_through;
        self.observed += delta.observed;
    }

    /// Whether every counter is zero (a merge would be a no-op).
    pub fn is_zero(&self) -> bool {
        *self == EngineStats::default()
    }
}

/// Callback invoked every time a snippet observation enters the synopsis.
///
/// This is the engine's durability hook: `verdict-store` implements it to
/// append each observation to a write-ahead snippet log, so on-disk state
/// tracks the in-memory synopsis incrementally instead of by whole-state
/// rewrites.
pub trait SnippetObserver {
    /// Called after `observe` has recorded `(key, region, obs)`.
    fn on_snippet_appended(&mut self, key: &AggKey, region: &Region, obs: Observation);
}

/// The Verdict engine (one per learned relation).
pub struct Verdict {
    schema: SchemaInfo,
    config: VerdictConfig,
    /// Per-key learned state lives behind `Arc`s so publishing a
    /// snapshot shares every untouched key; mutation clones only the key
    /// it touches (`Arc::make_mut` — copy-on-write), and a synopsis
    /// clone shares its chunks, so a write copies one chunk or two, not
    /// the synopsis.
    synopses: HashMap<AggKey, Arc<QuerySynopsis>>,
    models: HashMap<AggKey, Arc<TrainedModel>>,
    stats: EngineStats,
    /// Monotone version of the learned state: bumped by every mutation
    /// (observe, train, append adjustment, restore). A published
    /// [`crate::concurrent::EngineSnapshot`] carries the epoch it was cut
    /// at, so readers can tell exactly which learned state answered them.
    epoch: u64,
    /// Monotone version of the *data* the learned state describes: bumped
    /// once per ingested batch ([`Verdict::commit_ingest`]). Published
    /// snapshots carry it so a pinned concurrent read can be matched to
    /// the exact table/sample version it answered from.
    data_epoch: u64,
    /// Monotone version of the *answer-affecting* state: bumped only by
    /// mutations that can change what a future query returns — training
    /// (models refit), append adjustments and ingest commits (bounds
    /// widened, data changed) and state restore. Recording a
    /// snippet into the synopsis does **not** bump it: snippets influence
    /// answers only after the next train. Two reads at the same
    /// `(model_epoch, data_epoch)` pair therefore return bit-identical
    /// answers, which is the invariant the serving layer's answer cache
    /// is keyed on.
    model_epoch: u64,
    observer: Option<Box<dyn SnippetObserver + Send>>,
}

/// A borrowed, immutable view of the learned state — everything the
/// query-time *read path* (Algorithm 2 lines 3–5) needs, and nothing it
/// may mutate. Both the live [`Verdict`] and a published
/// [`crate::concurrent::EngineSnapshot`] project to this view, so the
/// serial and concurrent executors run the *same* inference code and
/// agree bit for bit.
///
/// Inference bumps observability counters; a view accumulates them into a
/// caller-provided [`EngineStats`] delta instead of mutating the engine,
/// which the learn path later folds in via [`EngineStats::merge`].
#[derive(Clone, Copy)]
pub struct EngineView<'a> {
    schema: &'a SchemaInfo,
    config: &'a VerdictConfig,
    models: &'a HashMap<AggKey, Arc<TrainedModel>>,
}

impl<'a> EngineView<'a> {
    /// Assembles a view from its parts (crate-internal: used by `Verdict`
    /// and `EngineSnapshot`).
    pub(crate) fn from_parts(
        schema: &'a SchemaInfo,
        config: &'a VerdictConfig,
        models: &'a HashMap<AggKey, Arc<TrainedModel>>,
    ) -> Self {
        EngineView {
            schema,
            config,
            models,
        }
    }

    /// The dimension universe.
    pub fn schema(&self) -> &'a SchemaInfo {
        self.schema
    }

    /// The engine configuration.
    pub fn config(&self) -> &'a VerdictConfig {
        self.config
    }

    /// Whether a trained model exists for `key`.
    pub fn has_model(&self, key: &AggKey) -> bool {
        self.models.contains_key(key)
    }

    /// Query-time improvement (Algorithm 2 lines 3–5) against immutable
    /// state: runs inference if a model exists, validates the model-based
    /// answer, and returns either the improved pair or the raw pair.
    /// Counter bumps go into `stats`.
    pub fn improve(
        &self,
        snippet: &Snippet,
        raw: Observation,
        stats: &mut EngineStats,
    ) -> ImprovedAnswer {
        let prior = self.priors(&[snippet], |_| 1)[0];
        self.improve_from_prior(&snippet.key, prior, raw, stats)
    }

    /// Batched query-time improvement against immutable state: one
    /// improved answer per request, in request order, identical to calling
    /// [`EngineView::improve`] per item — the inference-side counterpart
    /// of the shared scan: [`EngineView::priors`] over all requests (on the
    /// calling thread), then [`EngineView::improve_from_prior`] per
    /// request.
    pub fn improve_batch(
        &self,
        requests: &[(Snippet, Observation)],
        stats: &mut EngineStats,
    ) -> Vec<ImprovedAnswer> {
        let snippets: Vec<&Snippet> = requests.iter().map(|(s, _)| s).collect();
        self.priors(&snippets, |_| 1)
            .into_iter()
            .zip(requests)
            .map(|(prior, (snippet, raw))| {
                self.improve_from_prior(&snippet.key, prior, *raw, stats)
            })
            .collect()
    }

    /// The raw-independent half of improvement: the model-only prior
    /// (Eq. 11) of every snippet, in order — `None` where the raw answer
    /// will pass through (no model for the key, or a degenerate region).
    /// This is all the O(n²) work of answering the snippets: they are
    /// bucketed by aggregate key so each model is looked up once and
    /// reads its factor of `Σₙ` once per ≤ 8 of them ([`TrainedModel::priors`]).
    /// A caller that re-evaluates bounds as a scan deepens calls this once
    /// per query and [`EngineView::improve_from_prior`] per evaluation.
    /// `workers(n)` is how many threads a pass over a model of `n`
    /// snippets runs on (the caller's included); the bits do not depend
    /// on it. This crate picks no count itself: the serving layer does.
    pub fn priors(
        &self,
        snippets: &[&Snippet],
        mut workers: impl FnMut(usize) -> usize,
    ) -> Vec<Option<CellPrior>> {
        let mut out = vec![None; snippets.len()];
        // Snippet indices by key, in first-seen key order.
        let mut buckets: Vec<(&AggKey, Vec<usize>)> = Vec::new();
        for (i, snippet) in snippets.iter().enumerate() {
            if snippet.region.is_degenerate() {
                continue;
            }
            match buckets.iter_mut().find(|(key, _)| **key == snippet.key) {
                Some((_, bucket)) => bucket.push(i),
                None => buckets.push((&snippet.key, vec![i])),
            }
        }
        for (key, bucket) in &buckets {
            let Some(model) = self.models.get(*key) else {
                continue;
            };
            let regions: Vec<&Region> = bucket.iter().map(|&i| &snippets[i].region).collect();
            let priors = model.priors(self.schema, &regions, workers(model.n()));
            for (&i, prior) in bucket.iter().zip(priors) {
                out[i] = Some(prior);
            }
        }
        out
    }

    /// The O(1) half of improvement (Algorithm 2 lines 4–5): combines a
    /// snippet's prior with its raw answer (Eq. 12), validates the
    /// model-based answer, and returns either the improved pair or the
    /// raw pair — the raw pair also when there is no prior. Counter bumps
    /// go into `stats`, one per call.
    pub fn improve_from_prior(
        &self,
        key: &AggKey,
        prior: Option<CellPrior>,
        raw: Observation,
        stats: &mut EngineStats,
    ) -> ImprovedAnswer {
        let Some(prior) = prior else {
            stats.passed_through += 1;
            return pass_through(raw);
        };
        let inference = prior.combine(raw);
        let decision = if self.config.enable_validation {
            validate(&inference, raw, key.is_freq(), self.config.validation_delta)
        } else {
            Verdict2::Accept
        };
        if decision.accepted() {
            stats.improved += 1;
            ImprovedAnswer {
                answer: inference.model_answer,
                error: inference.model_error,
                used_model: true,
            }
        } else {
            stats.rejected += 1;
            pass_through(raw)
        }
    }
}

impl std::fmt::Debug for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Verdict")
            .field("schema", &self.schema)
            .field("config", &self.config)
            .field("synopses", &self.synopses)
            .field("models", &self.models)
            .field("stats", &self.stats)
            .field("observer", &self.observer.as_ref().map(|_| "set"))
            .finish()
    }
}

impl Verdict {
    /// Creates an engine over the declared dimension universe.
    pub fn new(schema: SchemaInfo, config: VerdictConfig) -> Self {
        Verdict {
            schema,
            config,
            synopses: HashMap::new(),
            models: HashMap::new(),
            stats: EngineStats::default(),
            epoch: 0,
            data_epoch: 0,
            model_epoch: 0,
            observer: None,
        }
    }

    /// The immutable read view of the current learned state. All
    /// query-time inference goes through this view; see [`EngineView`].
    pub fn view(&self) -> EngineView<'_> {
        EngineView::from_parts(&self.schema, &self.config, &self.models)
    }

    /// The current epoch of the learned state (see the `epoch` field).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current data epoch: how many ingested batches this engine's
    /// learned state has been adjusted for (see the `data_epoch` field).
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch
    }

    /// Sets the data epoch (warm start: a recovered store reports how many
    /// ingest events its state has folded).
    pub fn set_data_epoch(&mut self, data_epoch: u64) {
        self.data_epoch = data_epoch;
    }

    /// The current model epoch: how many answer-affecting mutations
    /// (train / append adjustment / ingest commit / restore)
    /// this engine has applied (see the `model_epoch` field). Monotone;
    /// *not* bumped by synopsis observes.
    pub fn model_epoch(&self) -> u64 {
        self.model_epoch
    }

    /// Folds a read path's counter delta into the engine's stats (see
    /// [`EngineView`]). Not a learned-state mutation: the epoch does not
    /// move.
    pub(crate) fn merge_read_stats(&mut self, delta: EngineStats) {
        self.stats.merge(delta);
    }

    /// Installs the append hook; subsequent [`Verdict::observe`] calls are
    /// forwarded to it. Replaces any previous observer.
    pub fn set_observer(&mut self, observer: Box<dyn SnippetObserver + Send>) {
        self.observer = Some(observer);
    }

    /// The dimension universe.
    pub fn schema(&self) -> &SchemaInfo {
        &self.schema
    }

    /// The engine configuration.
    pub fn config(&self) -> &VerdictConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of snippets retained for `key`.
    pub fn synopsis_len(&self, key: &AggKey) -> usize {
        self.synopses.get(key).map_or(0, |s| s.len())
    }

    /// Total snippets retained across every key (the synopsis-size gauge
    /// the observability layer exports).
    pub fn synopsis_total_snippets(&self) -> usize {
        self.synopses.values().map(|s| s.len()).sum()
    }

    /// Whether a trained model exists for `key`.
    pub fn has_model(&self, key: &AggKey) -> bool {
        self.models.contains_key(key)
    }

    /// Shared handles to the synopses (snapshot publishing — clones the
    /// `Arc`s, not the entries).
    pub(crate) fn synopses_cloned(&self) -> HashMap<AggKey, Arc<QuerySynopsis>> {
        self.synopses.clone()
    }

    /// Shared handles to the trained models (snapshot publishing).
    pub(crate) fn models_cloned(&self) -> HashMap<AggKey, Arc<TrainedModel>> {
        self.models.clone()
    }

    /// Records a snippet's raw answer into the synopsis (Algorithm 2
    /// line 6). The model is *not* refit here; call [`Verdict::train`]
    /// (offline, Algorithm 1) to fold new snippets in.
    pub fn observe(&mut self, snippet: &Snippet, obs: Observation) {
        let synopsis = self
            .synopses
            .entry(snippet.key.clone())
            .or_insert_with(|| Arc::new(QuerySynopsis::new(self.config.synopsis_capacity)));
        // Copy-on-write: if a published snapshot shares this synopsis,
        // clone its chunk handles; `record` copies the chunks it changes.
        Arc::make_mut(synopsis).record(snippet.region.clone(), obs);
        self.stats.observed += 1;
        self.epoch += 1;
        if let Some(observer) = self.observer.as_mut() {
            observer.on_snippet_appended(&snippet.key, &snippet.region, obs);
        }
    }

    /// Offline training (Algorithm 1): for every aggregate function with
    /// enough snippets, learn correlation parameters by maximum likelihood,
    /// then factor `Σₙ`. Reports where the time went.
    pub fn train(&mut self) -> Result<TrainReport> {
        let keys: Vec<AggKey> = self.synopses.keys().cloned().collect();
        let mut report = TrainReport::default();
        for key in keys {
            report.merge(self.train_key(&key)?);
        }
        Ok(report)
    }

    /// Trains the model for one aggregate function. A key with no
    /// synopsis is a no-op: no epoch moves, so no cached answer is voided.
    pub(crate) fn train_key(&mut self, key: &AggKey) -> Result<TrainReport> {
        let Some(synopsis) = self.synopses.get(key) else {
            return Ok(TrainReport::default());
        };
        self.epoch += 1;
        self.model_epoch += 1;
        match fit_model(&self.schema, &self.config, key, synopsis, None)? {
            Some((model, report)) => {
                self.models.insert(key.clone(), Arc::new(model));
                Ok(report)
            }
            None => {
                self.models.remove(key);
                Ok(TrainReport::default())
            }
        }
    }

    /// Query-time improvement (Algorithm 2 lines 3–5): runs inference if a
    /// model exists, validates the model-based answer, and returns either
    /// the improved pair or the raw pair.
    ///
    /// Serial convenience over [`EngineView::improve`]: the read runs
    /// against [`Verdict::view`] and the counter delta is merged back
    /// immediately.
    pub fn improve(&mut self, snippet: &Snippet, raw: Observation) -> ImprovedAnswer {
        let mut delta = EngineStats::default();
        let answer = EngineView::from_parts(&self.schema, &self.config, &self.models)
            .improve(snippet, raw, &mut delta);
        self.stats.merge(delta);
        answer
    }

    /// Batched query-time improvement: one improved answer per request, in
    /// request order, identical to calling [`Verdict::improve`] per item.
    ///
    /// Serial convenience over [`EngineView::improve_batch`], which holds
    /// the batching rationale.
    pub fn improve_batch(&mut self, requests: &[(Snippet, Observation)]) -> Vec<ImprovedAnswer> {
        let mut delta = EngineStats::default();
        let answers = EngineView::from_parts(&self.schema, &self.config, &self.models)
            .improve_batch(requests, &mut delta);
        self.stats.merge(delta);
        answers
    }

    /// Applies a data-append adjustment (Appendix D, Lemma 3) to the
    /// synopsis of `key`, then refits the model so inference sees the
    /// inflated errors — the one-key, unscoped case of
    /// [`Verdict::stage_ingest_filtered`] (the model keeps its
    /// lengthscales). This is the manual entry point; ingests and their
    /// WAL replay stage and commit whole batches instead.
    ///
    /// Returns the number of snippets that were rewritten. A key with no
    /// synopsis adjusts **zero** snippets — that is not an error (the
    /// append simply predates any learning for this aggregate), but it is
    /// visible to the caller instead of a silent `Ok(())`. Units: see
    /// [`AppendAdjustment::estimate`] — `µ`/`η` are in the aggregate's own
    /// value units, and both are scaled by `|r_a| / (|r| + |r_a|)` before
    /// touching a stored `(θ, β)`.
    pub fn apply_append(&mut self, key: &AggKey, adjustment: &AppendAdjustment) -> Result<usize> {
        let staged = self.stage_ingest(&[(key.clone(), *adjustment)])?;
        let adjusted = staged.adjusted;
        // Single-key commit: install without the batch-level data-epoch
        // bump (manual adjustments are not ingest events).
        self.install_staged(staged);
        self.epoch += 1;
        self.model_epoch += 1;
        Ok(adjusted)
    }

    /// Phase 1 of an ingest: computes every adjusted synopsis and refit
    /// model **without mutating the engine**. All fallible work (model
    /// fitting can fail on a degenerate covariance) happens here, so a
    /// caller can order `stage → WAL append → commit` and a failure at
    /// any step leaves memory and disk consistent — nothing is ever
    /// half-applied, and a WAL record is never written for an adjustment
    /// the live engine then failed to apply.
    ///
    /// Callers must pass a deterministic key order (the session sorts by
    /// `AggKey`), because WAL replay re-applies the same slice in the same
    /// order and the states must match bit for bit.
    pub fn stage_ingest(&self, adjustments: &[(AggKey, AppendAdjustment)]) -> Result<StagedIngest> {
        self.stage_ingest_filtered(adjustments, None)
    }

    /// [`Verdict::stage_ingest`] with partition-aware widening: when
    /// `bounds` describes the values the append touched
    /// ([`IngestBounds::touched`]: the batch unioned with its receiving
    /// partitions' summaries), `AVG` snippets whose region is provably
    /// disjoint from those bounds keep their answer and error untouched
    /// (`Region::disjoint_from`) — drift confined to one partition no
    /// longer widens every stored snippet.
    ///
    /// `FREQ(*)` snippets are always widened regardless of `bounds`: any
    /// append changes the relative-frequency denominator `|r| + |r_a|`, so
    /// no region is unaffected. `bounds = None` is exactly
    /// [`Verdict::stage_ingest`].
    ///
    /// **Refit, not retrain.** Lemma 3 rewrites stored `(θ, β)`; it does
    /// not move the correlation the model learned. A key that has a model
    /// keeps its lengthscales: only `µ` and `σ²` are recomputed, in closed
    /// form over the widened answers, and the conditioning state is fit
    /// once — no likelihood is evaluated. A key without a model is fit
    /// exactly as `Verdict::train_key` would fit it, search included.
    /// The staged [`TrainReport`] says which happened.
    ///
    /// Determinism: the rewrite set is a pure function of (key order,
    /// bounds, stored regions) and each refit of (widened synopsis, the
    /// key's current model), so replaying the same slice with the same
    /// bounds over the same state yields a bit-identical state.
    pub fn stage_ingest_filtered(
        &self,
        adjustments: &[(AggKey, AppendAdjustment)],
        bounds: Option<&IngestBounds>,
    ) -> Result<StagedIngest> {
        let mut entries = Vec::with_capacity(adjustments.len());
        let mut adjusted = 0usize;
        #[cfg(test)]
        let mut report = TrainReport::default();
        for (key, adjustment) in adjustments {
            match self.synopses.get(key) {
                Some(synopsis) => {
                    let mut synopsis = (**synopsis).clone();
                    adjusted += match bounds {
                        Some(b) if !key.is_freq() => adjustment
                            .adjust_synopsis_where(&mut synopsis, |r| {
                                !r.disjoint_from(&self.schema, b)
                            }),
                        _ => adjustment.adjust_synopsis(&mut synopsis),
                    };
                    let kept = self.models.get(key).map(|m| &m.params().lengthscales[..]);
                    let model = fit_model(&self.schema, &self.config, key, &synopsis, kept)?.map(
                        |(model, _fit)| {
                            #[cfg(test)]
                            report.merge(_fit);
                            Arc::new(model)
                        },
                    );
                    entries.push((key.clone(), Some(Arc::new(synopsis)), model));
                }
                // No synopsis: nothing to adjust, and (matching
                // `train_key` on a missing synopsis) any existing model
                // is left untouched.
                None => entries.push((key.clone(), None, None)),
            }
        }
        Ok(StagedIngest {
            entries,
            adjusted,
            #[cfg(test)]
            report,
        })
    }

    /// Phase 2 of an ingest: installs a staged batch. Infallible, so it
    /// can run *after* the WAL append. Bumps the data epoch once for the
    /// whole batch. Returns the total snippets adjusted.
    pub fn commit_ingest(&mut self, staged: StagedIngest) -> usize {
        let adjusted = staged.adjusted;
        self.install_staged(staged);
        self.data_epoch += 1;
        self.epoch += 1;
        self.model_epoch += 1;
        adjusted
    }

    fn install_staged(&mut self, staged: StagedIngest) {
        for (key, synopsis, model) in staged.entries {
            // A key with no synopsis staged nothing; any existing model
            // stays (mirrors `train_key`).
            let Some(synopsis) = synopsis else { continue };
            self.synopses.insert(key.clone(), synopsis);
            match model {
                Some(model) => {
                    self.models.insert(key, model);
                }
                None => {
                    // An adjusted synopsis too small to train: the stale
                    // model (fit before the adjustment) must go.
                    self.models.remove(&key);
                }
            }
        }
    }

    /// The retained synopsis for `key`, if any (introspection: ingest
    /// invariant tests compare stored observations before and after an
    /// adjustment).
    pub fn synopsis(&self, key: &AggKey) -> Option<&QuerySynopsis> {
        self.synopses.get(key).map(|s| s.as_ref())
    }

    /// All aggregates with a retained synopsis, sorted. The ingest path
    /// iterates this to build a deterministic adjustment list ("all
    /// affected aggregates" must mean the same thing at replay).
    pub fn synopsis_keys(&self) -> Vec<AggKey> {
        let mut keys: Vec<AggKey> = self.synopses.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Exports the complete learned state in deterministic (key-sorted)
    /// order — the snapshot payload of the durable store.
    pub fn export_state(&self) -> crate::persist::EngineState {
        let mut synopses: Vec<(AggKey, QuerySynopsis)> = self
            .synopses
            .iter()
            .map(|(k, s)| (k.clone(), (**s).clone()))
            .collect();
        synopses.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut models: Vec<(AggKey, TrainedModel)> = self
            .models
            .iter()
            .map(|(k, m)| (k.clone(), (**m).clone()))
            .collect();
        models.sort_by(|(a, _), (b, _)| a.cmp(b));
        crate::persist::EngineState {
            schema: self.schema.clone(),
            synopses,
            models,
            stats: self.stats,
        }
    }

    /// Encodes the complete learned state directly from the engine's
    /// internals — byte-identical to `export_state().to_bytes()` but
    /// without deep-cloning every synopsis and model first. This is the
    /// checkpoint path's fast serializer.
    pub fn state_bytes(&self) -> Vec<u8> {
        encode_state(&self.schema, &self.synopses, &self.models, &self.stats)
    }

    /// Replaces all learned state with `state` (warm start from disk).
    ///
    /// The state's schema must match the engine's declared schema — a
    /// synopsis learned over different dimensions would silently produce
    /// wrong covariances — and so must every region it holds, and every
    /// model's lengthscale count; anything else is
    /// [`crate::CoreError::SchemaMismatch`] and leaves the engine as it was.
    ///
    /// Note on counters: WAL replay restores only `stats.observed`
    /// faithfully; `improved`/`rejected`/`passed_through` reflect the
    /// last checkpoint, so across a crash they can trail the pre-crash
    /// session's values. Answers and error bounds are unaffected.
    pub fn restore_state(&mut self, state: crate::persist::EngineState) -> Result<()> {
        if state.schema != self.schema {
            return Err(crate::CoreError::SchemaMismatch(
                "persisted state was learned over a different dimension universe".into(),
            ));
        }
        let fits = |r: &Region| r.fits(&self.schema);
        let misfit = |what: String| {
            crate::CoreError::SchemaMismatch(format!("persisted {what} does not fit the schema"))
        };
        for (key, synopsis) in &state.synopses {
            if !synopsis.entries().iter().all(|e| fits(&e.region)) {
                return Err(misfit(format!("synopsis region of {key}")));
            }
        }
        for (key, model) in &state.models {
            if model.params().lengthscales.len() != self.schema.len() {
                return Err(misfit(format!("lengthscale count of {key}'s model")));
            }
            if !model.regions().iter().all(fits) {
                return Err(misfit(format!("region of {key}'s model")));
            }
        }
        self.synopses = state
            .synopses
            .into_iter()
            .map(|(k, s)| (k, Arc::new(s)))
            .collect();
        self.models = state
            .models
            .into_iter()
            .map(|(k, m)| (k, Arc::new(m)))
            .collect();
        self.stats = state.stats;
        self.epoch += 1;
        self.model_epoch += 1;
        Ok(())
    }
}

/// The one deterministic (key-sorted) encoding of a learned state, used
/// by both [`Verdict::state_bytes`] and
/// [`crate::concurrent::EngineSnapshot::state_bytes`] — two states are
/// bit-identical iff these bytes are equal, and keeping a single encoder
/// means the two paths cannot drift apart.
pub(crate) fn encode_state(
    schema: &SchemaInfo,
    synopses: &HashMap<AggKey, Arc<QuerySynopsis>>,
    models: &HashMap<AggKey, Arc<TrainedModel>>,
    stats: &EngineStats,
) -> Vec<u8> {
    use crate::persist::{Encoder, Persist};
    let mut enc = Encoder::new();
    schema.encode(&mut enc);
    let mut keys: Vec<&AggKey> = synopses.keys().collect();
    keys.sort();
    enc.put_len(keys.len());
    for key in keys {
        key.encode(&mut enc);
        synopses[key].encode(&mut enc);
    }
    let mut keys: Vec<&AggKey> = models.keys().collect();
    keys.sort();
    enc.put_len(keys.len());
    for key in keys {
        key.encode(&mut enc);
        models[key].encode(&mut enc);
    }
    stats.encode(&mut enc);
    enc.into_bytes()
}

/// A fully computed but not-yet-installed ingest batch: every adjusted
/// synopsis and refit model, produced by [`Verdict::stage_ingest`] and
/// installed by [`Verdict::commit_ingest`]. Holding one does not block
/// reads — it references nothing inside the engine.
#[derive(Debug)]
pub struct StagedIngest {
    /// Per key: the adjusted synopsis (`None` = key had no synopsis) and
    /// the refit model (`None` = too small to train → remove stale).
    entries: Vec<StagedEntry>,
    /// Snippets rewritten across all keys.
    adjusted: usize,
    /// Where the staged refits spent their time (kept for the tests that
    /// hold ingest to no likelihood search).
    #[cfg(test)]
    report: TrainReport,
}

impl StagedIngest {
    /// Where the staged refits spent their time: `evaluations` is zero
    /// unless a key without a model was fit from scratch.
    #[cfg(test)]
    pub(crate) fn report(&self) -> TrainReport {
        self.report
    }
}

/// One staged per-key rewrite (see [`StagedIngest`]).
type StagedEntry = (
    AggKey,
    Option<Arc<QuerySynopsis>>,
    Option<Arc<TrainedModel>>,
);

/// Where a training pass (or an ingest's refits) spent its time, summed
/// over the keys it fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainReport {
    /// Nanoseconds choosing the kernel parameters: the lengthscale
    /// searches ([`learn_params`]), or, for a key that kept its
    /// lengthscales, the closed-form `µ` and `σ²`.
    pub search_ns: u64,
    /// Nanoseconds fitting the conditioning state ([`TrainedModel`]'s
    /// `Σₙ`, its factor and `α`).
    pub fit_ns: u64,
    /// Likelihood evaluations the searches ran.
    pub evaluations: u64,
}

impl TrainReport {
    fn merge(&mut self, other: TrainReport) {
        self.search_ns += other.search_ns;
        self.fit_ns += other.fit_ns;
        self.evaluations += other.evaluations;
    }
}

/// The one model-fitting routine (Algorithm 1 for one key): chooses the
/// kernel parameters on a bounded, most-recent subset, then fits the
/// conditioning state on the full synopsis. With `lengthscales = None`
/// the lengthscales are learned ([`learn_params`]); with the lengthscales
/// of the key's current model — an ingest refit — they are kept, and only
/// the prior mean `µ` and the variance `σ²` are recomputed, by the same
/// closed forms (Appendix F.3) over the same subset the search would
/// have used. `Ok(None)` means the synopsis is too small to train — the
/// caller removes any stale model. Pure with respect to engine state, so
/// staged (pre-commit) fits and `train_key` share it and cannot drift.
/// The report times each half.
fn fit_model(
    schema: &SchemaInfo,
    config: &VerdictConfig,
    key: &AggKey,
    synopsis: &QuerySynopsis,
    lengthscales: Option<&[f64]>,
) -> Result<Option<(TrainedModel, TrainReport)>> {
    if synopsis.len() < config.min_snippets_to_train {
        return Ok(None);
    }
    let mode = AggMode::of(key);
    let started = Instant::now();
    let training = synopsis.most_recent(config.max_training_snippets);
    let regions: Vec<&Region> = training.iter().map(|e| &e.region).collect();
    let answers: Vec<f64> = training.iter().map(|e| e.observation.answer).collect();
    let (params, prior, evaluations) = match lengthscales {
        Some(lengthscales) => {
            let sigma2 = estimate_sigma2(mode, schema, &regions, &answers);
            let params = KernelParams {
                lengthscales: lengthscales.to_vec(),
                sigma2,
            };
            (
                params,
                estimate_prior_mean(mode, schema, &regions, &answers),
                0,
            )
        }
        None => {
            let errors: Vec<f64> = training.iter().map(|e| e.observation.error).collect();
            let learned = learn_params(schema, mode, &regions, &answers, &errors, config);
            (learned.params, learned.prior, learned.evaluations)
        }
    };
    let searched = Instant::now();
    let (regions, observations) = synopsis
        .entries()
        .iter()
        .map(|e| (e.region.clone(), e.observation))
        .unzip();
    let model = TrainedModel::fit_owned(
        schema,
        mode,
        regions,
        observations,
        params,
        prior,
        config.jitter,
    )?;
    let report = TrainReport {
        search_ns: (searched - started).as_nanos() as u64,
        fit_ns: searched.elapsed().as_nanos() as u64,
        evaluations,
    };
    Ok(Some((model, report)))
}

/// Raw answer passed through unimproved.
fn pass_through(raw: Observation) -> ImprovedAnswer {
    ImprovedAnswer {
        answer: raw.answer,
        error: raw.error,
        used_model: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::DimensionSpec;
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

    fn trained_engine() -> Verdict {
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
    fn untrained_engine_passes_raw_through() {
        let mut v = Verdict::new(schema(), VerdictConfig::default());
        let raw = Observation::new(5.0, 1.0);
        let imp = v.improve(&snippet(0.0, 10.0), raw);
        assert!(!imp.used_model);
        assert_eq!(imp.answer, 5.0);
        assert_eq!(imp.error, 1.0);
        assert_eq!(v.stats().passed_through, 1);
    }

    #[test]
    fn trained_engine_improves_error() {
        let mut v = trained_engine();
        assert!(v.has_model(&AggKey::avg("v")));
        let raw = Observation::new(10.5, 0.8);
        let imp = v.improve(&snippet(10.0, 30.0), raw);
        assert!(imp.used_model, "model should be accepted");
        assert!(imp.error < 0.8, "error {} not improved", imp.error);
    }

    #[test]
    fn theorem1_holds_through_engine() {
        let mut v = trained_engine();
        for (lo, hi, theta, beta) in [
            (0.0, 50.0, 10.0, 0.5),
            (90.0, 99.0, 11.0, 0.2),
            (5.0, 6.0, 9.5, 2.0),
        ] {
            let imp = v.improve(&snippet(lo, hi), Observation::new(theta, beta));
            assert!(imp.error <= beta + 1e-12);
        }
    }

    #[test]
    fn validation_rejects_wild_model() {
        // Poison the synopsis with answers near 10, then query with a raw
        // answer wildly different and a tiny raw error: the model answer
        // (pulled toward 10) falls outside the likely region of the raw
        // answer, so validation must reject and return raw.
        let mut v = trained_engine();
        let raw = Observation::new(500.0, 0.05);
        let imp = v.improve(&snippet(40.0, 60.0), raw);
        assert!(!imp.used_model);
        assert_eq!(imp.answer, 500.0);
        assert!(v.stats().rejected >= 1);
    }

    #[test]
    fn validation_can_be_disabled() {
        let mut v = Verdict::new(schema(), VerdictConfig::without_validation());
        for i in 0..12 {
            let lo = i as f64 * 8.0;
            v.observe(&snippet(lo, lo + 8.0), Observation::new(10.0, 0.15));
        }
        v.train().unwrap();
        let raw = Observation::new(500.0, 0.05);
        let imp = v.improve(&snippet(40.0, 60.0), raw);
        assert!(imp.used_model, "validation disabled: model always used");
    }

    #[test]
    fn min_snippets_gate_training() {
        let mut v = Verdict::new(schema(), VerdictConfig::default());
        v.observe(&snippet(0.0, 10.0), Observation::new(1.0, 0.1));
        v.observe(&snippet(10.0, 20.0), Observation::new(2.0, 0.1));
        v.train().unwrap();
        assert!(!v.has_model(&AggKey::avg("v")));
    }

    #[test]
    fn training_a_key_without_a_synopsis_moves_no_epoch() {
        let mut v = trained_engine();
        let (epoch, model_epoch) = (v.epoch(), v.model_epoch());
        let report = v.train_key(&AggKey::Freq).unwrap();
        assert_eq!(report, TrainReport::default());
        assert_eq!((v.epoch(), v.model_epoch()), (epoch, model_epoch));
        // A key that has one does, and says what the pass cost.
        let report = v.train_key(&AggKey::avg("v")).unwrap();
        assert!(report.evaluations > 0);
        assert_eq!((v.epoch(), v.model_epoch()), (epoch + 1, model_epoch + 1));
    }

    #[test]
    fn degenerate_region_passes_through() {
        let mut v = trained_engine();
        let s = Snippet::new(
            AggKey::avg("v"),
            Region::from_predicate(&schema(), &Predicate::between("t", 60.0, 40.0)).unwrap(),
        );
        let imp = v.improve(&s, Observation::new(3.0, 0.4));
        assert!(!imp.used_model);
    }

    #[test]
    fn filtered_ingest_widens_only_touched_regions() {
        let mut v = Verdict::new(schema(), VerdictConfig::default());
        v.observe(&snippet(0.0, 10.0), Observation::new(1.0, 0.1));
        v.observe(&snippet(80.0, 90.0), Observation::new(2.0, 0.1));
        let low = Region::from_predicate(&schema(), &Predicate::between("t", 0.0, 10.0)).unwrap();
        let high = Region::from_predicate(&schema(), &Predicate::between("t", 80.0, 90.0)).unwrap();
        v.observe(
            &Snippet::new(AggKey::Freq, low.clone()),
            Observation::new(0.1, 0.05),
        );
        let adjustments = vec![
            (
                AggKey::avg("v"),
                AppendAdjustment {
                    mu_shift: 4.0,
                    eta: 0.5,
                    old_rows: 50,
                    appended_rows: 50,
                },
            ),
            (AggKey::Freq, AppendAdjustment::freq_worst_case(50, 50)),
        ];
        // Append confined to t ∈ [85, 88]: the low AVG region is provably
        // untouched; FREQ widens regardless (its denominator changed).
        let mut bounds = IngestBounds::new();
        bounds.add_numeric("t", 85.0, 88.0, false);
        let staged = v
            .stage_ingest_filtered(&adjustments, Some(&bounds))
            .unwrap();
        assert_eq!(v.commit_ingest(staged), 2);
        let syn = v.synopsis(&AggKey::avg("v")).unwrap();
        let lo = syn.observation_of(&low).unwrap();
        assert_eq!((lo.answer, lo.error), (1.0, 0.1));
        let hi = syn.observation_of(&high).unwrap();
        assert!((hi.answer - 4.0).abs() < 1e-12); // 2 + 4·0.5
        assert!(hi.error > 0.1);
        let f = v
            .synopsis(&AggKey::Freq)
            .unwrap()
            .observation_of(&low)
            .unwrap();
        assert!(f.error > 0.05, "FREQ widens even in untouched regions");
    }

    #[test]
    fn append_inflates_errors_and_keeps_model() {
        let mut v = trained_engine();
        let adj = AppendAdjustment {
            mu_shift: 1.0,
            eta: 0.5,
            old_rows: 80,
            appended_rows: 20,
        };
        v.apply_append(&AggKey::avg("v"), &adj).unwrap();
        assert!(v.has_model(&AggKey::avg("v")));
        // Improved error for a repeated region should now be larger than
        // before the append (less trust in old answers).
        let raw = Observation::new(10.5, 0.8);
        let imp = v.improve(&snippet(10.0, 30.0), raw);
        assert!(imp.error <= 0.8);
    }

    fn model_of(v: &Verdict, key: &AggKey) -> TrainedModel {
        let models = v.export_state().models;
        models.into_iter().find(|(k, _)| k == key).unwrap().1
    }

    /// An ingest refit keeps a trained key's lengthscales and recomputes
    /// only the closed-form `µ` and `σ²` — no likelihood is evaluated —
    /// while a key that has no model yet is fit exactly as `train_key`
    /// fits it, search included.
    #[test]
    fn ingest_refit_keeps_lengthscales_and_searches_only_for_new_models() {
        use crate::persist::Persist;
        let with_untrained_freq = || {
            let mut v = trained_engine();
            for i in 0..5 {
                let region = snippet(i as f64 * 15.0, i as f64 * 15.0 + 15.0).region;
                v.observe(
                    &Snippet::new(AggKey::Freq, region),
                    Observation::new(0.15 + 0.01 * i as f64, 0.02),
                );
            }
            v
        };
        let avg = AggKey::avg("v");
        let widen_avg = AppendAdjustment {
            mu_shift: 1.5,
            eta: 0.4,
            old_rows: 80,
            appended_rows: 20,
        };
        let adjustments = vec![
            (avg.clone(), widen_avg),
            (AggKey::Freq, AppendAdjustment::freq_worst_case(80, 20)),
        ];

        let mut v = with_untrained_freq();
        let before = model_of(&v, &avg);
        assert!(!v.has_model(&AggKey::Freq));
        let only_trained = v.stage_ingest(&adjustments[..1]).unwrap();
        assert_eq!(only_trained.report().evaluations, 0, "no search at ingest");
        let staged = v.stage_ingest(&adjustments).unwrap();
        let searched = staged.report().evaluations;
        v.commit_ingest(staged);

        let after = model_of(&v, &avg);
        assert_eq!(after.params().lengthscales, before.params().lengthscales);
        let synopsis = v.synopsis(&avg).unwrap();
        let training = synopsis.most_recent(v.config().max_training_snippets);
        let regions: Vec<&Region> = training.iter().map(|e| &e.region).collect();
        let answers: Vec<f64> = training.iter().map(|e| e.observation.answer).collect();
        let sigma2 = estimate_sigma2(AggMode::Avg, v.schema(), &regions, &answers);
        assert_eq!(after.params().sigma2.to_bits(), sigma2.to_bits());
        let prior = estimate_prior_mean(AggMode::Avg, v.schema(), &regions, &answers);
        assert_eq!(*after.prior(), prior);
        assert_ne!(
            after.prior(),
            before.prior(),
            "µ follows the widened answers"
        );

        // The twin fits FREQ with `train_key` on the same widened synopsis.
        let mut twin = with_untrained_freq();
        let staged = twin.stage_ingest(&adjustments).unwrap();
        twin.commit_ingest(staged);
        let trained = twin.train_key(&AggKey::Freq).unwrap();
        assert!(trained.evaluations > 0);
        assert_eq!(searched, trained.evaluations);
        assert_eq!(
            model_of(&v, &AggKey::Freq).to_bytes(),
            model_of(&twin, &AggKey::Freq).to_bytes()
        );
    }

    #[test]
    fn bound_and_interval() {
        let imp = ImprovedAnswer {
            answer: 10.0,
            error: 1.0,
            used_model: true,
        };
        let b = imp.bound(0.95);
        assert!((b - 1.959963984540054).abs() < 1e-9);
        let (lo, hi) = imp.interval(0.95, false);
        assert!((lo - (10.0 - b)).abs() < 1e-12);
        assert!((hi - (10.0 + b)).abs() < 1e-12);
        // FREQ clamping.
        let imp = ImprovedAnswer {
            answer: 0.01,
            error: 0.05,
            used_model: true,
        };
        let (lo, _) = imp.interval(0.95, true);
        assert_eq!(lo, 0.0);
    }

    #[test]
    fn improve_batch_matches_sequential_improve() {
        // Same engine state, same inputs: batch answers must bit-match the
        // per-snippet path, including stats counters.
        let requests: Vec<(Snippet, Observation)> = vec![
            (snippet(10.0, 30.0), Observation::new(10.5, 0.8)),
            (snippet(0.0, 50.0), Observation::new(10.0, 0.5)),
            (snippet(60.0, 40.0), Observation::new(3.0, 0.4)), // degenerate
            (snippet(90.0, 99.0), Observation::new(500.0, 0.05)), // rejected
            (
                Snippet::new(AggKey::Freq, snippet(5.0, 6.0).region),
                Observation::new(0.2, 0.1),
            ), // no FREQ model: pass-through
        ];
        let mut sequential = trained_engine();
        let expected: Vec<ImprovedAnswer> = requests
            .iter()
            .map(|(s, o)| sequential.improve(s, *o))
            .collect();
        let mut batched = trained_engine();
        let got = batched.improve_batch(&requests);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            assert_eq!(g.answer.to_bits(), e.answer.to_bits());
            assert_eq!(g.error.to_bits(), e.error.to_bits());
            assert_eq!(g.used_model, e.used_model);
        }
        assert_eq!(batched.stats(), sequential.stats());
    }

    #[test]
    fn improve_batch_empty_is_noop() {
        let mut v = trained_engine();
        let before = v.stats();
        assert!(v.improve_batch(&[]).is_empty());
        assert_eq!(v.stats(), before);
    }

    #[test]
    fn restored_state_that_does_not_fit_the_schema_is_refused() {
        use crate::persist::{EngineState, Persist, PersistError};
        use crate::region::DimConstraint;

        let v = trained_engine();
        let good = v.export_state();
        let model = &good.models[0].1;
        // `model` with its kernel parameters or regions replaced, encoded
        // into a whole state and decoded again.
        let crafted = |lengthscales: Vec<f64>, sigma2: f64, regions: Vec<Region>| {
            let mut state = good.clone();
            state.models[0].1 = TrainedModel::from_parts(
                model.mode(),
                KernelParams {
                    lengthscales,
                    sigma2,
                },
                *model.prior(),
                regions,
                model.observations().to_vec(),
                model.factor().clone(),
                model.alpha().to_vec(),
            );
            EngineState::from_bytes(&state.to_bytes())
        };
        let l = model.params().lengthscales[0];
        let sigma2 = model.params().sigma2;
        let regions = model.regions().to_vec();
        assert!(crafted(vec![l], sigma2, regions.clone()).is_ok());

        // Caught by the codec: regions wider or narrower than the
        // lengthscale list, or a lengthscale or σ² not finite and > 0.
        let corrupt = |r: crate::persist::PersistResult<EngineState>| {
            matches!(r, Err(PersistError::Corrupt(_)))
        };
        assert!(corrupt(crafted(vec![], sigma2, regions.clone())));
        for bad in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                corrupt(crafted(vec![bad], sigma2, regions.clone())),
                "ℓ = {bad}"
            );
            assert!(
                corrupt(crafted(vec![l], bad, regions.clone())),
                "σ² = {bad}"
            );
        }

        // Caught at restore: well formed, but not over this schema.
        let restore = |state: EngineState| {
            let mut engine = Verdict::new(schema(), VerdictConfig::default());
            let before = engine.state_bytes();
            let result = engine.restore_state(state);
            if result.is_err() {
                assert_eq!(
                    engine.state_bytes(),
                    before,
                    "a refused state changes nothing"
                );
            }
            result
        };
        let two_dims: Vec<Region> = regions
            .iter()
            .map(|r| {
                let mut c = r.constraints().to_vec();
                c.push(c[0].clone());
                Region::from_constraints(c)
            })
            .collect();
        let categorical =
            vec![Region::from_constraints(vec![DimConstraint::Set(None)]); regions.len()];
        for state in [
            crafted(vec![l, l], sigma2, two_dims).unwrap(),
            crafted(vec![l], sigma2, categorical.clone()).unwrap(),
        ] {
            assert!(matches!(
                restore(state),
                Err(crate::CoreError::SchemaMismatch(_))
            ));
        }
        let mut synopsis = QuerySynopsis::new(4);
        synopsis.record(categorical[0].clone(), Observation::new(1.0, 0.1));
        let mut state = good.clone();
        state.synopses.push((AggKey::avg("w"), synopsis));
        let state = EngineState::from_bytes(&state.to_bytes()).unwrap();
        assert!(matches!(
            restore(state),
            Err(crate::CoreError::SchemaMismatch(_))
        ));

        let restored = crafted(vec![l], sigma2, regions).unwrap();
        restore(restored).unwrap();
    }
}
