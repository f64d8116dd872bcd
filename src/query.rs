//! Query execution options and the prepared-statement serving path.
//!
//! [`QueryOptions`] replaces the positional `Mode`/`StopPolicy` arguments
//! of the session API: one struct carries the inference mode, the stop
//! policy, and an optional pinned snapshot, and new knobs can be added
//! without breaking callers (the struct is `#[non_exhaustive]`; build it
//! with the `with_*` methods).
//!
//! [`Prepared`] is the hot serving path for repeated query shapes:
//! [`crate::Database::prepare`] runs parse → resolve `FROM` → check →
//! compile the plan template **once**; every [`Prepared::bind`] +
//! [`Bound::run`] afterwards only substitutes literals into the compiled
//! plan, picks a snapshot, and scans. There is no other path: ad-hoc
//! [`crate::Database::query`] compiles the same template and runs the
//! same step with no parameters, so the two answer bit-identically by
//! construction.

use std::sync::Arc;
use std::time::Instant;

use verdict_sql::{ParamKind, PreparedQuery};
use verdict_storage::Value;

use crate::database::{SessionSnapshot, Shard};
use crate::{Mode, QueryOutcome, Result, StopPolicy};

/// How one query executes: inference mode, stop policy, and (optionally)
/// a pinned snapshot.
///
/// Non-exhaustive — construct with [`QueryOptions::new`] /
/// [`Default::default`] and refine with the `with_*` methods:
///
/// ```ignore
/// let opts = QueryOptions::new()
///     .with_mode(Mode::Verdict)
///     .with_policy(StopPolicy::RelativeErrorBound { target: 0.025, delta: 0.95 });
/// ```
#[derive(Clone)]
#[non_exhaustive]
pub struct QueryOptions {
    /// Whether inference improves answers (default [`Mode::Verdict`]).
    pub mode: Mode,
    /// When the sample scan stops (default [`StopPolicy::ScanAll`]).
    pub policy: StopPolicy,
    /// Pin the read to a previously captured snapshot pair: the query is
    /// answered entirely from that epoch's learned state **and** data
    /// version, learning is skipped, and the rotation counter does not
    /// advance — a pure function of the snapshot, bit-reproducible
    /// regardless of concurrent writers or ingests. The snapshot must
    /// come from the table the query addresses.
    pub pinned_epoch: Option<SessionSnapshot>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            mode: Mode::Verdict,
            policy: StopPolicy::ScanAll,
            pinned_epoch: None,
        }
    }
}

impl std::fmt::Debug for QueryOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryOptions")
            .field("mode", &format_args!("{}", self.mode))
            .field("policy", &format_args!("{}", self.policy))
            .field(
                "pinned_epoch",
                &self.pinned_epoch.as_ref().map(|s| s.epoch()),
            )
            .finish()
    }
}

impl QueryOptions {
    /// The defaults: `Mode::Verdict`, `StopPolicy::ScanAll`, no pin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shorthand for the baseline mode (raw AQP answers, no learning).
    pub fn no_learn() -> Self {
        Self::new().with_mode(Mode::NoLearn)
    }

    /// Sets the inference mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the stop policy.
    pub fn with_policy(mut self, policy: StopPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Pins the read to `snapshot` (see [`QueryOptions::pinned_epoch`]).
    pub fn pinned(mut self, snapshot: SessionSnapshot) -> Self {
        self.pinned_epoch = Some(snapshot);
        self
    }
}

/// A statement prepared by [`crate::Database::prepare`]: the whole SQL
/// layer's work, done once and frozen.
///
/// `Send + Sync + Clone` — one prepared handle can serve any number of
/// threads concurrently; each [`Prepared::bind`] / [`Bound::run`] pair is
/// an independent execution against the table's current (or a pinned)
/// snapshot.
#[derive(Clone)]
pub struct Prepared {
    shard: Arc<Shard>,
    inner: PreparedQuery,
    sql: String,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("sql", &self.sql)
            .field("table", &self.table_name())
            .field("placeholders", &self.placeholder_count())
            .finish()
    }
}

impl Prepared {
    pub(crate) fn new(shard: Arc<Shard>, inner: PreparedQuery, sql: String) -> Prepared {
        Prepared { shard, inner, sql }
    }

    /// The original statement text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The catalog table the statement resolved to.
    pub fn table_name(&self) -> &str {
        &self.shard.name
    }

    /// Number of `?` placeholders the statement binds.
    pub fn placeholder_count(&self) -> usize {
        self.inner.placeholder_count()
    }

    /// The accepted kind of each placeholder, by index.
    pub fn param_kinds(&self) -> &[ParamKind] {
        self.inner.param_kinds()
    }

    /// Stable 64-bit fingerprint of the compiled plan
    /// ([`verdict_sql::PreparedQuery::fingerprint`]): equal fingerprints
    /// mean structurally identical plans, so `(table, fingerprint,
    /// bound literals)` identifies an answer up to table state. Stable
    /// across processes and hosts — usable as a persistent cache key.
    pub fn plan_fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    /// The table's current answer-cache validity token:
    /// `Some((model_epoch, data_epoch))` when repeated runs of one
    /// statement are bit-reproducible (fixed sample rotation), `None`
    /// when round-robin rotation makes each run consume the rotation
    /// counter. Two runs bracketed by equal tokens returned identical
    /// bytes — and conversely, any training, ingest, or restore in
    /// between moves the token. A memoizing cache stores an answer under
    /// the token observed around its run and serves it only while the
    /// live token still matches; staleness is impossible by
    /// construction.
    pub fn cache_token(&self) -> Option<(u64, u64)> {
        if !self.shard.deterministic_serving() {
            return None;
        }
        let snapshot = self.shard.current();
        Some((snapshot.model_epoch(), snapshot.data_epoch()))
    }

    /// Binds the placeholders, validating count and value kinds eagerly
    /// ([`PreparedQuery::check_params`]): a wrong count or a value whose
    /// type cannot fit its column is a typed error here, before any scan.
    pub fn bind(&self, params: &[Value]) -> Result<Bound<'_>> {
        self.inner.check_params(params)?;
        Ok(Bound {
            prepared: self,
            params: params.to_vec(),
        })
    }
}

/// A prepared statement with its parameters bound, ready to run (any
/// number of times).
pub struct Bound<'a> {
    prepared: &'a Prepared,
    params: Vec<Value>,
}

impl std::fmt::Debug for Bound<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bound")
            .field("sql", &self.prepared.sql)
            .field("params", &self.params)
            .finish()
    }
}

impl Bound<'_> {
    /// Executes against the table's current snapshot (or the one pinned
    /// in `opts`): substitute literals into the compiled plan, enumerate
    /// groups if the statement has a `GROUP BY`, run the one shared scan,
    /// absorb what was learned. No SQL-layer work happens here: the trace
    /// has no parse stage; binding, groups and assembly count as planning.
    pub fn run(&self, opts: &QueryOptions) -> Result<QueryOutcome> {
        let t0 = Instant::now();
        let Prepared { shard, inner, sql } = self.prepared;
        shard.begin_query(opts)?;
        shard.answer(opts, sql, true, t0, inner, &self.params)
    }
}

// A prepared handle is part of the serving surface: it must cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Prepared>();
    assert_send_sync::<QueryOptions>();
};
