//! Shared experiment plumbing: workload/session construction, exact-answer
//! evaluation, and error measurement for single-aggregate queries.

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::{Mode, QueryOutcome, SessionBuilder, StopPolicy, VerdictSession};
use verdict_aqp::{CostModel, StorageTier};
use verdict_sql::{parse_query, plan_scan};
use verdict_storage::Table;

/// Which dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Customer1-style events table + trace.
    Customer1,
    /// TPC-H-style denormalized lineitem.
    Tpch,
}

impl Dataset {
    /// Display name matching the paper's labels.
    pub fn label(&self) -> &'static str {
        match self {
            Dataset::Customer1 => "Customer1",
            Dataset::Tpch => "TPC-H",
        }
    }
}

/// A ready-to-run environment: session + train/test query split.
pub struct ExperimentEnv {
    /// The live session.
    pub session: VerdictSession,
    /// The storage tier the default [`CostModel`] prices this
    /// environment's scans at (the paper's cached / SSD panels).
    tier: StorageTier,
    /// First-half (training) queries.
    pub train_queries: Vec<String>,
    /// Second-half (test) queries.
    pub test_queries: Vec<String>,
}

impl ExperimentEnv {
    /// Builds an environment for `dataset` at the given scale.
    ///
    /// `rows` controls the base-table size; `n_queries` the total workload
    /// (split half/half into train/test, like §8.3).
    pub fn new(
        dataset: Dataset,
        rows: usize,
        n_queries: usize,
        tier: StorageTier,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (table, queries): (Table, Vec<String>) = match dataset {
            Dataset::Customer1 => {
                let trace =
                    verdict_workload::customer::generate_trace(rows, n_queries * 2, &mut rng);
                // Keep only supported queries for runtime experiments; the
                // unsupported ones are classified in tab3.
                let qs: Vec<String> = trace
                    .queries
                    .iter()
                    .filter(|q| q.supported && !q.sql.contains("GROUP BY"))
                    .map(|q| q.sql.clone())
                    .take(n_queries)
                    .collect();
                (trace.table, qs)
            }
            Dataset::Tpch => {
                let table = verdict_workload::tpch::generate_denormalized(rows, &mut rng);
                // Ungrouped supported templates keep exact-answer
                // accounting simple (one aggregate, one predicate).
                let supported: Vec<_> = verdict_workload::tpch::templates()
                    .into_iter()
                    .filter(|t| t.supported && !t.sql.contains("GROUP BY"))
                    .collect();
                let qs: Vec<String> = (0..n_queries)
                    .map(|i| {
                        verdict_workload::tpch::instantiate(
                            &supported[i % supported.len()],
                            &mut rng,
                        )
                    })
                    .collect();
                (table, qs)
            }
        };
        let half = queries.len() / 2;
        let session = SessionBuilder::new(table)
            .sample_fraction(0.1)
            .batch_size(500)
            .seed(seed)
            // Several independent offline samples, rotated across queries,
            // keep snippet errors independent (Eq. 6's assumption).
            .num_samples(6)
            .build()
            .expect("session builds");
        ExperimentEnv {
            session,
            tier,
            train_queries: queries[..half].to_vec(),
            test_queries: queries[half..].to_vec(),
        }
    }

    /// Feeds every training query through the engine and trains the model
    /// (the paper's first-half pass, §8.3).
    pub fn warm_up(&mut self) {
        for (i, sql) in self.train_queries.clone().into_iter().enumerate() {
            let idx = i % self.session.num_samples();
            self.session
                .set_active_sample(idx)
                .expect("index in range by construction");
            let _ = self
                .session
                .execute(&sql, Mode::Verdict, StopPolicy::ScanAll);
        }
        self.session.train().expect("training succeeds");
    }

    /// Exact answer of a single-aggregate, ungrouped query against the
    /// base table (ground truth for actual-error reporting).
    pub fn exact_answer(&self, sql: &str) -> Option<f64> {
        let query = parse_query(sql).ok()?;
        let plan = plan_scan(&query, &self.session.table(), &[], 1).ok()?;
        self.session
            .exact(&plan.aggregates[0].agg, &plan.group_predicates[0])
            .ok()
    }

    /// Fraction of base-table rows the query's predicate selects.
    pub fn selectivity(&self, sql: &str) -> Option<f64> {
        let query = parse_query(sql).ok()?;
        let plan = plan_scan(&query, &self.session.table(), &[], 1).ok()?;
        let rows = plan.group_predicates[0]
            .selected_rows(&self.session.table())
            .ok()?;
        Some(rows.len() as f64 / self.session.table().num_rows().max(1) as f64)
    }

    /// Test queries whose predicates select at least `min_selectivity` of
    /// the base table (CLT raw errors are meaningless on a handful of
    /// matching sample rows; the paper's samples were ~100x larger, so its
    /// queries always matched plenty of rows).
    pub fn broad_test_queries(&self, min_selectivity: f64) -> Vec<String> {
        self.test_queries
            .iter()
            .filter(|sql| {
                self.selectivity(sql)
                    .map(|s| s >= min_selectivity)
                    .unwrap_or(false)
            })
            .cloned()
            .collect()
    }

    /// The stop policy of a time-bound engine (§7 case 2, Appendix C.2):
    /// the tuple budget whose scan fits in `budget_ns` of simulated time.
    pub fn time_budget(&self, budget_ns: f64) -> StopPolicy {
        StopPolicy::TupleBudget(
            CostModel::default()
                .tuples_within(budget_ns, self.tier)
                .max(1),
        )
    }

    /// Runs `sql` in `mode` under `policy`, returning
    /// `(answer, error_bound95, actual_rel_error, simulated_ns, tuples)`
    /// for the first cell, or `None` if unsupported/empty.
    pub fn measure(&mut self, sql: &str, mode: Mode, policy: StopPolicy) -> Option<Measurement> {
        // Pin the sample by query text: both modes see the same sample for
        // a given query (fair comparison) while distinct queries rotate.
        let idx = sql
            .len()
            .wrapping_mul(31)
            .wrapping_add(sql.as_bytes().iter().map(|&b| b as usize).sum::<usize>())
            % self.session.num_samples();
        self.session
            .set_active_sample(idx)
            .expect("index in range by construction");
        let exact = self.exact_answer(sql)?;
        let out = self.session.execute(sql, mode, policy).ok()?;
        let QueryOutcome::Answered(result) = out else {
            return None;
        };
        let cell = result.rows.first()?.values.first()?;
        let answer = cell.improved.answer;
        let bound = cell.improved.bound(0.95);
        let denom = exact.abs().max(1e-9);
        Some(Measurement {
            answer,
            exact,
            rel_bound: bound / denom,
            rel_actual: (answer - exact).abs() / denom,
            simulated_ns: CostModel::default().query_ns(result.tuples_scanned, self.tier),
            tuples: result.tuples_scanned,
        })
    }
}

/// One measured query execution.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Returned answer.
    pub answer: f64,
    /// Ground-truth answer.
    pub exact: f64,
    /// 95% error bound relative to the exact answer.
    pub rel_bound: f64,
    /// Actual relative error.
    pub rel_actual: f64,
    /// Simulated runtime: the default [`CostModel`]'s price of the scan.
    pub simulated_ns: f64,
    /// Sample tuples scanned.
    pub tuples: usize,
}

/// Mean of an iterator of f64 (0 when empty).
pub fn mean_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}
