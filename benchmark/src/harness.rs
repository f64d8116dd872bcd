//! The run skeleton every workload shares: set up (several times, timed),
//! warm, run the timed window, verify, and — on a traced run — set up an
//! untraced twin beside the traced fixture so the tracing overhead is
//! measured inside the same process.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::fixtures::Obs;
use crate::stats;
use crate::trace::{self, Recorder};

/// What one invocation asks of a workload.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// ~1 % sizes and fixed operation counts (repeatable; used by tests).
    pub smoke: bool,
    /// Length of the timed window (ignored by `smoke`).
    pub seconds: f64,
    pub traced: bool,
    /// Directory (inside the build output) for stores and trace files.
    pub scratch: PathBuf,
}

/// How long a window runs: wall time, or — for `--smoke`, where counts
/// must repeat exactly — a number of gate passes.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Passes(u64),
}

impl Budget {
    /// The budget of the short untraced reference window of a traced run.
    fn quarter(self) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / 4.0),
            Budget::Passes(n) => Budget::Passes((n / 4).max(1)),
        }
    }

    pub fn gate(self) -> Gate {
        Gate {
            budget: self,
            started: Instant::now(),
            passes: 0,
        }
    }
}

/// Loop guard of a window: `while gate.pass() { one unit of work }`.
#[derive(Debug)]
pub struct Gate {
    budget: Budget,
    started: Instant,
    passes: u64,
}

impl Gate {
    pub fn pass(&mut self) -> bool {
        let open = match self.budget {
            Budget::Seconds(s) => self.started.elapsed().as_secs_f64() < s,
            Budget::Passes(n) => self.passes < n,
        };
        self.passes += u64::from(open);
        open
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload: how to build its fixture, drive its window and verify.
pub trait Workload {
    const NAME: &'static str;
    /// Fresh set-ups per untraced run; `setup_s` is their median. One for
    /// the workloads whose set-up trains a model (seconds of fixed work,
    /// steadier than its repeats would be affordable).
    const SETUP_REPEATS: usize;
    /// Gate passes of a `--smoke` window.
    const SMOKE_PASSES: u64;
    type Fixture: Send;

    /// Generates inputs from `plan.seed`, builds the system, fills and
    /// trains what the workload needs, and warms caches. `slot` keeps the
    /// on-disk state of concurrently living fixtures apart.
    fn setup(plan: &Plan, obs: Option<&Obs>, slot: usize) -> Self::Fixture;

    /// Runs operations against the fixture until the budget's gate closes,
    /// recording latencies, counts, failures and spans.
    fn window(fx: &mut Self::Fixture, plan: &Plan, budget: Budget, rec: &mut Recorder);

    /// Post-window verification (counted through `rec.check`), and the
    /// workload's own per-layer numbers into `layers`. `obs` is the traced
    /// run's observability handle.
    fn finish(
        fx: Self::Fixture,
        plan: &Plan,
        rec: &mut Recorder,
        obs: Option<&Obs>,
        layers: &mut Layers,
    );
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metric values by name (untraced runs).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs).
    pub layers: Layers,
    /// Ungated companions printed beside the metrics (p99, max, counts).
    pub notes: Vec<(String, f64)>,
}

fn budget_of<W: Workload>(plan: &Plan) -> Budget {
    if plan.smoke {
        Budget::Passes(W::SMOKE_PASSES)
    } else {
        Budget::Seconds(plan.seconds)
    }
}

fn timed_window<W: Workload>(
    fx: &mut W::Fixture,
    plan: &Plan,
    budget: Budget,
    traced: bool,
) -> (Recorder, f64) {
    let t0 = Instant::now();
    let mut rec = Recorder::new(t0, 0, traced);
    W::window(fx, plan, budget, &mut rec);
    (rec, t0.elapsed().as_secs_f64())
}

/// Runs workload `W` once under `plan`.
pub fn run<W: Workload>(plan: &Plan) -> Outcome {
    if plan.traced {
        run_traced::<W>(plan)
    } else {
        run_untraced::<W>(plan)
    }
}

fn run_untraced<W: Workload>(plan: &Plan) -> Outcome {
    let mut setups = Vec::with_capacity(W::SETUP_REPEATS);
    let mut fixture = None;
    for _ in 0..W::SETUP_REPEATS {
        // Drop the previous fixture first: peak memory and on-disk state
        // are those of one fixture, as in production.
        drop(fixture.take());
        let t0 = Instant::now();
        fixture = Some(W::setup(plan, None, 0));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut fx = fixture.expect("SETUP_REPEATS is at least one");
    let (mut rec, wall_s) = timed_window::<W>(&mut fx, plan, budget_of::<W>(plan), false);
    let lat = stats::sorted(rec.latencies_ms.clone());
    let mut layers = Layers::new();
    W::finish(fx, plan, &mut rec, None, &mut layers);

    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("setup_s", stats::median(&setups));
    end_to_end.insert("query_p50_ms", stats::percentile(&lat, 0.50));
    end_to_end.insert("query_p95_ms", stats::percentile(&lat, 0.95));
    end_to_end.insert("qps", lat.len() as f64 / wall_s);
    end_to_end.insert("peak_rss_mb", stats::peak_rss_mb());
    let notes = vec![
        ("queries_timed".to_owned(), lat.len() as f64),
        ("window_wall_s".to_owned(), wall_s),
        ("query_p99_ms".to_owned(), stats::percentile(&lat, 0.99)),
        (
            "query_max_ms".to_owned(),
            lat.last().copied().unwrap_or(0.0),
        ),
        ("setups".to_owned(), setups.len() as f64),
    ];
    Outcome {
        workload: W::NAME,
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures,
        end_to_end,
        layers,
        notes,
    }
}

fn run_traced<W: Workload>(plan: &Plan) -> Outcome {
    let mut obs = Obs::new();
    // The twins are built side by side, one per core, so the traced run
    // costs one set-up of wall time.
    let (mut plain, mut traced) = std::thread::scope(|s| {
        let plain = s.spawn(|| W::setup(plan, None, 1));
        let traced = W::setup(plan, Some(&obs), 0);
        (plain.join().expect("untraced twin set-up"), traced)
    });
    let budget = budget_of::<W>(plan);
    let (plain_rec, _) = timed_window::<W>(&mut plain, plan, budget.quarter(), false);
    drop(plain);
    obs.window_start = Some(obs.hub.snapshot());
    let (mut rec, wall_s) = timed_window::<W>(&mut traced, plan, budget, true);
    let lat = stats::sorted(rec.latencies_ms.clone());

    let mut layers = Layers::new();
    // Both fixtures start in the same state and draw the same statements,
    // so the first N latencies of each window are the same N operations.
    let paired = plain_rec.latencies_ms.len().min(rec.latencies_ms.len());
    let total = |lat: &[f64]| lat[..paired].iter().sum::<f64>();
    let (plain_ms, traced_ms) = (total(&plain_rec.latencies_ms), total(&rec.latencies_ms));
    if plain_ms > 0.0 {
        layers.insert(
            "obs.tracing_overhead_pct",
            (traced_ms / plain_ms - 1.0) * 100.0,
        );
    }
    // Reconciliation: time inside calls into the system (span self times)
    // against the window's wall, per harness thread.
    let spans = rec.spans();
    let threads = spans.iter().map(|s| s.thread + 1).max().unwrap_or(1);
    let selfs = trace::self_times(spans);
    let in_system: u64 = selfs
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, ns)| ns)
        .sum();
    let harness_share = 1.0 - in_system as f64 / (wall_s * 1e9 * f64::from(threads));
    layers.insert("bench.harness_share", harness_share);
    layers.insert("bench.spans", spans.len() as f64);
    let mut notes: Vec<(String, f64)> = selfs
        .iter()
        .map(|(name, ns)| (format!("self_ms[{name}]"), *ns as f64 / 1e6))
        .collect();
    notes.push((
        "window_wall_ms".to_owned(),
        wall_s * 1e3 * f64::from(threads),
    ));
    notes.push(("queries_timed".to_owned(), lat.len() as f64));
    notes.push((
        "traced_query_p50_ms".to_owned(),
        stats::percentile(&lat, 0.50),
    ));
    let trace_path = plan.scratch.join(format!("trace-{}.jsonl", W::NAME));
    if let Err(e) = trace::write_jsonl(&trace_path, spans) {
        rec.fail(|| format!("trace file {}: {e}", trace_path.display()));
    }

    W::finish(traced, plan, &mut rec, Some(&obs), &mut layers);
    Outcome {
        workload: W::NAME,
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures,
        end_to_end: BTreeMap::new(),
        layers,
        notes,
    }
}
