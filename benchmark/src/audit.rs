//! Output checks: exact answers computed by the harness itself over the
//! base table, and the per-cell invariants every answer must satisfy.
//!
//! The exact evaluator is deliberately independent of the program's own
//! predicate and aggregate code: plain loops over the raw column slices.

use verdict_storage::Table;

use crate::fixtures::{Answer, Cell};
use crate::gen::{Statement, CHANNELS, SITES};
use crate::trace::Recorder;

/// Normal quantile for the two-sided 95 % interval every bound is
/// reported at (`VerdictConfig::confidence_delta`'s default).
pub const Z_95: f64 = 1.959_963_984_540_054;

/// Per-site sums and counts of `value` over the rows a statement selects.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    sum: [f64; SITES],
    count: [u64; SITES],
}

impl Exact {
    /// Exact `AVG(value)` of one site's cell, or of the whole selection
    /// for an ungrouped statement; `None` when no base row matches.
    pub fn avg(&self, site: Option<usize>) -> Option<f64> {
        let (sum, count) = match site {
            Some(s) => (self.sum[s], self.count[s]),
            None => (self.sum.iter().sum(), self.count.iter().sum()),
        };
        (count > 0).then(|| sum / count as f64)
    }
}

/// Evaluates `st` exactly over `table`. The first `clustered_rows` rows
/// are in `event_week` order (the generator's guarantee), so a week band
/// is located there by binary search; rows appended by ingest follow and
/// are scanned linearly.
pub fn exact(table: &Table, clustered_rows: usize, st: &Statement) -> Exact {
    let num = |name: &str| {
        table
            .column(name)
            .and_then(|c| c.numeric())
            .expect("numeric column")
    };
    let cat = |name: &str| {
        table
            .column(name)
            .and_then(|c| c.categorical())
            .expect("categorical column")
    };
    let (week, band, value) = (num("event_week"), num("amount_band"), num("value"));
    let (site, channel) = (cat("site"), cat("channel"));
    let site_col = table.column("site").expect("site column");
    // Dictionary code → site index, resolved through the labels.
    let site_index: Vec<usize> = site_col
        .labels()
        .expect("site is categorical")
        .iter()
        .map(|l| {
            l.strip_prefix("site")
                .and_then(|i| i.parse().ok())
                .expect("site label")
        })
        .collect();
    let channel_col = table.column("channel").expect("channel column");
    let wanted_channels: Vec<u32> = st
        .filter
        .channels
        .iter()
        .filter_map(|&c| channel_col.code_of(CHANNELS[c]))
        .collect();

    let mut out = Exact {
        sum: [0.0; SITES],
        count: [0; SITES],
    };
    let mut visit = |rows: std::ops::Range<usize>| {
        for r in rows {
            if let Some((lo, hi)) = st.filter.week {
                if week[r] < lo || week[r] > hi {
                    continue;
                }
            }
            if let Some((lo, hi)) = st.filter.band {
                if band[r] < lo || band[r] > hi {
                    continue;
                }
            }
            if !wanted_channels.is_empty() && !wanted_channels.contains(&channel[r]) {
                continue;
            }
            let s = site_index[site[r] as usize];
            out.sum[s] += value[r];
            out.count[s] += 1;
        }
    };
    let clustered = clustered_rows.min(week.len());
    match st.filter.week {
        Some((lo, hi)) => {
            let head = &week[..clustered];
            visit(head.partition_point(|&w| w < lo)..head.partition_point(|&w| w <= hi));
        }
        None => visit(0..clustered),
    }
    visit(clustered..week.len());
    out
}

/// Theorem 1: the improved error never exceeds the raw error.
pub fn improved_within_raw(cell: &Cell) -> bool {
    cell.error.partial_cmp(&cell.raw_error) != Some(std::cmp::Ordering::Greater)
}

/// Checks every cell of `answer` against the invariants that need no
/// exact answer; each broken one fails the current operation.
pub fn check_cells(rec: &mut Recorder, answer: &Answer, what: &str) {
    if answer.cells.is_empty() {
        rec.fail(|| format!("{what}: no cells answered"));
    }
    for cell in &answer.cells {
        if !improved_within_raw(cell) {
            rec.fail(|| {
                format!(
                    "{what}: improved error {} exceeds raw error {}",
                    cell.error, cell.raw_error
                )
            });
        }
    }
}

/// Answer quality over a set of audited cells.
#[derive(Debug, Default)]
pub struct Quality {
    covered: u64,
    raw_covered: u64,
    audited: u64,
    error_ratios: Vec<f64>,
}

impl Quality {
    /// Audits one cell against its exact answer.
    pub fn audit(&mut self, cell: &Cell, exact: f64) {
        self.audited += 1;
        if (cell.answer - exact).abs() <= Z_95 * cell.error {
            self.covered += 1;
        }
        if (cell.raw_answer - exact).abs() <= Z_95 * cell.raw_error {
            self.raw_covered += 1;
        }
        if cell.raw_error > 0.0 && cell.raw_error.is_finite() {
            self.error_ratios.push(cell.error / cell.raw_error);
        }
    }

    pub fn audited(&self) -> u64 {
        self.audited
    }

    /// Share of audited cells whose 95 % interval contains the truth.
    pub fn bound_coverage(&self) -> f64 {
        if self.audited == 0 {
            return 0.0;
        }
        self.covered as f64 / self.audited as f64
    }

    /// The same share for the raw answers' intervals: the control that
    /// tells a mis-calibrated model from a mis-calibrated sample.
    pub fn raw_bound_coverage(&self) -> f64 {
        if self.audited == 0 {
            return 0.0;
        }
        self.raw_covered as f64 / self.audited as f64
    }

    /// `1 − median(improved error ÷ raw error)`.
    pub fn error_reduction(&self) -> f64 {
        if self.error_ratios.is_empty() {
            return 0.0;
        }
        1.0 - crate::stats::median(&self.error_ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Filter};

    fn cell(answer: f64, error: f64, raw_error: f64) -> Cell {
        Cell {
            site: None,
            answer,
            error,
            raw_answer: answer,
            raw_error,
        }
    }

    #[test]
    fn exact_matches_a_naive_row_loop_with_an_appended_tail() {
        let mut table = gen::events_table(3, 4_000);
        table.push_rows(&gen::ingest_batch(3, 0, 200)).unwrap();
        let mut sampler = gen::Sampler::new(3, 0);
        let mut statements: Vec<Statement> = (0..6)
            .map(|i| match i % 3 {
                0 => sampler.week_band(2.0, 8.0),
                1 => sampler.unclustered(),
                _ => sampler.grouped(15.0),
            })
            .collect();
        // A band reaching into the ingested weeks exercises the tail.
        statements.push(Statement {
            filter: Filter {
                week: Some((gen::WEEK_HI - 3.0, gen::WEEK_HI)),
                band: None,
                channels: Vec::new(),
            },
            grouped: false,
        });
        for st in &statements {
            let got = exact(&table, 4_000, st);
            let (mut sum, mut count) = (0.0, 0u64);
            for r in 0..table.num_rows() {
                let row = table.row_decoded(r);
                let num = |i: usize| row[i].as_num().unwrap();
                let channel = match &row[3] {
                    verdict_storage::Value::Str(s) => s.clone(),
                    other => panic!("decoded label expected, got {other}"),
                };
                let keep = st
                    .filter
                    .week
                    .is_none_or(|(lo, hi)| num(0) >= lo && num(0) <= hi)
                    && st
                        .filter
                        .band
                        .is_none_or(|(lo, hi)| num(1) >= lo && num(1) <= hi)
                    && (st.filter.channels.is_empty()
                        || st.filter.channels.iter().any(|&c| CHANNELS[c] == channel));
                if keep {
                    sum += num(5);
                    count += 1;
                }
            }
            assert!(count > 0, "statement selects rows: {st:?}");
            let want = sum / count as f64;
            let have = got.avg(None).unwrap();
            assert!((have - want).abs() <= 1e-9 * want.abs(), "{have} vs {want}");
            let per_site: u64 = (0..SITES).map(|s| got.count[s]).sum();
            assert_eq!(per_site, count);
        }
    }

    #[test]
    fn quality_counts_coverage_and_error_reduction() {
        let mut q = Quality::default();
        q.audit(&cell(10.0, 1.0, 2.0), 11.5); // inside 1.96σ
        q.audit(&cell(10.0, 1.0, 4.0), 12.5); // outside
        q.audit(&cell(10.0, 3.0, 4.0), 10.0);
        assert_eq!(q.audited(), 3);
        assert!((q.bound_coverage() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.error_reduction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn theorem_one_check_flags_only_a_larger_improved_error() {
        assert!(improved_within_raw(&cell(1.0, 0.5, 0.5)));
        assert!(improved_within_raw(&cell(1.0, 0.4, 0.5)));
        assert!(!improved_within_raw(&cell(1.0, 0.6, 0.5)));
        let mut rec = Recorder::new(std::time::Instant::now(), 0, false);
        check_cells(
            &mut rec,
            &Answer {
                cells: vec![cell(1.0, 0.6, 0.5)],
                tuples_scanned: 1,
            },
            "q",
        );
        assert_eq!(rec.failed, 1);
    }
}
