//! Seeded input generation: the columnar events table and the statement
//! sampler. Everything the program under test receives comes from here,
//! and everything here is a pure function of `(seed, size)`.
//!
//! The schema is the Customer1-style events table of
//! `crates/workload/src/customer.rs` — `event_week` numeric and clustered
//! in row order (zone maps and range partitions can prune it),
//! `amount_band` numeric and unclustered (nothing prunes it),
//! `site`/`channel`/`status` categorical, `value` the measure — but built
//! column by column through `Table::from_columns`, because a row-at-a-time
//! generator would spend minutes on the larger fixtures.

use verdict_storage::{Column, ColumnDef, Schema, Table, Value};

/// Distinct `site` labels (also the group count of `GROUP BY site`).
pub const SITES: usize = 8;
/// `channel` labels.
pub const CHANNELS: [&str; 4] = ["web", "store", "partner", "phone"];
/// `status` labels.
pub const STATUSES: [&str; 5] = ["new", "paid", "shipped", "returned", "cancelled"];
/// `event_week` spans `[WEEK_LO, WEEK_HI)` over the initial rows.
pub const WEEK_LO: f64 = 1.0;
/// See [`WEEK_LO`].
pub const WEEK_HI: f64 = 61.0;
/// `amount_band` takes the integers `0..BANDS`.
pub const BANDS: usize = 10;
/// Bytes one row occupies in the columnar layout (3 × f64 + 3 × u32).
pub const ROW_BYTES: u64 = 3 * 8 + 3 * 4;

/// SplitMix64: tiny, seedable, and good enough to decorrelate columns.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (table, statements, ingest batches) so that changing how many
    /// numbers one consumer draws never shifts another's sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// The smooth weekly structure of `value`: a few seeded sinusoids, so
/// nearby weeks have correlated averages (what the learned model exploits).
#[derive(Debug, Clone)]
pub struct Trend {
    waves: [(f64, f64, f64); 3],
}

impl Trend {
    fn new(rng: &mut Rng) -> Trend {
        let mut wave = |period: f64| {
            (
                rng.range(0.5, 1.0),
                2.0 * std::f64::consts::PI / period,
                rng.range(0.0, 2.0 * std::f64::consts::PI),
            )
        };
        Trend {
            waves: [wave(60.0), wave(23.0), wave(9.0)],
        }
    }

    fn at(&self, week: f64) -> f64 {
        self.waves
            .iter()
            .map(|(amp, freq, phase)| amp * (freq * week + phase).sin())
            .sum::<f64>()
            / 3.0
    }
}

pub fn site_label(i: usize) -> String {
    format!("site{i}")
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::numeric_dimension("event_week"),
        ColumnDef::numeric_dimension("amount_band"),
        ColumnDef::categorical_dimension("site"),
        ColumnDef::categorical_dimension("channel"),
        ColumnDef::categorical_dimension("status"),
        ColumnDef::measure("value"),
    ])
    .expect("static schema is valid")
}

fn value_of(trend: &Trend, week: f64, band: f64, noise: f64) -> f64 {
    100.0 * (1.0 + 0.3 * trend.at(week)) * (1.0 + 0.15 * band) * (1.0 + 0.05 * (noise - 0.5))
}

/// Generates the `rows`-row events table for `seed`.
pub fn events_table(seed: u64, rows: usize) -> Table {
    let mut rng = Rng::new(seed, 1);
    let trend = Trend::new(&mut rng);
    let mut week = Vec::with_capacity(rows);
    let mut band = Vec::with_capacity(rows);
    let mut site = Vec::with_capacity(rows);
    let mut channel = Vec::with_capacity(rows);
    let mut status = Vec::with_capacity(rows);
    let mut value = Vec::with_capacity(rows);
    let span = WEEK_HI - WEEK_LO;
    for i in 0..rows {
        // One draw feeds the three categorical codes and the band; two
        // more give the within-slot week jitter and the measure noise.
        let bits = rng.next_u64();
        // Clustered: row order is week order, jittered inside one row's
        // slot so values are distinct but never out of order.
        let w = WEEK_LO + span * (i as f64 + rng.unit()) / rows as f64;
        let b = (bits % BANDS as u64) as f64;
        week.push(w);
        band.push(b);
        site.push(((bits >> 16) % SITES as u64) as u32);
        channel.push(((bits >> 32) % CHANNELS.len() as u64) as u32);
        status.push(((bits >> 48) % STATUSES.len() as u64) as u32);
        value.push(value_of(&trend, w, b, rng.unit()));
    }
    let labels = |names: &[&str]| names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    Table::from_columns(
        schema(),
        vec![
            Column::from_numeric(week),
            Column::from_numeric(band),
            Column::from_categorical(site, (0..SITES).map(site_label).collect()),
            Column::from_categorical(channel, labels(&CHANNELS)),
            Column::from_categorical(status, labels(&STATUSES)),
            Column::from_numeric(value),
        ],
    )
    .expect("generated columns fit the schema")
}

/// One ingest batch of `rows` rows landing in the newest weeks
/// (`[WEEK_HI - 2, WEEK_HI)`), for batch number `batch` of `seed`.
pub fn ingest_batch(seed: u64, batch: u64, rows: usize) -> Vec<Vec<Value>> {
    let mut rng = Rng::new(seed, 1);
    let trend = Trend::new(&mut rng);
    let mut rng = Rng::new(seed, 1000 + batch);
    (0..rows)
        .map(|_| {
            let w = rng.range(WEEK_HI - 2.0, WEEK_HI);
            let b = rng.below(BANDS) as f64;
            vec![
                Value::from(w),
                Value::from(b),
                Value::from(site_label(rng.below(SITES)).as_str()),
                Value::from(CHANNELS[rng.below(CHANNELS.len())]),
                Value::from(STATUSES[rng.below(STATUSES.len())]),
                Value::from(value_of(&trend, w, b, rng.unit())),
            ]
        })
        .collect()
}

/// The filter of one statement, kept in structured form so that the SQL
/// text, the prepared-statement parameters and the exact-answer audit all
/// derive from one description.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    /// `event_week BETWEEN lo AND hi`, if any.
    pub week: Option<(f64, f64)>,
    /// `amount_band BETWEEN lo AND hi`, if any.
    pub band: Option<(f64, f64)>,
    /// `channel IN (...)`, if any (indices into [`CHANNELS`]).
    pub channels: Vec<usize>,
}

/// One generated statement: `AVG(value)` under a filter, optionally per
/// site.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    pub filter: Filter,
    /// `GROUP BY site`.
    pub grouped: bool,
}

impl Statement {
    fn where_clause(&self, literal: bool) -> String {
        let mut parts = Vec::new();
        let between = |col: &str, (lo, hi): (f64, f64)| {
            if literal {
                format!("{col} BETWEEN {lo} AND {hi}")
            } else {
                format!("{col} BETWEEN ? AND ?")
            }
        };
        if let Some(r) = self.filter.week {
            parts.push(between("event_week", r));
        }
        if let Some(r) = self.filter.band {
            parts.push(between("amount_band", r));
        }
        if !self.filter.channels.is_empty() {
            let labels: Vec<String> = self
                .filter
                .channels
                .iter()
                .map(|&c| format!("'{}'", CHANNELS[c]))
                .collect();
            parts.push(format!("channel IN ({})", labels.join(", ")));
        }
        parts.join(" AND ")
    }

    fn text(&self, table: &str, literal: bool) -> String {
        let (select, group) = if self.grouped {
            ("site, AVG(value)", " GROUP BY site")
        } else {
            ("AVG(value)", "")
        };
        format!(
            "SELECT {select} FROM {table} WHERE {}{group}",
            self.where_clause(literal)
        )
    }

    /// Ad-hoc SQL with the literals inlined.
    pub fn sql(&self, table: &str) -> String {
        self.text(table, true)
    }

    /// The `?`-placeholder template of this statement's shape (numeric
    /// band edges are parameters; the categorical list stays literal).
    pub fn template(&self, table: &str) -> String {
        self.text(table, false)
    }

    /// The parameters [`Statement::template`] binds, in order.
    pub fn params(&self) -> Vec<Value> {
        let mut out = Vec::new();
        for (lo, hi) in [self.filter.week, self.filter.band].into_iter().flatten() {
            out.push(Value::from(lo));
            out.push(Value::from(hi));
        }
        out
    }
}

/// Seeded statement sampler. Band edges are drawn on a 1/1024-week grid:
/// dyadic, so `f64` → SQL text → `f64` round-trips exactly, and fine
/// enough that two draws practically never coincide (a "never-seen"
/// statement really is one).
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: Rng,
}

impl Sampler {
    pub fn new(seed: u64, stream: u64) -> Sampler {
        Sampler {
            rng: Rng::new(seed, 2000 + stream),
        }
    }

    fn grid(&mut self, lo: f64, hi: f64) -> f64 {
        (self.rng.range(lo, hi) * 1024.0).round() / 1024.0
    }

    /// A band `width_lo..width_hi` weeks wide somewhere inside `[lo, hi]`.
    fn week_range(&mut self, lo: f64, hi: f64, width_lo: f64, width_hi: f64) -> (f64, f64) {
        let width = if width_lo < width_hi {
            self.grid(width_lo, width_hi)
        } else {
            width_lo
        };
        let start = self.grid(lo, hi - width);
        (start, start + width)
    }

    /// Single cell over a band of the clustered column, `width_lo` to
    /// `width_hi` weeks wide (zone maps and partitions prune the rest).
    pub fn week_band(&mut self, width_lo: f64, width_hi: f64) -> Statement {
        self.band_within(WEEK_LO, WEEK_HI, width_lo, width_hi)
    }

    /// [`Sampler::week_band`] with the band lying inside `[lo, hi]` (e.g.
    /// inside one range partition).
    pub fn band_within(&mut self, lo: f64, hi: f64, width_lo: f64, width_hi: f64) -> Statement {
        Statement {
            filter: Filter {
                week: Some(self.week_range(lo, hi, width_lo, width_hi)),
                band: None,
                channels: Vec::new(),
            },
            grouped: false,
        }
    }

    /// Single cell over two `amount_band` values and two channels (a
    /// tenth of the rows, whatever is drawn): neither column is clustered,
    /// so no chunk can be skipped.
    pub fn unclustered(&mut self) -> Statement {
        let lo = self.rng.below(BANDS - 1) as f64;
        let hi = lo + 1.0;
        let first = self.rng.below(CHANNELS.len());
        let second = (first + 1 + self.rng.below(CHANNELS.len() - 1)) % CHANNELS.len();
        Statement {
            filter: Filter {
                week: None,
                band: Some((lo, hi)),
                channels: vec![first, second],
            },
            grouped: false,
        }
    }

    /// `GROUP BY site` (one cell per site) over a week band exactly
    /// `width` weeks wide — a fixed width, so every grouped statement of a
    /// workload costs the same and its latency class stays narrow.
    pub fn grouped(&mut self, width: f64) -> Statement {
        Statement {
            filter: Filter {
                week: Some(self.week_range(WEEK_LO, WEEK_HI, width, width)),
                band: None,
                channels: Vec::new(),
            },
            grouped: true,
        }
    }

    /// Uniform in `0..n`, from the sampler's own stream (class choice).
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_identical_tables_and_statements() {
        let a = events_table(7, 5_000);
        let b = events_table(7, 5_000);
        for c in 0..a.schema().len() {
            match (a.column_at(c).numeric(), b.column_at(c).numeric()) {
                (Ok(x), Ok(y)) => {
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(x), bits(y));
                }
                _ => assert_eq!(
                    a.column_at(c).categorical().unwrap(),
                    b.column_at(c).categorical().unwrap()
                ),
            }
        }
        let other = events_table(8, 5_000);
        assert_ne!(
            a.column("value").unwrap().numeric().unwrap()[0].to_bits(),
            other.column("value").unwrap().numeric().unwrap()[0].to_bits()
        );
        let draw = |seed| {
            let mut s = Sampler::new(seed, 0);
            (0..50)
                .map(|i| match i % 3 {
                    0 => s.week_band(2.0, 8.0),
                    1 => s.unclustered(),
                    _ => s.grouped(15.0),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert_eq!(ingest_batch(5, 2, 64), ingest_batch(5, 2, 64));
    }

    #[test]
    fn week_column_is_clustered_and_in_range() {
        let t = events_table(1, 10_000);
        let w = t.column("event_week").unwrap().numeric().unwrap();
        assert!(w.windows(2).all(|p| p[0] <= p[1]));
        assert!(w[0] >= WEEK_LO && *w.last().unwrap() < WEEK_HI);
    }

    #[test]
    fn template_and_params_match_the_literal_sql() {
        let mut s = Sampler::new(11, 0);
        for _ in 0..20 {
            let st = s.unclustered();
            let mut sql = st.template("events");
            for p in st.params() {
                let Value::Num(x) = p else { panic!("numeric") };
                sql = sql.replacen('?', &format!("{x}"), 1);
            }
            assert_eq!(sql, st.sql("events"));
        }
    }
}
