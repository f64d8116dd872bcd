//! Columnar storage with dictionary encoding for categorical data.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{Result, StorageError, Value};

/// One column of data.
#[derive(Debug, Clone)]
pub enum Column {
    /// Plain numeric storage.
    Numeric(Vec<f64>),
    /// Dictionary-encoded categorical storage: codes plus the dictionary
    /// mapping codes to labels (codes without a label are valid — generated
    /// datasets often use raw integer categories).
    ///
    /// Labels are `Arc<str>` shared between the forward dictionary and the
    /// reverse index, so building the index — on bulk load, warm start, or
    /// clone — bumps refcounts instead of copying every string.
    Categorical {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// Code → label dictionary (may be sparse).
        labels: Vec<Arc<str>>,
        /// Label → code reverse index (shares storage with `labels`).
        index: HashMap<Arc<str>, u32>,
    },
}

impl Column {
    /// Empty numeric column.
    pub(crate) fn new_numeric() -> Self {
        Column::Numeric(Vec::new())
    }

    /// Empty categorical column.
    pub(crate) fn new_categorical() -> Self {
        Column::Categorical {
            codes: Vec::new(),
            labels: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Numeric column over the given data (bulk load / persistence).
    pub fn from_numeric(data: Vec<f64>) -> Self {
        Column::Numeric(data)
    }

    /// Categorical column from codes and an optional dictionary (bulk load
    /// / persistence). The reverse index *shares* label storage with the
    /// dictionary — each entry is an `Arc` refcount bump, not a `String`
    /// copy, so warm starts stop re-allocating dictionaries.
    pub fn from_categorical(codes: Vec<u32>, labels: Vec<String>) -> Self {
        Column::from_shared_labels(codes, labels.into_iter().map(Arc::from).collect())
    }

    /// Categorical column from codes and an already shared dictionary:
    /// the labels are refcount bumps of another column's (e.g. a
    /// resolution table's), never copied strings.
    pub fn from_shared_labels(codes: Vec<u32>, labels: Vec<Arc<str>>) -> Self {
        let index = labels
            .iter()
            .enumerate()
            .map(|(i, l)| (Arc::clone(l), i as u32))
            .collect();
        Column::Categorical {
            codes,
            labels,
            index,
        }
    }

    /// The dictionary labels of a categorical column (`None` for numeric
    /// columns). Codes without a label are valid and simply not covered.
    pub fn labels(&self) -> Option<&[Arc<str>]> {
        match self {
            Column::Categorical { labels, .. } => Some(labels),
            Column::Numeric(_) => None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes: row payloads plus dictionary
    /// label storage (the reverse index shares the labels' `Arc`s, so it
    /// contributes only its table slots).
    pub(crate) fn heap_bytes(&self) -> u64 {
        match self {
            Column::Numeric(v) => (v.len() * std::mem::size_of::<f64>()) as u64,
            Column::Categorical { codes, labels, .. } => {
                let label_bytes: usize = labels.iter().map(|l| l.len()).sum();
                (codes.len() * std::mem::size_of::<u32>()
                    + label_bytes
                    // Two pointers-worth of bookkeeping per label: the
                    // forward Arc slot and the reverse-index entry.
                    + labels.len() * 2 * std::mem::size_of::<usize>()) as u64
            }
        }
    }

    /// Appends a value, dictionary-encoding strings.
    pub fn push(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (Column::Numeric(data), Value::Num(x)) => {
                data.push(x);
                Ok(())
            }
            (Column::Categorical { codes, .. }, Value::Cat(c)) => {
                codes.push(c);
                Ok(())
            }
            (
                Column::Categorical {
                    codes,
                    labels,
                    index,
                },
                Value::Str(s),
            ) => {
                let code = match index.get(s.as_str()) {
                    Some(&c) => c,
                    None => {
                        let c = labels.len() as u32;
                        let shared: Arc<str> = Arc::from(s);
                        labels.push(Arc::clone(&shared));
                        index.insert(shared, c);
                        c
                    }
                };
                codes.push(code);
                Ok(())
            }
            (Column::Numeric(_), other) => Err(StorageError::TypeError(format!(
                "cannot store {other} in numeric column"
            ))),
            (Column::Categorical { .. }, other) => Err(StorageError::TypeError(format!(
                "cannot store {other} in categorical column"
            ))),
        }
    }

    /// Value at `row`.
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Numeric(v) => Value::Num(v[row]),
            Column::Categorical { codes, .. } => Value::Cat(codes[row]),
        }
    }

    /// Numeric slice view; error for categorical columns.
    pub fn numeric(&self) -> Result<&[f64]> {
        match self {
            Column::Numeric(v) => Ok(v),
            Column::Categorical { .. } => Err(StorageError::TypeError(
                "expected numeric column, found categorical".into(),
            )),
        }
    }

    /// Categorical-code slice view; error for numeric columns.
    pub fn categorical(&self) -> Result<&[u32]> {
        match self {
            Column::Categorical { codes, .. } => Ok(codes),
            Column::Numeric(_) => Err(StorageError::TypeError(
                "expected categorical column, found numeric".into(),
            )),
        }
    }

    /// Resolves a categorical label to its dictionary code, if present.
    pub fn code_of(&self, label: &str) -> Option<u32> {
        match self {
            Column::Categorical { index, .. } => index.get(label).copied(),
            Column::Numeric(_) => None,
        }
    }

    /// Resolves a dictionary code to its label, if one was recorded.
    pub fn label_of(&self, code: u32) -> Option<&str> {
        match self {
            Column::Categorical { labels, .. } => labels.get(code as usize).map(|s| &**s),
            Column::Numeric(_) => None,
        }
    }

    /// Adopts `other`'s categorical dictionary, which must be an
    /// append-only extension of this column's (same labels in the same
    /// order, possibly with new ones at the end). No-op for numeric
    /// columns.
    ///
    /// This is how a maintained sample keeps *one* dictionary with its
    /// base table: the base encodes an ingested batch first (assigning
    /// any new codes), the sample adopts the grown dictionary, and
    /// admitted rows are then pushed as raw codes — so a sample code
    /// always means the same label as the base-table code, regardless of
    /// which rows happened to be admitted.
    pub(crate) fn sync_dictionary_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Numeric(_), Column::Numeric(_)) => Ok(()),
            (
                Column::Categorical {
                    labels: dst_labels,
                    index: dst_index,
                    ..
                },
                Column::Categorical {
                    labels: src_labels,
                    index: src_index,
                    ..
                },
            ) => {
                if dst_labels.len() > src_labels.len()
                    || dst_labels
                        .iter()
                        .zip(src_labels.iter())
                        .any(|(a, b)| a != b)
                {
                    return Err(StorageError::SchemaMismatch(
                        "cannot sync dictionaries: the source is not an append-only \
                         extension of this column's dictionary"
                            .into(),
                    ));
                }
                dst_labels.clone_from(src_labels);
                dst_index.clone_from(src_index);
                Ok(())
            }
            _ => Err(StorageError::TypeError(
                "dictionary sync between mismatched column types".into(),
            )),
        }
    }

    /// Appends the rows of `other` selected by `rows` (gather).
    pub(crate) fn gather_from(
        &mut self,
        other: &Column,
        rows: impl Iterator<Item = usize>,
    ) -> Result<()> {
        match (self, other) {
            (Column::Numeric(dst), Column::Numeric(src)) => {
                dst.extend(rows.map(|r| src[r]));
                Ok(())
            }
            (
                Column::Categorical {
                    codes: dst,
                    labels: dst_labels,
                    index: dst_index,
                },
                Column::Categorical {
                    codes: src,
                    labels: src_labels,
                    index: src_index,
                },
            ) => {
                // Inherit the source dictionary so label lookups keep
                // working on gathered tables (samples, join outputs).
                if dst_labels.is_empty() && !src_labels.is_empty() {
                    dst_labels.clone_from(src_labels);
                    dst_index.clone_from(src_index);
                }
                dst.extend(rows.map(|r| src[r]));
                Ok(())
            }
            _ => Err(StorageError::TypeError(
                "gather between mismatched column types".into(),
            )),
        }
    }

    /// Min and max of a numeric column, NaN skipped (all NaN gives
    /// `(∞, −∞)`); `None` when empty or categorical. A bound that compares
    /// equal to `0.0` takes the sign of the column's first zero in row
    /// order, as a serial chain that keeps its accumulator on a tie does.
    /// Eight independent lanes run side by side, so the pass runs at
    /// memory speed rather than one compare's latency per row.
    pub(crate) fn numeric_range(&self) -> Option<(f64, f64)> {
        const LANES: usize = 8;
        let Column::Numeric(v) = self else {
            return None;
        };
        if v.is_empty() {
            return None;
        }
        let (mut lo, mut hi) = ([f64::INFINITY; LANES], [f64::NEG_INFINITY; LANES]);
        let blocks = v.chunks_exact(LANES);
        let tail = blocks.remainder();
        for block in blocks {
            for ((lo, hi), &x) in lo.iter_mut().zip(&mut hi).zip(block) {
                *lo = if x < *lo { x } else { *lo };
                *hi = if x > *hi { x } else { *hi };
            }
        }
        let lo = lo
            .iter()
            .chain(tail)
            .fold(f64::INFINITY, |m, &x| if x < m { x } else { m });
        let hi = hi
            .iter()
            .chain(tail)
            .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m });
        // Lanes tie zeros of either sign; the first zero in row order wins.
        let sign = |bound: f64| {
            if bound == 0.0 {
                v.iter().copied().find(|&x| x == 0.0).unwrap_or(bound)
            } else {
                bound
            }
        };
        Some((sign(lo), sign(hi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_push_and_get() {
        let mut c = Column::new_numeric();
        c.push(Value::Num(1.5)).unwrap();
        c.push(Value::Num(-2.0)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Value::Num(-2.0));
        assert_eq!(c.numeric().unwrap(), &[1.5, -2.0]);
    }

    #[test]
    fn categorical_dictionary_encoding() {
        let mut c = Column::new_categorical();
        c.push(Value::Str("us".into())).unwrap();
        c.push(Value::Str("eu".into())).unwrap();
        c.push(Value::Str("us".into())).unwrap();
        assert_eq!(c.categorical().unwrap(), &[0, 1, 0]);
        assert_eq!(c.code_of("eu"), Some(1));
        assert_eq!(c.label_of(0), Some("us"));
        assert_eq!(c.code_of("jp"), None);
    }

    #[test]
    fn raw_codes_accepted() {
        let mut c = Column::new_categorical();
        c.push(Value::Cat(42)).unwrap();
        assert_eq!(c.get(0), Value::Cat(42));
        assert_eq!(c.label_of(42), None);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut n = Column::new_numeric();
        assert!(n.push(Value::Cat(1)).is_err());
        let mut c = Column::new_categorical();
        assert!(c.push(Value::Num(1.0)).is_err());
        assert!(n.categorical().is_err());
        assert!(c.numeric().is_err());
    }

    #[test]
    fn gather_selects_rows() {
        let mut src = Column::new_numeric();
        for x in [10.0, 20.0, 30.0, 40.0] {
            src.push(Value::Num(x)).unwrap();
        }
        let mut dst = Column::new_numeric();
        dst.gather_from(&src, [3, 1].into_iter()).unwrap();
        assert_eq!(dst.numeric().unwrap(), &[40.0, 20.0]);
    }

    #[test]
    fn numeric_range() {
        let mut n = Column::new_numeric();
        assert_eq!(n.numeric_range(), None);
        for x in [3.0, -1.0, 7.0] {
            n.push(Value::Num(x)).unwrap();
        }
        assert_eq!(n.numeric_range(), Some((-1.0, 7.0)));
    }

    /// The lane-split range against the serial chain that keeps its
    /// accumulator on a tie, bit for bit: zeros of both signs in either
    /// order, NaN, all NaN, and columns longer than one lane block.
    #[test]
    fn numeric_range_is_the_serial_chain_bit_for_bit() {
        let serial = |v: &[f64]| {
            let lo = v
                .iter()
                .fold(f64::INFINITY, |m, &x| if x < m { x } else { m });
            let hi = v
                .iter()
                .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m });
            (lo.to_bits(), hi.to_bits())
        };
        let range = |v: &[f64]| {
            let (lo, hi) = Column::Numeric(v.to_vec()).numeric_range().unwrap();
            (lo.to_bits(), hi.to_bits())
        };
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        assert_eq!(range(&[0.0, -0.0]), (0.0f64.to_bits(), 0.0f64.to_bits()));
        assert_eq!(
            range(&[-0.0, 0.0]),
            ((-0.0f64).to_bits(), (-0.0f64).to_bits())
        );
        assert_eq!(range(&[nan; 20]), (inf.to_bits(), (-inf).to_bits()));
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in 1..=67 {
            for _ in 0..8 {
                let v: Vec<f64> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        match state % 8 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => nan,
                            3 => (state >> 11) as f64 / (1u64 << 53) as f64,
                            4 => -((state >> 11) as f64) / (1u64 << 53) as f64,
                            _ => [0.0, -0.0][(state >> 40) as usize % 2],
                        }
                    })
                    .collect();
                assert_eq!(range(&v), serial(&v), "{v:?}");
                let signless: Vec<f64> = v.iter().map(|x| x.abs()).collect();
                assert_eq!(range(&signless), serial(&signless), "{signless:?}");
                let negative: Vec<f64> = v.iter().map(|x| -x.abs()).collect();
                assert_eq!(range(&negative), serial(&negative), "{negative:?}");
            }
        }
    }
}
