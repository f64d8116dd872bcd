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
    pub(crate) fn gather_from(&mut self, other: &Column, rows: &[usize]) -> Result<()> {
        match (self, other) {
            (Column::Numeric(dst), Column::Numeric(src)) => {
                dst.reserve(rows.len());
                for &r in rows {
                    dst.push(src[r]);
                }
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
                dst.reserve(rows.len());
                for &r in rows {
                    dst.push(src[r]);
                }
                Ok(())
            }
            _ => Err(StorageError::TypeError(
                "gather between mismatched column types".into(),
            )),
        }
    }

    /// Min and max of a numeric column; `None` when empty or categorical.
    pub(crate) fn numeric_range(&self) -> Option<(f64, f64)> {
        match self {
            Column::Numeric(v) if !v.is_empty() => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &x in v {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                Some((lo, hi))
            }
            _ => None,
        }
    }

    /// Number of distinct categorical codes; `None` for numeric columns.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            Column::Categorical { codes, .. } => {
                let mut seen: Vec<u32> = codes.clone();
                seen.sort_unstable();
                seen.dedup();
                Some(seen.len())
            }
            Column::Numeric(_) => None,
        }
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
        dst.gather_from(&src, &[3, 1]).unwrap();
        assert_eq!(dst.numeric().unwrap(), &[40.0, 20.0]);
    }

    #[test]
    fn numeric_range_and_cardinality() {
        let mut n = Column::new_numeric();
        assert_eq!(n.numeric_range(), None);
        for x in [3.0, -1.0, 7.0] {
            n.push(Value::Num(x)).unwrap();
        }
        assert_eq!(n.numeric_range(), Some((-1.0, 7.0)));
        assert_eq!(n.cardinality(), None);

        let mut c = Column::new_categorical();
        for code in [1u32, 1, 2, 5] {
            c.push(Value::Cat(code)).unwrap();
        }
        assert_eq!(c.cardinality(), Some(3));
    }
}
