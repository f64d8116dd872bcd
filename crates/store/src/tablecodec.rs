//! Binary encoding of base tables (schema + columns).
//!
//! Lives here rather than in `verdict_core::persist` because tables belong
//! to `verdict-storage`, and the coherence rules put the codec next to the
//! store that needs it. Columnar layout: numeric columns are raw `f64`
//! runs, categorical columns are raw `u32` code runs plus their label
//! dictionary, so encoding is a near-memcpy.

use verdict_core::persist::{Decoder, Encoder, PersistError, PersistResult};
use verdict_storage::{AttributeRole, Column, ColumnDef, ColumnType, Schema, Table};

/// Encodes a column list: its length, then each column's name, type byte
/// and role byte. A table's schema and the wire's `hello` reply share it.
pub fn encode_columns(columns: &[ColumnDef], enc: &mut Encoder) {
    enc.put_len(columns.len());
    for def in columns {
        enc.put_str(&def.name);
        enc.put_u8(match def.ty {
            ColumnType::Numeric => 0,
            ColumnType::Categorical => 1,
        });
        enc.put_u8(match def.role {
            AttributeRole::Dimension => 0,
            AttributeRole::Measure => 1,
        });
    }
}

/// Decodes a column list written by [`encode_columns`].
pub fn decode_columns(dec: &mut Decoder<'_>) -> PersistResult<Vec<ColumnDef>> {
    let n = dec.take_len()?;
    let mut defs = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let name = dec.take_str()?;
        let ty = match dec.take_u8()? {
            0 => ColumnType::Numeric,
            1 => ColumnType::Categorical,
            t => return Err(PersistError::Corrupt(format!("ColumnType tag {t}"))),
        };
        let role = match dec.take_u8()? {
            0 => AttributeRole::Dimension,
            1 => AttributeRole::Measure,
            t => return Err(PersistError::Corrupt(format!("AttributeRole tag {t}"))),
        };
        defs.push(ColumnDef { name, ty, role });
    }
    Ok(defs)
}

/// Encodes a full table (schema, row count, columns).
pub fn encode_table(table: &Table, enc: &mut Encoder) {
    encode_rows(table, table.num_rows(), enc);
}

/// Encodes `table`'s resolution table: its schema and categorical
/// dictionaries as a zero-row table, byte-identical to [`encode_table`]
/// of a zero-row table with the same dictionaries.
pub(crate) fn encode_resolution(table: &Table, enc: &mut Encoder) {
    encode_rows(table, 0, enc);
}

/// Encodes the schema, the first `rows` rows and the dictionaries.
fn encode_rows(table: &Table, rows: usize, enc: &mut Encoder) {
    encode_columns(table.schema().columns(), enc);
    enc.put_len(rows);
    for (i, def) in table.schema().columns().iter().enumerate() {
        let col = table.column_at(i);
        match def.ty {
            ColumnType::Numeric => {
                let data = col.numeric().expect("schema says numeric");
                for &x in &data[..rows] {
                    enc.put_f64(x);
                }
            }
            ColumnType::Categorical => {
                let codes = col.categorical().expect("schema says categorical");
                for &c in &codes[..rows] {
                    enc.put_u32(c);
                }
                let labels = col.labels().expect("schema says categorical");
                enc.put_len(labels.len());
                for l in labels {
                    enc.put_str(l);
                }
            }
        }
    }
}

/// Decodes a table written by [`encode_table`].
pub(crate) fn decode_table(dec: &mut Decoder<'_>) -> PersistResult<Table> {
    let schema = Schema::new(decode_columns(dec)?)
        .map_err(|e| PersistError::Corrupt(format!("schema: {e}")))?;
    let rows = dec.take_len()?;
    let mut columns = Vec::with_capacity(schema.len());
    for def in schema.columns() {
        match def.ty {
            ColumnType::Numeric => {
                let mut data = Vec::with_capacity(rows.min(1 << 20));
                for _ in 0..rows {
                    data.push(dec.take_f64()?);
                }
                columns.push(Column::from_numeric(data));
            }
            ColumnType::Categorical => {
                let mut codes = Vec::with_capacity(rows.min(1 << 20));
                for _ in 0..rows {
                    codes.push(dec.take_u32()?);
                }
                let n_labels = dec.take_len()?;
                let mut labels = Vec::with_capacity(n_labels.min(1 << 16));
                for _ in 0..n_labels {
                    labels.push(dec.take_str()?);
                }
                columns.push(Column::from_categorical(codes, labels));
            }
        }
    }
    Table::from_columns(schema, columns).map_err(|e| PersistError::Corrupt(format!("table: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_storage::Value;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::categorical_dimension("region"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..100 {
            t.push_row(vec![
                Value::Num(i as f64),
                Value::Str(["us", "eu", "jp"][i % 3].to_owned()),
                Value::Num(100.0 + (i as f64) * 0.25),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn table_roundtrip_bit_exact() {
        let t = sample_table();
        let mut enc = Encoder::new();
        encode_table(&t, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = decode_table(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.num_rows(), t.num_rows());
        assert_eq!(
            back.column("week").unwrap().numeric().unwrap(),
            t.column("week").unwrap().numeric().unwrap()
        );
        assert_eq!(
            back.column("region").unwrap().categorical().unwrap(),
            t.column("region").unwrap().categorical().unwrap()
        );
        // Dictionary survives: labels resolve after the round trip.
        assert_eq!(back.column("region").unwrap().code_of("jp"), Some(2));
        // Re-encoding yields identical bytes.
        let mut enc2 = Encoder::new();
        encode_table(&back, &mut enc2);
        assert_eq!(enc2.into_bytes(), bytes);
    }

    #[test]
    fn empty_table_roundtrip() {
        let schema = Schema::new(vec![ColumnDef::measure("m")]).unwrap();
        let t = Table::new(schema);
        let mut enc = Encoder::new();
        encode_table(&t, &mut enc);
        let bytes = enc.into_bytes();
        let back = decode_table(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.num_rows(), 0);
    }

    #[test]
    fn truncated_table_bytes_error() {
        let t = sample_table();
        let mut enc = Encoder::new();
        encode_table(&t, &mut enc);
        let bytes = enc.into_bytes();
        for cut in [0, 1, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(decode_table(&mut dec).is_err(), "cut {cut}");
        }
    }
}
