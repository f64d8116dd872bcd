//! Table schemas with the paper's dimension/measure attribute split.

use crate::{Result, StorageError};

/// Physical column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// `f64` storage.
    Numeric,
    /// Dictionary-encoded `u32` storage.
    Categorical,
}

/// Logical attribute role (paper §3.1).
///
/// Dimension attributes `A1..Al` may appear in selection predicates and
/// group-by clauses but never inside aggregate functions; measure attributes
/// `A(l+1)..Am` are numeric and may be aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributeRole {
    /// Filterable/groupable attribute.
    Dimension,
    /// Aggregatable attribute (always numeric).
    Measure,
}

/// Definition of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (unique within the schema).
    pub name: String,
    /// Physical type.
    pub ty: ColumnType,
    /// Logical role.
    pub role: AttributeRole,
}

impl ColumnDef {
    /// Numeric dimension column (e.g. a timestamp or price filterable range).
    pub fn numeric_dimension(name: &str) -> Self {
        ColumnDef {
            name: name.to_owned(),
            ty: ColumnType::Numeric,
            role: AttributeRole::Dimension,
        }
    }

    /// Categorical dimension column.
    pub fn categorical_dimension(name: &str) -> Self {
        ColumnDef {
            name: name.to_owned(),
            ty: ColumnType::Categorical,
            role: AttributeRole::Dimension,
        }
    }

    /// Numeric measure column.
    pub fn measure(name: &str) -> Self {
        ColumnDef {
            name: name.to_owned(),
            ty: ColumnType::Numeric,
            role: AttributeRole::Measure,
        }
    }
}

/// Ordered collection of column definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate column names and non-numeric
    /// measures.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if c.role == AttributeRole::Measure && c.ty != ColumnType::Numeric {
                return Err(StorageError::SchemaMismatch(format!(
                    "measure column {} must be numeric",
                    c.name
                )));
            }
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(StorageError::SchemaMismatch(format!(
                    "duplicate column name {}",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// All column definitions in declaration order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_owned()))
    }

    /// Definition of a column by name.
    pub fn column(&self, name: &str) -> Result<&ColumnDef> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Returns a new schema that appends the columns of `other`, prefixing
    /// clashing names with `prefix`. Used by denormalizing joins.
    pub fn concat(&self, other: &Schema, prefix: &str) -> Result<Schema> {
        let mut cols = self.columns.clone();
        for c in &other.columns {
            let name = if cols.iter().any(|p| p.name == c.name) {
                format!("{prefix}{}", c.name)
            } else {
                c.name.clone()
            };
            cols.push(ColumnDef {
                name,
                ty: c.ty,
                role: c.role,
            });
        }
        Schema::new(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::categorical_dimension("region"),
            ColumnDef::measure("revenue"),
        ])
        .unwrap()
    }

    #[test]
    fn index_and_lookup() {
        let s = sample();
        assert_eq!(s.index_of("region").unwrap(), 1);
        assert_eq!(s.column("revenue").unwrap().role, AttributeRole::Measure);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let r = Schema::new(vec![ColumnDef::measure("x"), ColumnDef::measure("x")]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_categorical_measure() {
        let r = Schema::new(vec![ColumnDef {
            name: "bad".into(),
            ty: ColumnType::Categorical,
            role: AttributeRole::Measure,
        }]);
        assert!(r.is_err());
    }

    #[test]
    fn role_partitions() {
        let s = sample();
        let names = |role| {
            s.columns()
                .iter()
                .filter(|c| c.role == role)
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(AttributeRole::Dimension), vec!["week", "region"]);
        assert_eq!(names(AttributeRole::Measure), vec!["revenue"]);
    }

    #[test]
    fn concat_prefixes_clashes() {
        let a = sample();
        let b = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::measure("cost"),
        ])
        .unwrap();
        let c = a.concat(&b, "d_").unwrap();
        assert_eq!(c.len(), 5);
        assert!(c.index_of("d_week").is_ok());
        assert!(c.index_of("cost").is_ok());
    }
}
