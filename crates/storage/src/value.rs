//! Scalar values exchanged with the storage engine.

/// A single cell value.
///
/// The engine stores two physical types, matching the paper's data model
/// (§3.1): numeric (`f64`) and categorical (dictionary-encoded `u32`).
/// `Str` is a convenience wrapper used at the API boundary before dictionary
/// encoding resolves it to a code.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Numeric value (dimension or measure).
    Num(f64),
    /// Dictionary code of a categorical value.
    Cat(u32),
    /// Un-encoded categorical string (encoded on insert).
    Str(String),
}

impl Value {
    /// Numeric accessor; `None` for categorical values.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Num(x as f64)
    }
}

impl From<u32> for Value {
    fn from(c: u32) -> Self {
        Value::Cat(c)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Num(x) => write!(f, "{x}"),
            Value::Cat(c) => write!(f, "#{c}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Num(1.5).as_num(), Some(1.5));
        assert_eq!(Value::Cat(3).as_num(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(2.0), Value::Num(2.0));
        assert_eq!(Value::from(7i64), Value::Num(7.0));
        assert_eq!(Value::from(4u32), Value::Cat(4));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Num(1.0).to_string(), "1");
        assert_eq!(Value::Cat(9).to_string(), "#9");
        assert_eq!(Value::Str("a".into()).to_string(), "\"a\"");
    }
}
