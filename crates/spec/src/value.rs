//! A small TLA+-like value algebra.
//!
//! Specifications in this framework use typed Rust structs for their states (for speed),
//! but several cross-cutting facilities need a uniform, ordered, printable representation
//! of variable values: the state projections of refinement checking (Appendix B of the
//! paper), conformance checking (comparing a model-level variable with its code-level
//! counterpart), and report serialization.  [`Value`] plays that role.

use std::collections::BTreeMap;
use std::fmt;

/// A TLA+-style value: booleans, integers, strings, sequences, sets and records.
///
/// `Value` is totally ordered so it can be placed in sets and used as a map key, and it
/// implements [`fmt::Display`] with TLA+-like syntax (`<<...>>` for sequences, `{...}`
/// for sets, `[k |-> v]` for records).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A string (also used for model constants such as `"LEADING"`).
    Str(String),
    /// A finite sequence (TLA+ `<<v1, v2, ...>>`).
    Seq(Vec<Value>),
    /// A finite set (TLA+ `{v1, v2, ...}`), kept sorted and deduplicated.
    Set(Vec<Value>),
    /// A record (TLA+ `[field |-> value, ...]`).
    Record(BTreeMap<String, Value>),
}

impl Value {
    /// Builds a set value, sorting and deduplicating the given elements.
    pub fn set(mut elems: Vec<Value>) -> Self {
        elems.sort();
        elems.dedup();
        Value::Set(elems)
    }

    /// Builds a sequence value.
    pub fn seq(elems: Vec<Value>) -> Self {
        Value::Seq(elems)
    }

    /// Builds a record value from `(field, value)` pairs.
    pub fn record<I>(fields: I) -> Self
    where
        I: IntoIterator<Item = (String, Value)>,
    {
        Value::Record(fields.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Returns the sequence elements, if this value is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the number of elements for sequences, sets and records; 1 otherwise.
    pub fn len(&self) -> usize {
        match self {
            Value::Seq(v) | Value::Set(v) => v.len(),
            Value::Record(r) => r.len(),
            _ => 1,
        }
    }

    /// Returns `true` if this is an empty sequence, set or record.
    pub fn is_empty(&self) -> bool {
        match self {
            Value::Seq(v) | Value::Set(v) => v.is_empty(),
            Value::Record(r) => r.is_empty(),
            _ => false,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Seq(v.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Seq(v) => {
                write!(f, "<<")?;
                for (idx, e) in v.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ">>")
            }
            Value::Set(v) => {
                write!(f, "{{")?;
                for (idx, e) in v.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
            Value::Record(r) => {
                write!(f, "[")?;
                for (idx, (k, v)) in r.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} |-> {v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_sorts_and_dedups() {
        let s = Value::set(vec![Value::Int(3), Value::Int(1), Value::Int(3)]);
        assert_eq!(s, Value::Set(vec![Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn display_is_tla_like() {
        let v = Value::record(vec![
            ("mtype".to_owned(), Value::str("ACK")),
            ("mzxid".to_owned(), Value::from(vec![1i64, 2])),
        ]);
        assert_eq!(v.to_string(), "[mtype |-> \"ACK\", mzxid |-> <<1, 2>>]");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(
            Value::set(vec![Value::Int(2), Value::Int(1)]).to_string(),
            "{1, 2}"
        );
    }

    #[test]
    fn accessors() {
        let seq = Value::from(vec![1i64, 2]);
        assert_eq!(seq.as_seq(), Some(&[Value::Int(1), Value::Int(2)][..]));
        assert!(Value::set(vec![Value::Int(1)]).as_seq().is_none());
        assert_eq!(seq.len(), 2);
        assert_eq!(Value::Int(7).len(), 1);
        assert!(Value::Seq(vec![]).is_empty());
        assert!(!Value::Int(0).is_empty());
    }
}
