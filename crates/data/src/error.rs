//! Error type for the data layer.

use std::fmt;

/// Errors raised while building or accessing tables and dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A dimension, level, or member name was not found.
    UnknownName {
        /// What kind of entity was looked up (e.g. `"dimension"`).
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
    /// An id was out of range for its arena.
    InvalidId {
        /// What kind of id (e.g. `"member"`).
        kind: &'static str,
        /// The offending numeric id.
        id: usize,
    },
    /// Column lengths disagree while building a table.
    LengthMismatch {
        /// Expected number of rows.
        expected: usize,
        /// Observed number of rows.
        actual: usize,
    },
    /// A member was used at the wrong hierarchy level
    /// (e.g. a non-leaf member in a fact row).
    LevelMismatch {
        /// Expected level index.
        expected: usize,
        /// Observed level index.
        actual: usize,
    },
    /// The durability layer failed: a write-ahead-log append or fsync, or
    /// recovery found the on-disk state unusable. The
    /// in-memory revision is left untouched when this surfaces from an
    /// append.
    Wal {
        /// What failed (e.g. `"append"`, `"fsync"`, `"recovery"`).
        op: &'static str,
        /// Description of the failure.
        message: String,
    },
    /// A malformed CSV line was encountered.
    Csv {
        /// 1-based line number.
        line: usize,
        /// The column (header name) the problem was found in, when it is
        /// attributable to one.
        column: Option<String>,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownName { kind, name } => {
                write!(f, "unknown {kind} name: {name:?}")
            }
            DataError::InvalidId { kind, id } => write!(f, "invalid {kind} id: {id}"),
            DataError::LengthMismatch { expected, actual } => {
                write!(f, "column length mismatch: expected {expected} rows, got {actual}")
            }
            DataError::LevelMismatch { expected, actual } => {
                write!(f, "member at level {actual}, expected level {expected}")
            }
            DataError::Wal { op, message } => write!(f, "wal {op} failed: {message}"),
            DataError::Csv { line, column, message } => match column {
                Some(col) => write!(f, "csv error at line {line}, column {col:?}: {message}"),
                None => write!(f, "csv error at line {line}: {message}"),
            },
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_name() {
        let e = DataError::UnknownName { kind: "dimension", name: "foo".into() };
        assert_eq!(e.to_string(), "unknown dimension name: \"foo\"");
    }

    #[test]
    fn display_length_mismatch() {
        let e = DataError::LengthMismatch { expected: 3, actual: 5 };
        assert!(e.to_string().contains("expected 3"));
        assert!(e.to_string().contains("got 5"));
    }

    #[test]
    fn display_csv_with_and_without_column() {
        let with = DataError::Csv {
            line: 7,
            column: Some("start salary".into()),
            message: "bad value".into(),
        };
        assert_eq!(with.to_string(), "csv error at line 7, column \"start salary\": bad value");
        let without = DataError::Csv { line: 1, column: None, message: "missing header".into() };
        assert_eq!(without.to_string(), "csv error at line 1: missing header");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> =
            Box::new(DataError::InvalidId { kind: "member", id: 42 });
        assert!(e.to_string().contains("42"));
    }
}
