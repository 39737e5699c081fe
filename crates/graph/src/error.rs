//! Error type for graph I/O and construction.

use std::fmt;

/// Errors produced by this crate's fallible operations (chiefly I/O).
#[derive(Debug)]
pub enum GraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line of an edge-list file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Offending content (truncated).
        content: String,
    },
    /// A persisted index image had an invalid header, section or
    /// checksum ([`crate::persist_io`]).
    Format(String),
    /// Flat-record invariants were violated (non-monotone offsets, a
    /// mis-sized data buffer, …). Produced by
    /// [`crate::flat::FlatRecords::try_from_parts`], which the
    /// persisted-index loader decodes untrusted bytes through instead of
    /// the panicking [`crate::flat::FlatRecords::from_parts`].
    Records(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, content } => {
                write!(f, "parse error at line {line}: {content:?}")
            }
            GraphError::Format(msg) => write!(f, "format error: {msg}"),
            GraphError::Records(msg) => write!(f, "invalid flat records: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
