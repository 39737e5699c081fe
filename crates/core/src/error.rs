//! Error type for the decomposition API.

use std::fmt;

/// Errors produced by the session API ([`crate::session::Nucleus`]),
/// the [`crate::decompose::decompose`] shorthand, and the persisted-index
/// loader.
#[derive(Debug)]
pub enum CoreError {
    /// The requested algorithm cannot run on the requested family
    /// (e.g. LCPS is defined for k-core only).
    UnsupportedAlgorithm {
        /// Algorithm name.
        algorithm: &'static str,
        /// Family it was requested for.
        kind: String,
    },
    /// The backend and engine set on a
    /// [`crate::session::NucleusBuilder`] contradict each other or the
    /// requested algorithm (e.g. the frontier peeling engine with the
    /// lazy backend, or with LCPS, which walks the graph directly and
    /// never peels).
    InvalidOptions {
        /// Human-readable explanation of the conflict.
        reason: String,
    },
    /// A textual token (typically a CLI argument) named no known kind,
    /// algorithm, backend or engine. Produced by the `parse` associated
    /// functions on those types; `expected` enumerates the actual
    /// accepted spellings, so the message never goes stale.
    UnknownName {
        /// What was being parsed: `"kind"`, `"algorithm"`, …
        what: &'static str,
        /// The offending token.
        token: String,
        /// Rendered list of accepted spellings.
        expected: String,
    },
    /// A persisted index file failed structural validation: bad magic,
    /// unsupported version, checksum mismatch, truncated or
    /// out-of-bounds sections, malformed records. The bytes cannot be
    /// trusted; re-run `prepare` to regenerate the file.
    IndexCorrupt {
        /// Where the bytes came from (file path, or a label for
        /// in-memory images).
        path: String,
        /// What the validator tripped over.
        reason: String,
    },
    /// A structurally valid index file does not belong to the inputs it
    /// was offered for: the graph fingerprint differs (the graph changed
    /// after `prepare`), or the requested kind contradicts the stored
    /// (r, s) family.
    IndexMismatch {
        /// Where the index came from.
        path: String,
        /// Which part of the identity disagreed.
        reason: String,
    },
    /// Reading or writing a persisted index failed at the I/O layer
    /// (missing file, permissions, full disk).
    IndexIo {
        /// The path involved.
        path: String,
        /// The underlying I/O error, rendered.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnsupportedAlgorithm { algorithm, kind } => {
                write!(f, "{algorithm} does not support the {kind} decomposition")
            }
            CoreError::InvalidOptions { reason } => {
                write!(f, "invalid decompose options: {reason}")
            }
            CoreError::UnknownName {
                what,
                token,
                expected,
            } => {
                write!(f, "unknown {what} {token:?} (expected one of: {expected})")
            }
            CoreError::IndexCorrupt { path, reason } => {
                write!(f, "index file {path:?} is corrupt: {reason}")
            }
            CoreError::IndexMismatch { path, reason } => {
                write!(f, "index file {path:?} does not match this graph: {reason}")
            }
            CoreError::IndexIo { path, reason } => {
                write!(f, "index file {path:?}: i/o error: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}
