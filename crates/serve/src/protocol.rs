//! Wire protocol of the query service: line-delimited JSON.
//!
//! Each request is one JSON object on one line, e.g.
//!
//! ```text
//! {"query":"lambda","cell":5}
//! {"query":"density","node":3,"algo":"fnd","id":42}
//! ```
//!
//! and each response is one JSON object on one line, either
//!
//! ```text
//! {"ok":true,"id":42,"query":"density","result":{...}}
//! {"ok":false,"id":42,"error":{"code":"bad_request","message":"..."}}
//! ```
//!
//! The shim `serde` derive cannot express enums, so [`Query`],
//! [`Request`] and the response constructors convert to/from
//! [`serde::Value`] by hand. Query names accept `-` as an alias for
//! `_` (`level-profile` == `level_profile`), matching the CLI's kind
//! spellings.

use nucleus_core::Algorithm;
use nucleus_dynamic::EdgeOp;
use serde::Value;

/// Default cap on the number of cells/vertices a `members` response
/// lists inline (the totals are always exact).
pub const DEFAULT_MEMBER_LIMIT: usize = 10_000;

/// Machine-readable error class of a failed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The JSON was well-formed but not a valid request (unknown query
    /// type, missing/ill-typed field, out-of-range id).
    BadRequest,
    /// The request was valid but this server cannot answer it (e.g. an
    /// algorithm the prepared kind does not support).
    Unsupported,
    /// The request line exceeds the server's
    /// [`max_line_bytes`](crate::ServeConfig::max_line_bytes) cap.
    TooLarge,
    /// The request stalled past the per-request timeout.
    Timeout,
    /// The server failed internally while answering.
    Internal,
    /// The server is shutting down and no longer answers queries.
    ShuttingDown,
}

impl ErrorCode {
    /// Stable wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// A typed protocol error: what went wrong, in wire terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// Error class (the wire `code` field).
    pub code: ErrorCode,
    /// Human-readable detail (the wire `message` field).
    pub message: String,
}

impl ProtocolError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtocolError {
            code,
            message: message.into(),
        }
    }

    /// A `bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ProtocolError::new(ErrorCode::BadRequest, message)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// One typed query the engine can answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// λ of one cell: `{"query":"lambda","cell":C}`.
    Lambda {
        /// Cell id (vertex for (1,s), edge id for (2,s), triangle id
        /// for (3,4)).
        cell: u32,
    },
    /// Chain of nuclei containing a cell, leaf → root:
    /// `{"query":"nuclei_of","cell":C}`.
    NucleiOf {
        /// Cell id.
        cell: u32,
    },
    /// Member cells + spanned vertices of one hierarchy node:
    /// `{"query":"members","node":N,"limit":L?}`.
    Members {
        /// Hierarchy node id.
        node: u32,
        /// Cap on listed cells/vertices ([`DEFAULT_MEMBER_LIMIT`] when
        /// absent); totals stay exact.
        limit: usize,
    },
    /// Structural view of one node (parent, children, sizes):
    /// `{"query":"subtree","node":N}`.
    Subtree {
        /// Hierarchy node id.
        node: u32,
    },
    /// Edge density of the subgraph spanned by one node:
    /// `{"query":"density","node":N}`.
    Density {
        /// Hierarchy node id.
        node: u32,
    },
    /// Best-density hierarchy node: `{"query":"densest"}`.
    Densest,
    /// Nucleus counts per level k: `{"query":"level_profile"}`.
    LevelProfile,
    /// Engine + (when served) request metrics: `{"query":"stats"}`.
    Stats,
    /// Ask the server to stop accepting work and exit:
    /// `{"query":"shutdown"}`.
    Shutdown,
    /// Apply a batch of edge mutations (mutable servers only):
    /// `{"query":"mutate","ops":[["+",0,5],["-",2,3]]}`.
    Mutate {
        /// The batch, in order; coalescing is the engine's business.
        ops: Vec<EdgeOp>,
    },
}

/// Wire names of every query type, in [`Query::slot`] order.
pub const QUERY_NAMES: [&str; 10] = [
    "lambda",
    "nuclei_of",
    "members",
    "subtree",
    "density",
    "densest",
    "level_profile",
    "stats",
    "shutdown",
    "mutate",
];

impl Query {
    /// Stable wire name of the query type.
    pub fn name(&self) -> &'static str {
        QUERY_NAMES[self.slot()]
    }

    /// Dense index of the query type (metrics counter slot).
    pub fn slot(&self) -> usize {
        match self {
            Query::Lambda { .. } => 0,
            Query::NucleiOf { .. } => 1,
            Query::Members { .. } => 2,
            Query::Subtree { .. } => 3,
            Query::Density { .. } => 4,
            Query::Densest => 5,
            Query::LevelProfile => 6,
            Query::Stats => 7,
            Query::Shutdown => 8,
            Query::Mutate { .. } => 9,
        }
    }
}

/// One parsed request line: the query plus its envelope fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// Hierarchy algorithm to answer from (engine default when absent).
    pub algo: Option<Algorithm>,
    /// The query itself.
    pub query: Query,
}

fn get_u32(v: &Value, name: &str) -> Result<u32, ProtocolError> {
    match v.field(name) {
        Ok(Value::U64(n)) if *n <= u32::MAX as u64 => Ok(*n as u32),
        Ok(Value::U64(_)) | Ok(Value::I64(_)) | Ok(Value::F64(_)) => Err(
            ProtocolError::bad_request(format!("field `{name}` out of range for u32")),
        ),
        Ok(other) => Err(ProtocolError::bad_request(format!(
            "field `{name}` must be a non-negative integer, got {other:?}"
        ))),
        Err(_) => Err(ProtocolError::bad_request(format!(
            "missing field `{name}`"
        ))),
    }
}

fn get_opt_u64(v: &Value, name: &str) -> Result<Option<u64>, ProtocolError> {
    match v.field(name) {
        Ok(Value::U64(n)) => Ok(Some(*n)),
        Ok(Value::Null) => Ok(None),
        Ok(_) => Err(ProtocolError::bad_request(format!(
            "field `{name}` must be a non-negative integer"
        ))),
        Err(_) => Ok(None),
    }
}

impl Request {
    /// Parses one request line. JSON syntax errors map to
    /// [`ErrorCode::BadJson`]; structural errors to
    /// [`ErrorCode::BadRequest`].
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let v: Value = serde_json::from_str(line)
            .map_err(|e| ProtocolError::new(ErrorCode::BadJson, e.to_string()))?;
        Request::from_value(&v)
    }

    /// Parses a request from an already-decoded value tree.
    pub fn from_value(v: &Value) -> Result<Request, ProtocolError> {
        if !matches!(v, Value::Object(_)) {
            return Err(ProtocolError::bad_request(
                "request must be a JSON object with a `query` field",
            ));
        }
        let id = get_opt_u64(v, "id")?;
        let algo = match v.field("algo") {
            Ok(Value::Str(s)) => Some(
                Algorithm::parse(s)
                    .map_err(|e| ProtocolError::new(ErrorCode::Unsupported, e.to_string()))?,
            ),
            Ok(Value::Null) => None,
            Ok(_) => {
                return Err(ProtocolError::bad_request(
                    "field `algo` must be a string (naive|dft|fnd|lcps)",
                ))
            }
            Err(_) => None,
        };
        let name = match v.field("query") {
            Ok(Value::Str(s)) => s.replace('-', "_"),
            Ok(_) => return Err(ProtocolError::bad_request("field `query` must be a string")),
            Err(_) => return Err(ProtocolError::bad_request("missing field `query`")),
        };
        let query = match name.as_str() {
            "lambda" => Query::Lambda {
                cell: get_u32(v, "cell")?,
            },
            "nuclei_of" => Query::NucleiOf {
                cell: get_u32(v, "cell")?,
            },
            "members" => Query::Members {
                node: get_u32(v, "node")?,
                limit: match get_opt_u64(v, "limit")? {
                    Some(l) => l as usize,
                    None => DEFAULT_MEMBER_LIMIT,
                },
            },
            "subtree" => Query::Subtree {
                node: get_u32(v, "node")?,
            },
            "density" => Query::Density {
                node: get_u32(v, "node")?,
            },
            "densest" => Query::Densest,
            "level_profile" => Query::LevelProfile,
            "stats" => Query::Stats,
            "shutdown" => Query::Shutdown,
            "mutate" => Query::Mutate { ops: parse_ops(v)? },
            other => {
                return Err(ProtocolError::bad_request(format!(
                    "unknown query type `{other}`; expected one of {}",
                    QUERY_NAMES.join("|")
                )))
            }
        };
        Ok(Request { id, algo, query })
    }
}

/// Parses the `ops` field of a `mutate` request: a non-empty array of
/// `["+"|"-", u, v]` triples.
fn parse_ops(v: &Value) -> Result<Vec<EdgeOp>, ProtocolError> {
    let items = match v.field("ops") {
        Ok(Value::Array(items)) => items,
        Ok(_) => {
            return Err(ProtocolError::bad_request(
                "field `ops` must be an array of [\"+\"|\"-\", u, v] triples",
            ))
        }
        Err(_) => return Err(ProtocolError::bad_request("missing field `ops`")),
    };
    if items.is_empty() {
        return Err(ProtocolError::bad_request("field `ops` must be non-empty"));
    }
    let mut ops = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let bad = || {
            ProtocolError::bad_request(format!(
                "ops[{i}] must be [\"+\"|\"-\", u, v] with u, v in u32 range"
            ))
        };
        let Value::Array(triple) = item else {
            return Err(bad());
        };
        let [Value::Str(sign), Value::U64(u), Value::U64(v)] = triple.as_slice() else {
            return Err(bad());
        };
        if *u > u32::MAX as u64 || *v > u32::MAX as u64 {
            return Err(bad());
        }
        let (u, v) = (*u as u32, *v as u32);
        ops.push(match sign.as_str() {
            "+" => EdgeOp::Insert(u, v),
            "-" => EdgeOp::Delete(u, v),
            _ => return Err(bad()),
        });
    }
    Ok(ops)
}

fn id_value(id: Option<u64>) -> Value {
    match id {
        Some(n) => Value::U64(n),
        None => Value::Null,
    }
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(id: Option<u64>, query: &str, result: Value) -> String {
    let v = Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("id".to_string(), id_value(id)),
        ("query".to_string(), Value::Str(query.to_string())),
        ("result".to_string(), result),
    ]);
    serde_json::to_string(&v).expect("response rendering is infallible")
}

/// Renders an error response line (no trailing newline).
pub fn err_response(id: Option<u64>, err: &ProtocolError) -> String {
    let v = Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("id".to_string(), id_value(id)),
        (
            "error".to_string(),
            Value::Object(vec![
                (
                    "code".to_string(),
                    Value::Str(err.code.as_str().to_string()),
                ),
                ("message".to_string(), Value::Str(err.message.clone())),
            ]),
        ),
    ]);
    serde_json::to_string(&v).expect("response rendering is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_query_type() {
        let cases = [
            (r#"{"query":"lambda","cell":5}"#, Query::Lambda { cell: 5 }),
            (
                r#"{"query":"nuclei_of","cell":0}"#,
                Query::NucleiOf { cell: 0 },
            ),
            (
                r#"{"query":"members","node":3}"#,
                Query::Members {
                    node: 3,
                    limit: DEFAULT_MEMBER_LIMIT,
                },
            ),
            (
                r#"{"query":"members","node":3,"limit":7}"#,
                Query::Members { node: 3, limit: 7 },
            ),
            (
                r#"{"query":"subtree","node":1}"#,
                Query::Subtree { node: 1 },
            ),
            (
                r#"{"query":"density","node":2}"#,
                Query::Density { node: 2 },
            ),
            (r#"{"query":"densest"}"#, Query::Densest),
            (r#"{"query":"level_profile"}"#, Query::LevelProfile),
            (r#"{"query":"level-profile"}"#, Query::LevelProfile),
            (r#"{"query":"stats"}"#, Query::Stats),
            (r#"{"query":"shutdown"}"#, Query::Shutdown),
            (
                r#"{"query":"mutate","ops":[["+",0,5],["-",2,3]]}"#,
                Query::Mutate {
                    ops: vec![EdgeOp::Insert(0, 5), EdgeOp::Delete(2, 3)],
                },
            ),
        ];
        for (line, want) in cases {
            let req = Request::parse(line).unwrap();
            assert_eq!(req.query, want, "line: {line}");
            assert_eq!(req.query.name(), QUERY_NAMES[req.query.slot()]);
        }
    }

    #[test]
    fn envelope_fields_round_trip() {
        let req = Request::parse(r#"{"query":"lambda","cell":1,"id":99,"algo":"dft"}"#).unwrap();
        assert_eq!(req.id, Some(99));
        assert_eq!(req.algo, Some(Algorithm::Dft));
    }

    #[test]
    fn error_taxonomy() {
        let bad_json = Request::parse("{nope").unwrap_err();
        assert_eq!(bad_json.code, ErrorCode::BadJson);
        let unknown = Request::parse(r#"{"query":"frobnicate"}"#).unwrap_err();
        assert_eq!(unknown.code, ErrorCode::BadRequest);
        assert!(unknown.message.contains("frobnicate"));
        let missing = Request::parse(r#"{"query":"lambda"}"#).unwrap_err();
        assert_eq!(missing.code, ErrorCode::BadRequest);
        let not_obj = Request::parse("[1,2]").unwrap_err();
        assert_eq!(not_obj.code, ErrorCode::BadRequest);
        let bad_algo = Request::parse(r#"{"query":"stats","algo":"magic"}"#).unwrap_err();
        assert_eq!(bad_algo.code, ErrorCode::Unsupported);
        let huge = Request::parse(r#"{"query":"lambda","cell":4294967296}"#).unwrap_err();
        assert_eq!(huge.code, ErrorCode::BadRequest);
        for line in [
            r#"{"query":"mutate"}"#,
            r#"{"query":"mutate","ops":[]}"#,
            r#"{"query":"mutate","ops":[["*",1,2]]}"#,
            r#"{"query":"mutate","ops":[["+",1]]}"#,
            r#"{"query":"mutate","ops":[["+",1,4294967296]]}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "line: {line}");
        }
    }

    #[test]
    fn responses_render_stably() {
        let ok = ok_response(Some(7), "lambda", Value::U64(3));
        assert_eq!(ok, r#"{"ok":true,"id":7,"query":"lambda","result":3}"#);
        let err = err_response(None, &ProtocolError::bad_request("nope"));
        assert_eq!(
            err,
            r#"{"ok":false,"id":null,"error":{"code":"bad_request","message":"nope"}}"#
        );
    }
}
