//! The request grammar of the query protocol.
//!
//! One request per line, one JSON object per request, dispatched on its
//! `"op"` field. See `DESIGN.md` §7 for the full grammar with example
//! responses; parsing is strict about types but lenient about extra keys
//! (clients may tag requests with their own bookkeeping fields).
//! NDJSON is the only wire codec; `read_request_line` is the server's
//! one line read step.

use crate::json::{Json, MAX_DEPTH};
use std::io::{self, BufRead};
use std::time::Duration;
use structcast::{AnalysisConfig, Budget, CompatMode, Layout, ModelKind, SolveError};

/// Per-query analysis options: which instance to solve and how. Every
/// query carries (defaulted) options, so one loaded program can be queried
/// under any precision/portability trade-off — the cache memoizes each
/// distinct combination separately.
///
/// The budget fields (`deadline_ms`, `max_edges`) bound what a cache
/// *miss* may compute; they are deliberately **not** part of
/// [`cache_key`](QueryOpts::cache_key) — a cached result is served
/// regardless of budget (a hit computes nothing), and a budget-failed
/// solve is never cached.
#[derive(Debug, Clone)]
pub struct QueryOpts {
    /// The framework instance (`"model"`, default CIS).
    pub model: ModelKind,
    /// Layout strategy (`"layout"`, Offsets instance only).
    pub layout: Layout,
    /// Compatibility mode (`"compat"`, portable instances).
    pub compat: CompatMode,
    /// Wilson–Lam stride refinement (`"stride"`).
    pub stride: bool,
    /// Solve deadline in milliseconds (`"deadline_ms"`), measured from
    /// the moment the solve starts.
    pub deadline_ms: Option<u64>,
    /// Points-to edge cap for the solve (`"max_edges"`).
    pub max_edges: Option<usize>,
}

impl Default for QueryOpts {
    fn default() -> Self {
        QueryOpts {
            model: ModelKind::CommonInitialSeq,
            layout: Layout::ilp32(),
            compat: CompatMode::Structural,
            stride: false,
            deadline_ms: None,
            max_edges: None,
        }
    }
}

/// Parses a model name (the same spellings `scast --model` accepts).
pub fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s {
        "collapse" | "collapse-always" => Ok(ModelKind::CollapseAlways),
        "cast" | "collapse-on-cast" => Ok(ModelKind::CollapseOnCast),
        "cis" | "common-initial-seq" => Ok(ModelKind::CommonInitialSeq),
        "offsets" => Ok(ModelKind::Offsets),
        other => Err(format!("unknown model `{other}`")),
    }
}

/// Parses a layout name (the same spellings `scast --layout` accepts).
pub fn parse_layout(s: &str) -> Result<Layout, String> {
    match s {
        "ilp32" => Ok(Layout::ilp32()),
        "lp64" => Ok(Layout::lp64()),
        "packed32" => Ok(Layout::packed32()),
        other => Err(format!("unknown layout `{other}`")),
    }
}

impl QueryOpts {
    /// Extracts the options from a request object, defaulting absent keys.
    pub fn from_json(req: &Json) -> Result<QueryOpts, String> {
        let mut opts = QueryOpts::default();
        if let Some(v) = req.get("model") {
            let s = v.as_str().ok_or("\"model\" must be a string")?;
            opts.model = parse_model(s)?;
        }
        if let Some(v) = req.get("layout") {
            let s = v.as_str().ok_or("\"layout\" must be a string")?;
            opts.layout = parse_layout(s)?;
        }
        if let Some(v) = req.get("compat") {
            opts.compat = match v.as_str().ok_or("\"compat\" must be a string")? {
                "structural" => CompatMode::Structural,
                "tag" | "tag-based" => CompatMode::TagBased,
                other => return Err(format!("unknown compat mode `{other}`")),
            };
        }
        if let Some(v) = req.get("stride") {
            opts.stride = v.as_bool().ok_or("\"stride\" must be a boolean")?;
        }
        if let Some(v) = req.get("deadline_ms") {
            opts.deadline_ms = Some(v.as_u64().ok_or("\"deadline_ms\" must be a number")?);
        }
        if let Some(v) = req.get("max_edges") {
            let n = v.as_u64().ok_or("\"max_edges\" must be a number")?;
            opts.max_edges = Some(n as usize);
        }
        Ok(opts)
    }

    /// Replaces the model, keeping the other options (the
    /// `compare_models` sweep reuses one request's options for all four
    /// instances).
    pub fn with_model(&self, model: ModelKind) -> QueryOpts {
        QueryOpts {
            model,
            ..self.clone()
        }
    }

    /// The solve-cache key component: every field that can change the
    /// result. Two option sets with equal keys are interchangeable.
    pub fn cache_key(&self) -> String {
        format!(
            "{:?}/{}/{:?}/stride={}",
            self.model, self.layout.name, self.compat, self.stride
        )
    }

    /// The equivalent [`AnalysisConfig`]. The budget's deadline (if any)
    /// starts counting *now*, so build the config right before solving.
    pub fn to_config(&self) -> AnalysisConfig {
        let mut budget = Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline_in(Duration::from_millis(ms));
        }
        if let Some(max) = self.max_edges {
            budget = budget.with_max_edges(max);
        }
        AnalysisConfig::new(self.model)
            .with_layout(self.layout.clone())
            .with_compat(self.compat)
            .with_stride(self.stride)
            .with_budget(budget)
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile a program into the cache: `{"op":"load","name":"bst"}`
    /// (embedded corpus) or `{"op":"load","source":"int x; ...",
    /// "name":"mine"}` (inline source, optional alias).
    Load {
        /// Cache alias (and corpus name when no source is given).
        name: Option<String>,
        /// Inline C source; when absent, `name` must be a corpus program.
        source: Option<String>,
    },
    /// Points-to set of a named variable.
    PointsTo {
        /// Loaded program (name, corpus name, or source hash).
        program: String,
        /// Variable to query.
        var: String,
        /// Demand mode (`"mode":"demand"`): slice and solve only what this
        /// query can see instead of running the exhaustive fixpoint.
        demand: bool,
        /// Analysis options.
        opts: QueryOpts,
    },
    /// May two named variables point to a common location?
    Alias {
        /// Loaded program.
        program: String,
        /// First variable.
        a: String,
        /// Second variable.
        b: String,
        /// Demand mode (`"mode":"demand"`).
        demand: bool,
        /// Analysis options.
        opts: QueryOpts,
    },
    /// MOD/REF sets, for one function or all defined functions.
    ModRef {
        /// Loaded program.
        program: String,
        /// Restrict to this function (all defined functions when absent;
        /// demand mode requires it).
        func: Option<String>,
        /// Demand mode (`"mode":"demand"`).
        demand: bool,
        /// Analysis options.
        opts: QueryOpts,
    },
    /// Solve all four instances through the one cached session and diff
    /// their edge counts.
    CompareModels {
        /// Loaded program.
        program: String,
        /// Shared non-model options (layout/compat/stride).
        opts: QueryOpts,
    },
    /// Metrics snapshot.
    Stats,
    /// Graceful shutdown.
    Shutdown,
    /// Live-editing update: re-key a cached session to an edited source,
    /// reusing constraints and re-solving only the edit's region:
    /// `{"op":"update","program":"mine","source":"int x; ..."}`.
    Update {
        /// The loaded program being edited (name, corpus name, or hash).
        program: String,
        /// The full post-edit source text.
        source: String,
    },
    /// Write a cache snapshot to the server's `--snapshot` directory now
    /// (instead of waiting for the periodic saver or shutdown):
    /// `{"op":"snapshot"}`.
    Snapshot,
}

fn opt_str(req: &Json, key: &str) -> Result<Option<String>, String> {
    match req.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("\"{key}\" must be a string")),
    }
}

fn req_str(req: &Json, key: &str) -> Result<String, String> {
    opt_str(req, key)?.ok_or_else(|| format!("missing \"{key}\""))
}

/// Parses the optional `"mode"` field of a query: absent or
/// `"exhaustive"` → full solve, `"demand"` → demand mode.
fn parse_mode(req: &Json) -> Result<bool, String> {
    match req.get("mode") {
        None => Ok(false),
        Some(v) => match v.as_str().ok_or("\"mode\" must be a string")? {
            "exhaustive" => Ok(false),
            "demand" => Ok(true),
            other => Err(format!(
                "unknown mode `{other}` (expected \"exhaustive\" or \"demand\")"
            )),
        },
    }
}

impl Request {
    /// Parses one request object.
    pub fn from_json(req: &Json) -> Result<Request, String> {
        if !matches!(req, Json::Obj(_)) {
            return Err("request must be a json object".to_string());
        }
        let op = req_str(req, "op")?;
        match op.as_str() {
            "load" => {
                let name = opt_str(req, "name")?;
                let source = opt_str(req, "source")?;
                if name.is_none() && source.is_none() {
                    return Err("load needs \"name\" (corpus) or \"source\"".to_string());
                }
                Ok(Request::Load { name, source })
            }
            "points_to" => Ok(Request::PointsTo {
                program: req_str(req, "program")?,
                var: req_str(req, "var")?,
                demand: parse_mode(req)?,
                opts: QueryOpts::from_json(req)?,
            }),
            "alias" => Ok(Request::Alias {
                program: req_str(req, "program")?,
                a: req_str(req, "a")?,
                b: req_str(req, "b")?,
                demand: parse_mode(req)?,
                opts: QueryOpts::from_json(req)?,
            }),
            "modref" => Ok(Request::ModRef {
                program: req_str(req, "program")?,
                func: opt_str(req, "func")?,
                demand: parse_mode(req)?,
                opts: QueryOpts::from_json(req)?,
            }),
            "compare_models" => Ok(Request::CompareModels {
                program: req_str(req, "program")?,
                opts: QueryOpts::from_json(req)?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "update" => Ok(Request::Update {
                program: req_str(req, "program")?,
                source: req_str(req, "source")?,
            }),
            "snapshot" => Ok(Request::Snapshot),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// This request's index into [`crate::metrics::OP_NAMES`].
    pub fn op_index(&self) -> usize {
        match self {
            Request::Load { .. } => 0,
            Request::PointsTo { .. } => 1,
            Request::Alias { .. } => 2,
            Request::ModRef { .. } => 3,
            Request::CompareModels { .. } => 4,
            Request::Stats => 5,
            Request::Shutdown => 6,
            Request::Update { .. } => 7,
            Request::Snapshot => 8,
        }
    }
}

/// The outcome of [`read_request_line`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LineRead {
    /// A request line is in the buffer. A partial line at EOF also lands
    /// here, without its newline; its parse error becomes the reply.
    Line,
    /// Clean EOF, or a connection-level failure with nobody to reply to.
    Closed,
    /// The line could not be read: send this `(kind, message)` error
    /// reply, then close.
    Unreadable(&'static str, String),
}

/// Reads one request line into `line` (cleared first), mapping read
/// errors to the typed reply the peer gets before the connection closes:
/// a read deadline is `timeout`, bytes that are not UTF-8 are
/// `bad_request`.
pub(crate) fn read_request_line(reader: &mut impl BufRead, line: &mut String) -> LineRead {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => LineRead::Closed,
        Ok(_) => LineRead::Line,
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            LineRead::Unreadable("timeout", "read deadline exceeded; closing connection".into())
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            LineRead::Unreadable("bad_request", format!("unreadable request line: {e}"))
        }
        Err(_) => LineRead::Closed,
    }
}

// ----- the BJSON value codec -----
//
// No connection speaks this codec. `bjson_encode`/`bjson_decode` remain
// only as the codec probe behind scbench's `server.bjson_*_us` layers.

const BJ_NULL: u8 = 0;
const BJ_FALSE: u8 = 1;
const BJ_TRUE: u8 = 2;
const BJ_NUM: u8 = 3;
const BJ_STR: u8 = 4;
const BJ_ARR: u8 = 5;
const BJ_OBJ: u8 = 6;

fn bjson_put(v: &Json, out: &mut Vec<u8>) {
    match v {
        Json::Null => out.push(BJ_NULL),
        Json::Bool(false) => out.push(BJ_FALSE),
        Json::Bool(true) => out.push(BJ_TRUE),
        Json::Num(n) => {
            out.push(BJ_NUM);
            out.extend_from_slice(&n.to_bits().to_le_bytes());
        }
        Json::Str(s) => {
            out.push(BJ_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Json::Arr(items) => {
            out.push(BJ_ARR);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                bjson_put(item, out);
            }
        }
        Json::Obj(pairs) => {
            out.push(BJ_OBJ);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (k, v) in pairs {
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                bjson_put(v, out);
            }
        }
    }
}

/// Encodes a JSON value in the binary form. Key order is preserved, so encoding is exactly as
/// deterministic as the NDJSON emitter.
pub fn bjson_encode(v: &Json) -> Vec<u8> {
    let mut out = Vec::new();
    bjson_put(v, &mut out);
    out
}

struct BjReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BjReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("binary value truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn count(&mut self) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(format!("binary value truncated at byte {}", self.pos));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.count()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("bad utf-8: {e}"))
    }

    /// One value inside `depth` enclosing arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        let tag = self.take(1)?[0];
        if depth == MAX_DEPTH && (tag == BJ_ARR || tag == BJ_OBJ) {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos - 1));
        }
        match tag {
            BJ_NULL => Ok(Json::Null),
            BJ_FALSE => Ok(Json::Bool(false)),
            BJ_TRUE => Ok(Json::Bool(true)),
            BJ_NUM => {
                let b = self.take(8)?;
                Ok(Json::Num(f64::from_bits(u64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ]))))
            }
            BJ_STR => Ok(Json::Str(self.str()?)),
            BJ_ARR => {
                let n = self.count()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Json::Arr(items))
            }
            BJ_OBJ => {
                let n = self.count()?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = self.str()?;
                    let v = self.value(depth + 1)?;
                    pairs.push((k, v));
                }
                Ok(Json::Obj(pairs))
            }
            t => Err(format!("unknown binary tag {t} at byte {}", self.pos - 1)),
        }
    }
}

/// Decodes one binary-encoded JSON value, rejecting trailing bytes.
///
/// # Errors
///
/// A human-readable description of the first defect (truncation, bad
/// tag, bad UTF-8) — decoding never panics on untrusted bytes.
pub fn bjson_decode(bytes: &[u8]) -> Result<Json, String> {
    let mut r = BjReader { buf: bytes, pos: 0 };
    let v = r.value(0)?;
    if r.pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after binary value",
            bytes.len() - r.pos
        ));
    }
    Ok(v)
}

/// An `{"ok": false, "error": {"kind": ..., "message": ...}}` response —
/// the uniform failure shape of the protocol. `kind` is one of
/// [`crate::metrics::ERROR_KINDS`]; `extra` appends kind-specific fields
/// (e.g. `retry_after_ms` on `overloaded`).
pub fn error_response_with(
    kind: &str,
    msg: &str,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let mut err = vec![
        ("kind".to_string(), Json::str(kind)),
        ("message".to_string(), Json::str(msg)),
    ];
    err.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Obj(err))])
}

/// [`error_response_with`] without extra fields.
pub fn error_response(kind: &str, msg: &str) -> Json {
    error_response_with(kind, msg, [])
}

/// The error response for a tripped solve budget: the kind mirrors
/// [`SolveError::kind`], and `edge_limit` carries the cap that fired.
pub fn solve_error_response(e: &SolveError) -> Json {
    match e {
        SolveError::EdgeLimit { limit } => error_response_with(
            e.kind(),
            &e.to_string(),
            [("limit", Json::count(*limit as u64))],
        ),
        _ => error_response(e.kind(), &e.to_string()),
    }
}

/// An `{"ok": true, ...fields}` response.
pub fn ok_response<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Request, String> {
        Request::from_json(&Json::parse(line).map_err(|e| e.to_string())?)
    }

    #[test]
    fn parses_every_op() {
        assert!(matches!(
            parse(r#"{"op":"load","name":"bst"}"#).unwrap(),
            Request::Load { name: Some(n), source: None } if n == "bst"
        ));
        assert!(matches!(
            parse(r#"{"op":"points_to","program":"bst","var":"p","model":"offsets"}"#).unwrap(),
            Request::PointsTo { opts, .. } if opts.model == ModelKind::Offsets
        ));
        assert!(matches!(
            parse(r#"{"op":"alias","program":"bst","a":"p","b":"q"}"#).unwrap(),
            Request::Alias { .. }
        ));
        assert!(matches!(
            parse(r#"{"op":"modref","program":"bst","func":"main"}"#).unwrap(),
            Request::ModRef { func: Some(f), .. } if f == "main"
        ));
        assert!(matches!(
            parse(r#"{"op":"compare_models","program":"bst"}"#).unwrap(),
            Request::CompareModels { .. }
        ));
        assert!(matches!(parse(r#"{"op":"stats"}"#).unwrap(), Request::Stats));
        assert!(matches!(parse(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown));
        assert!(matches!(
            parse(r#"{"op":"update","program":"live","source":"int x;"}"#).unwrap(),
            Request::Update { program, source } if program == "live" && source == "int x;"
        ));
    }

    #[test]
    fn update_requires_program_and_source() {
        assert!(parse(r#"{"op":"update","program":"live"}"#).is_err());
        assert!(parse(r#"{"op":"update","source":"int x;"}"#).is_err());
        assert!(parse(r#"{"op":"update","program":"live","source":7}"#).is_err());
        // Every op's index stays within the metrics tally table.
        let r = parse(r#"{"op":"update","program":"live","source":"int x;"}"#).unwrap();
        assert!(r.op_index() < crate::metrics::OP_NAMES.len());
        assert_eq!(crate::metrics::OP_NAMES[r.op_index()], "update");
    }

    #[test]
    fn parses_the_mode_field() {
        // Absent and "exhaustive" mean the full solve.
        assert!(matches!(
            parse(r#"{"op":"points_to","program":"bst","var":"p"}"#).unwrap(),
            Request::PointsTo { demand: false, .. }
        ));
        assert!(matches!(
            parse(r#"{"op":"points_to","program":"bst","var":"p","mode":"exhaustive"}"#).unwrap(),
            Request::PointsTo { demand: false, .. }
        ));
        // "demand" flips every query op.
        assert!(matches!(
            parse(r#"{"op":"points_to","program":"bst","var":"p","mode":"demand"}"#).unwrap(),
            Request::PointsTo { demand: true, .. }
        ));
        assert!(matches!(
            parse(r#"{"op":"alias","program":"bst","a":"p","b":"q","mode":"demand"}"#).unwrap(),
            Request::Alias { demand: true, .. }
        ));
        assert!(matches!(
            parse(r#"{"op":"modref","program":"bst","func":"main","mode":"demand"}"#).unwrap(),
            Request::ModRef { demand: true, .. }
        ));
        // Unknown modes and wrong types are rejected.
        let err = parse(r#"{"op":"points_to","program":"b","var":"v","mode":"lazy"}"#).unwrap_err();
        assert!(err.contains("unknown mode `lazy`"), "{err}");
        assert!(parse(r#"{"op":"points_to","program":"b","var":"v","mode":1}"#).is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse(r#"{"no_op": 1}"#).is_err());
        assert!(parse(r#"{"op":"levitate"}"#).is_err());
        assert!(parse(r#"{"op":"points_to","program":"bst"}"#).is_err()); // no var
        assert!(parse(r#"{"op":"points_to","program":"bst","var":7}"#).is_err());
        assert!(parse(r#"{"op":"load"}"#).is_err()); // neither name nor source
        assert!(parse(r#"{"op":"points_to","program":"b","var":"v","model":"x"}"#).is_err());
        assert!(Request::from_json(&Json::Arr(vec![])).is_err());
    }

    #[test]
    fn options_default_and_key() {
        let req = Json::parse(r#"{"op":"points_to","program":"p","var":"v"}"#).unwrap();
        let opts = QueryOpts::from_json(&req).unwrap();
        assert_eq!(opts.model, ModelKind::CommonInitialSeq);
        assert_eq!(opts.cache_key(), "CommonInitialSeq/ilp32/Structural/stride=false");

        let req = Json::parse(
            r#"{"model":"offsets","layout":"lp64","compat":"tag","stride":true}"#,
        )
        .unwrap();
        let opts = QueryOpts::from_json(&req).unwrap();
        assert_eq!(opts.cache_key(), "Offsets/lp64/TagBased/stride=true");
        let cfg = opts.to_config();
        assert_eq!(cfg.model, ModelKind::Offsets);
        assert_eq!(cfg.layout.name, "lp64");
        assert_eq!(cfg.compat, CompatMode::TagBased);
        assert!(cfg.arith_stride);
        // with_model swaps only the instance.
        assert_eq!(
            opts.with_model(ModelKind::CollapseAlways).cache_key(),
            "CollapseAlways/lp64/TagBased/stride=true"
        );
    }

    #[test]
    fn response_builders() {
        assert_eq!(
            error_response("bad_request", "boom").to_string(),
            r#"{"ok": false, "error": {"kind": "bad_request", "message": "boom"}}"#
        );
        assert_eq!(
            error_response_with("overloaded", "busy", [("retry_after_ms", Json::count(50))])
                .to_string(),
            r#"{"ok": false, "error": {"kind": "overloaded", "message": "busy", "retry_after_ms": 50}}"#
        );
        assert_eq!(
            ok_response([("n", Json::count(1))]).to_string(),
            r#"{"ok": true, "n": 1}"#
        );
    }

    #[test]
    fn solve_error_responses_carry_kind_and_detail() {
        let r = solve_error_response(&SolveError::EdgeLimit { limit: 7 });
        let err = r.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("edge_limit"));
        assert_eq!(err.get("limit").and_then(Json::as_u64), Some(7));
        let r = solve_error_response(&SolveError::DeadlineExceeded);
        assert_eq!(
            r.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("deadline")
        );
        let r = solve_error_response(&SolveError::Cancelled);
        assert_eq!(
            r.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("cancelled")
        );
    }

    #[test]
    fn snapshot_op_parses_and_counts() {
        let r = parse(r#"{"op":"snapshot"}"#).unwrap();
        assert!(matches!(r, Request::Snapshot));
        assert!(r.op_index() < crate::metrics::OP_NAMES.len());
        assert_eq!(crate::metrics::OP_NAMES[r.op_index()], "snapshot");
    }

    #[test]
    fn bjson_roundtrips_and_preserves_emission() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-12.5",
            "9007199254740991",
            r#""héllo \n there""#,
            "[1, [true, null], \"x\"]",
            r#"{"ok": true, "error": {"kind": "deadline", "message": "m"}, "n": [1, 2]}"#,
        ] {
            let v = Json::parse(src).unwrap();
            let decoded = bjson_decode(&bjson_encode(&v)).unwrap();
            assert_eq!(decoded, v, "{src}");
            // The differential contract: a binary round trip emits the
            // exact same NDJSON text as the original value.
            assert_eq!(decoded.to_string(), v.to_string(), "{src}");
        }
    }

    #[test]
    fn bjson_rejects_damage() {
        let good = bjson_encode(&Json::obj([("k", Json::str("v"))]));
        // Truncation at every prefix length fails typed, never panics.
        for cut in 0..good.len() {
            assert!(bjson_decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Unknown tag.
        assert!(bjson_decode(&[9]).is_err());
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0);
        assert!(bjson_decode(&padded).is_err());
        // A length prefix pointing past the end of input.
        assert!(bjson_decode(&[BJ_STR, 0xff, 0xff, 0xff, 0x7f, b'x']).is_err());
    }

    #[test]
    fn bjson_nesting_is_bounded_with_a_typed_error() {
        let nested = |n: usize| (0..n).fold(Json::Null, |v, _| Json::Arr(vec![v]));
        let deepest = nested(MAX_DEPTH);
        assert_eq!(bjson_decode(&bjson_encode(&deepest)).unwrap(), deepest);
        // Each level is a tag byte plus a u32 count: level 129 starts at 640.
        let err = bjson_decode(&bjson_encode(&nested(MAX_DEPTH + 1))).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 640");
        // A bomb far past the bound fails the same way instead of recursing.
        let bomb = [BJ_ARR, 1, 0, 0, 0].repeat(200_000);
        assert_eq!(bjson_decode(&bomb).unwrap_err(), err);
    }

    #[test]
    fn unreadable_lines_map_to_typed_replies() {
        let mut line = String::new();
        let mut r = &b"{\"op\":\"stats\"}\n{\"op\""[..];
        assert_eq!(read_request_line(&mut r, &mut line), LineRead::Line);
        assert_eq!(line, "{\"op\":\"stats\"}\n");
        // A partial line at EOF is still a line; its parse error replies.
        assert_eq!(read_request_line(&mut r, &mut line), LineRead::Line);
        assert_eq!(line, "{\"op\"");
        assert_eq!(read_request_line(&mut r, &mut line), LineRead::Closed);
        // Bytes that are not UTF-8 (here the old binary-codec preamble).
        let mut r = &[0xB1, b'S', b'C', b'P', b'\n'][..];
        match read_request_line(&mut r, &mut line) {
            LineRead::Unreadable(kind, msg) => {
                assert_eq!(kind, "bad_request");
                assert!(msg.starts_with("unreadable request line: "), "{msg}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn budget_opts_parse_but_do_not_key_the_cache() {
        let req = Json::parse(
            r#"{"op":"points_to","program":"p","var":"v","deadline_ms":250,"max_edges":1000}"#,
        )
        .unwrap();
        let opts = QueryOpts::from_json(&req).unwrap();
        assert_eq!(opts.deadline_ms, Some(250));
        assert_eq!(opts.max_edges, Some(1000));
        // Budgets bound computation, not identity: same cache key as the
        // unbudgeted defaults.
        assert_eq!(opts.cache_key(), QueryOpts::default().cache_key());
        let cfg = opts.to_config();
        assert!(!cfg.budget.is_unlimited());
        assert_eq!(cfg.budget.max_edges, Some(1000));
        assert!(cfg.budget.deadline.is_some());
        // Bad types are rejected.
        let bad = Json::parse(r#"{"deadline_ms":"soon"}"#).unwrap();
        assert!(QueryOpts::from_json(&bad).is_err());
        let bad = Json::parse(r#"{"max_edges":true}"#).unwrap();
        assert!(QueryOpts::from_json(&bad).is_err());
    }
}
