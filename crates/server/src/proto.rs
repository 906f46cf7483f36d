//! Wire protocol: JSON-lines requests and responses, versions 1 and 2.
//!
//! One request per line, one response per line. Every request is an
//! object with a `cmd` string, an optional numeric `id` (echoed back),
//! and an optional `deadline_ms` admission deadline. Protocol v2
//! requests additionally carry `"proto":2` and an optional `"session"`
//! name (default `"default"`); v1 requests (no `proto` field) route to
//! the `"default"` session and their responses carry
//! `"deprecated":true`, while v2 responses echo `"session"`. The
//! `hello` command negotiates the protocol version and lists live
//! sessions. The full grammar lives in `DESIGN.md` §13.
//!
//! Responses are `{"id":…,"ok":true,…,"result":{…}}` on success and
//! `{"id":…,"ok":false,…,"error":{"kind":…,"code":…,"message":…}}` on
//! failure. `code` is the canonical v2 error enum; `kind` is its v1
//! alias and always holds the same value.
//!
//! Error codes for [`mgba::MgbaError`] variants are `"parse"`,
//! `"solver"`, `"io"`, `"usage"`, `"timeout"`, and `"internal"` (a
//! request handler panicked; the session was restored from its last
//! good state); the server layer adds `"overload"` (bounded queue
//! full), `"deadline"` (admission deadline expired while queued), and
//! `"shutdown"` (received while draining). The durability
//! layer (`serve --state-dir`, `DESIGN.md` §16) adds `"durability_lost"`
//! (the session's write-ahead log could not be appended or fsynced, so
//! the session is read-only until restart) and `"path_escape"`
//! (`snapshot`/`restore` named a path outside the state dir). Malformed
//! JSON, unknown commands, and bad `proto`/`session` fields surface as
//! `"usage"` — they are routed through [`MgbaError::Usage`] like any
//! bad CLI invocation.
//!
//! Success envelopes carry a `"degraded":true` field **only** while the
//! session is serving from a fault-recovered state without calibration
//! (raw-GBA answers, safe but pessimistic) or after its durability was
//! lost (read-only, in-memory answers ahead of the durable log); healthy
//! responses omit the key entirely so response bytes are unchanged from
//! pre-fault runs.

use crate::json::{self, Value};
use mgba::MgbaError;
use obs::json::JsonWriter;

/// Largest accepted `whatif_batch` candidate list. One request holds the
/// worker for the whole batch, so the cap bounds worst-case queue delay
/// the same way the `sleep` cap does.
pub const MAX_WHATIF_BATCH: usize = 256;

/// Lowest protocol version the server speaks (legacy sessionless).
pub const PROTO_MIN: u64 = 1;

/// Highest protocol version the server speaks (session addressing).
pub const PROTO_MAX: u64 = 2;

/// The session that v1 (sessionless) requests route to, and the v2
/// default when `session` is omitted.
pub const DEFAULT_SESSION: &str = "default";

/// Longest accepted session name.
pub const MAX_SESSION_NAME: usize = 64;

/// How a response envelope is addressed — decided at parse time, echoed
/// on every reply (success, error, or server-level reject) so clients
/// can route concurrently multiplexed responses.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvMeta {
    /// Client-chosen correlation id, echoed back (or `null`).
    pub id: Option<u64>,
    /// Negotiated addressing: 1 stamps `"deprecated":true`, 2 echoes
    /// `"session"`, 0 means the line was too malformed to tell (neither
    /// key is emitted).
    pub proto: u64,
    /// Target session, when addressing is known.
    pub session: Option<String>,
    /// Deterministic admission-order request id, assigned per session
    /// when the request is admitted (write lane or read path). Echoed
    /// as `"request_id"` on v2 envelopes only — the v1 envelope shape
    /// is frozen. `None` for requests that were never admitted
    /// (malformed lines, overload rejections, admission-answered
    /// commands like `hello`).
    pub request_id: Option<u64>,
}

impl EnvMeta {
    /// Addressing for a line too malformed to classify.
    pub fn unknown(id: Option<u64>) -> Self {
        Self {
            id,
            proto: 0,
            session: None,
            request_id: None,
        }
    }

    /// v1 (sessionless, deprecated) addressing.
    pub fn v1(id: Option<u64>) -> Self {
        Self {
            id,
            proto: 1,
            session: Some(DEFAULT_SESSION.to_owned()),
            request_id: None,
        }
    }

    /// v2 addressing for `session`.
    pub fn v2(id: Option<u64>, session: impl Into<String>) -> Self {
        Self {
            id,
            proto: 2,
            session: Some(session.into()),
            request_id: None,
        }
    }

    /// The same addressing with `request_id` stamped in (builder-style,
    /// used at admission and by tests constructing expected envelopes).
    #[must_use]
    pub fn with_request_id(mut self, request_id: u64) -> Self {
        self.request_id = Some(request_id);
        self
    }
}

/// One admission-controlled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed into the response.
    pub id: Option<u64>,
    /// Protocol version the client spoke (1 or 2 after parsing).
    pub proto: u64,
    /// Target session name (always resolved; `"default"` for v1).
    pub session: String,
    /// The decoded command.
    pub cmd: Command,
    /// Admission deadline: if the request waits in the queue longer
    /// than this, it is rejected without execution.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// Envelope addressing for this request's responses.
    pub fn meta(&self) -> EnvMeta {
        EnvMeta {
            id: self.id,
            proto: self.proto,
            session: Some(self.session.clone()),
            request_id: None,
        }
    }
}

/// Checks a client-chosen session name: 1–[`MAX_SESSION_NAME`] chars
/// from `[A-Za-z0-9._-]`.
///
/// # Errors
///
/// Returns [`MgbaError::Usage`] describing the violation.
pub fn validate_session_name(name: &str) -> Result<(), MgbaError> {
    if name.is_empty() {
        return Err(usage("`session` must not be empty"));
    }
    if name.len() > MAX_SESSION_NAME {
        return Err(usage(format!(
            "`session` is {} chars (max {MAX_SESSION_NAME})",
            name.len()
        )));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(usage(format!(
            "`session` contains `{c}` (allowed: letters, digits, `.`, `_`, `-`)"
        )));
    }
    Ok(())
}

/// Every operation the daemon serves.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Protocol negotiation: reports the server's supported version
    /// range, the version granted to this client (min of the client's
    /// `max_proto` and [`PROTO_MAX`]), and the live session names.
    /// Answered inline at admission — it never queues behind a lane.
    Hello {
        /// Highest protocol version the client speaks (default
        /// [`PROTO_MAX`]).
        max_proto: Option<u64>,
    },
    /// Liveness probe.
    Ping,
    /// Liveness/readiness probe for load balancers: the protocol
    /// window, whether durability (`--state-dir`) is on, and the
    /// session's durability facts (`recovered`, `wal_records`,
    /// `last_checkpoint_seq`, `degraded`). Deliberately carries **no
    /// timing fields** (no uptime) so responses are byte-identical
    /// across threads, read modes, and repeated runs — it is pinned in
    /// the byte-identity matrix. Read-only and served without a loaded
    /// design.
    Health,
    /// Load a design (generator spec or netlist file) and build the
    /// timing engine. `period` defaults to the auto-derived tight clock.
    Load {
        /// Generator spec (`D3`, `small:7`) or netlist file path.
        spec: String,
        /// Clock period in ps; auto-derived when absent.
        period: Option<f64>,
    },
    /// Run the mGBA fit and fold the weights back into the engine.
    Calibrate {
        /// Solver name (`gd|scg|scgrs|cgnr`), default `scgrs`.
        solver: Option<String>,
    },
    /// Setup slack of one endpoint, or the worst `top` endpoints.
    Slack {
        /// Endpoint cell name; worst endpoints when absent.
        endpoint: Option<String>,
        /// How many worst endpoints to report (default 10).
        top: usize,
    },
    /// Worst negative slack over all endpoints.
    Wns,
    /// Total negative slack over all endpoints.
    Tns,
    /// Worst path to an endpoint (the worst endpoint when absent),
    /// optionally re-timed with golden PBA.
    PathQuery {
        /// Endpoint cell name; the worst endpoint when absent.
        endpoint: Option<String>,
        /// Also report the path's golden PBA slack.
        pba: bool,
    },
    /// Trial-resize a gate, report the timing delta, and roll back —
    /// the incremental-update what-if of the paper's §4 sizing loop.
    WhatIfResize {
        /// Cell instance name.
        cell: String,
        /// `up`, `down`, or an explicit library cell name.
        to: String,
    },
    /// Apply a resize permanently (same arguments as `whatif_resize`).
    /// On a calibrated session the commit triggers an incremental
    /// recalibration: dirty fit-matrix rows are patched and the solver
    /// warm-starts from the previous `x*`.
    Commit {
        /// Cell instance name.
        cell: String,
        /// `up`, `down`, or an explicit library cell name.
        to: String,
        /// Escape hatch: force a full cold recalibration (re-select
        /// paths, rebuild the fit matrix, solve from zero) instead of
        /// the warm incremental refit.
        full: bool,
    },
    /// Re-run calibration on the current design: warm and incremental
    /// when the session holds a calibration cache, cold otherwise (or
    /// when `full` is set).
    Recalibrate {
        /// Solver name (`gd|scg|scgrs|cgnr`); defaults to the solver of
        /// the previous calibration.
        solver: Option<String>,
        /// Force a full cold recalibration.
        full: bool,
    },
    /// Evaluate up to [`MAX_WHATIF_BATCH`] candidate resizes in one
    /// request: each candidate is trial-applied, measured (engine
    /// WNS/TNS plus batch-retimed slacks over the calibrated path set),
    /// and rolled back. One round trip instead of N.
    WhatIfBatch {
        /// Candidates as `(cell instance name, target)` pairs, where the
        /// target is `up`, `down`, or an explicit library cell name.
        resizes: Vec<(String, String)>,
        /// Also report each candidate's golden-PBA worst slack over the
        /// calibrated path set (slower: N PBA batch retimes).
        pba: bool,
    },
    /// Serialize the session (design spec, period, committed resizes,
    /// fitted weights) as checkpoint text.
    Snapshot {
        /// Destination file path.
        file: String,
    },
    /// Rebuild the session's design from a snapshot file.
    Restore {
        /// Snapshot file path.
        file: String,
    },
    /// Collected-issues lint of the loaded design: every structural
    /// defect (undriven/multiply-driven nets, dangling ports,
    /// combinational cycles, non-finite attributes, …) in one report.
    /// Read-only and byte-identical across `--threads` settings.
    Lint,
    /// The session's slow-query ring: non-read commands whose
    /// execution met the server's `--slow-ms` threshold, oldest first,
    /// identified by `request_id` and command name (no timing fields,
    /// so responses stay byte-identical across thread counts).
    /// Read-only.
    Slowlog,
    /// The session's calibration-drift history ring: one record per
    /// calibrate/recalibrate (fit-accuracy stats, WNS/TNS, weight
    /// sparsity, fallback stage, commits since the previous fit),
    /// oldest first. Read-only.
    History,
    /// Evict one named session: its writer lane drains and exits, its
    /// engine memory is released, and the name becomes free for a fresh
    /// session. Answered at admission (like `hello`).
    CloseSession,
    /// Server and engine statistics (non-deterministic: latencies).
    Stats,
    /// Prometheus text exposition of server counters, per-command
    /// latency histograms, and the `obs` metrics registry
    /// (non-deterministic: latencies).
    Metrics,
    /// Arm or disarm fault-injection points at runtime (chaos testing
    /// aid; rejected unless the server was built with `--features
    /// failpoints`).
    Failpoint {
        /// Failpoint spec, e.g. `server.handle=panic*1` or
        /// `solver.iter=off`.
        spec: String,
    },
    /// Hold the worker busy (testing aid for backpressure/deadlines).
    Sleep {
        /// How long to block the worker, in milliseconds (capped at
        /// 10 000 so a stray request cannot wedge the daemon).
        ms: u64,
    },
    /// Stop accepting, drain the queue, and exit.
    Shutdown,
}

impl Command {
    /// Stable command name (used for spans, metrics, and `stats`).
    pub fn name(&self) -> &'static str {
        match self {
            Command::Hello { .. } => "hello",
            Command::Ping => "ping",
            Command::Health => "health",
            Command::Load { .. } => "load",
            Command::Calibrate { .. } => "calibrate",
            Command::Slack { .. } => "slack",
            Command::Wns => "wns",
            Command::Tns => "tns",
            Command::PathQuery { .. } => "path",
            Command::WhatIfResize { .. } => "whatif_resize",
            Command::WhatIfBatch { .. } => "whatif_batch",
            Command::Commit { .. } => "commit",
            Command::Recalibrate { .. } => "recalibrate",
            Command::Snapshot { .. } => "snapshot",
            Command::Restore { .. } => "restore",
            Command::Lint => "lint",
            Command::Slowlog => "slowlog",
            Command::History => "history",
            Command::CloseSession => "close_session",
            Command::Stats => "stats",
            Command::Metrics => "metrics",
            Command::Failpoint { .. } => "failpoint",
            Command::Sleep { .. } => "sleep",
            Command::Shutdown => "shutdown",
        }
    }

    /// True for commands that only read session state, never mutate
    /// it. The slow-query ring leaves them out.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Command::Ping
                | Command::Health
                | Command::Slack { .. }
                | Command::Wns
                | Command::Tns
                | Command::PathQuery { .. }
                | Command::Lint
                | Command::Slowlog
                | Command::History
        )
    }

    /// True for commands that change session state on success: the
    /// lane journals them, mirrors them to the WAL under `--state-dir`,
    /// and publishes the session's gauges after them.
    pub(crate) fn is_state_changing(&self) -> bool {
        matches!(
            self,
            Command::Load { .. }
                | Command::Calibrate { .. }
                | Command::Commit { .. }
                | Command::Recalibrate { .. }
                | Command::Restore { .. }
        )
    }
}

fn usage(msg: impl Into<String>) -> MgbaError {
    MgbaError::Usage(msg.into())
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, MgbaError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(usage(format!("`{key}` must be a string"))),
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, MgbaError> {
    opt_str(v, key)?.ok_or_else(|| usage(format!("missing required `{key}`")))
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, MgbaError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(usage(format!("`{key}` must be a number"))),
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, MgbaError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n @ Value::Num(_)) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| usage(format!("`{key}` must be a non-negative integer"))),
        Some(_) => Err(usage(format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_bool(v: &Value, key: &str) -> Result<bool, MgbaError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(usage(format!("`{key}` must be a boolean"))),
    }
}

/// Parses one request line, including the v2 addressing fields. On
/// failure as much addressing as was recoverable (id, proto, session)
/// comes back in the [`EnvMeta`] so the error response can still be
/// correlated and routed.
///
/// # Errors
///
/// Returns `(recovered addressing, MgbaError)` for malformed JSON, bad
/// `proto`/`session` fields, a missing or unknown `cmd`, or bad
/// argument types.
pub fn parse_request(line: &str) -> Result<Request, (EnvMeta, MgbaError)> {
    let v = json::parse(line).map_err(|e| {
        (
            EnvMeta::unknown(None),
            usage(format!("malformed request: {e}")),
        )
    })?;
    let id = v.get("id").and_then(Value::as_u64);
    if !matches!(v, Value::Obj(_)) {
        return Err((EnvMeta::unknown(id), usage("request must be a JSON object")));
    }
    // Addressing first: proto (absent ⇒ 1), then session (v2 only).
    let proto = match opt_u64(&v, "proto") {
        Ok(p) => p.unwrap_or(PROTO_MIN),
        Err(e) => return Err((EnvMeta::unknown(id), e)),
    };
    if !(PROTO_MIN..=PROTO_MAX).contains(&proto) {
        return Err((
            EnvMeta::unknown(id),
            usage(format!(
                "unsupported `proto` {proto} (server speaks {PROTO_MIN}..={PROTO_MAX})"
            )),
        ));
    }
    let session = match opt_str(&v, "session") {
        Ok(s) => s,
        Err(e) => return Err((EnvMeta::unknown(id), e)),
    };
    let session = match (proto, session) {
        (1, Some(_)) => {
            return Err((
                EnvMeta::v1(id),
                usage("`session` requires `\"proto\":2` (v1 requests are sessionless)"),
            ))
        }
        (_, Some(name)) => {
            if let Err(e) = validate_session_name(&name) {
                return Err((EnvMeta::unknown(id), e));
            }
            name
        }
        (_, None) => DEFAULT_SESSION.to_owned(),
    };
    let meta = EnvMeta {
        id,
        proto,
        session: Some(session.clone()),
        request_id: None,
    };
    parse_request_value(&v, id, proto, session).map_err(|e| (meta, e))
}

fn parse_request_value(
    v: &Value,
    id: Option<u64>,
    proto: u64,
    session: String,
) -> Result<Request, MgbaError> {
    let cmd_name = req_str(v, "cmd")?;
    let deadline_ms = opt_u64(v, "deadline_ms")?;
    let cmd = match cmd_name.as_str() {
        "hello" => Command::Hello {
            max_proto: opt_u64(v, "max_proto")?,
        },
        "ping" => Command::Ping,
        "health" => Command::Health,
        "load" => {
            let spec = opt_str(v, "design")?
                .or(opt_str(v, "file")?)
                .ok_or_else(|| usage("load needs `design` (spec) or `file` (netlist path)"))?;
            Command::Load {
                spec,
                period: opt_f64(v, "period")?,
            }
        }
        "calibrate" => Command::Calibrate {
            solver: opt_str(v, "solver")?,
        },
        "slack" => Command::Slack {
            endpoint: opt_str(v, "endpoint")?,
            top: opt_u64(v, "top")?.unwrap_or(10).min(10_000) as usize,
        },
        "wns" => Command::Wns,
        "tns" => Command::Tns,
        "path" => Command::PathQuery {
            endpoint: opt_str(v, "endpoint")?,
            pba: opt_bool(v, "pba")?,
        },
        "whatif_resize" => Command::WhatIfResize {
            cell: req_str(v, "cell")?,
            to: req_str(v, "to")?,
        },
        "commit" => Command::Commit {
            cell: req_str(v, "cell")?,
            to: req_str(v, "to")?,
            full: opt_bool(v, "full")?,
        },
        "recalibrate" => Command::Recalibrate {
            solver: opt_str(v, "solver")?,
            full: opt_bool(v, "full")?,
        },
        "whatif_batch" => {
            let items = match v.get("resizes") {
                Some(Value::Arr(items)) => items,
                Some(_) => return Err(usage("`resizes` must be an array")),
                None => return Err(usage("missing required `resizes`")),
            };
            if items.is_empty() {
                return Err(usage("`resizes` must not be empty"));
            }
            if items.len() > MAX_WHATIF_BATCH {
                return Err(usage(format!(
                    "`resizes` holds {} candidates (max {MAX_WHATIF_BATCH})",
                    items.len()
                )));
            }
            let mut resizes = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                if !matches!(item, Value::Obj(_)) {
                    return Err(usage(format!("`resizes[{i}]` must be an object")));
                }
                let cell = req_str(item, "cell")
                    .map_err(|_| usage(format!("`resizes[{i}]` needs a string `cell`")))?;
                let to = req_str(item, "to")
                    .map_err(|_| usage(format!("`resizes[{i}]` needs a string `to`")))?;
                resizes.push((cell, to));
            }
            Command::WhatIfBatch {
                resizes,
                pba: opt_bool(v, "pba")?,
            }
        }
        "snapshot" => Command::Snapshot {
            file: req_str(v, "file")?,
        },
        "restore" => Command::Restore {
            file: req_str(v, "file")?,
        },
        "lint" => Command::Lint,
        "slowlog" => Command::Slowlog,
        "history" => Command::History,
        "close_session" => Command::CloseSession,
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "failpoint" => Command::Failpoint {
            spec: req_str(v, "spec")?,
        },
        "sleep" => Command::Sleep {
            ms: opt_u64(v, "ms")?.unwrap_or(0).min(10_000),
        },
        "shutdown" => Command::Shutdown,
        other => return Err(usage(format!("unknown command `{other}`"))),
    };
    Ok(Request {
        id,
        proto,
        session,
        cmd,
        deadline_ms,
    })
}

/// Maps an [`MgbaError`] variant onto its wire `kind`.
pub fn error_kind(e: &MgbaError) -> &'static str {
    match e {
        MgbaError::Parse(_) => "parse",
        MgbaError::Solver { .. } => "solver",
        MgbaError::Io { .. } => "io",
        MgbaError::Usage(_) => "usage",
        MgbaError::Lint { .. } => "lint",
        MgbaError::Timeout { .. } => "timeout",
        MgbaError::Internal(_) => "internal",
    }
}

fn id_field(w: &mut JsonWriter, id: Option<u64>) {
    w.key("id");
    match id {
        Some(i) => w.u64(i),
        None => w.null(),
    }
}

/// Emits `"request_id"` after the addressing keys — v2 envelopes only
/// (the v1 shape is frozen), and only when admission assigned one.
fn request_id_field(w: &mut JsonWriter, meta: &EnvMeta) {
    if meta.proto == 2 {
        if let Some(rid) = meta.request_id {
            w.key("request_id");
            w.u64(rid);
        }
    }
}

/// Emits the addressing keys that follow `ok`: `"deprecated":true` for
/// v1, `"session":…` for v2, neither when addressing is unknown.
fn addressing_fields(w: &mut JsonWriter, meta: &EnvMeta) {
    match meta.proto {
        1 => {
            w.key("deprecated");
            w.bool(true);
        }
        2 => {
            w.key("session");
            w.str(meta.session.as_deref().unwrap_or(DEFAULT_SESSION));
        }
        _ => {}
    }
}

/// Renders a success envelope around a pre-rendered `result` object.
///
/// `degraded` adds `"degraded":true` — only when set, so healthy
/// response bytes are identical to builds that predate the field.
pub fn ok_envelope(meta: &EnvMeta, degraded: bool, result_json: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    id_field(&mut w, meta.id);
    w.key("ok");
    w.bool(true);
    addressing_fields(&mut w, meta);
    request_id_field(&mut w, meta);
    if degraded {
        w.key("degraded");
        w.bool(true);
    }
    w.key("result");
    w.raw(result_json);
    w.end_obj();
    w.finish()
}

/// Renders an error envelope with an explicit code. `kind` (the v1
/// name) and `code` (the v2 name) always carry the same value.
pub fn error_envelope(meta: &EnvMeta, code: &str, message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    id_field(&mut w, meta.id);
    w.key("ok");
    w.bool(false);
    addressing_fields(&mut w, meta);
    request_id_field(&mut w, meta);
    w.key("error");
    w.begin_obj();
    w.key("kind");
    w.str(code);
    w.key("code");
    w.str(code);
    w.key("message");
    w.str(message);
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// Renders the error envelope for an [`MgbaError`].
pub fn mgba_error_envelope(meta: &EnvMeta, e: &MgbaError) -> String {
    error_envelope(meta, error_kind(e), &e.to_string())
}

/// Serializes one request line — the inverse of [`parse_request`], used
/// by the typed client (`crate::client`) and the bench harness so no
/// caller hand-assembles JSON. `proto` 1 emits a legacy sessionless
/// line; `proto` 2 emits `"proto":2` plus `"session"` when given.
pub fn render_request(
    id: Option<u64>,
    proto: u64,
    session: Option<&str>,
    cmd: &Command,
    deadline_ms: Option<u64>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    if let Some(i) = id {
        w.key("id");
        w.u64(i);
    }
    if proto >= 2 {
        w.key("proto");
        w.u64(proto);
        if let Some(s) = session {
            w.key("session");
            w.str(s);
        }
    }
    w.key("cmd");
    w.str(cmd.name());
    if let Some(d) = deadline_ms {
        w.key("deadline_ms");
        w.u64(d);
    }
    match cmd {
        Command::Hello { max_proto } => {
            if let Some(p) = max_proto {
                w.key("max_proto");
                w.u64(*p);
            }
        }
        Command::Ping
        | Command::Health
        | Command::Wns
        | Command::Tns
        | Command::Lint
        | Command::Slowlog
        | Command::History
        | Command::CloseSession
        | Command::Stats
        | Command::Metrics
        | Command::Shutdown => {}
        Command::Load { spec, period } => {
            w.key("design");
            w.str(spec);
            if let Some(p) = period {
                w.key("period");
                w.f64(*p);
            }
        }
        Command::Calibrate { solver } => {
            if let Some(s) = solver {
                w.key("solver");
                w.str(s);
            }
        }
        Command::Slack { endpoint, top } => {
            if let Some(e) = endpoint {
                w.key("endpoint");
                w.str(e);
            }
            w.key("top");
            w.u64(*top as u64);
        }
        Command::PathQuery { endpoint, pba } => {
            if let Some(e) = endpoint {
                w.key("endpoint");
                w.str(e);
            }
            if *pba {
                w.key("pba");
                w.bool(true);
            }
        }
        Command::WhatIfResize { cell, to } => {
            w.key("cell");
            w.str(cell);
            w.key("to");
            w.str(to);
        }
        Command::Commit { cell, to, full } => {
            w.key("cell");
            w.str(cell);
            w.key("to");
            w.str(to);
            if *full {
                w.key("full");
                w.bool(true);
            }
        }
        Command::Recalibrate { solver, full } => {
            if let Some(s) = solver {
                w.key("solver");
                w.str(s);
            }
            if *full {
                w.key("full");
                w.bool(true);
            }
        }
        Command::WhatIfBatch { resizes, pba } => {
            w.key("resizes");
            w.begin_arr();
            for (cell, to) in resizes {
                w.begin_obj();
                w.key("cell");
                w.str(cell);
                w.key("to");
                w.str(to);
                w.end_obj();
            }
            w.end_arr();
            if *pba {
                w.key("pba");
                w.bool(true);
            }
        }
        Command::Snapshot { file } | Command::Restore { file } => {
            w.key("file");
            w.str(file);
        }
        Command::Failpoint { spec } => {
            w.key("spec");
            w.str(spec);
        }
        Command::Sleep { ms } => {
            w.key("ms");
            w.u64(*ms);
        }
    }
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let cases: &[(&str, &str)] = &[
            (r#"{"cmd":"hello"}"#, "hello"),
            (r#"{"cmd":"hello","max_proto":2}"#, "hello"),
            (r#"{"cmd":"ping"}"#, "ping"),
            (r#"{"cmd":"health"}"#, "health"),
            (r#"{"cmd":"load","design":"small:7","period":900}"#, "load"),
            (r#"{"cmd":"load","file":"d.nl"}"#, "load"),
            (r#"{"cmd":"calibrate","solver":"cgnr"}"#, "calibrate"),
            (r#"{"cmd":"slack","top":3}"#, "slack"),
            (r#"{"cmd":"wns"}"#, "wns"),
            (r#"{"cmd":"tns"}"#, "tns"),
            (r#"{"cmd":"path","pba":true}"#, "path"),
            (
                r#"{"cmd":"whatif_resize","cell":"g1","to":"up"}"#,
                "whatif_resize",
            ),
            (r#"{"cmd":"commit","cell":"g1","to":"down"}"#, "commit"),
            (
                r#"{"cmd":"commit","cell":"g1","to":"down","full":true}"#,
                "commit",
            ),
            (r#"{"cmd":"recalibrate"}"#, "recalibrate"),
            (
                r#"{"cmd":"recalibrate","solver":"cgnr","full":true}"#,
                "recalibrate",
            ),
            (
                r#"{"cmd":"whatif_batch","resizes":[{"cell":"g1","to":"up"},{"cell":"g2","to":"down"}],"pba":true}"#,
                "whatif_batch",
            ),
            (r#"{"cmd":"snapshot","file":"s.mgba"}"#, "snapshot"),
            (r#"{"cmd":"restore","file":"s.mgba"}"#, "restore"),
            (r#"{"cmd":"lint"}"#, "lint"),
            (r#"{"cmd":"slowlog"}"#, "slowlog"),
            (r#"{"cmd":"history"}"#, "history"),
            (r#"{"cmd":"close_session"}"#, "close_session"),
            (r#"{"cmd":"stats"}"#, "stats"),
            (r#"{"cmd":"metrics"}"#, "metrics"),
            (
                r#"{"cmd":"failpoint","spec":"server.handle=panic*1"}"#,
                "failpoint",
            ),
            (r#"{"cmd":"sleep","ms":5}"#, "sleep"),
            (r#"{"cmd":"shutdown"}"#, "shutdown"),
        ];
        for (line, name) in cases {
            let r = parse_request(line).unwrap();
            assert_eq!(r.cmd.name(), *name, "{line}");
        }
    }

    #[test]
    fn id_and_deadline_are_recovered() {
        let r = parse_request(r#"{"id":42,"cmd":"ping","deadline_ms":5}"#).unwrap();
        assert_eq!(r.id, Some(42));
        assert_eq!(r.deadline_ms, Some(5));
        assert_eq!(r.proto, 1);
        assert_eq!(r.session, DEFAULT_SESSION);

        // Unknown command: the addressing still comes back for
        // correlation and routing.
        let (meta, e) = parse_request(r#"{"id":7,"cmd":"nope"}"#).unwrap_err();
        assert_eq!(meta.id, Some(7));
        assert_eq!(meta.proto, 1);
        assert!(matches!(e, MgbaError::Usage(_)));
    }

    #[test]
    fn proto_and_session_addressing() {
        // v2 with an explicit session.
        let r = parse_request(r#"{"id":1,"proto":2,"session":"opt-a","cmd":"wns"}"#).unwrap();
        assert_eq!(r.proto, 2);
        assert_eq!(r.session, "opt-a");
        assert_eq!(r.meta(), EnvMeta::v2(Some(1), "opt-a"));
        // v2 without a session defaults to "default".
        let r = parse_request(r#"{"proto":2,"cmd":"ping"}"#).unwrap();
        assert_eq!(r.session, DEFAULT_SESSION);
        // v1 must not name a session.
        let (meta, e) = parse_request(r#"{"id":3,"session":"a","cmd":"ping"}"#).unwrap_err();
        assert_eq!(meta, EnvMeta::v1(Some(3)));
        assert!(e.to_string().contains("proto"), "{e}");
        // Unsupported version.
        let (meta, e) = parse_request(r#"{"proto":3,"cmd":"ping"}"#).unwrap_err();
        assert_eq!(meta.proto, 0);
        assert!(e.to_string().contains("unsupported"), "{e}");
        // Bad session names.
        for bad in [
            r#"{"proto":2,"session":"","cmd":"ping"}"#,
            r#"{"proto":2,"session":"a b","cmd":"ping"}"#,
            r#"{"proto":2,"session":"a/b","cmd":"ping"}"#,
        ] {
            let (_, e) = parse_request(bad).unwrap_err();
            assert!(matches!(e, MgbaError::Usage(_)), "`{bad}`: {e}");
        }
        let long = "x".repeat(MAX_SESSION_NAME + 1);
        let (_, e) = parse_request(&format!(r#"{{"proto":2,"session":"{long}","cmd":"ping"}}"#))
            .unwrap_err();
        assert!(e.to_string().contains("max 64"), "{e}");
        assert!(validate_session_name(&"y".repeat(MAX_SESSION_NAME)).is_ok());
    }

    #[test]
    fn render_request_round_trips() {
        let cases: Vec<(Option<u64>, u64, Option<&str>, Command)> = vec![
            (Some(1), 2, Some("opt-a"), Command::Ping),
            (None, 1, None, Command::Wns),
            (Some(9), 2, Some("opt-a"), Command::Lint),
            (Some(10), 2, Some("opt-a"), Command::CloseSession),
            (Some(11), 2, Some("opt-a"), Command::Slowlog),
            (Some(12), 2, Some("opt-a"), Command::History),
            (Some(2), 2, None, Command::Hello { max_proto: Some(2) }),
            (
                Some(3),
                2,
                Some("s1"),
                Command::Load {
                    spec: "small:7".into(),
                    period: Some(900.0),
                },
            ),
            (
                Some(4),
                2,
                Some("s1"),
                Command::Slack {
                    endpoint: None,
                    top: 10,
                },
            ),
            (
                Some(5),
                2,
                Some("s1"),
                Command::WhatIfBatch {
                    resizes: vec![("g1".into(), "up".into()), ("g2".into(), "down".into())],
                    pba: true,
                },
            ),
            (
                Some(6),
                1,
                None,
                Command::Commit {
                    cell: "g1".into(),
                    to: "up".into(),
                    full: true,
                },
            ),
        ];
        for (id, proto, session, cmd) in cases {
            let line = render_request(id, proto, session, &cmd, Some(250));
            let r = parse_request(&line).unwrap_or_else(|(_, e)| panic!("{line}: {e}"));
            assert_eq!(r.id, id, "{line}");
            assert_eq!(r.proto, proto, "{line}");
            assert_eq!(r.cmd, cmd, "{line}");
            assert_eq!(r.deadline_ms, Some(250), "{line}");
            if let Some(s) = session {
                assert_eq!(r.session, s, "{line}");
            }
        }
    }

    #[test]
    fn malformed_requests_are_usage_errors() {
        for bad in [
            "not json",
            "[1,2,3]",
            r#"{"cmd":5}"#,
            r#"{"cmd":"load"}"#,
            r#"{"cmd":"slack","top":-1}"#,
            r#"{"cmd":"whatif_resize","cell":"g1"}"#,
        ] {
            let (_, e) = parse_request(bad).unwrap_err();
            assert!(matches!(e, MgbaError::Usage(_)), "`{bad}`: {e}");
        }
    }

    #[test]
    fn envelopes_are_well_formed() {
        // v1 envelopes flag deprecation on every reply.
        assert_eq!(
            ok_envelope(&EnvMeta::v1(Some(1)), false, r#"{"pong":true}"#),
            r#"{"id":1,"ok":true,"deprecated":true,"result":{"pong":true}}"#
        );
        // Degraded mode is an explicit extra field; healthy envelopes
        // must not carry it at all (byte-identity across runs).
        assert_eq!(
            ok_envelope(&EnvMeta::v1(Some(1)), true, r#"{"pong":true}"#),
            r#"{"id":1,"ok":true,"deprecated":true,"degraded":true,"result":{"pong":true}}"#
        );
        // v2 envelopes echo the session instead.
        assert_eq!(
            ok_envelope(&EnvMeta::v2(Some(1), "opt-a"), false, r#"{"pong":true}"#),
            r#"{"id":1,"ok":true,"session":"opt-a","result":{"pong":true}}"#
        );
        // Admitted v2 requests also echo their admission-order id.
        assert_eq!(
            ok_envelope(
                &EnvMeta::v2(Some(1), "opt-a").with_request_id(7),
                false,
                r#"{"pong":true}"#
            ),
            r#"{"id":1,"ok":true,"session":"opt-a","request_id":7,"result":{"pong":true}}"#
        );
        // The v1 envelope shape is frozen: a request id assigned at
        // admission is never emitted on a deprecated envelope.
        assert_eq!(
            ok_envelope(
                &EnvMeta::v1(Some(1)).with_request_id(7),
                false,
                r#"{"pong":true}"#
            ),
            r#"{"id":1,"ok":true,"deprecated":true,"result":{"pong":true}}"#
        );
        // Errors carry both the legacy `kind` and the canonical `code`.
        assert_eq!(
            error_envelope(&EnvMeta::unknown(None), "overload", "queue full"),
            r#"{"id":null,"ok":false,"error":{"kind":"overload","code":"overload","message":"queue full"}}"#
        );
        assert_eq!(
            error_envelope(&EnvMeta::v2(Some(9), "s"), "deadline", "expired"),
            r#"{"id":9,"ok":false,"session":"s","error":{"kind":"deadline","code":"deadline","message":"expired"}}"#
        );
        assert_eq!(
            error_envelope(
                &EnvMeta::v2(Some(9), "s").with_request_id(3),
                "deadline",
                "expired"
            ),
            r#"{"id":9,"ok":false,"session":"s","request_id":3,"error":{"kind":"deadline","code":"deadline","message":"expired"}}"#
        );
        let e = MgbaError::Usage("bad".into());
        let env = mgba_error_envelope(&EnvMeta::v1(Some(2)), &e);
        assert!(env.contains(r#""kind":"usage""#), "{env}");
        assert!(env.contains(r#""code":"usage""#), "{env}");
        assert!(env.contains(r#""deprecated":true"#), "{env}");
        let e = MgbaError::timeout("connect", 250);
        assert!(mgba_error_envelope(&EnvMeta::unknown(None), &e).contains(r#""code":"timeout""#));
        let e = MgbaError::Internal("handler panicked".into());
        assert!(mgba_error_envelope(&EnvMeta::unknown(None), &e).contains(r#""code":"internal""#));
    }

    #[test]
    fn whatif_batch_decodes_pairs_and_rejects_bad_shapes() {
        let r = parse_request(
            r#"{"cmd":"whatif_batch","resizes":[{"cell":"a","to":"up"},{"cell":"b","to":"INV_X4"}]}"#,
        )
        .unwrap();
        match r.cmd {
            Command::WhatIfBatch { resizes, pba } => {
                assert_eq!(
                    resizes,
                    vec![
                        ("a".to_owned(), "up".to_owned()),
                        ("b".to_owned(), "INV_X4".to_owned())
                    ]
                );
                assert!(!pba);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            r#"{"cmd":"whatif_batch"}"#,
            r#"{"cmd":"whatif_batch","resizes":"up"}"#,
            r#"{"cmd":"whatif_batch","resizes":[]}"#,
            r#"{"cmd":"whatif_batch","resizes":["g1"]}"#,
            r#"{"cmd":"whatif_batch","resizes":[{"cell":"g1"}]}"#,
            r#"{"cmd":"whatif_batch","resizes":[{"to":"up"}]}"#,
        ] {
            let (_, e) = parse_request(bad).unwrap_err();
            assert!(matches!(e, MgbaError::Usage(_)), "`{bad}`: {e}");
        }
        // Over-cap batches are rejected at parse time, before queueing.
        let many: Vec<String> = (0..=MAX_WHATIF_BATCH)
            .map(|i| format!(r#"{{"cell":"g{i}","to":"up"}}"#))
            .collect();
        let line = format!(r#"{{"cmd":"whatif_batch","resizes":[{}]}}"#, many.join(","));
        let (_, e) = parse_request(&line).unwrap_err();
        assert!(e.to_string().contains("max 256"), "{e}");
    }

    #[test]
    fn sleep_is_capped() {
        let r = parse_request(r#"{"cmd":"sleep","ms":999999}"#).unwrap();
        assert_eq!(r.cmd, Command::Sleep { ms: 10_000 });
    }
}
