//! One resident timing session: a loaded design + engine + fitted
//! weights, executing every protocol command addressed to it
//! sequentially on its writer-lane thread (see [`crate::registry`]).
//!
//! The session is where the paper's economics pay off: the expensive
//! steps (netlist load, full STA build, weight fitting) happen once per
//! `load`/`calibrate`, after which `slack`/`wns`/`path` queries read the
//! already-propagated graph and `whatif_resize` rides [`Sta`]'s
//! incremental update — resize, measure the delta, roll back — without
//! ever paying a full re-propagation.
//!
//! Every handler returns either a rendered JSON `result` object or an
//! [`MgbaError`]; nothing here panics on bad input, because a panic
//! would take the daemon (and every other client) down with it.
//!
//! Responses deliberately contain **no wall-clock fields**: they must be
//! bit-identical across `--threads` settings and repeated runs. Latency
//! lives in the `stats` command and the `obs` profile instead.

use crate::proto::Command;
use crate::suggest;
use mgba::{Calibration, FallbackStage, MgbaConfig, MgbaError, MgbaReport, Solver};
use netlist::{CellId, LibCellId};
use obs::json::JsonWriter;
use sta::{
    gba_path_timing_batch, gba_path_timing_rows, paths::worst_paths_to_endpoint, pba_timing,
    pba_timing_batch, pba_timing_rows, PathTiming, Sta,
};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A design loaded into the session.
struct Loaded {
    /// The spec string `load` used (generator spec or file path) —
    /// recorded into checkpoints and snapshots.
    spec: String,
    /// The resident timing engine.
    sta: Sta,
    /// Solver of the most recent fit, reused by commit-triggered
    /// recalibrations; `None` until calibrated.
    solver: Option<Solver>,
    /// Warm-refit state of the most recent cold fit, with the cells the
    /// commits since the last fit invalidated. `None` until calibrated,
    /// and when that fit had no paths. It is never serialized: a rebuilt
    /// [`DesignState`] has none, and journal replay regenerates it.
    calibration: Option<Calibration>,
    /// Committed resizes since load, in order, as (cell name, resolved
    /// library-cell name) — replayed verbatim by [`Session::rebuild`].
    resizes: Vec<(String, String)>,
}

/// What one fit did — rendered into `commit`/`recalibrate` responses,
/// folded into session counters and recorded in the drift history.
struct RecalOutcome {
    /// `"warm"` (dirty rows patched, solver warm-started) or `"cold"`
    /// (full re-select + re-fit).
    mode: &'static str,
    solver_name: String,
    fallback_name: &'static str,
    dirty_rows: u64,
    total_rows: u64,
    iterations: u64,
    converged: bool,
    mse_before: f64,
    mse_after: f64,
    wns: f64,
    tns: f64,
    degraded: bool,
}

impl Loaded {
    /// The session's one cold fit: re-selects paths, fits `solver` from
    /// zero, and arms the warm-refit state.
    fn fit_cold(&mut self, solver: Solver) -> (MgbaReport, RecalOutcome) {
        let (report, calibration) = Calibration::fit(&mut self.sta, &MgbaConfig::default(), solver);
        self.solver = Some(solver);
        self.calibration = calibration;
        let outcome = RecalOutcome {
            mode: "cold",
            solver_name: report.solver_name.clone(),
            fallback_name: report.fallback.name(),
            dirty_rows: report.num_paths as u64,
            total_rows: report.num_paths as u64,
            iterations: report.iterations as u64,
            converged: report.converged,
            mse_before: report.mse_before,
            mse_after: report.mse_after,
            wns: self.sta.wns(),
            tns: self.sta.tns(),
            degraded: report.fallback.is_degraded(),
        };
        (report, outcome)
    }

    /// Re-fits the weights with `solver` after committed edits. Warm: the
    /// calibration patches the rows its noted edits dirtied and
    /// warm-starts from its `x*`. Cold (`full`, or no calibration, e.g.
    /// right after a restore): [`Self::fit_cold`].
    fn refit(&mut self, solver: Solver, full: bool) -> RecalOutcome {
        let Some(c) = self.calibration.as_mut().filter(|_| !full) else {
            return self.fit_cold(solver).1;
        };
        let re = c.refit(&mut self.sta, &MgbaConfig::default(), solver);
        self.solver = Some(solver);
        RecalOutcome {
            mode: "warm",
            solver_name: solver.paper_name().to_owned(),
            fallback_name: re.fallback.name(),
            dirty_rows: re.dirty_rows as u64,
            total_rows: re.total_rows as u64,
            iterations: re.iterations as u64,
            converged: re.converged,
            mse_before: re.mse_before,
            mse_after: re.mse_after,
            wns: self.sta.wns(),
            tns: self.sta.tns(),
            degraded: re.fallback.is_degraded(),
        }
    }
}

/// Slow-query ring capacity per session.
pub(crate) const SLOWLOG_CAP: usize = 128;

/// Calibration-drift history ring capacity per session.
pub(crate) const HISTORY_CAP: usize = 64;

/// One slow-query ring entry: a write-lane command whose execution met
/// the server's `--slow-ms` threshold. Carries **no timing fields** —
/// membership is decided by the wall clock but the rendered bytes are
/// pure admission-order facts, so `slowlog` responses stay
/// byte-identical across `--threads` settings (with `--slow-ms 0`,
/// which records every non-read command, they are identical across
/// runs too).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlowEntry {
    /// Admission-order request id of the slow request (assigned for
    /// both v1 and v2 requests, echoed only on v2 envelopes).
    pub request_id: Option<u64>,
    /// Stable command name ([`Command::name`]).
    pub cmd: &'static str,
}

/// One calibration-drift record: the fit-accuracy summary captured
/// after every calibrate/recalibrate (warm or cold), appended to a
/// bounded per-session history ring and served by the v2 `history`
/// command. Only bit-deterministic fit statistics are recorded — no
/// wall-clock — so `history` responses are byte-identical across
/// thread counts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CalibrationRecord {
    /// 1-based fit index within the session (keeps numbering stable
    /// after ring eviction).
    pub fit_seq: u64,
    /// `"warm"` or `"cold"`.
    pub mode: &'static str,
    /// Solver that produced the accepted weights.
    pub solver: String,
    /// Fallback-ladder stage the fit landed on.
    pub fallback: &'static str,
    /// Solver iterations spent.
    pub iterations: u64,
    /// Whether the solver converged.
    pub converged: bool,
    /// Mean squared `s_mgba − s_pba` over fitted rows before the fit.
    pub mse_before: f64,
    /// Mean squared `s_mgba − s_pba` after the fit — the drift figure.
    pub mse_after: f64,
    /// Engine WNS after the fit, ps.
    pub wns: f64,
    /// Engine TNS after the fit, ps.
    pub tns: f64,
    /// Gates carrying a nonzero fitted weight.
    pub weights_nonzero: u64,
    /// Total gates (so sparsity is derivable).
    pub weights_total: u64,
    /// Commits accumulated since the previous fit (how stale the
    /// weights were when this fit ran).
    pub commits_since_fit: u64,
}

/// The design half of a [`DurableState`]: everything needed to rebuild
/// [`Loaded`] from scratch (reload the design, replay committed
/// resizes, reapply fitted weights).
struct DesignState {
    spec: String,
    period: f64,
    /// Solver of the most recent fit (`None` = uncalibrated); a
    /// checkpoint names it by its paper name.
    solver: Option<Solver>,
    resizes: Vec<(String, String)>,
    /// Nonzero fitted weights keyed by cell name.
    weights: Vec<(String, f64)>,
}

/// One session's writer-lane state: at most one loaded design. The
/// lane's `Journal` can rebuild it after a caught panic. Latency
/// accounting lives on the session's
/// [`crate::registry::SessionHandle`], so it survives such rebuilds.
#[derive(Default)]
pub struct Session {
    loaded: Option<Loaded>,
    /// True while serving from a fault-recovered state whose calibration
    /// is unavailable (answers are raw GBA: safe but pessimistic).
    degraded: bool,
    /// True once a WAL append/fsync/checkpoint failed: the in-memory
    /// state is ahead of the durable log, so the lane refuses further
    /// mutations (`error.code:"durability_lost"`) and reads carry the
    /// `degraded` envelope flag until restart. Sticky by design — the
    /// log may be arbitrarily behind, so no later write can clear it.
    durability_lost: bool,
    /// Warm (incremental, dirty-rows-only) recalibrations served.
    recalib_warm: u64,
    /// Cold (full re-select + re-fit) recalibrations served — explicit
    /// `full:true`, or the warm cache was unavailable.
    recalib_cold: u64,
    /// Calibration-drift history ring, oldest first (cap
    /// [`HISTORY_CAP`]). Deliberately outside [`Loaded`]: it survives
    /// crash-recovery rebuilds, preserving the drift time-series.
    history: VecDeque<CalibrationRecord>,
    /// Records evicted from the history ring.
    history_evicted: u64,
    /// Fits recorded since the session started ([`CalibrationRecord`]
    /// sequence source).
    fits_total: u64,
    /// Commits since the last fit (captured into the next record).
    commits_since_fit: u64,
    /// Slow-query ring, oldest first (cap [`SLOWLOG_CAP`]); fed by the
    /// writer lane when `--slow-ms` is configured.
    slowlog: VecDeque<SlowEntry>,
    /// Entries evicted from the slow-query ring.
    slow_dropped: u64,
}

/// One loaded session's figures in the `metrics` exposition
/// ([`Session::gauges`]). The session serving a `metrics` request
/// renders its own live; every lane also publishes a copy after each
/// state change, which is what the other sessions render for it.
#[derive(Debug, Clone)]
pub(crate) struct SessionGauges {
    pub wns: f64,
    pub tns: f64,
    pub calibrated: bool,
    pub full_updates: u64,
    pub incremental_updates: u64,
    pub cells_propagated: u64,
    /// [`Session::is_degraded`].
    pub degraded: bool,
    /// Most recent calibration-drift record, if any fit has run.
    pub latest_fit: Option<CalibrationRecord>,
    /// Drift records resident in the history ring.
    pub history_len: usize,
    /// Warm (dirty-rows-only) recalibrations served.
    pub recalib_warm: u64,
    /// Cold (full re-select + re-fit) recalibrations served.
    pub recalib_cold: u64,
}

fn usage(msg: impl Into<String>) -> MgbaError {
    MgbaError::Usage(msg.into())
}

/// The minimum, in row order, of `base` with each of the ascending
/// `rows` replaced by its `fresh` timing's slack: the worst slack of a
/// path set of which only `rows` were re-timed.
fn worst_slack(base: &[f64], rows: &[usize], fresh: &[PathTiming]) -> f64 {
    let mut fresh = rows.iter().zip(fresh).peekable();
    base.iter()
        .enumerate()
        .map(|(i, &s)| match fresh.next_if(|&(&r, _)| r == i) {
            Some((_, t)) => t.slack,
            None => s,
        })
        .fold(f64::INFINITY, f64::min)
}

/// Endpoints with finite setup slack, worst first (ties broken by cell
/// id so the order — and therefore the response bytes — are stable).
fn worst_endpoints(sta: &Sta, top: usize) -> Vec<(CellId, f64)> {
    let mut v: Vec<(CellId, f64)> = sta
        .endpoints()
        .iter()
        .map(|&e| (e, sta.setup_slack(e)))
        .filter(|(_, s)| s.is_finite())
        .collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())));
    v.truncate(top);
    v
}

// ---------------------------------------------------------------------
// Read handlers: free functions over the engine (or the session's
// rings), dispatched by `Session::handle`.
// ---------------------------------------------------------------------

/// `ping` result object.
fn ping_result() -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("pong");
    w.bool(true);
    w.end_obj();
    w.finish()
}

/// `slack` result: one endpoint's slack, or the `top` worst endpoints.
fn read_slack(sta: &Sta, endpoint: Option<&str>, top: usize) -> Result<String, MgbaError> {
    let mut w = JsonWriter::new();
    match endpoint {
        Some(name) => {
            let cell = sta
                .netlist()
                .find_cell(name)
                .ok_or_else(|| usage(format!("unknown cell `{name}`")))?;
            if !sta.endpoints().contains(&cell) {
                return Err(usage(format!("cell `{name}` is not a timing endpoint")));
            }
            w.begin_obj();
            w.key("endpoint");
            w.str(name);
            w.key("slack");
            w.f64(sta.setup_slack(cell));
            w.end_obj();
        }
        None => {
            let worst = worst_endpoints(sta, top);
            w.begin_obj();
            w.key("wns");
            w.f64(sta.wns());
            w.key("endpoints");
            w.begin_arr();
            for (cell, slack) in &worst {
                w.begin_obj();
                w.key("endpoint");
                w.str(&sta.netlist().cell(*cell).name);
                w.key("slack");
                w.f64(*slack);
                w.end_obj();
            }
            w.end_arr();
            w.end_obj();
        }
    }
    Ok(w.finish())
}

/// Process-wide lint issue counters, split by severity. They feed the
/// `mgba_lint_issues_total{severity}` Prometheus family, so they are
/// monotonic across every session and server instance in the process —
/// the response payload itself stays free of cross-request state.
static LINT_ERRORS: AtomicU64 = AtomicU64::new(0);
static LINT_WARNINGS: AtomicU64 = AtomicU64::new(0);

/// `(errors, warnings)` found by every `lint` command served so far.
pub(crate) fn lint_totals() -> (u64, u64) {
    (
        LINT_ERRORS.load(Ordering::SeqCst),
        LINT_WARNINGS.load(Ordering::SeqCst),
    )
}

/// `lint` result: the collected-issues report over the loaded design.
/// The report is a pure function of the netlist (no wall-clock fields),
/// so responses are byte-identical across `--threads` settings.
fn read_lint(sta: &Sta) -> String {
    let report = netlist::lint_netlist(sta.netlist());
    LINT_ERRORS.fetch_add(report.num_errors() as u64, Ordering::SeqCst);
    LINT_WARNINGS.fetch_add(report.num_warnings() as u64, Ordering::SeqCst);
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("design");
    w.str(sta.netlist().name());
    w.key("errors");
    w.u64(report.num_errors() as u64);
    w.key("warnings");
    w.u64(report.num_warnings() as u64);
    w.key("issues");
    w.begin_arr();
    for issue in &report.issues {
        w.begin_obj();
        w.key("severity");
        w.str(issue.severity.label());
        w.key("code");
        w.str(issue.code);
        w.key("message");
        w.str(&issue.message);
        if let Some(span) = issue.span {
            w.key("line");
            w.u64(u64::from(span.line));
            w.key("col");
            w.u64(u64::from(span.col));
        }
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// `slowlog` result: the slow-query ring, oldest first.
fn render_slowlog(entries: &VecDeque<SlowEntry>, dropped: u64) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("count");
    w.u64(entries.len() as u64);
    w.key("dropped");
    w.u64(dropped);
    w.key("entries");
    w.begin_arr();
    for e in entries {
        w.begin_obj();
        w.key("request_id");
        match e.request_id {
            Some(rid) => w.u64(rid),
            None => w.null(),
        }
        w.key("cmd");
        w.str(e.cmd);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// `history` result: the calibration-drift ring, oldest first.
fn render_history(records: &VecDeque<CalibrationRecord>, evicted: u64) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("count");
    w.u64(records.len() as u64);
    w.key("evicted");
    w.u64(evicted);
    w.key("records");
    w.begin_arr();
    for r in records {
        write_history_record(&mut w, r);
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// One calibration-drift record as a JSON object — the `history`
/// response element shape, also reused verbatim as the checkpoint
/// file's history-line format so recovery restores the exact ring.
fn write_history_record(w: &mut JsonWriter, r: &CalibrationRecord) {
    w.begin_obj();
    w.key("fit");
    w.u64(r.fit_seq);
    w.key("mode");
    w.str(r.mode);
    w.key("solver");
    w.str(&r.solver);
    w.key("fallback_stage");
    w.str(r.fallback);
    w.key("iterations");
    w.u64(r.iterations);
    w.key("converged");
    w.bool(r.converged);
    w.key("mse_before");
    w.f64(r.mse_before);
    w.key("mse_after");
    w.f64(r.mse_after);
    w.key("wns");
    w.f64(r.wns);
    w.key("tns");
    w.f64(r.tns);
    w.key("weights_nonzero");
    w.u64(r.weights_nonzero);
    w.key("weights_total");
    w.u64(r.weights_total);
    w.key("commits_since_fit");
    w.u64(r.commits_since_fit);
    w.end_obj();
}

/// `wns`/`tns` result: the summary figure plus the violation count.
fn read_summary(sta: &Sta, wns: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    if wns {
        w.key("wns");
        w.f64(sta.wns());
    } else {
        w.key("tns");
        w.f64(sta.tns());
    }
    w.key("violating");
    w.u64(sta.violating_endpoints().len() as u64);
    w.end_obj();
    w.finish()
}

/// `path` result: the worst path to `endpoint` (or the global worst),
/// optionally PBA-retimed.
fn read_path(sta: &Sta, endpoint: Option<&str>, pba: bool) -> Result<String, MgbaError> {
    let cell = match endpoint {
        Some(name) => sta
            .netlist()
            .find_cell(name)
            .ok_or_else(|| usage(format!("unknown cell `{name}`")))?,
        None => {
            worst_endpoints(sta, 1)
                .first()
                .ok_or_else(|| usage("design has no constrained endpoints"))?
                .0
        }
    };
    let paths = worst_paths_to_endpoint(sta, cell, 1);
    let path = paths
        .first()
        .ok_or_else(|| usage("no data path reaches that endpoint"))?;
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("endpoint");
    w.str(&sta.netlist().cell(path.endpoint).name);
    w.key("slack");
    w.f64(path.gba_slack);
    w.key("arrival");
    w.f64(path.gba_arrival);
    w.key("gates");
    w.u64(path.num_gates() as u64);
    if pba {
        w.key("pba_slack");
        w.f64(pba_timing(sta, path).slack);
    }
    w.key("cells");
    w.begin_arr();
    for c in &path.cells {
        w.str(&sta.netlist().cell(*c).name);
    }
    w.end_arr();
    w.end_obj();
    Ok(w.finish())
}

impl Session {
    /// Creates an empty session (no design loaded).
    pub fn new() -> Self {
        Self::default()
    }

    fn require_loaded(&mut self) -> Result<&mut Loaded, MgbaError> {
        self.loaded
            .as_mut()
            .ok_or_else(|| usage("no design loaded (send `load` first)"))
    }

    /// True while the session serves fault-recovered state without
    /// calibration, or after its durability was lost; the server stamps
    /// `degraded:true` into success envelopes while this holds.
    pub fn is_degraded(&self) -> bool {
        self.degraded || self.durability_lost
    }

    /// Marks the session read-only after a WAL write failure (see the
    /// [`Session::durability_lost`] field doc for the semantics).
    pub(crate) fn mark_durability_lost(&mut self) {
        self.durability_lost = true;
    }

    /// True once a WAL write failed and mutations are refused.
    pub(crate) fn durability_lost(&self) -> bool {
        self.durability_lost
    }

    /// Flags the session degraded without touching its state — used by
    /// startup recovery when a checkpoint or WAL tail could not be fully
    /// replayed, so clients see `degraded:true` until a fresh
    /// `load`/`calibrate` rebuilds trustworthy state.
    pub(crate) fn mark_degraded(&mut self) {
        self.degraded = true;
    }

    /// True when the next warm-path recalibration would read the frozen
    /// calibration cache. The [`Journal`] keys its anchor off this: a
    /// command that *ignores* the cache (cold fit, load, restore) starts
    /// a fresh tail, because replaying it from a cache-less rebuilt
    /// anchor regenerates the cache bit-for-bit.
    fn cache_armed(&self) -> bool {
        self.loaded
            .as_ref()
            .is_some_and(|l| l.calibration.is_some())
    }

    /// Appends a slow-query entry (called by the writer lane after a
    /// non-read command's execution met the `--slow-ms` threshold).
    pub(crate) fn note_slow(&mut self, request_id: Option<u64>, cmd: &'static str) {
        if self.slowlog.len() >= SLOWLOG_CAP {
            self.slowlog.pop_front();
            self.slow_dropped += 1;
        }
        self.slowlog.push_back(SlowEntry { request_id, cmd });
    }

    /// Appends a calibration-drift record, consuming the accumulated
    /// commit count.
    fn push_history(&mut self, mut record: CalibrationRecord) {
        self.fits_total += 1;
        record.fit_seq = self.fits_total;
        record.commits_since_fit = self.commits_since_fit;
        self.commits_since_fit = 0;
        if self.history.len() >= HISTORY_CAP {
            self.history.pop_front();
            self.history_evicted += 1;
        }
        self.history.push_back(record);
    }

    /// `(nonzero, total)` fitted-weight counts over the loaded design.
    fn weight_counts(&self) -> (u64, u64) {
        match &self.loaded {
            Some(l) => {
                let total = l.sta.netlist().num_cells();
                let nonzero = (0..total)
                    .filter(|&i| l.sta.gate_weight(CellId::new(i)) != 0.0)
                    .count();
                (nonzero as u64, total as u64)
            }
            None => (0, 0),
        }
    }

    /// This session's `metrics` figures (`None` until a design is
    /// loaded).
    pub(crate) fn gauges(&self) -> Option<SessionGauges> {
        self.loaded.as_ref().map(|l| SessionGauges {
            wns: l.sta.wns(),
            tns: l.sta.tns(),
            calibrated: l.solver.is_some(),
            full_updates: l.sta.stats.full_updates,
            incremental_updates: l.sta.stats.incremental_updates,
            cells_propagated: l.sta.stats.cells_propagated,
            degraded: self.is_degraded(),
            latest_fit: self.history.back().cloned(),
            history_len: self.history.len(),
            recalib_warm: self.recalib_warm,
            recalib_cold: self.recalib_cold,
        })
    }

    /// Writes the `stats` command's `engine` value (object or null).
    pub(crate) fn write_engine_json(&self, w: &mut JsonWriter) {
        match &self.loaded {
            Some(l) => {
                w.begin_obj();
                w.key("design");
                w.str(l.sta.netlist().name());
                w.key("period");
                w.f64(l.sta.sdc().clock_period);
                w.key("calibrated");
                w.bool(l.solver.is_some());
                w.key("full_updates");
                w.u64(l.sta.stats.full_updates);
                w.key("incremental_updates");
                w.u64(l.sta.stats.incremental_updates);
                w.key("cells_propagated");
                w.u64(l.sta.stats.cells_propagated);
                w.end_obj();
            }
            None => w.null(),
        }
    }

    /// Executes one command and renders its `result` object.
    ///
    /// # Errors
    ///
    /// Returns the command's [`MgbaError`]; the caller wraps it into a
    /// structured error response. The session survives every error.
    pub fn handle(&mut self, cmd: &Command) -> Result<String, MgbaError> {
        match cmd {
            Command::Ping => Ok(ping_result()),
            Command::Load { spec, period } => self.load(spec, *period),
            Command::Calibrate { solver } => self.calibrate(solver.as_deref()),
            Command::Slack { endpoint, top } => {
                let loaded = self.require_loaded()?;
                read_slack(&loaded.sta, endpoint.as_deref(), *top)
            }
            Command::Wns => {
                let loaded = self.require_loaded()?;
                Ok(read_summary(&loaded.sta, true))
            }
            Command::Tns => {
                let loaded = self.require_loaded()?;
                Ok(read_summary(&loaded.sta, false))
            }
            Command::PathQuery { endpoint, pba } => {
                let loaded = self.require_loaded()?;
                read_path(&loaded.sta, endpoint.as_deref(), *pba)
            }
            Command::Lint => {
                let loaded = self.require_loaded()?;
                Ok(read_lint(&loaded.sta))
            }
            // The two ring queries require a loaded design, like every
            // other session query.
            Command::Slowlog => {
                self.require_loaded()?;
                Ok(render_slowlog(&self.slowlog, self.slow_dropped))
            }
            Command::History => {
                self.require_loaded()?;
                Ok(render_history(&self.history, self.history_evicted))
            }
            Command::WhatIfResize { cell, to } => self.resize(cell, to, false, false),
            Command::WhatIfBatch { resizes, pba } => self.whatif_batch(resizes, *pba),
            Command::Commit { cell, to, full } => self.resize(cell, to, true, *full),
            Command::Recalibrate { solver, full } => self.recalibrate(solver.as_deref(), *full),
            Command::Snapshot { file } => self.snapshot(file),
            Command::Restore { file } => self.restore(file),
            // Stats, metrics, hello, health, and close_session need
            // registry-wide state (every session's handle, merged
            // latency views, the session map itself); the server layer
            // intercepts them before dispatch ever sees them.
            Command::Stats
            | Command::Metrics
            | Command::Hello { .. }
            | Command::Health
            | Command::CloseSession => Err(MgbaError::Internal(
                "command is handled at the server layer".into(),
            )),
            Command::Failpoint { spec } => {
                let applied = faultinject::arm_spec(spec).map_err(MgbaError::Usage)?;
                let mut w = JsonWriter::new();
                w.begin_obj();
                w.key("applied");
                w.u64(applied as u64);
                w.key("armed");
                w.begin_arr();
                for name in faultinject::armed_names() {
                    w.str(&name);
                }
                w.end_arr();
                w.end_obj();
                Ok(w.finish())
            }
            Command::Sleep { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(*ms));
                let mut w = JsonWriter::new();
                w.begin_obj();
                w.key("slept_ms");
                w.u64(*ms);
                w.end_obj();
                Ok(w.finish())
            }
            Command::Shutdown => {
                let mut w = JsonWriter::new();
                w.begin_obj();
                w.key("draining");
                w.bool(true);
                w.end_obj();
                Ok(w.finish())
            }
        }
    }

    fn load(&mut self, spec: &str, period: Option<f64>) -> Result<String, MgbaError> {
        let netlist = mgba::load_design_or_file(spec)?;
        let sta = match period {
            Some(p) => mgba::build_engine(netlist, p)?,
            None => mgba::build_engine_auto(netlist)?,
        };
        let loaded = Loaded {
            spec: spec.to_owned(),
            sta,
            solver: None,
            calibration: None,
            resizes: Vec::new(),
        };
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("design");
        w.str(loaded.sta.netlist().name());
        w.key("cells");
        w.u64(loaded.sta.netlist().num_cells() as u64);
        w.key("nets");
        w.u64(loaded.sta.netlist().num_nets() as u64);
        w.key("period");
        w.f64(loaded.sta.sdc().clock_period);
        w.key("wns");
        w.f64(loaded.sta.wns());
        w.key("tns");
        w.f64(loaded.sta.tns());
        w.key("violating");
        w.u64(loaded.sta.violating_endpoints().len() as u64);
        w.end_obj();
        self.loaded = Some(loaded);
        // An explicit load is the client choosing a new baseline; any
        // fault-degradation of the previous state is moot.
        self.degraded = false;
        Ok(w.finish())
    }

    fn calibrate(&mut self, solver: Option<&str>) -> Result<String, MgbaError> {
        let solver = Solver::parse(solver.unwrap_or("scgrs"))?;
        let loaded = self.require_loaded()?;
        let (report, outcome) = loaded.fit_cold(solver);
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("design");
        w.str(&report.design);
        w.key("solver");
        w.str(&report.solver_name);
        w.key("fallback_stage");
        w.str(report.fallback.name());
        w.key("paths");
        w.u64(report.num_paths as u64);
        w.key("gates");
        w.u64(report.num_gates as u64);
        w.key("coverage");
        w.f64(report.coverage);
        w.key("iterations");
        w.u64(report.iterations as u64);
        w.key("rows_touched");
        w.u64(report.rows_touched);
        w.key("converged");
        w.bool(report.converged);
        w.key("mse_before");
        w.f64(report.mse_before);
        w.key("mse_after");
        w.f64(report.mse_after);
        w.key("pass_before");
        w.f64(report.pass_before.ratio());
        w.key("pass_after");
        w.f64(report.pass_after.ratio());
        w.key("wns");
        w.f64(outcome.wns);
        w.key("tns");
        w.f64(outcome.tns);
        w.end_obj();
        self.record_fit(&outcome);
        Ok(w.finish())
    }

    /// Resolves a resize request to (cell, current lib, target lib).
    /// Unknown names are reported with their nearest known names
    /// (edit-distance suggestions, netlist-parser diagnostics style).
    fn resolve_resize(
        sta: &Sta,
        cell_name: &str,
        to: &str,
    ) -> Result<(CellId, LibCellId, LibCellId), MgbaError> {
        let cell = sta.netlist().find_cell(cell_name).ok_or_else(|| {
            usage(format!(
                "unknown cell `{cell_name}`{}",
                suggest::nearest_note(
                    cell_name,
                    sta.netlist().cells().map(|(_, c)| c.name.as_str())
                )
            ))
        })?;
        let lib = sta.netlist().library();
        let current = sta.netlist().cell(cell).lib_cell;
        let target = match to {
            "up" => lib
                .upsized(current)
                .ok_or_else(|| usage(format!("`{cell_name}` has no stronger drive")))?,
            "down" => lib
                .downsized(current)
                .ok_or_else(|| usage(format!("`{cell_name}` has no weaker drive")))?,
            name => lib.find(name).ok_or_else(|| {
                usage(format!(
                    "unknown library cell `{name}`{}",
                    suggest::nearest_note(name, lib.iter().map(|(_, c)| c.name.as_str()))
                ))
            })?,
        };
        Ok((cell, current, target))
    }

    fn resize(
        &mut self,
        cell_name: &str,
        to: &str,
        commit: bool,
        full: bool,
    ) -> Result<String, MgbaError> {
        let loaded = self.require_loaded()?;
        let sta = &mut loaded.sta;
        let (cell, current, target) = Self::resolve_resize(sta, cell_name, to)?;
        if current == target {
            return Err(usage(format!("`{cell_name}` is already that size")));
        }
        let lib = sta.netlist().library();
        let from_name = lib.cell(current).name.clone();
        let to_name = lib.cell(target).name.clone();
        let wns_before = sta.wns();
        let tns_before = sta.tns();
        let touched_before = sta.stats.cells_propagated;
        sta.resize_cell(cell, target)?;
        let wns_after = sta.wns();
        let tns_after = sta.tns();
        if !commit {
            // Roll back: the original library cell was legal a moment
            // ago, so this cannot fail structurally — but if it ever
            // does, surface it instead of serving from a corrupt state.
            sta.resize_cell(cell, current)
                .map_err(|e| MgbaError::Solver {
                    solver: "whatif".into(),
                    message: format!("rollback of `{cell_name}` failed: {e}"),
                })?;
        }
        let touched = sta.stats.cells_propagated - touched_before;
        let mut recal = None;
        if commit {
            // Note this commit's invalidation cone before anything clears
            // `last_touched`.
            if let Some(c) = loaded.calibration.as_mut() {
                c.note_edit(&loaded.sta);
            }
            // Record the resolved target (not `up`/`down`) so recovery
            // replays the exact same library cell.
            loaded.resizes.push((cell_name.to_owned(), to_name.clone()));
            if let Some(solver) = loaded.solver {
                // A calibrated session refits on every commit so queries
                // keep answering with post-edit mGBA accuracy: warm and
                // incremental by default, cold on the `full` escape
                // hatch.
                recal = Some(loaded.refit(solver, full));
            }
        }
        if commit {
            // Counted before any drift record captures it, so a
            // commit-triggered refit reports `commits_since_fit` ≥ 1.
            self.commits_since_fit += 1;
        }
        if let Some(o) = &recal {
            self.note_recalibration(o);
        }
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("cell");
        w.str(cell_name);
        w.key("from");
        w.str(&from_name);
        w.key("to");
        w.str(&to_name);
        w.key("committed");
        w.bool(commit);
        w.key("wns_before");
        w.f64(wns_before);
        w.key("wns_after");
        w.f64(wns_after);
        w.key("delta_wns");
        w.f64(wns_after - wns_before);
        w.key("tns_before");
        w.f64(tns_before);
        w.key("tns_after");
        w.f64(tns_after);
        w.key("delta_tns");
        w.f64(tns_after - tns_before);
        w.key("cells_propagated");
        w.u64(touched);
        if let Some(o) = &recal {
            w.key("recalibrate");
            Self::write_recal(&mut w, o);
        }
        w.end_obj();
        Ok(w.finish())
    }

    /// Updates session-level warm/cold counters after a recalibration,
    /// then records the fit.
    fn note_recalibration(&mut self, o: &RecalOutcome) {
        if o.mode == "warm" {
            self.recalib_warm += 1;
        } else {
            self.recalib_cold += 1;
        }
        self.record_fit(o);
    }

    /// Sets the degraded flag from a fit and appends its drift record. A
    /// fit that bottomed out at identity weights is raw GBA: the session
    /// keeps serving, but flagged as degraded until a later fit lands on
    /// a real stage.
    fn record_fit(&mut self, o: &RecalOutcome) {
        self.degraded = o.degraded;
        let (weights_nonzero, weights_total) = self.weight_counts();
        self.push_history(CalibrationRecord {
            fit_seq: 0,
            mode: o.mode,
            solver: o.solver_name.clone(),
            fallback: o.fallback_name,
            iterations: o.iterations,
            converged: o.converged,
            mse_before: o.mse_before,
            mse_after: o.mse_after,
            wns: o.wns,
            tns: o.tns,
            weights_nonzero,
            weights_total,
            commits_since_fit: 0,
        });
    }

    fn write_recal(w: &mut JsonWriter, o: &RecalOutcome) {
        w.begin_obj();
        w.key("mode");
        w.str(o.mode);
        w.key("solver");
        w.str(&o.solver_name);
        w.key("fallback_stage");
        w.str(o.fallback_name);
        w.key("dirty_rows");
        w.u64(o.dirty_rows);
        w.key("total_rows");
        w.u64(o.total_rows);
        w.key("iterations");
        w.u64(o.iterations);
        w.key("converged");
        w.bool(o.converged);
        w.key("mse_before");
        w.f64(o.mse_before);
        w.key("mse_after");
        w.f64(o.mse_after);
        w.key("wns");
        w.f64(o.wns);
        w.key("tns");
        w.f64(o.tns);
        w.end_obj();
    }

    fn recalibrate(&mut self, solver: Option<&str>, full: bool) -> Result<String, MgbaError> {
        let loaded = self.require_loaded()?;
        let Some(current) = loaded.solver else {
            return Err(usage("nothing calibrated yet (send `calibrate` first)"));
        };
        let solver = solver.map_or(Ok(current), Solver::parse)?;
        let o = loaded.refit(solver, full);
        self.note_recalibration(&o);
        let mut w = JsonWriter::new();
        Self::write_recal(&mut w, &o);
        Ok(w.finish())
    }

    /// Evaluates N candidate resizes in one request: each candidate is
    /// trial-applied, measured, and rolled back. On a calibrated session
    /// the monitored path set (the calibration's paths) is timed once at
    /// the base state; each candidate re-times only the rows its resize
    /// changed ([`Calibration::rows_reading`] of [`Sta::last_changed`])
    /// and takes the row-order minimum over those and the base slacks.
    /// Every other row's timing is bitwise unchanged, so the reply equals
    /// re-timing the whole set. The batch retimers keep it bit-identical
    /// at any thread count. Invalid candidates (unknown names, no such
    /// drive) become per-candidate `error` entries instead of failing the
    /// whole batch.
    fn whatif_batch(
        &mut self,
        resizes: &[(String, String)],
        pba: bool,
    ) -> Result<String, MgbaError> {
        let loaded = self.require_loaded()?;
        let par = parallel::global();
        // Split borrows: candidates mutate the engine (resize, measure,
        // roll back) while the monitored path set stays borrowed from
        // the calibration.
        let Loaded {
            sta, calibration, ..
        } = loaded;
        let calibration = calibration.as_ref();
        let slacks = |t: Vec<PathTiming>| t.iter().map(|t| t.slack).collect::<Vec<f64>>();
        let base = calibration.map(|c| {
            let gba = slacks(gba_path_timing_batch(sta, c.paths(), par));
            (
                gba,
                pba.then(|| slacks(pba_timing_batch(sta, c.paths(), par))),
            )
        });
        let wns0 = sta.wns();
        let tns0 = sta.tns();
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("count");
        w.u64(resizes.len() as u64);
        w.key("wns_base");
        w.f64(wns0);
        w.key("tns_base");
        w.f64(tns0);
        w.key("results");
        w.begin_arr();
        for (cell_name, to) in resizes {
            w.begin_obj();
            w.key("cell");
            w.str(cell_name);
            w.key("to");
            w.str(to);
            let resolved =
                Self::resolve_resize(sta, cell_name, to).and_then(|(cell, current, target)| {
                    if current == target {
                        Err(usage(format!("`{cell_name}` is already that size")))
                    } else {
                        Ok((cell, current, target))
                    }
                });
            // Per-candidate errors use the same `{code, message}` shape
            // as top-level protocol errors.
            let write_error = |w: &mut JsonWriter, e: &MgbaError| {
                w.key("error");
                w.begin_obj();
                w.key("code");
                w.str(crate::proto::error_kind(e));
                w.key("message");
                w.str(&e.to_string());
                w.end_obj();
            };
            let (cell, current, target) = match resolved {
                Ok(t) => t,
                Err(e) => {
                    write_error(&mut w, &e);
                    w.end_obj();
                    continue;
                }
            };
            if let Err(e) = sta.resize_cell(cell, target) {
                // Structural rejection happens before any mutation, so
                // the engine is untouched and the batch can continue.
                write_error(&mut w, &MgbaError::from(e));
                w.end_obj();
                continue;
            }
            w.key("from");
            w.str(&sta.netlist().library().cell(current).name);
            w.key("resolved_to");
            w.str(&sta.netlist().library().cell(target).name);
            let wns1 = sta.wns();
            let tns1 = sta.tns();
            w.key("wns");
            w.f64(wns1);
            w.key("delta_wns");
            w.f64(wns1 - wns0);
            w.key("tns");
            w.f64(tns1);
            w.key("delta_tns");
            w.f64(tns1 - tns0);
            if let (Some(c), Some((gba0, pba0))) = (calibration, &base) {
                let rows = c.rows_reading(sta.last_changed());
                let fresh = gba_path_timing_rows(sta, c.paths(), &rows, par);
                w.key("path_wns");
                w.f64(worst_slack(gba0, &rows, &fresh));
                if let Some(pba0) = pba0 {
                    let fresh = pba_timing_rows(sta, c.paths(), &rows, par);
                    w.key("path_pba_wns");
                    w.f64(worst_slack(pba0, &rows, &fresh));
                }
            }
            sta.resize_cell(cell, current)
                .map_err(|e| MgbaError::Solver {
                    solver: "whatif_batch".into(),
                    message: format!("rollback of `{cell_name}` failed: {e}"),
                })?;
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        Ok(w.finish())
    }

    /// `snapshot`: writes the session's durable state as checkpoint
    /// text ([`render_checkpoint`]), atomically.
    fn snapshot(&mut self, file: &str) -> Result<String, MgbaError> {
        let design = self.require_loaded()?.sta.netlist().name().to_owned();
        let state = self.durable_state();
        mgba::atomic_write_text(file, &render_checkpoint(&state, 0))?;
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("file");
        w.str(file);
        w.key("design");
        w.str(&design);
        w.key("weights_written");
        w.u64(state.design.map_or(0, |d| d.weights.len()) as u64);
        w.end_obj();
        Ok(w.finish())
    }

    /// `restore`: rebuilds the design a `snapshot` file holds. Only the
    /// design is replaced; the history ring and counters stay the
    /// session's own.
    fn restore(&mut self, file: &str) -> Result<String, MgbaError> {
        let text = std::fs::read_to_string(file).map_err(|e| MgbaError::io(file, e))?;
        let (state, _) = parse_checkpoint(&text)?;
        let design = state
            .design
            .ok_or_else(|| bad(format!("`{file}` holds no loaded design")))?;
        let loaded = Self::rebuild(&design)?;
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("design");
        w.str(loaded.sta.netlist().name());
        w.key("period");
        w.f64(loaded.sta.sdc().clock_period);
        w.key("weights_applied");
        w.u64(design.weights.len() as u64);
        w.key("calibrated");
        match loaded.solver {
            Some(s) => w.str(s.paper_name()),
            None => w.null(),
        }
        w.key("wns");
        w.f64(loaded.sta.wns());
        w.key("tns");
        w.f64(loaded.sta.tns());
        w.end_obj();
        self.loaded = Some(loaded);
        // Like `load`: an explicit restore sets a new client-chosen
        // baseline, clearing any fault degradation.
        self.degraded = false;
        Ok(w.finish())
    }

    /// Captures the design half of the durable state: spec, period,
    /// committed resizes, and the nonzero fitted weights by cell name.
    fn design_state(l: &Loaded) -> DesignState {
        let weights = (0..l.sta.netlist().num_cells())
            .map(CellId::new)
            .filter_map(|id| {
                let w = l.sta.gate_weight(id);
                (w != 0.0).then(|| (l.sta.netlist().cell(id).name.clone(), w))
            })
            .collect();
        DesignState {
            spec: l.spec.clone(),
            period: l.sta.sdc().clock_period,
            solver: l.solver,
            resizes: l.resizes.clone(),
            weights,
        }
    }

    /// Rebuilds a [`Loaded`], bit-exact but without warm-refit state:
    /// reload the design, replay committed resizes, reapply fitted
    /// weights, and keep the solver (later cold refits inherit it). A
    /// name the design lacks is a `parse` error.
    fn rebuild(d: &DesignState) -> Result<Loaded, MgbaError> {
        let netlist = mgba::load_design_or_file(&d.spec)?;
        let mut sta = mgba::build_engine(netlist, d.period)?;
        let unknown = |name: &str| MgbaError::from(mgba::WeightsError::UnknownCell(name.into()));
        for (cell, to) in &d.resizes {
            let id = sta.netlist().find_cell(cell).ok_or_else(|| unknown(cell))?;
            let target = sta
                .netlist()
                .library()
                .find(to)
                .ok_or_else(|| unknown(to))?;
            sta.resize_cell(id, target)?;
        }
        if !d.weights.is_empty() {
            let dense = mgba::apply_weights(sta.netlist(), &d.weights)?;
            sta.set_weights(&dense);
        }
        Ok(Loaded {
            spec: d.spec.clone(),
            sta,
            solver: d.solver,
            calibration: None,
            resizes: d.resizes.clone(),
        })
    }

    /// Captures the design plus the session-level counters and the
    /// drift-history ring. The slow-query ring is process telemetry and
    /// deliberately excluded (`DESIGN.md` §16.6).
    fn durable_state(&self) -> DurableState {
        DurableState {
            design: self.loaded.as_ref().map(Self::design_state),
            degraded: self.degraded,
            recalib_warm: self.recalib_warm,
            recalib_cold: self.recalib_cold,
            fits_total: self.fits_total,
            commits_since_fit: self.commits_since_fit,
            history: self.history.iter().cloned().collect(),
            history_evicted: self.history_evicted,
        }
    }
}

/// A session's durable state: what a journal anchor, an on-disk
/// checkpoint and a `snapshot` file hold. See `DESIGN.md` §16 for where
/// anchors sit relative to the journal tail.
#[derive(Default)]
pub(crate) struct DurableState {
    /// `None` = no design loaded.
    design: Option<DesignState>,
    degraded: bool,
    recalib_warm: u64,
    recalib_cold: u64,
    fits_total: u64,
    commits_since_fit: u64,
    /// Drift-history ring, oldest first.
    history: Vec<CalibrationRecord>,
    history_evicted: u64,
}

/// True for state-changing commands that *read* the warm calibration
/// cache, which anchors cannot capture: replaying them from a rebuilt,
/// cache-less anchor would not reproduce their bytes.
fn reads_warm_cache(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::Commit { full: false, .. } | Command::Recalibrate { full: false, .. }
    )
}

/// One session's journal, kept by its writer lane with or without
/// `--state-dir` (which mirrors it to disk): a [`DurableState`] anchor
/// plus the state-changing commands acknowledged since it, as the client
/// sent them. Rebuilding the anchor and replaying the tail ([`replay`])
/// reproduces the live session bit-for-bit, because the anchor never
/// sits inside a warm chain: a command that does not read an armed cache
/// ([`reads_warm_cache`]) promotes its own pre-state to the anchor and
/// restarts the tail. `load` and `restore` replace the design and leave
/// no cache, so their post-state is the anchor, with an empty tail:
/// replay never re-reads their file (`DESIGN.md` §16.2).
#[derive(Default)]
pub(crate) struct Journal {
    /// Replay base: the durable state preceding `tail[0]`.
    pub(crate) anchor: DurableState,
    /// Mutations folded into `anchor` (monotonic across restarts).
    pub(crate) anchor_seq: u64,
    /// State-changing commands acknowledged since `anchor`.
    pub(crate) tail: Vec<Command>,
}

impl Journal {
    /// A journal whose anchor folds `anchor_seq` mutations.
    pub(crate) fn new(anchor: DurableState, anchor_seq: u64) -> Self {
        Self {
            anchor,
            anchor_seq,
            tail: Vec::new(),
        }
    }

    /// Mutations acknowledged over the session's lifetime.
    pub(crate) fn seq(&self) -> u64 {
        self.anchor_seq + self.tail.len() as u64
    }

    /// Runs `exec` — the lane's confinement of the client's `cmd` — on
    /// `session`, and journals `cmd` when it changed state. Live traffic
    /// and [`replay`] both come through here, so they fold the anchor
    /// identically.
    ///
    /// # Errors
    ///
    /// The command's own error; nothing is journaled then.
    pub(crate) fn execute(
        &mut self,
        session: &mut Session,
        cmd: &Command,
        exec: &Command,
    ) -> Result<String, MgbaError> {
        if !cmd.is_state_changing() {
            return session.handle(exec);
        }
        let replaces_design = matches!(cmd, Command::Load { .. } | Command::Restore { .. });
        let promotes = !(replaces_design || (session.cache_armed() && reads_warm_cache(cmd)));
        let pre_state = promotes.then(|| session.durable_state());
        let result = session.handle(exec)?;
        if replaces_design {
            *self = Journal::new(session.durable_state(), self.seq() + 1);
            return Ok(result);
        }
        if let Some(anchor) = pre_state {
            self.anchor_seq = self.seq();
            self.anchor = anchor;
            self.tail.clear();
        }
        self.tail.push(cmd.clone());
        Ok(result)
    }

    /// Panic recovery: replaces `session`'s possibly half-mutated state
    /// with the journal's, rebuilt by [`replay`] like startup recovery.
    /// The slow-query ring and the durability-loss flag carry over. The
    /// session keeps the replayed `degraded` flag and is degraded also
    /// when replay stopped short or the recovered design has no
    /// calibration; if even the anchor does not rebuild, it serves empty
    /// and degraded, re-anchored on that. Returns why replay stopped
    /// short, if it did.
    pub(crate) fn recover(
        &mut self,
        session: &mut Session,
        state_dir: Option<&std::path::Path>,
    ) -> Option<String> {
        let seq = self.seq();
        let tail = std::mem::take(&mut self.tail);
        match replay(self, tail, state_dir) {
            Ok((rebuilt, stopped)) => {
                let old = std::mem::replace(session, rebuilt);
                session.slowlog = old.slowlog;
                session.slow_dropped = old.slow_dropped;
                session.durability_lost = old.durability_lost;
                session.degraded |= stopped.is_some()
                    || session.loaded.as_ref().is_some_and(|l| l.solver.is_none());
                obs::counter_add("server.session.restored", 1);
                stopped
            }
            Err(e) => {
                // Catastrophic: even the anchor will not rebuild (e.g.
                // its netlist file vanished). Serve an empty, explicitly
                // degraded session rather than crash.
                session.loaded = None;
                session.degraded = true;
                *self = Journal::new(session.durable_state(), seq);
                obs::counter_add("server.session.restore_failed", 1);
                eprintln!("mgba-server: session restore failed: {e}");
                Some(format!("anchor does not rebuild: {e}"))
            }
        }
    }
}

/// The one replay routine, shared by startup and panic recovery: it
/// rebuilds `journal`'s anchor as a fresh session and runs `cmds` on it
/// through [`Journal::execute`], re-applying `--state-dir` confinement,
/// without the `server.handle` chaos hook, each under `catch_unwind`. It
/// stops at the first command that errors or panics and says why; the
/// session then holds exactly the replayed prefix (rebuilt once more
/// after a panic). Errors when the anchor does not rebuild.
pub(crate) fn replay(
    journal: &mut Journal,
    cmds: Vec<Command>,
    state_dir: Option<&std::path::Path>,
) -> Result<(Session, Option<String>), MgbaError> {
    let d = &journal.anchor;
    let mut session = Session {
        loaded: d.design.as_ref().map(Session::rebuild).transpose()?,
        degraded: d.degraded,
        recalib_warm: d.recalib_warm,
        recalib_cold: d.recalib_cold,
        history: d.history.iter().cloned().collect(),
        history_evicted: d.history_evicted,
        fits_total: d.fits_total,
        commits_since_fit: d.commits_since_fit,
        ..Session::default()
    };
    for cmd in cmds {
        let exec = match confine_command(state_dir, &cmd) {
            Ok(exec) => exec,
            Err(msg) => return Ok((session, Some(format!("unconfinable command: {msg}")))),
        };
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            journal.execute(&mut session, &cmd, exec.as_ref().unwrap_or(&cmd))
        }));
        let why = match ran {
            Ok(Ok(_)) => continue,
            Ok(Err(e)) => return Ok((session, Some(format!("`{}` failed: {e}", cmd.name())))),
            Err(payload) => format!(
                "`{}` panicked: {}",
                cmd.name(),
                crate::registry::panic_message(payload.as_ref())
            ),
        };
        let prefix = std::mem::take(&mut journal.tail);
        let (session, _) = replay(journal, prefix, state_dir)?;
        return Ok((session, Some(why)));
    }
    Ok((session, None))
}

/// Rewrites the file argument of `snapshot`/`restore` under `state_dir`
/// (`--state-dir`), the server's whole file surface then: absolute paths
/// and any non-plain component (`..`, `.`) are rejected. `Ok(None)`:
/// execute the command as sent — no state dir, or no path to confine.
pub(crate) fn confine_command(
    state_dir: Option<&std::path::Path>,
    cmd: &Command,
) -> Result<Option<Command>, String> {
    let (Some(dir), Command::Snapshot { file } | Command::Restore { file }) = (state_dir, cmd)
    else {
        return Ok(None);
    };
    let p = std::path::Path::new(file);
    if p.is_absolute()
        || p.components()
            .any(|c| !matches!(c, std::path::Component::Normal(_)))
    {
        return Err(format!(
            "path `{file}` escapes the state dir (absolute paths and `..`/`.` components \
             are rejected while `--state-dir` is set)"
        ));
    }
    let file = dir.join(p).to_string_lossy().into_owned();
    Ok(Some(match cmd {
        Command::Snapshot { .. } => Command::Snapshot { file },
        _ => Command::Restore { file },
    }))
}

/// Renders a durable state as the checkpoint text format, shared by
/// on-disk `.ckpt` files and `snapshot` files:
///
/// ```text
/// # mgba ckpt v1
/// seq <records folded into this anchor; 0 in snapshot files>
/// degraded <0|1>
/// counters <warm> <cold> <fits> <commits_since_fit> <evicted>
/// history <count>
/// <one JSON object per record, `history` response element shape>
/// loaded <0|1>
/// spec <design spec or netlist path>
/// period <f64, shortest round-trip>
/// calibrated <solver name or ->
/// resizes <count>
/// <cell name>\t<library cell>
/// weights <count>
/// <cell name>\t<f64, shortest round-trip>
/// ```
///
/// Floats use `{:?}` (shortest exact round-trip) and names are
/// tab-separated, so parse → render is byte-stable and recovery is
/// bit-exact. Written via `atomic_write_text` (tmp + fsync + rename):
/// a crash mid-write leaves the previous file intact.
pub(crate) fn render_checkpoint(d: &DurableState, seq: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# mgba ckpt v1");
    let _ = writeln!(out, "seq {seq}");
    let _ = writeln!(out, "degraded {}", u8::from(d.degraded));
    let _ = writeln!(
        out,
        "counters {} {} {} {} {}",
        d.recalib_warm, d.recalib_cold, d.fits_total, d.commits_since_fit, d.history_evicted
    );
    let _ = writeln!(out, "history {}", d.history.len());
    for r in &d.history {
        let mut w = JsonWriter::new();
        write_history_record(&mut w, r);
        let _ = writeln!(out, "{}", w.finish());
    }
    match &d.design {
        None => {
            let _ = writeln!(out, "loaded 0");
        }
        Some(s) => {
            let _ = writeln!(out, "loaded 1");
            let _ = writeln!(out, "spec {}", s.spec);
            let _ = writeln!(out, "period {:?}", s.period);
            let _ = writeln!(
                out,
                "calibrated {}",
                s.solver.map_or("-", Solver::paper_name)
            );
            let _ = writeln!(out, "resizes {}", s.resizes.len());
            for (cell, to) in &s.resizes {
                let _ = writeln!(out, "{cell}\t{to}");
            }
            let _ = writeln!(out, "weights {}", s.weights.len());
            for (cell, w) in &s.weights {
                let _ = writeln!(out, "{cell}\t{w:?}");
            }
        }
    }
    out
}

/// The `parse` error a malformed checkpoint or snapshot file gets.
fn bad(reason: String) -> MgbaError {
    MgbaError::from(mgba::WeightsError::Malformed {
        line: 0,
        reason: format!("corrupt checkpoint: {reason}"),
    })
}

/// Parses checkpoint text back into a durable state plus its `seq`.
/// Any malformation — a file in the retired snapshot format included —
/// is a `parse` error: a corrupt file must be refused loudly, never
/// panic or restore a half-read state.
pub(crate) fn parse_checkpoint(text: &str) -> Result<(DurableState, u64), MgbaError> {
    fn next_field(lines: &mut std::str::Lines<'_>, key: &str) -> Result<String, MgbaError> {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("truncated before `{key}`")))?;
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .map(str::to_owned)
            .ok_or_else(|| bad(format!("expected `{key} ...`, got `{line}`")))
    }
    let mut lines = text.lines();
    if lines.next() != Some("# mgba ckpt v1") {
        return Err(bad("missing `# mgba ckpt v1` header".into()));
    }
    let seq: u64 = next_field(&mut lines, "seq")?
        .parse()
        .map_err(|_| bad("bad `seq`".into()))?;
    let degraded = match next_field(&mut lines, "degraded")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(bad(format!("bad `degraded` value `{other}`"))),
    };
    let counters = next_field(&mut lines, "counters")?;
    let mut it = counters.split(' ').map(str::parse::<u64>);
    let mut next_counter = || -> Result<u64, MgbaError> {
        it.next()
            .and_then(Result::ok)
            .ok_or_else(|| bad("bad `counters` line".into()))
    };
    let recalib_warm = next_counter()?;
    let recalib_cold = next_counter()?;
    let fits_total = next_counter()?;
    let commits_since_fit = next_counter()?;
    let history_evicted = next_counter()?;
    let n_history: usize = next_field(&mut lines, "history")?
        .parse()
        .map_err(|_| bad("bad `history` count".into()))?;
    let mut history = Vec::with_capacity(n_history.min(HISTORY_CAP));
    for i in 0..n_history {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("truncated in history record {i}")))?;
        history.push(parse_history_record(line).map_err(|e| bad(format!("record {i}: {e}")))?);
    }
    let design = match next_field(&mut lines, "loaded")?.as_str() {
        "0" => None,
        "1" => {
            let spec = next_field(&mut lines, "spec")?;
            let period: f64 = next_field(&mut lines, "period")?
                .parse()
                .ok()
                .filter(|p: &f64| *p > 0.0 && p.is_finite())
                .ok_or_else(|| bad("bad `period`".into()))?;
            let solver = match next_field(&mut lines, "calibrated")?.as_str() {
                "-" => None,
                name => Some(
                    Solver::from_paper_name(name)
                        .ok_or_else(|| bad(format!("unknown solver `{name}`")))?,
                ),
            };
            let n_resizes: usize = next_field(&mut lines, "resizes")?
                .parse()
                .map_err(|_| bad("bad `resizes` count".into()))?;
            let mut resizes = Vec::with_capacity(n_resizes.min(1 << 16));
            for i in 0..n_resizes {
                let line = lines
                    .next()
                    .ok_or_else(|| bad(format!("truncated in resize {i}")))?;
                let (cell, to) = line
                    .split_once('\t')
                    .ok_or_else(|| bad(format!("resize {i}: expected `cell\\tlib`")))?;
                resizes.push((cell.to_owned(), to.to_owned()));
            }
            let n_weights: usize = next_field(&mut lines, "weights")?
                .parse()
                .map_err(|_| bad("bad `weights` count".into()))?;
            let mut weights = Vec::with_capacity(n_weights.min(1 << 20));
            for i in 0..n_weights {
                let line = lines
                    .next()
                    .ok_or_else(|| bad(format!("truncated in weight {i}")))?;
                let (cell, w) = line
                    .split_once('\t')
                    .ok_or_else(|| bad(format!("weight {i}: expected `cell\\tvalue`")))?;
                let w: f64 = w
                    .parse()
                    .ok()
                    .filter(|w: &f64| w.is_finite())
                    .ok_or_else(|| bad(format!("weight {i}: bad value `{w}`")))?;
                weights.push((cell.to_owned(), w));
            }
            Some(DesignState {
                spec,
                period,
                solver,
                resizes,
                weights,
            })
        }
        other => return Err(bad(format!("bad `loaded` value `{other}`"))),
    };
    Ok((
        DurableState {
            design,
            degraded,
            recalib_warm,
            recalib_cold,
            fits_total,
            commits_since_fit,
            history,
            history_evicted,
        },
        seq,
    ))
}

/// Parses one checkpoint history line (the `history` response element
/// shape) back into a [`CalibrationRecord`].
fn parse_history_record(line: &str) -> Result<CalibrationRecord, String> {
    use FallbackStage::{Cgnr, Gd, Identity, Primary};
    let v = crate::json::parse(line).map_err(|e| e.to_string())?;
    let u = |key: &str| {
        v.get(key)
            .and_then(crate::json::Value::as_u64)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    let f = |key: &str| {
        v.get(key)
            .and_then(crate::json::Value::as_f64)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    let s = |key: &str| {
        v.get(key)
            .and_then(crate::json::Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    let mode = match s("mode")?.as_str() {
        "warm" => "warm",
        "cold" => "cold",
        other => return Err(format!("bad mode `{other}`")),
    };
    // Map the stored stage back onto the fit layer's static name.
    let stage = s("fallback_stage")?;
    let fallback = [Primary, Cgnr, Gd, Identity]
        .into_iter()
        .map(FallbackStage::name)
        .find(|name| *name == stage)
        .ok_or_else(|| format!("bad fallback_stage `{stage}`"))?;
    let converged = match v.get("converged") {
        Some(crate::json::Value::Bool(b)) => *b,
        _ => return Err("missing `converged`".into()),
    };
    Ok(CalibrationRecord {
        fit_seq: u("fit")?,
        mode,
        solver: s("solver")?,
        fallback,
        iterations: u("iterations")?,
        converged,
        mse_before: f("mse_before")?,
        mse_after: f("mse_after")?,
        wns: f("wns")?,
        tns: f("tns")?,
        weights_nonzero: u("weights_nonzero")?,
        weights_total: u("weights_total")?,
        commits_since_fit: u("commits_since_fit")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use sta::Path;

    fn handle(s: &mut Session, line: &str) -> Result<String, MgbaError> {
        let req = crate::proto::parse_request(line)
            .map_err(|(_, e)| e)
            .unwrap();
        s.handle(&req.cmd)
    }

    fn obj(json: &str) -> Value {
        parse(json).unwrap()
    }

    #[test]
    fn queries_before_load_are_usage_errors() {
        let mut s = Session::new();
        for cmd in [
            r#"{"cmd":"wns"}"#,
            r#"{"cmd":"calibrate"}"#,
            r#"{"cmd":"slack"}"#,
            r#"{"cmd":"snapshot","file":"x"}"#,
        ] {
            assert!(
                matches!(handle(&mut s, cmd), Err(MgbaError::Usage(_))),
                "{cmd}"
            );
        }
        // The session still works afterwards.
        assert!(handle(&mut s, r#"{"cmd":"ping"}"#).is_ok());
    }

    #[test]
    fn load_then_query_then_whatif_roundtrip() {
        let mut s = Session::new();
        let r = obj(&handle(&mut s, r#"{"cmd":"load","design":"small:7"}"#).unwrap());
        assert!(r.get("cells").and_then(Value::as_u64).unwrap() > 0);
        let wns0 = r.get("wns").and_then(Value::as_f64).unwrap();
        assert!(wns0 < 0.0, "auto period must leave violations");

        // Worst path names a mid-path combinational cell we can resize.
        let p = obj(&handle(&mut s, r#"{"cmd":"path","pba":true}"#).unwrap());
        let cells: Vec<String> = match p.get("cells").unwrap() {
            Value::Arr(a) => a.iter().map(|v| v.as_str().unwrap().to_owned()).collect(),
            other => panic!("{other:?}"),
        };
        assert!(cells.len() >= 3);
        assert!(
            p.get("pba_slack").and_then(Value::as_f64).unwrap()
                >= p.get("slack").and_then(Value::as_f64).unwrap()
        );

        let mid = &cells[cells.len() / 2];
        let whatif = format!(r#"{{"cmd":"whatif_resize","cell":"{mid}","to":"up"}}"#);
        match handle(&mut s, &whatif) {
            Ok(resp) => {
                let r = obj(&resp);
                assert_eq!(r.get("committed"), Some(&Value::Bool(false)));
                // Rolled back: engine timing is unchanged.
                let now = obj(&handle(&mut s, r#"{"cmd":"wns"}"#).unwrap());
                let wns1 = now.get("wns").and_then(Value::as_f64).unwrap();
                assert!((wns1 - wns0).abs() < 1e-6, "{wns0} vs {wns1}");
            }
            // Mid-path cell may be a flip-flop or at max drive — the
            // error path is equally valid for this seed.
            Err(MgbaError::Usage(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    /// A design with no timed endpoint has no period to derive; with an
    /// explicit one it snapshots and restores like any other.
    #[test]
    fn underivable_period_is_refused_and_explicit_one_restores() {
        let dir = std::env::temp_dir().join(format!(
            "mgba_server_session_test_{}_tiny",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (design, snap) = (dir.join("tiny.nl"), dir.join("tiny.mgba"));
        let tiny = "design tiny\nlibrary std45\ncell a IN_PORT input 0 0\n";
        std::fs::write(&design, tiny).unwrap();
        let (design, snap) = (design.to_str().unwrap(), snap.to_str().unwrap());

        let mut s = Session::new();
        let load = format!(r#"{{"cmd":"load","design":"{design}"}}"#);
        let err = handle(&mut s, &load).unwrap_err();
        assert!(matches!(err, MgbaError::Usage(_)), "{err}");
        let load = format!(r#"{{"cmd":"load","design":"{design}","period":900}}"#);
        handle(&mut s, &load).unwrap();
        handle(&mut s, &format!(r#"{{"cmd":"snapshot","file":"{snap}"}}"#)).unwrap();
        let restore = format!(r#"{{"cmd":"restore","file":"{snap}"}}"#);
        let r = obj(&handle(&mut Session::new(), &restore).unwrap());
        assert_eq!(r.get("period").and_then(Value::as_f64), Some(900.0));
    }

    #[test]
    fn calibrate_improves_and_snapshot_restores() {
        let dir = std::env::temp_dir().join(format!(
            "mgba_server_session_test_{}_snapshot",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("s.mgba");
        let snap_str = snap.to_str().unwrap();

        let mut s = Session::new();
        handle(&mut s, r#"{"cmd":"load","design":"small:11","period":-1}"#).unwrap_err();
        handle(&mut s, r#"{"cmd":"load","design":"small:11"}"#).unwrap();
        let c = obj(&handle(&mut s, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap());
        assert!(c.get("paths").and_then(Value::as_u64).unwrap() > 0);
        let mse_b = c.get("mse_before").and_then(Value::as_f64).unwrap();
        let mse_a = c.get("mse_after").and_then(Value::as_f64).unwrap();
        assert!(mse_a < mse_b);
        let wns = obj(&handle(&mut s, r#"{"cmd":"wns"}"#).unwrap());
        let wns_cal = wns.get("wns").and_then(Value::as_f64).unwrap();

        let snap_req = format!(r#"{{"cmd":"snapshot","file":"{snap_str}"}}"#);
        let sn = obj(&handle(&mut s, &snap_req).unwrap());
        assert!(sn.get("weights_written").and_then(Value::as_u64).unwrap() > 0);

        // A fresh session restores to the identical corrected timing.
        let mut s2 = Session::new();
        let restore_req = format!(r#"{{"cmd":"restore","file":"{snap_str}"}}"#);
        let r = obj(&handle(&mut s2, &restore_req).unwrap());
        assert_eq!(r.get("wns").and_then(Value::as_f64), Some(wns_cal));
        assert_eq!(
            r.get("calibrated").and_then(Value::as_str),
            Some("CGNR (reference)")
        );
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let dir = std::env::temp_dir().join(format!(
            "mgba_server_session_test_{}_malformed",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = Session::new();
        let head = "# mgba ckpt v1\nseq 0\ndegraded 0\ncounters 0 0 0 0 0\nhistory 0\n";
        let design = format!("{head}loaded 1\nspec small:1\nperiod 900.0\ncalibrated -\n");
        let ckpt_defects = [
            (
                "ckpt_badperiod.mgba",
                format!("{head}loaded 1\nspec small:1\nperiod zzz\n"),
            ),
            (
                "ckpt_truncweights.mgba",
                format!("{design}resizes 0\nweights 2\ng_1_0_0\t0.5\n"),
            ),
            (
                "ckpt_unknowncell.mgba",
                format!("{design}resizes 0\nweights 1\nno_such_cell\t0.5\n"),
            ),
            ("ckpt_nodesign.mgba", format!("{head}loaded 0\n")),
            (
                "ckpt_badsolver.mgba",
                format!("{head}loaded 1\nspec small:1\nperiod 900.0\ncalibrated bogus\nresizes 0\nweights 0\n"),
            ),
        ];
        // Files in the retired snapshot format now fail at the header.
        for (name, content) in [
            ("empty.mgba", ""),
            ("notsnap.mgba", "hello\n"),
            ("nospec.mgba", "# mgba snapshot v1 design=x\nperiod 900\n"),
            (
                "badperiod.mgba",
                "# mgba snapshot v1 design=x\nspec small:1\nperiod zzz\n",
            ),
            (
                "badweights.mgba",
                "# mgba snapshot v1 design=x\nspec small:1\nperiod 900.0\nweights\nnot_a_pair\n",
            ),
        ]
        .into_iter()
        .chain(ckpt_defects.iter().map(|(n, c)| (*n, c.as_str())))
        {
            let p = dir.join(name);
            std::fs::write(&p, content).unwrap();
            let req = format!(r#"{{"cmd":"restore","file":"{}"}}"#, p.to_str().unwrap());
            let e = handle(&mut s, &req).unwrap_err();
            assert!(matches!(e, MgbaError::Parse(_)), "{name}: {e}");
        }
        // Missing file is an I/O error, not a panic.
        let e = handle(&mut s, r#"{"cmd":"restore","file":"/nonexistent/s.mgba"}"#).unwrap_err();
        assert!(matches!(e, MgbaError::Io { .. }));
    }

    #[test]
    fn restore_keeps_committed_resizes() {
        let (mut live, cells) = calibrated_session("small:11");
        let mut commits = 0;
        for name in &cells {
            let req = format!(r#"{{"cmd":"commit","cell":"{name}","to":"up"}}"#);
            commits += usize::from(handle(&mut live, &req).is_ok());
        }
        assert!(commits >= 2, "only {commits} upsizes committed");
        let file = std::env::temp_dir().join(format!(
            "mgba_server_session_resized_{}.mgba",
            std::process::id()
        ));
        let file = file.to_str().unwrap();
        handle(
            &mut live,
            &format!(r#"{{"cmd":"snapshot","file":"{file}"}}"#),
        )
        .unwrap();
        let mut restored = Session::new();
        handle(
            &mut restored,
            &format!(r#"{{"cmd":"restore","file":"{file}"}}"#),
        )
        .unwrap();
        for query in [
            r#"{"cmd":"wns"}"#,
            r#"{"cmd":"tns"}"#,
            r#"{"cmd":"slack","top":10}"#,
        ] {
            assert_eq!(
                handle(&mut restored, query).unwrap(),
                handle(&mut live, query).unwrap(),
                "{query}"
            );
        }
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn history_records_take_only_known_fallback_stages() {
        let record = CalibrationRecord {
            fit_seq: 3,
            mode: "warm",
            solver: "SCG+RS".into(),
            fallback: FallbackStage::Gd.name(),
            iterations: 40,
            converged: true,
            mse_before: 2.5,
            mse_after: 0.25,
            wns: -12.0,
            tns: -80.5,
            weights_nonzero: 7,
            weights_total: 90,
            commits_since_fit: 2,
        };
        let mut w = JsonWriter::new();
        write_history_record(&mut w, &record);
        let line = w.finish();
        assert_eq!(parse_history_record(&line), Ok(record));
        for stage in ["none", "bogus"] {
            let line = line.replace(r#""gd""#, &format!(r#""{stage}""#));
            let e = parse_history_record(&line).unwrap_err();
            assert!(e.contains("fallback_stage"), "{stage}: {e}");
        }
    }

    #[test]
    fn commit_changes_timing_state() {
        let mut s = Session::new();
        handle(&mut s, r#"{"cmd":"load","design":"small:13"}"#).unwrap();
        let p = obj(&handle(&mut s, r#"{"cmd":"path"}"#).unwrap());
        let cells: Vec<String> = match p.get("cells").unwrap() {
            Value::Arr(a) => a.iter().map(|v| v.as_str().unwrap().to_owned()).collect(),
            other => panic!("{other:?}"),
        };
        // Find a resizable cell along the path.
        for name in &cells {
            let req = format!(r#"{{"cmd":"commit","cell":"{name}","to":"up"}}"#);
            if let Ok(resp) = handle(&mut s, &req) {
                let r = obj(&resp);
                assert_eq!(r.get("committed"), Some(&Value::Bool(true)));
                let d = r.get("delta_wns").and_then(Value::as_f64).unwrap();
                let wns_b = r.get("wns_before").and_then(Value::as_f64).unwrap();
                let wns_a = r.get("wns_after").and_then(Value::as_f64).unwrap();
                assert!((wns_a - wns_b - d).abs() < 1e-9);
                // Incremental, not full, update served the commit.
                assert!(s.gauges().unwrap().incremental_updates > 0);
                return;
            }
        }
        panic!("no resizable cell on the worst path");
    }

    fn wns_of(s: &mut Session) -> f64 {
        obj(&handle(s, r#"{"cmd":"wns"}"#).unwrap())
            .get("wns")
            .and_then(Value::as_f64)
            .unwrap()
    }

    /// Runs `line` the way the writer lane does: through the journal.
    fn journaled(s: &mut Session, j: &mut Journal, line: &str) -> Result<String, MgbaError> {
        let req = crate::proto::parse_request(line)
            .map_err(|(_, e)| e)
            .unwrap();
        j.execute(s, &req.cmd, &req.cmd)
    }

    #[test]
    fn recover_restores_calibrated_state_bit_for_bit() {
        let (mut s, mut j) = (Session::new(), Journal::default());
        journaled(&mut s, &mut j, r#"{"cmd":"load","design":"small:11"}"#).unwrap();
        journaled(&mut s, &mut j, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap();
        let wns_cal = wns_of(&mut s);
        // Simulate the worker catching a panic mid-request: the engine
        // is discarded and rebuilt from the journal.
        assert_eq!(j.recover(&mut s, None), None);
        assert!(!s.is_degraded(), "full checkpoint restores calibration");
        assert_eq!(wns_of(&mut s).to_bits(), wns_cal.to_bits());
    }

    #[test]
    fn recover_without_calibration_is_degraded_until_recalibrated() {
        let (mut s, mut j) = (Session::new(), Journal::default());
        journaled(&mut s, &mut j, r#"{"cmd":"load","design":"small:7"}"#).unwrap();
        let wns0 = wns_of(&mut s);
        j.recover(&mut s, None);
        assert!(s.is_degraded(), "post-fault uncalibrated state is degraded");
        // Still serving — raw GBA answers, identical to the pre-fault load.
        assert_eq!(wns_of(&mut s).to_bits(), wns0.to_bits());
        handle(&mut s, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap();
        assert!(!s.is_degraded(), "successful calibrate clears degradation");
    }

    #[test]
    fn recover_with_no_checkpoint_serves_empty_session() {
        let (mut s, mut j) = (Session::new(), Journal::default());
        j.recover(&mut s, None);
        assert!(!s.is_degraded(), "empty state is fully restored");
        assert!(matches!(
            handle(&mut s, r#"{"cmd":"wns"}"#),
            Err(MgbaError::Usage(_))
        ));
        assert!(handle(&mut s, r#"{"cmd":"ping"}"#).is_ok());
    }

    #[test]
    fn recover_replays_committed_resizes() {
        let (mut s, mut j) = (Session::new(), Journal::default());
        journaled(&mut s, &mut j, r#"{"cmd":"load","design":"small:13"}"#).unwrap();
        let p = obj(&handle(&mut s, r#"{"cmd":"path"}"#).unwrap());
        let cells: Vec<String> = match p.get("cells").unwrap() {
            Value::Arr(a) => a.iter().map(|v| v.as_str().unwrap().to_owned()).collect(),
            other => panic!("{other:?}"),
        };
        let mut committed = false;
        for name in &cells {
            let req = format!(r#"{{"cmd":"commit","cell":"{name}","to":"up"}}"#);
            if journaled(&mut s, &mut j, &req).is_ok() {
                committed = true;
                break;
            }
        }
        assert!(committed, "no resizable cell on the worst path");
        let wns_after_commit = wns_of(&mut s);
        j.recover(&mut s, None);
        assert_eq!(
            wns_of(&mut s).to_bits(),
            wns_after_commit.to_bits(),
            "recovery must replay the committed resize"
        );
    }

    /// A scratch file path unique to this test process.
    fn scratch_file(name: &str) -> String {
        let dir = std::env::temp_dir().join("mgba_server_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_{name}", std::process::id()));
        path.to_str().unwrap().to_owned()
    }

    #[test]
    fn recover_serves_the_replayed_prefix_degraded_when_replay_fails() {
        let (mut s, mut j) = (Session::new(), Journal::default());
        journaled(&mut s, &mut j, r#"{"cmd":"load","design":"small:7"}"#).unwrap();
        let wns_loaded = wns_of(&mut s);
        // A tail `restore` whose file is gone, as a WAL can hold one.
        j.tail.push(Command::Restore {
            file: scratch_file("replay_fails.mgba"),
        });
        let why = j
            .recover(&mut s, None)
            .expect("replay stops at the restore");
        assert!(why.contains("`restore` failed"), "{why}");
        assert!(s.is_degraded());
        assert_eq!(wns_of(&mut s).to_bits(), wns_loaded.to_bits());
        // The journal now holds exactly the served prefix.
        assert_eq!(j.recover(&mut s, None), None);
        assert_eq!(wns_of(&mut s).to_bits(), wns_loaded.to_bits());
    }

    #[test]
    fn recover_after_restore_does_not_reread_the_file() {
        let (mut s, mut j) = (Session::new(), Journal::default());
        let snap = scratch_file("restored_then_removed.mgba");
        journaled(&mut s, &mut j, r#"{"cmd":"load","design":"small:11"}"#).unwrap();
        journaled(&mut s, &mut j, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap();
        handle(&mut s, &format!(r#"{{"cmd":"snapshot","file":"{snap}"}}"#)).unwrap();
        let restore = format!(r#"{{"cmd":"restore","file":"{snap}"}}"#);
        journaled(&mut s, &mut j, &restore).unwrap();
        let wns_restored = wns_of(&mut s);
        // `restore` anchors on its post-state, so the file is not needed.
        std::fs::remove_file(&snap).unwrap();
        assert_eq!(j.recover(&mut s, None), None);
        assert!(!s.is_degraded());
        assert_eq!(wns_of(&mut s).to_bits(), wns_restored.to_bits());
    }

    #[test]
    fn recover_keeps_the_calibrated_solver() {
        // Cold refits that inherit the session's solver (`commit` with
        // `full`) must replay with CGNR, not the SCG+RS default.
        let (mut s, mut j) = (Session::new(), Journal::default());
        journaled(&mut s, &mut j, r#"{"cmd":"load","design":"small:11"}"#).unwrap();
        journaled(&mut s, &mut j, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap();
        let p = obj(&handle(&mut s, r#"{"cmd":"path"}"#).unwrap());
        let cells: Vec<String> = match p.get("cells").unwrap() {
            Value::Arr(a) => a.iter().map(|v| v.as_str().unwrap().to_owned()).collect(),
            other => panic!("{other:?}"),
        };
        let victim = resizable_cell(&mut s, &cells);
        let full = format!(r#"{{"cmd":"commit","cell":"{victim}","to":"up","full":true}}"#);
        journaled(&mut s, &mut j, &full).unwrap();
        let warm = format!(r#"{{"cmd":"commit","cell":"{victim}","to":"down"}}"#);
        journaled(&mut s, &mut j, &warm).unwrap();
        let history = handle(&mut s, r#"{"cmd":"history"}"#).unwrap();
        assert!(!history.contains("SCG + RS"), "{history}");
        assert_eq!(j.recover(&mut s, None), None);
        assert_eq!(handle(&mut s, r#"{"cmd":"history"}"#).unwrap(), history);
        // A cold refit after recovery still inherits CGNR.
        let r = handle(&mut s, r#"{"cmd":"recalibrate","full":true}"#).unwrap();
        assert!(r.contains("CGNR (reference)"), "{r}");
    }

    #[test]
    fn recover_keeps_a_replayed_degraded_flag() {
        // An anchor served degraded (e.g. its fit fell back to identity
        // weights) stays degraded after recovery, calibrated or not.
        let (mut s, mut j) = (Session::new(), Journal::default());
        journaled(&mut s, &mut j, r#"{"cmd":"load","design":"small:7"}"#).unwrap();
        journaled(&mut s, &mut j, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap();
        let text = render_checkpoint(&s.durable_state(), 2).replace("degraded 0", "degraded 1");
        let (anchor, seq) = parse_checkpoint(&text).unwrap();
        let mut j = Journal::new(anchor, seq);
        assert_eq!(j.recover(&mut s, None), None);
        assert!(s.is_degraded());
    }

    #[test]
    fn recover_serves_empty_degraded_when_the_anchor_does_not_rebuild() {
        let (mut s, mut j) = (Session::new(), Journal::default());
        let file = scratch_file("anchor.nl");
        std::fs::write(
            &file,
            netlist::write_netlist(&netlist::GeneratorConfig::small(7).generate()),
        )
        .unwrap();
        journaled(
            &mut s,
            &mut j,
            &format!(r#"{{"cmd":"load","design":"{file}"}}"#),
        )
        .unwrap();
        // The calibrate's pre-state — the loaded file — is the anchor.
        journaled(&mut s, &mut j, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap();
        std::fs::remove_file(&file).unwrap();
        assert!(j.recover(&mut s, None).is_some());
        assert!(s.is_degraded());
        assert!(matches!(
            handle(&mut s, r#"{"cmd":"wns"}"#),
            Err(MgbaError::Usage(_))
        ));
        // Re-anchored on the empty session: a later panic finds it intact,
        // and an explicit load starts over.
        assert!(j.recover(&mut s, None).is_none());
        journaled(&mut s, &mut j, r#"{"cmd":"load","design":"small:7"}"#).unwrap();
        assert!(!s.is_degraded());
    }

    /// Loads a design, calibrates with CGNR, and returns the worst
    /// path's cell names (resize candidates).
    fn calibrated_session(design: &str) -> (Session, Vec<String>) {
        let mut s = Session::new();
        handle(&mut s, &format!(r#"{{"cmd":"load","design":"{design}"}}"#)).unwrap();
        handle(&mut s, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap();
        let p = obj(&handle(&mut s, r#"{"cmd":"path"}"#).unwrap());
        let cells = match p.get("cells").unwrap() {
            Value::Arr(a) => a.iter().map(|v| v.as_str().unwrap().to_owned()).collect(),
            other => panic!("{other:?}"),
        };
        (s, cells)
    }

    /// First cell from `cells` that accepts an upsize, found by probing
    /// with rolled-back what-ifs.
    fn resizable_cell(s: &mut Session, cells: &[String]) -> String {
        cells
            .iter()
            .find(|name| {
                let req = format!(r#"{{"cmd":"whatif_resize","cell":"{name}","to":"up"}}"#);
                handle(s, &req).is_ok()
            })
            .expect("a resizable cell on the worst path")
            .clone()
    }

    #[test]
    fn commit_on_calibrated_session_recalibrates_warm() {
        let (mut s, cells) = calibrated_session("small:11");
        let victim = resizable_cell(&mut s, &cells);
        let req = format!(r#"{{"cmd":"commit","cell":"{victim}","to":"up"}}"#);
        let r = obj(&handle(&mut s, &req).unwrap());
        assert_eq!(r.get("committed"), Some(&Value::Bool(true)));
        let recal = r.get("recalibrate").expect("calibrated commit refits");
        assert_eq!(recal.get("mode").and_then(Value::as_str), Some("warm"));
        let dirty = recal.get("dirty_rows").and_then(Value::as_u64).unwrap();
        let total = recal.get("total_rows").and_then(Value::as_u64).unwrap();
        assert!(dirty > 0, "a worst-path gate is on fitted rows");
        assert!(dirty <= total);
        // The response's post-refit WNS is what queries now serve.
        let wns_recal = recal.get("wns").and_then(Value::as_f64).unwrap();
        assert_eq!(wns_of(&mut s).to_bits(), wns_recal.to_bits());

        // Parity with a cold fit (satellite): a fresh session that
        // commits the same resize FIRST and then calibrates cold lands
        // on the same corrected timing within tolerance — the warm path
        // changes the route to the optimum, not the optimum.
        let mut cold = Session::new();
        handle(&mut cold, r#"{"cmd":"load","design":"small:11"}"#).unwrap();
        handle(&mut cold, &req).unwrap();
        handle(&mut cold, r#"{"cmd":"calibrate","solver":"cgnr"}"#).unwrap();
        let wns_cold = wns_of(&mut cold);
        let tol = wns_cold.abs() * 0.01 + 1.0;
        assert!(
            (wns_recal - wns_cold).abs() <= tol,
            "warm {wns_recal} vs cold {wns_cold}"
        );
    }

    #[test]
    fn recalibrate_command_modes_and_counters() {
        let (mut s, cells) = calibrated_session("small:11");
        let victim = resizable_cell(&mut s, &cells);
        let commit = format!(r#"{{"cmd":"commit","cell":"{victim}","to":"up"}}"#);
        handle(&mut s, &commit).unwrap(); // warm #1 (auto)
                                          // Standalone warm recalibrate with nothing dirty: zero rows
                                          // patched, solution already optimal.
        let r = obj(&handle(&mut s, r#"{"cmd":"recalibrate"}"#).unwrap());
        assert_eq!(r.get("mode").and_then(Value::as_str), Some("warm"));
        assert_eq!(r.get("dirty_rows").and_then(Value::as_u64), Some(0));
        // The escape hatch forces a cold re-select + re-fit.
        let r = obj(&handle(&mut s, r#"{"cmd":"recalibrate","full":true}"#).unwrap());
        assert_eq!(r.get("mode").and_then(Value::as_str), Some("cold"));
        let dirty = r.get("dirty_rows").and_then(Value::as_u64).unwrap();
        assert_eq!(Some(dirty), r.get("total_rows").and_then(Value::as_u64));

        // Counters feed the registry-level Prometheus renderer.
        let g = s.gauges().unwrap();
        assert_eq!((g.recalib_warm, g.recalib_cold), (2, 1));
    }

    #[test]
    fn recalibrate_before_calibrate_is_a_usage_error() {
        let mut s = Session::new();
        handle(&mut s, r#"{"cmd":"load","design":"small:7"}"#).unwrap();
        let e = handle(&mut s, r#"{"cmd":"recalibrate"}"#).unwrap_err();
        assert!(matches!(e, MgbaError::Usage(_)), "{e}");
    }

    #[test]
    fn whatif_batch_reports_candidates_and_isolates_errors() {
        let (mut s, cells) = calibrated_session("small:7");
        let victim = resizable_cell(&mut s, &cells);
        let wns0 = wns_of(&mut s);
        // A near-miss name exercises the nearest-match diagnostics.
        let near_miss = format!("{victim}x");
        let req = format!(
            r#"{{"cmd":"whatif_batch","resizes":[{{"cell":"{victim}","to":"up"}},{{"cell":"{near_miss}","to":"up"}},{{"cell":"{victim}","to":"NO_SUCH_LIB"}}],"pba":true}}"#
        );
        let r = obj(&handle(&mut s, &req).unwrap());
        assert_eq!(r.get("count").and_then(Value::as_u64), Some(3));
        let results = match r.get("results").unwrap() {
            Value::Arr(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(results.len(), 3);
        // Candidate 0: measured and rolled back.
        let c0 = &results[0];
        assert!(c0.get("error").is_none());
        let wns1 = c0.get("wns").and_then(Value::as_f64).unwrap();
        let d = c0.get("delta_wns").and_then(Value::as_f64).unwrap();
        assert!((wns1 - wns0 - d).abs() < 1e-9);
        // Calibrated session: batch-retimed path metrics ride along.
        let path_wns = c0.get("path_wns").and_then(Value::as_f64).unwrap();
        let path_pba = c0.get("path_pba_wns").and_then(Value::as_f64).unwrap();
        assert!(path_wns.is_finite() && path_pba.is_finite());
        // Candidate 1: unknown cell, with a suggestion naming the real
        // cell; candidate 2: unknown library cell. Per-candidate errors
        // are structured `{code, message}` objects (protocol v2 shape).
        let e1 = results[1].get("error").expect("candidate 1 errors");
        assert_eq!(e1.get("code").and_then(Value::as_str), Some("usage"));
        let m1 = e1.get("message").and_then(Value::as_str).unwrap();
        assert!(m1.contains(&format!("unknown cell `{near_miss}`")), "{m1}");
        assert!(m1.contains("nearest:"), "{m1}");
        assert!(m1.contains(victim.as_str()), "{m1}");
        let e2 = results[2].get("error").expect("candidate 2 errors");
        assert_eq!(e2.get("code").and_then(Value::as_str), Some("usage"));
        let m2 = e2.get("message").and_then(Value::as_str).unwrap();
        assert!(m2.contains("unknown library cell `NO_SUCH_LIB`"), "{m2}");
        // Every candidate was rolled back: timing is unchanged.
        assert_eq!(wns_of(&mut s).to_bits(), wns0.to_bits());
    }

    /// The `whatif_batch` loop before incremental re-timing, kept as its
    /// oracle: every candidate re-times the whole monitored path set.
    fn full_retime_whatif_batch(
        s: &mut Session,
        resizes: &[(String, String)],
        pba: bool,
    ) -> Result<String, MgbaError> {
        let loaded = s.require_loaded()?;
        let par = parallel::global();
        // Split borrows: candidates mutate the engine (resize, measure,
        // roll back) while the monitored path set stays borrowed from
        // the calibration.
        let Loaded {
            sta, calibration, ..
        } = loaded;
        let monitored: Option<&[Path]> = calibration.as_ref().map(Calibration::paths);
        let wns0 = sta.wns();
        let tns0 = sta.tns();
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("count");
        w.u64(resizes.len() as u64);
        w.key("wns_base");
        w.f64(wns0);
        w.key("tns_base");
        w.f64(tns0);
        w.key("results");
        w.begin_arr();
        for (cell_name, to) in resizes {
            w.begin_obj();
            w.key("cell");
            w.str(cell_name);
            w.key("to");
            w.str(to);
            let resolved =
                Session::resolve_resize(sta, cell_name, to).and_then(|(cell, current, target)| {
                    if current == target {
                        Err(usage(format!("`{cell_name}` is already that size")))
                    } else {
                        Ok((cell, current, target))
                    }
                });
            // Per-candidate errors use the same `{code, message}` shape
            // as top-level protocol errors.
            let write_error = |w: &mut JsonWriter, e: &MgbaError| {
                w.key("error");
                w.begin_obj();
                w.key("code");
                w.str(crate::proto::error_kind(e));
                w.key("message");
                w.str(&e.to_string());
                w.end_obj();
            };
            let (cell, current, target) = match resolved {
                Ok(t) => t,
                Err(e) => {
                    write_error(&mut w, &e);
                    w.end_obj();
                    continue;
                }
            };
            if let Err(e) = sta.resize_cell(cell, target) {
                // Structural rejection happens before any mutation, so
                // the engine is untouched and the batch can continue.
                write_error(&mut w, &MgbaError::from(e));
                w.end_obj();
                continue;
            }
            w.key("from");
            w.str(&sta.netlist().library().cell(current).name);
            w.key("resolved_to");
            w.str(&sta.netlist().library().cell(target).name);
            let wns1 = sta.wns();
            let tns1 = sta.tns();
            w.key("wns");
            w.f64(wns1);
            w.key("delta_wns");
            w.f64(wns1 - wns0);
            w.key("tns");
            w.f64(tns1);
            w.key("delta_tns");
            w.f64(tns1 - tns0);
            if let Some(paths) = monitored {
                let worst = gba_path_timing_batch(sta, paths, par)
                    .iter()
                    .map(|t| t.slack)
                    .fold(f64::INFINITY, f64::min);
                w.key("path_wns");
                w.f64(worst);
                if pba {
                    let worst = pba_timing_batch(sta, paths, par)
                        .iter()
                        .map(|t| t.slack)
                        .fold(f64::INFINITY, f64::min);
                    w.key("path_pba_wns");
                    w.f64(worst);
                }
            }
            sta.resize_cell(cell, current)
                .map_err(|e| MgbaError::Solver {
                    solver: "whatif_batch".into(),
                    message: format!("rollback of `{cell_name}` failed: {e}"),
                })?;
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        Ok(w.finish())
    }

    #[test]
    fn whatif_batch_matches_the_full_retime_loop() {
        // Candidates: the worst path's cells (its flip-flops included)
        // up and down, clock buffers, a flip-flop set to `DFF_X1` (a
        // resize, or an error where it is already that size), and error
        // entries: an unknown cell and a library cell of another
        // function.
        let candidates = |cells: &[String]| {
            let mut c: Vec<(String, String)> = cells
                .iter()
                .flat_map(|n| [(n.clone(), "up".to_owned()), (n.clone(), "down".to_owned())])
                .collect();
            for (cell, to) in [
                ("cts_0", "up"),
                ("cts_0", "down"),
                ("cts_1", "down"),
                ("cts_2", "up"),
                ("ff_0_0", "up"),
                ("ff_0_0", "DFF_X1"),
                ("no_such_cell", "up"),
                ("cts_0", "NAND2_X1"),
            ] {
                c.push((cell.to_owned(), to.to_owned()));
            }
            c
        };
        for threads in [1, 4] {
            parallel::set_global_threads(threads);
            for seed in [3u64, 5, 7, 11, 13] {
                let (mut s, cells) = calibrated_session(&format!("small:{seed}"));
                let resizes = candidates(&cells);
                let victim = resizable_cell(&mut s, &cells);
                for round in 0..2 {
                    for pba in [false, true] {
                        let got = s.whatif_batch(&resizes, pba).unwrap();
                        let want = full_retime_whatif_batch(&mut s, &resizes, pba).unwrap();
                        assert!(got.contains("path_wns"), "seed {seed}: no monitored set");
                        assert_eq!(
                            got, want,
                            "seed {seed}, round {round}, pba {pba}, threads {threads}: \
                             incremental reply differs from the full re-time"
                        );
                    }
                    // Round 1 runs after a committed resize and its warm
                    // refit (new weights, same paths and index).
                    let commit = format!(r#"{{"cmd":"commit","cell":"{victim}","to":"up"}}"#);
                    handle(&mut s, &commit).unwrap();
                }
            }
        }
        parallel::set_global_threads(0);
    }

    #[test]
    fn whatif_batch_is_bit_identical_across_thread_counts() {
        // All engine kernels, batch retimers, and solvers are
        // bit-identical for every thread width, so the full response
        // bytes must not depend on the pool size.
        let run = |threads: usize| {
            parallel::set_global_threads(threads);
            let (mut s, cells) = calibrated_session("small:11");
            let victim = resizable_cell(&mut s, &cells);
            let req = format!(
                r#"{{"cmd":"whatif_batch","resizes":[{{"cell":"{victim}","to":"up"}},{{"cell":"{victim}","to":"down"}}],"pba":true}}"#
            );
            let resp = handle(&mut s, &req).unwrap();
            parallel::set_global_threads(0);
            resp
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn stats_and_metrics_are_server_layer_commands() {
        // The lane-level dispatcher refuses registry-wide commands; the
        // server intercepts them first (see `registry::render_stats`).
        let mut s = Session::new();
        for cmd in [r#"{"cmd":"stats"}"#, r#"{"cmd":"metrics"}"#] {
            let e = handle(&mut s, cmd).unwrap_err();
            assert!(matches!(e, MgbaError::Internal(_)), "{cmd}: {e}");
        }
    }

    #[test]
    fn checkpoint_text_round_trips_durable_state_bit_for_bit() {
        let (mut s, cells) = calibrated_session("small:11");
        let victim = resizable_cell(&mut s, &cells);
        let req = format!(r#"{{"cmd":"commit","cell":"{victim}","to":"up"}}"#);
        handle(&mut s, &req).unwrap();
        let wns_live = wns_of(&mut s);
        let history_live = handle(&mut s, r#"{"cmd":"history"}"#).unwrap();

        let text = render_checkpoint(&s.durable_state(), 42);
        let (parsed, seq) = parse_checkpoint(&text).unwrap();
        assert_eq!(seq, 42);
        // Render → parse → render is byte-stable.
        assert_eq!(render_checkpoint(&parsed, 42), text);
        // The restored session serves bit-identical answers.
        let (mut r, _) = replay(&mut Journal::new(parsed, seq), Vec::new(), None).unwrap();
        assert_eq!(wns_of(&mut r).to_bits(), wns_live.to_bits());
        assert_eq!(
            handle(&mut r, r#"{"cmd":"history"}"#).unwrap(),
            history_live
        );
        let counts = |s: &Session| {
            let g = s.gauges().unwrap();
            (g.recalib_warm, g.recalib_cold)
        };
        assert_eq!(counts(&r), counts(&s));
        assert_eq!(r.is_degraded(), s.is_degraded());
    }

    #[test]
    fn corrupt_checkpoints_are_typed_errors_not_panics() {
        let mut s = Session::new();
        handle(&mut s, r#"{"cmd":"load","design":"small:7"}"#).unwrap();
        let good = render_checkpoint(&s.durable_state(), 7);
        // Truncation at every line boundary either parses a full
        // checkpoint or errors — never panics.
        let lines: Vec<&str> = good.lines().collect();
        for n in 0..lines.len() {
            let partial: String = lines[..n].iter().map(|l| format!("{l}\n")).collect();
            assert!(parse_checkpoint(&partial).is_err(), "prefix of {n} lines");
        }
        for bad in [
            "",
            "garbage",
            "# mgba ckpt v1\nseq x\n",
            "# mgba ckpt v1\nseq 1\ndegraded 7\n",
            "# mgba ckpt v1\nseq 1\ndegraded 0\ncounters 1 2\n",
        ] {
            assert!(parse_checkpoint(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn durability_loss_degrades_and_is_sticky() {
        let mut s = Session::new();
        handle(&mut s, r#"{"cmd":"load","design":"small:7"}"#).unwrap();
        assert!(!s.is_degraded());
        assert!(!s.durability_lost());
        s.mark_durability_lost();
        assert!(s.durability_lost());
        assert!(s.is_degraded(), "lost durability flags the envelope");
        // The gauges carry the flag to other sessions' `metrics` rows.
        assert!(s.gauges().unwrap().degraded);
    }
}
