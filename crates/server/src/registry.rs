//! The session registry: named sessions, each served by its own writer
//! lane.
//!
//! # Sharding model
//!
//! Every session (protocol v2 `session` field; v1 requests map to
//! `"default"`) owns exactly one **writer lane**: a thread that holds
//! the session's [`Session`] state and executes every command addressed
//! to the session, reads included, strictly in admission order. A
//! session's responses therefore depend only on its own request
//! sequence, never on other sessions' traffic or the engine's thread
//! count.
//!
//! After every state change the lane publishes a `SessionGauges`
//! record on the session's [`SessionHandle`]: the figures a `metrics`
//! request served by another session renders for this one.
//!
//! Request ids are assigned at admission and committed only when the
//! lane queue accepts the job; a full-queue rejection rolls the id
//! back, so numbering is identical across runs that hit transient
//! overload.

use crate::proto::{self, Command, EnvMeta};
use crate::session::{self, Journal, Session, SessionGauges};
use crate::wal;
use mgba::MgbaError;
use obs::json::JsonWriter;
use obs::metrics::Histogram;
use obs::prom::PromWriter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Hard cap on concurrently resident sessions: each one costs a lane
/// thread plus a resident engine, so runaway session creation is a
/// usage error, not an OOM.
pub const MAX_SESSIONS: usize = 64;

/// How often an idle lane re-checks the shutdown flag.
const LANE_POLL: Duration = Duration::from_millis(25);

/// How long a lane keeps draining after shutdown before exiting. Covers
/// the race where an admission passed the shutting-down check just
/// before the flag was set.
const DRAIN_GRACE: Duration = Duration::from_millis(50);

/// Counters shared between connection readers, lanes, and the accept
/// loop.
pub(crate) struct Shared {
    pub shutting_down: AtomicBool,
    pub served: AtomicU64,
    pub rejected_overload: AtomicU64,
    pub rejected_deadline: AtomicU64,
    pub panicked: AtomicU64,
    /// Sessions removed by TTL expiry or an explicit `close_session`.
    pub evicted: AtomicU64,
    pub queue_depth: usize,
}

impl Shared {
    pub fn new(queue_depth: usize) -> Self {
        Self {
            shutting_down: AtomicBool::new(false),
            served: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            queue_depth,
        }
    }
}

/// Durability settings handed down from `serve --state-dir` — present
/// iff the durability layer is on.
#[derive(Debug, Clone)]
pub(crate) struct DurabilityConfig {
    /// Directory holding one `<session>.wal` + `<session>.ckpt` pair per
    /// durable session (also the confinement root for client-supplied
    /// `snapshot`/`restore` paths).
    pub state_dir: PathBuf,
    /// Write an on-disk checkpoint (and compact the WAL) after this many
    /// logged mutations.
    pub checkpoint_every: u64,
}

/// Registry-wide WAL telemetry, rendered as the
/// `mgba_server_wal_*_total` counter families (always present in the
/// exposition; all-zero while durability is off).
#[derive(Default)]
pub(crate) struct WalCounters {
    /// Bytes appended to session WALs, framing included.
    pub appended_bytes: AtomicU64,
    /// Successful WAL data syncs (appends and compactions).
    pub fsyncs: AtomicU64,
    /// WAL records replayed into sessions at recovery.
    pub replayed_records: AtomicU64,
    /// Torn WAL tails truncated at recovery.
    pub truncated_tails: AtomicU64,
    /// On-disk checkpoints written (each followed by a WAL compaction).
    pub checkpoints: AtomicU64,
}

/// Crate version reported by `mgba_build_info` and `stats`.
const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Commit id baked in at compile time via the `MGBA_BUILD_COMMIT` env
/// var (CI sets it); `"unknown"` for plain local builds.
const BUILD_COMMIT: &str = match option_env!("MGBA_BUILD_COMMIT") {
    Some(c) => c,
    None => "unknown",
};

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Always-on histograms by command or stage name, microseconds.
pub(crate) type ByName = BTreeMap<&'static str, Histogram>;

/// Records `d` in microseconds under `name`, and returns it.
fn observe_us(hists: &Mutex<ByName>, name: &'static str, d: Duration) -> f64 {
    let us = d.as_micros() as f64;
    hists.lock().unwrap().entry(name).or_default().observe(us);
    us
}

/// One admitted writer-lane job.
pub(crate) struct LaneJob {
    pub meta: EnvMeta,
    pub cmd: Command,
    pub deadline_ms: Option<u64>,
    pub reply: mpsc::Sender<String>,
    pub enqueued: Instant,
}

/// The always-shared face of one session: admission numbering, the
/// published gauges, and latency accounting. The mutable engine state
/// lives on the lane thread ([`Session`]); this handle is what
/// admission and the metrics renderers touch.
pub struct SessionHandle {
    name: String,
    /// Highest committed request id. Locked across id assignment and
    /// queue admission so id order equals queue order.
    request_seq: Mutex<u64>,
    /// What the lane last published for other sessions' `metrics`
    /// rows (`None` while no design is loaded).
    gauges: Mutex<Option<SessionGauges>>,
    /// Per-session per-command latency histograms.
    pub(crate) latency: Mutex<ByName>,
    /// Per-session per-stage duration histograms (`queue_wait`,
    /// `execute`, `reply_write`) feeding the
    /// `mgba_server_stage_us{session,stage}` family.
    pub(crate) stage_latency: Mutex<ByName>,
    /// Histogram of `whatif_batch` candidate counts (unit: candidates).
    pub(crate) whatif_sizes: Mutex<Histogram>,
    /// When the session was last addressed — the TTL eviction clock.
    last_active: Mutex<Instant>,
    /// Lane jobs admitted but not yet dequeued — the
    /// `mgba_server_write_queue_depth` gauge.
    pending_lane: AtomicUsize,
    /// Crash-isolated rebuilds of this session's state
    /// (`mgba_server_session_rebuilds_total`). Latency/stage histograms
    /// deliberately survive rebuilds — they live here, not on the lane
    /// state — so this counter is the only stats discontinuity marker.
    rebuilds: AtomicU64,
}

impl SessionHandle {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            request_seq: Mutex::new(0),
            gauges: Mutex::new(None),
            latency: Mutex::default(),
            stage_latency: Mutex::default(),
            whatif_sizes: Mutex::default(),
            last_active: Mutex::new(Instant::now()),
            pending_lane: AtomicUsize::new(0),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// Records one request-stage duration into the per-session stage
    /// histograms (microseconds).
    pub(crate) fn record_stage(&self, stage: &'static str, d: Duration) {
        observe_us(&self.stage_latency, stage, d);
    }

    /// Crash-isolated rebuilds of this session's lane state.
    pub(crate) fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::SeqCst)
    }

    /// Lane jobs admitted but not yet dequeued.
    pub(crate) fn write_queue_depth(&self) -> usize {
        self.pending_lane.load(Ordering::SeqCst)
    }

    /// Resets the TTL eviction clock (called on every admission that
    /// addresses this session).
    fn touch(&self) {
        *self.last_active.lock().unwrap() = Instant::now();
    }

    /// How long since the session was last addressed.
    fn idle_for(&self) -> Duration {
        self.last_active.lock().unwrap().elapsed()
    }

    /// The session's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Admits one job to the writer lane under the next request id. The
    /// id is committed only when the queue accepts the job — on `Full`
    /// it rolls back, so the next admitted request reuses it.
    ///
    /// The job is counted in `pending_lane` before it is sent: an idle
    /// lane may dequeue it (and uncount it) before `try_send` returns,
    /// and counting afterwards would wrap the gauge below zero.
    // The Err variant hands the whole rejected job back: the caller
    // must recover its reply channel to answer the overload envelope.
    #[allow(clippy::result_large_err)]
    pub(crate) fn admit_lane(
        &self,
        lane_tx: &SyncSender<LaneJob>,
        meta: EnvMeta,
        cmd: Command,
        deadline_ms: Option<u64>,
        reply: mpsc::Sender<String>,
    ) -> Result<(), TrySendError<LaneJob>> {
        let mut seq = self.request_seq.lock().unwrap();
        let request_id = *seq + 1;
        self.pending_lane.fetch_add(1, Ordering::SeqCst);
        if let Err(refused) = lane_tx.try_send(LaneJob {
            meta: meta.with_request_id(request_id),
            cmd,
            deadline_ms,
            reply,
            enqueued: Instant::now(),
        }) {
            self.pending_lane.fetch_sub(1, Ordering::SeqCst);
            return Err(refused);
        }
        *seq = request_id;
        Ok(())
    }

    /// Replaces the published gauges (called by the lane after every
    /// state change).
    fn publish(&self, gauges: Option<SessionGauges>) {
        *self.gauges.lock().unwrap() = gauges;
    }

    /// The gauges the lane last published (`None` while no design is
    /// loaded).
    pub(crate) fn published(&self) -> Option<SessionGauges> {
        self.gauges.lock().unwrap().clone()
    }
}

/// One registry row: the shared handle plus the lane's admission queue.
#[derive(Clone)]
pub(crate) struct SessionEntry {
    pub handle: Arc<SessionHandle>,
    pub lane_tx: SyncSender<LaneJob>,
}

/// Why an admission could not resolve a session.
pub(crate) enum AdmitRejection {
    /// Server is draining; answer with a `shutdown` envelope.
    Draining,
    /// [`MAX_SESSIONS`] resident sessions already exist.
    TooManySessions,
}

/// The multi-session registry: client-chosen names → lazily created
/// sessions, each with its own writer lane.
pub struct Registry {
    sessions: Mutex<BTreeMap<String, SessionEntry>>,
    /// Mirror of `sessions` holding only the handles, for the
    /// metrics/stats renderers. Unlike `sessions` it is *not* cleared by
    /// [`Registry::close`], so a `metrics` or `stats` request draining
    /// through a lane after shutdown still reports every resident
    /// session instead of an empty server. Kept in sync on insert,
    /// `close_session`, and TTL eviction — always mutated under the
    /// `sessions` lock to keep the two maps consistent.
    roster: Mutex<BTreeMap<String, Arc<SessionHandle>>>,
    lanes: Mutex<Vec<JoinHandle<()>>>,
    closed: AtomicBool,
    queue_depth: usize,
    /// Evict sessions idle longer than this (`None` = never). Checked
    /// lazily on every admission, so an all-idle server holds its
    /// sessions until the next request arrives — no sweeper thread.
    session_ttl: Option<Duration>,
    /// Slow-query threshold (`--slow-ms`): lane commands whose execution
    /// takes at least this long are recorded to the session's slow-query
    /// ring. `None` (the default) disables recording entirely.
    slow_ms: Option<u64>,
    /// Durability settings (`--state-dir`); `None` keeps the registry
    /// fully in-memory with zero extra work per request.
    durability: Option<DurabilityConfig>,
    /// Registry-wide WAL telemetry (see [`WalCounters`]).
    pub(crate) wal_counters: WalCounters,
    pub(crate) shared: Arc<Shared>,
}

impl Registry {
    /// Creates an empty registry; sessions spawn on first address.
    pub(crate) fn new(
        queue_depth: usize,
        shared: Arc<Shared>,
        session_ttl: Option<Duration>,
        slow_ms: Option<u64>,
        durability: Option<DurabilityConfig>,
    ) -> Arc<Self> {
        Arc::new(Self {
            sessions: Mutex::new(BTreeMap::new()),
            roster: Mutex::new(BTreeMap::new()),
            lanes: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            queue_depth,
            session_ttl,
            slow_ms,
            durability,
            wal_counters: WalCounters::default(),
            shared,
        })
    }

    /// Startup recovery: scans the state dir for `<session>.wal` /
    /// `<session>.ckpt` pairs and resolves each named session, which
    /// rebuilds its state from disk before the first request is served
    /// (recovery runs synchronously inside [`Registry::session`]).
    /// No-op without `--state-dir`. Never panics: corrupt files are
    /// quarantined and reported per session, not fatal to startup.
    pub(crate) fn recover(self: &Arc<Self>) {
        let Some(cfg) = self.durability.clone() else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(&cfg.state_dir) {
            obs::events::emit(
                obs::events::Severity::Error,
                "server.durability.state_dir_unusable",
                None,
                None,
                &[("error", e.to_string())],
            );
            return;
        }
        let mut names: Vec<String> = Vec::new();
        if let Ok(dir) = std::fs::read_dir(&cfg.state_dir) {
            for entry in dir.flatten() {
                let path = entry.path();
                let (Some(stem), Some(ext)) = (
                    path.file_stem().and_then(|s| s.to_str()),
                    path.extension().and_then(|s| s.to_str()),
                ) else {
                    continue;
                };
                if (ext == "wal" || ext == "ckpt")
                    && proto::validate_session_name(stem).is_ok()
                    && !names.iter().any(|n| n == stem)
                {
                    names.push(stem.to_owned());
                }
            }
        }
        names.sort();
        for name in &names {
            if self.session(name).is_err() {
                obs::events::emit(
                    obs::events::Severity::Warn,
                    "server.durability.recovery_skipped",
                    Some(name),
                    None,
                    &[("reason", "session cap or draining".to_owned())],
                );
            }
        }
    }

    /// Resolves `name` to its session, creating it (and spawning its
    /// writer lane) on first use. Lazily evicts sessions whose idle time
    /// exceeds the configured TTL — dropping a session's queue sender
    /// makes its lane drain the requests already admitted and exit.
    pub(crate) fn session(self: &Arc<Self>, name: &str) -> Result<SessionEntry, AdmitRejection> {
        let mut map = self.sessions.lock().unwrap();
        if self.closed.load(Ordering::SeqCst) {
            return Err(AdmitRejection::Draining);
        }
        if let Some(ttl) = self.session_ttl {
            let before = map.len();
            map.retain(|n, e| n == name || e.handle.idle_for() <= ttl);
            self.roster
                .lock()
                .unwrap()
                .retain(|n, _| map.contains_key(n));
            let evicted = before - map.len();
            if evicted > 0 {
                self.shared
                    .evicted
                    .fetch_add(evicted as u64, Ordering::SeqCst);
                obs::counter_add("server.sessions.evicted", evicted as u64);
            }
        }
        if let Some(entry) = map.get(name) {
            entry.handle.touch();
            return Ok(entry.clone());
        }
        if map.len() >= MAX_SESSIONS {
            return Err(AdmitRejection::TooManySessions);
        }
        let handle = Arc::new(SessionHandle::new(name));
        // Durable sessions rebuild from disk *before* the lane starts
        // (and before this admission returns), so the first request
        // already observes the recovered state.
        let state = match &self.durability {
            Some(cfg) => Durability::open(cfg, &handle, &self.wal_counters),
            None => Lane::default(),
        };
        let (lane_tx, lane_rx) = mpsc::sync_channel::<LaneJob>(self.queue_depth);
        let lane = {
            let handle = Arc::clone(&handle);
            let registry = Arc::clone(self);
            thread::Builder::new()
                .name(format!("mgba-lane-{name}"))
                .spawn(move || lane_loop(lane_rx, handle, registry, state))
                .expect("spawn writer lane")
        };
        self.lanes.lock().unwrap().push(lane);
        let entry = SessionEntry { handle, lane_tx };
        map.insert(name.to_owned(), entry.clone());
        self.roster
            .lock()
            .unwrap()
            .insert(name.to_owned(), Arc::clone(&entry.handle));
        obs::counter_add("server.sessions.created", 1);
        obs::events::emit(
            obs::events::Severity::Info,
            "server.session.created",
            Some(name),
            None,
            &[],
        );
        Ok(entry)
    }

    /// Removes one session by name (`close_session`): its entry leaves
    /// the map, the dropped queue sender makes its lane drain admitted
    /// work and exit, and the name is immediately free for a fresh
    /// session. Returns whether a session by that name was resident.
    ///
    /// With `--state-dir`, `close_session` also discards the session's
    /// durable files — closing means "forget this state", so the name
    /// restarts empty. (TTL eviction deliberately does *not* delete
    /// them: an evicted-for-idleness session recovers from disk when
    /// next addressed.)
    pub(crate) fn remove(&self, name: &str) -> bool {
        let mut map = self.sessions.lock().unwrap();
        let removed = map.remove(name).is_some();
        self.roster.lock().unwrap().remove(name);
        if removed {
            if let Some(cfg) = &self.durability {
                let _ = std::fs::remove_file(cfg.state_dir.join(format!("{name}.wal")));
                let _ = std::fs::remove_file(cfg.state_dir.join(format!("{name}.ckpt")));
            }
        }
        drop(map);
        if removed {
            self.shared.evicted.fetch_add(1, Ordering::SeqCst);
            obs::counter_add("server.sessions.evicted", 1);
        }
        removed
    }

    /// Resident session names, sorted.
    pub fn session_names(&self) -> Vec<String> {
        self.sessions.lock().unwrap().keys().cloned().collect()
    }

    /// `(name, handle)` rows in name order — the metrics/stats renderers
    /// iterate these for cross-session views.
    pub(crate) fn handles(&self) -> Vec<(String, Arc<SessionHandle>)> {
        self.roster
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.clone(), Arc::clone(h)))
            .collect()
    }

    /// Closes the registry: no further sessions resolve, every lane's
    /// sender drops (lanes drain and exit), and the lane join handles
    /// are returned for the caller to join *after* releasing all locks.
    ///
    /// Also raises the shared shutdown flag so a lane whose sender is
    /// still cloned somewhere (a connection mid-admission) exits via
    /// its poll path instead of waiting for `Disconnected` forever.
    ///
    /// The handle roster is deliberately left intact: `metrics`/`stats`
    /// requests already admitted and draining through a lane still
    /// render every session's rows instead of an empty server.
    pub(crate) fn close(&self) -> Vec<JoinHandle<()>> {
        let mut map = self.sessions.lock().unwrap();
        self.closed.store(true, Ordering::SeqCst);
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        map.clear();
        drop(map);
        std::mem::take(&mut *self.lanes.lock().unwrap())
    }
}

/// Renames a corrupt durability file to `<name>.corrupt` so restart
/// diagnostics keep the bytes while the session restarts clean.
fn quarantine(path: &Path) {
    if path.exists() {
        let mut bad = path.as_os_str().to_owned();
        bad.push(".corrupt");
        let _ = std::fs::rename(path, PathBuf::from(bad));
    }
}

/// The canonical WAL record for a state-changing command: the protocol
/// v2 request line, re-parsed at replay through the ordinary request
/// parser. The `id` field carries the record's durable sequence
/// number — recovery uses it to skip records a newer checkpoint has
/// already folded (a crash can land between the checkpoint write and
/// the WAL compaction, leaving folded records in the log).
fn wal_line(cmd: &Command, seq: u64) -> String {
    proto::render_request(Some(seq), 2, None, cmd, None)
}

/// A writer lane's private state: the live session, the [`Journal`]
/// that rebuilds it, and, with `--state-dir`, the journal's on-disk
/// mirror, written until durability is lost.
#[derive(Default)]
pub(crate) struct Lane {
    session: Session,
    journal: Journal,
    mirror: Option<Durability>,
    /// Whether the session's state was rebuilt from disk (checkpoint
    /// and/or WAL tail) when the lane started.
    recovered: bool,
}

impl Lane {
    /// Panic recovery ([`Journal::recover`]). When replay stopped short,
    /// the mirror checkpoints what is served, so disk matches memory
    /// (`DESIGN.md` §16.3 step 4).
    fn recover(
        &mut self,
        state_dir: Option<&Path>,
        handle: &SessionHandle,
        counters: &WalCounters,
    ) {
        let stopped = self.journal.recover(&mut self.session, state_dir);
        let Some(d) = self.mirror.as_mut() else {
            return;
        };
        if stopped.is_some() && !self.session.durability_lost() {
            if let Err(why) = d.checkpoint(&self.journal, counters) {
                self.lose_durability(handle, &why);
            }
        }
    }

    /// A WAL write failed: the session turns read-only (see
    /// [`Session::mark_durability_lost`]), so the mirror is never written
    /// again; it stays to report its last checkpoint in `health`.
    fn lose_durability(&mut self, handle: &SessionHandle, why: &str) {
        self.session.mark_durability_lost();
        obs::counter_add("server.durability.lost", 1);
        obs::events::emit(
            obs::events::Severity::Error,
            "server.durability.lost",
            Some(handle.name()),
            None,
            &[("error", why.to_owned())],
        );
    }
}

/// The on-disk mirror of a lane's [`Journal`] (`--state-dir`): the
/// newest checkpoint holds the anchor, the open WAL the records since.
pub(crate) struct Durability {
    wal: wal::Wal,
    ckpt_path: PathBuf,
    checkpoint_every: u64,
    /// Journal `seq` folded into the newest on-disk checkpoint.
    last_checkpoint_seq: u64,
    /// Records appended since the last on-disk checkpoint.
    since_checkpoint: u64,
}

impl Durability {
    /// Opens (or creates) one session's durable state: parse the
    /// checkpoint into the journal anchor, truncate any torn final WAL
    /// record, and replay the WAL tail through [`session::replay`] — the
    /// routine panic recovery uses — leaving the log positioned for
    /// appends. Never panics: corrupt files are quarantined (session
    /// restarts clean but `degraded`), and I/O failures leave the mirror
    /// off with the session marked durability-lost.
    fn open(cfg: &DurabilityConfig, handle: &SessionHandle, counters: &WalCounters) -> Lane {
        let name = handle.name();
        let wal_path = cfg.state_dir.join(format!("{name}.wal"));
        let ckpt_path = cfg.state_dir.join(format!("{name}.ckpt"));
        let _ = std::fs::create_dir_all(&cfg.state_dir);
        let mut recovered = false;
        let mut fresh_degraded = false;
        // 1. Checkpoint → journal anchor.
        let mut journal = match std::fs::read_to_string(&ckpt_path) {
            Ok(text) => match session::parse_checkpoint(&text) {
                Ok((anchor, seq)) => {
                    recovered = true;
                    Journal::new(anchor, seq)
                }
                Err(e) => {
                    quarantine(&ckpt_path);
                    quarantine(&wal_path);
                    fresh_degraded = true;
                    obs::events::emit(
                        obs::events::Severity::Error,
                        "server.durability.checkpoint_corrupt",
                        Some(name),
                        None,
                        &[("error", e.to_string())],
                    );
                    Journal::default()
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Journal::default(),
            Err(e) => return Self::lost_at_open(handle, "checkpoint unreadable", &e),
        };
        let mut last_checkpoint_seq = journal.anchor_seq;
        // 2. Open the WAL (scans, truncates a torn tail in place).
        let (mut wal, scan) = match wal::Wal::open(&wal_path) {
            Ok(x) => x,
            Err(e) => return Self::lost_at_open(handle, "WAL unopenable", &e),
        };
        if let Some(reason) = &scan.truncated {
            counters.truncated_tails.fetch_add(1, Ordering::SeqCst);
            obs::events::emit(
                obs::events::Severity::Warn,
                "server.durability.wal_tail_truncated",
                Some(name),
                None,
                &[("reason", reason.clone())],
            );
        }
        recovered |= !scan.records.is_empty();
        // 3. Records → commands. Records carry their durable seq in the
        // `id` field: those at or below the checkpoint's anchor are
        // already folded in (a crash between checkpoint write and WAL
        // compaction leaves them behind) and are skipped; the rest must
        // be gap-free.
        let mut broken: Option<String> = None;
        let mut cmds = Vec::new();
        for line in &scan.records {
            let (cmd, rec_seq) = match proto::parse_request(line) {
                Ok(request) => (request.cmd, request.id),
                Err((_, e)) => {
                    broken = Some(format!("unparseable record: {e}"));
                    break;
                }
            };
            let Some(rec_seq) = rec_seq else {
                broken = Some("record carries no sequence number".to_owned());
                break;
            };
            if rec_seq <= journal.anchor_seq {
                continue;
            }
            let expected = journal.anchor_seq + cmds.len() as u64 + 1;
            if rec_seq != expected {
                broken = Some(format!(
                    "sequence gap: expected record {expected}, found {rec_seq}"
                ));
                break;
            }
            cmds.push(cmd);
        }
        // 4. Rebuild the anchor and replay the commands on it.
        let mut session = match session::replay(&mut journal, cmds, Some(&cfg.state_dir)) {
            Ok((session, stopped)) => {
                broken = stopped.or(broken);
                session
            }
            Err(e) => {
                // The anchor references state we cannot rebuild (e.g.
                // its netlist file vanished). Quarantine and restart
                // clean rather than log against a wrong base.
                drop(wal);
                quarantine(&ckpt_path);
                quarantine(&wal_path);
                fresh_degraded = true;
                broken = None;
                obs::events::emit(
                    obs::events::Severity::Error,
                    "server.durability.checkpoint_unusable",
                    Some(name),
                    None,
                    &[("error", e.to_string())],
                );
                journal = Journal::default();
                last_checkpoint_seq = 0;
                wal = match wal::Wal::open(&wal_path) {
                    Ok((wal, _)) => wal,
                    Err(e) => return Self::lost_at_open(handle, "WAL unopenable", &e),
                };
                Session::new()
            }
        };
        counters
            .replayed_records
            .fetch_add(journal.seq() - last_checkpoint_seq, Ordering::SeqCst);
        if fresh_degraded {
            session.mark_degraded();
        }
        let mut lane = Lane {
            session,
            journal,
            mirror: Some(Durability {
                wal,
                ckpt_path,
                checkpoint_every: cfg.checkpoint_every.max(1),
                last_checkpoint_seq,
                since_checkpoint: 0,
            }),
            recovered,
        };
        if let Some(why) = broken {
            // The unreplayable suffix describes state we do not have:
            // drop it (checkpoint the replayed prefix so disk matches
            // memory) and serve what replayed, flagged degraded.
            lane.session.mark_degraded();
            obs::events::emit(
                obs::events::Severity::Error,
                "server.durability.wal_replay_stopped",
                Some(name),
                None,
                &[("reason", why)],
            );
            if let Some(d) = lane.mirror.as_mut() {
                if let Err(e) = d.checkpoint(&lane.journal, counters) {
                    lane.lose_durability(handle, &e);
                }
            }
        }
        handle.publish(lane.session.gauges());
        if recovered {
            obs::events::emit(
                obs::events::Severity::Info,
                "server.durability.session_recovered",
                Some(name),
                None,
                &[
                    ("wal_records", lane.journal.seq().to_string()),
                    ("replayed", scan.records.len().to_string()),
                ],
            );
        }
        lane
    }

    /// Open-time I/O failure: durability is unavailable from the first
    /// request on, so the fresh session starts read-only.
    fn lost_at_open(handle: &SessionHandle, what: &str, e: &std::io::Error) -> Lane {
        let mut lane = Lane::default();
        lane.lose_durability(handle, &format!("{what}: {e}"));
        lane
    }

    /// Mirrors `cmd`, the journal's newest command: append + fsync its
    /// WAL record, and checkpoint/compact when due. Any failure
    /// (including the `wal.append`/`wal.fsync`/`wal.checkpoint`
    /// failpoints) is a durability loss — the caller marks the session
    /// read-only.
    fn record(
        &mut self,
        cmd: &Command,
        journal: &Journal,
        counters: &WalCounters,
    ) -> Result<(), String> {
        let framed = self
            .wal
            .append(&wal_line(cmd, journal.seq()))
            .map_err(|e| format!("WAL append failed: {e}"))?;
        counters.appended_bytes.fetch_add(framed, Ordering::SeqCst);
        counters.fsyncs.fetch_add(1, Ordering::SeqCst);
        self.since_checkpoint += 1;
        if self.since_checkpoint >= self.checkpoint_every {
            self.checkpoint(journal, counters)?;
        }
        Ok(())
    }

    /// Writes the journal's anchor as the on-disk checkpoint (atomic
    /// rename discipline), then compacts the WAL down to the journal's
    /// tail. Crash-ordering: the checkpoint lands fully before the WAL
    /// shrinks, so every instant holds a complete (checkpoint, WAL)
    /// pair. A crash between the two steps leaves already-folded
    /// records in the WAL; recovery skips them by their embedded
    /// sequence numbers (see [`wal_line`]). The compacted log itself
    /// swaps in with one atomic rename inside [`wal::Wal::rewrite`].
    fn checkpoint(&mut self, journal: &Journal, counters: &WalCounters) -> Result<(), String> {
        if let Some(fault) = faultinject::fire("wal.checkpoint") {
            return Err(format!("failpoint `wal.checkpoint`: injected {fault:?}"));
        }
        let text = session::render_checkpoint(&journal.anchor, journal.anchor_seq);
        mgba::atomic_write_text(&self.ckpt_path, &text)
            .map_err(|e| format!("checkpoint write failed: {e}"))?;
        let tail: Vec<String> = (journal.anchor_seq + 1..)
            .zip(&journal.tail)
            .map(|(seq, cmd)| wal_line(cmd, seq))
            .collect();
        self.wal
            .rewrite(&tail)
            .map_err(|e| format!("WAL compaction failed: {e}"))?;
        counters.fsyncs.fetch_add(1, Ordering::SeqCst);
        counters.checkpoints.fetch_add(1, Ordering::SeqCst);
        self.last_checkpoint_seq = journal.anchor_seq;
        self.since_checkpoint = 0;
        Ok(())
    }
}

/// Renders the `health` result: protocol window, durability mode
/// (`durable`: the registry runs with `--state-dir`), and this session's
/// durability facts, read off its lane. `wal_records` counts the
/// mutations logged over the session's lifetime (monotonic across
/// restarts) and `last_checkpoint_seq` the ones folded into the newest
/// on-disk checkpoint; both are 0 without a mirror. Deliberately free of
/// timing fields (no uptime) so responses are byte-identical across runs
/// and thread counts — `health` is pinned in the byte-identity matrix.
fn render_health(handle: &SessionHandle, lane: &Lane, durable: bool) -> String {
    let (wal_records, checkpoint_seq) = lane
        .mirror
        .as_ref()
        .map_or((0, 0), |d| (lane.journal.seq(), d.last_checkpoint_seq));
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("server");
    w.str("mgba-server");
    w.key("proto_min");
    w.u64(proto::PROTO_MIN);
    w.key("proto_max");
    w.u64(proto::PROTO_MAX);
    w.key("durable");
    w.bool(durable);
    w.key("session");
    w.begin_obj();
    w.key("name");
    w.str(handle.name());
    w.key("recovered");
    w.bool(lane.recovered);
    w.key("wal_records");
    w.u64(wal_records);
    w.key("last_checkpoint_seq");
    w.u64(checkpoint_seq);
    w.key("degraded");
    w.bool(lane.session.is_degraded());
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// The `server.handle` chaos hook, fired once per live request on the
/// writer lane: `panic` unwinds exactly like a handler bug would,
/// `error`/`nan` surface as a typed internal error. Journal replay
/// never fires it. The `failpoint` command that arms it is itself
/// unaffected — arming happens in its handler, after this check.
fn chaos_hook() -> Result<(), MgbaError> {
    match faultinject::fire("server.handle") {
        Some(fault) => Err(MgbaError::Internal(format!(
            "failpoint `server.handle`: injected {fault:?}"
        ))),
        None => Ok(()),
    }
}

/// The writer-lane loop: owns the lane state, executes jobs in
/// admission order, publishes gauges, drains on shutdown. `lane` is
/// what [`Registry::session`] built — recovered from disk when durable
/// files existed.
pub(crate) fn lane_loop(
    rx: Receiver<LaneJob>,
    handle: Arc<SessionHandle>,
    registry: Arc<Registry>,
    mut lane: Lane,
) {
    let shared = Arc::clone(&registry.shared);
    loop {
        match rx.recv_timeout(LANE_POLL) {
            Ok(job) => {
                if process_lane(job, &mut lane, &handle, &registry, &shared) {
                    shared.shutting_down.store(true, Ordering::SeqCst);
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Registry closed and the queue is empty: done.
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
    // Drain-then-exit: serve everything admitted before (or racing with)
    // the shutdown flag, so every admitted request is answered.
    while let Ok(job) = rx.recv_timeout(DRAIN_GRACE) {
        process_lane(job, &mut lane, &handle, &registry, &shared);
    }
}

/// Executes one lane job; returns `true` on a served `shutdown`.
fn process_lane(
    job: LaneJob,
    lane: &mut Lane,
    handle: &SessionHandle,
    registry: &Registry,
    shared: &Shared,
) -> bool {
    let LaneJob {
        meta,
        cmd,
        deadline_ms,
        reply,
        enqueued,
    } = job;
    handle.pending_lane.fetch_sub(1, Ordering::SeqCst);
    if let Some(limit) = deadline_ms {
        if enqueued.elapsed() > Duration::from_millis(limit) {
            shared.rejected_deadline.fetch_add(1, Ordering::SeqCst);
            obs::counter_add("server.rejected.deadline", 1);
            let _ = reply.send(proto::error_envelope(
                &meta,
                "deadline",
                &format!("deadline of {limit} ms expired while queued"),
            ));
            return false;
        }
    }
    // Durability gate 1: a session whose WAL failed is read-only — the
    // in-memory state is ahead of the durable log, so acknowledging
    // more mutations would widen the gap a restart cannot close.
    if lane.session.durability_lost() && cmd.is_state_changing() {
        obs::counter_add("server.rejected.durability_lost", 1);
        shared.served.fetch_add(1, Ordering::SeqCst);
        let _ = reply.send(proto::error_envelope(
            &meta,
            "durability_lost",
            "a WAL write failed; the session is read-only until restart \
             (reads still serve the in-memory state, flagged degraded)",
        ));
        return false;
    }
    // Durability gate 2: with `--state-dir`, client-supplied
    // `snapshot`/`restore` paths are confined to the state dir — also
    // after durability was lost. The journal and the WAL keep the
    // *original* path; replay re-confines it.
    let state_dir = registry.durability.as_ref().map(|c| c.state_dir.as_path());
    let confined = match session::confine_command(state_dir, &cmd) {
        Ok(rewritten) => rewritten,
        Err(msg) => {
            shared.served.fetch_add(1, Ordering::SeqCst);
            obs::counter_add("server.rejected.path_escape", 1);
            let _ = reply.send(proto::error_envelope(&meta, "path_escape", &msg));
            return false;
        }
    };
    let name = cmd.name();
    // Stage 1: how long the job sat in the lane queue before dequeue.
    let queue_wait = enqueued.elapsed();
    handle.record_stage("queue_wait", queue_wait);
    if obs::trace_enabled() {
        obs::trace::emit_complete(&format!("{name}/queue_wait"), enqueued, queue_wait);
    }
    let start = Instant::now();
    // Crash isolation: a panic in one request must not take the daemon
    // (and every other session) down. The lane catches the unwind,
    // rebuilds its session from the journal, and answers with a typed
    // "internal" error. AssertUnwindSafe is justified because the
    // possibly half-mutated session state is discarded wholesale by
    // `Lane::recover` — nothing broken is ever observed.
    let caught = {
        let _span = obs::span(name);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaos_hook()?;
            match &cmd {
                // Registry-wide views are rendered here, where every
                // session's handle is reachable.
                Command::Stats => Ok(render_stats(&lane.session, handle, registry, shared)),
                Command::Metrics => Ok(render_metrics(&lane.session, handle, registry, shared)),
                Command::Health => Ok(render_health(handle, lane, state_dir.is_some())),
                _ => {
                    lane.journal
                        .execute(&mut lane.session, &cmd, confined.as_ref().unwrap_or(&cmd))
                }
            }
        }))
    };
    let (result, panicked) = match caught {
        Ok(result) => (result, false),
        Err(payload) => {
            shared.panicked.fetch_add(1, Ordering::SeqCst);
            obs::counter_add("server.requests.panicked", 1);
            let msg = panic_message(payload.as_ref());
            lane.recover(state_dir, handle, &registry.wal_counters);
            handle.rebuilds.fetch_add(1, Ordering::SeqCst);
            obs::events::emit(
                obs::events::Severity::Error,
                "server.session.rebuilt",
                Some(handle.name()),
                meta.request_id,
                &[("cmd", name.to_owned())],
            );
            (
                Err(MgbaError::Internal(format!(
                    "request `{name}` panicked: {msg}; session restored from last good state"
                ))),
                true,
            )
        }
    };
    let exec = start.elapsed();
    let us = observe_us(&handle.latency, name, exec);
    handle.record_stage("execute", exec);
    if obs::trace_enabled() {
        obs::trace::emit_complete(&format!("{name}/execute"), start, exec);
    }
    // Slow-query ring: non-read commands only, so the cheap queries
    // that poll a session leave the ring to the work worth looking at.
    // `shutdown` is server control, not a session query. The threshold
    // decides membership by wall clock, but entries carry no timing,
    // keeping the rendered bytes deterministic (always, with
    // `--slow-ms 0`).
    let is_query = !cmd.is_read() && !matches!(cmd, Command::Shutdown);
    if let Some(limit) = registry.slow_ms.filter(|_| !panicked && is_query) {
        if exec >= Duration::from_millis(limit) {
            lane.session.note_slow(meta.request_id, name);
            obs::events::emit(
                obs::events::Severity::Warn,
                "server.slow_query",
                Some(handle.name()),
                meta.request_id,
                &[("cmd", name.to_owned())],
            );
        }
    }
    if result.is_ok() {
        if let Command::WhatIfBatch { resizes, .. } = &cmd {
            handle
                .whatif_sizes
                .lock()
                .unwrap()
                .observe(resizes.len() as f64);
        }
    }
    obs::observe(&format!("server.latency_us.{name}"), us);
    obs::counter_add(&format!("server.requests.{name}"), 1);
    shared.served.fetch_add(1, Ordering::SeqCst);
    // Durability: append + fsync the WAL record BEFORE the mutation is
    // acknowledged. A failed write (real or failpoint-injected) flips
    // the session read-only: the reply becomes a `durability_lost`
    // error, but the in-memory state — which already mutated, and which
    // the journal holds — keeps serving reads, honestly flagged
    // degraded.
    let mut durability_error: Option<String> = None;
    if result.is_ok() && cmd.is_state_changing() {
        if let Some(d) = lane.mirror.as_mut() {
            if let Err(why) = d.record(&cmd, &lane.journal, &registry.wal_counters) {
                lane.lose_durability(handle, &why);
                durability_error = Some(format!("{why}; session is read-only until restart"));
            }
        }
    }
    // A state change (or a panic recovery, which also rewrites state)
    // republishes this session's gauges before the reply goes out, so a
    // client holding the reply sees its effect in any session's
    // `metrics`. What-if commands resize and roll back, which advances
    // the engine's update counters, so they republish too.
    let moved_counters = matches!(
        cmd,
        Command::WhatIfResize { .. } | Command::WhatIfBatch { .. }
    );
    if (result.is_ok() && (cmd.is_state_changing() || moved_counters)) || panicked {
        handle.publish(lane.session.gauges());
    }
    let shutdown = matches!(cmd, Command::Shutdown) && result.is_ok();
    let envelope = if let Some(msg) = &durability_error {
        proto::error_envelope(&meta, "durability_lost", msg)
    } else {
        match &result {
            Ok(json) => proto::ok_envelope(&meta, lane.session.is_degraded(), json),
            Err(e) => proto::mgba_error_envelope(&meta, e),
        }
    };
    let _ = reply.send(envelope);
    shutdown
}

/// Renders the `hello` result: negotiated protocol plus the resident
/// session list.
pub(crate) fn render_hello(registry: &Registry, max_proto: Option<u64>) -> String {
    let granted = max_proto
        .unwrap_or(proto::PROTO_MAX)
        .clamp(proto::PROTO_MIN, proto::PROTO_MAX);
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("server");
    w.str("mgba-server");
    w.key("proto");
    w.u64(granted);
    w.key("proto_min");
    w.u64(proto::PROTO_MIN);
    w.key("proto_max");
    w.u64(proto::PROTO_MAX);
    w.key("sessions");
    w.begin_arr();
    for name in registry.session_names() {
        w.str(&name);
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// Renders the `stats` result for the session that received the
/// command: server-wide counters, this session's engine view and
/// per-command latencies, plus the merged all-sessions latency view.
pub(crate) fn render_stats(
    session: &Session,
    handle: &SessionHandle,
    registry: &Registry,
    shared: &Shared,
) -> String {
    let rows = registry.handles();
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("server");
    w.begin_obj();
    w.key("queue_depth");
    w.u64(shared.queue_depth as u64);
    w.key("sessions");
    w.u64(rows.len() as u64);
    w.key("served");
    w.u64(shared.served.load(Ordering::SeqCst));
    w.key("rejected_overload");
    w.u64(shared.rejected_overload.load(Ordering::SeqCst));
    w.key("rejected_deadline");
    w.u64(shared.rejected_deadline.load(Ordering::SeqCst));
    w.key("panics");
    w.u64(shared.panicked.load(Ordering::SeqCst));
    w.key("degraded");
    w.bool(session.is_degraded());
    w.key("threads");
    w.u64(parallel::global().threads() as u64);
    w.key("version");
    w.str(BUILD_VERSION);
    w.key("commit");
    w.str(BUILD_COMMIT);
    w.end_obj();
    w.key("session");
    w.str(handle.name());
    w.key("write_queue_depth");
    w.u64(handle.write_queue_depth() as u64);
    w.key("rebuilds");
    w.u64(handle.rebuilds());
    w.key("engine");
    session.write_engine_json(&mut w);
    w.key("commands");
    write_latency_json(&mut w, &handle.latency.lock().unwrap());
    w.key("commands_all");
    let all = merge_by_name(rows.iter().map(|(_, h)| h.latency.lock().unwrap()));
    write_latency_json(&mut w, &all);
    w.end_obj();
    w.finish()
}

/// Writes `{"command": {count,mean_us,p50_us,p99_us,max_us}}` as one
/// JSON value. Quantiles are the histogram's bucket-resolution
/// estimates.
fn write_latency_json(w: &mut JsonWriter, by_command: &ByName) {
    w.begin_obj();
    for (name, h) in by_command {
        // Every entry holds at least one observation.
        let s = h.snapshot(name);
        w.key(name);
        w.begin_obj();
        w.key("count");
        w.u64(s.count);
        w.key("mean_us");
        w.f64(s.sum / s.count as f64);
        w.key("p50_us");
        w.u64(s.quantile(0.50).map_or(0, |v| v as u64));
        w.key("p99_us");
        w.u64(s.quantile(0.99).map_or(0, |v| v as u64));
        w.key("max_us");
        w.u64(s.max as u64);
        w.end_obj();
    }
    w.end_obj();
}

/// Merges per-name histogram maps (one per session) name by name.
fn merge_by_name(maps: impl IntoIterator<Item = impl std::ops::Deref<Target = ByName>>) -> ByName {
    let mut merged = ByName::new();
    for map in maps {
        for (name, h) in map.iter() {
            merged.entry(name).or_default().merge(h);
        }
    }
    merged
}

/// One resident session as the exposition sees it: live for the session
/// serving the scrape, as last published by its own lane for the
/// others.
struct SessionRow<'a> {
    name: &'a str,
    handle: &'a SessionHandle,
    degraded: bool,
    gauges: Option<SessionGauges>,
    /// The handle's latency and stage histograms, read once per scrape
    /// so that the merged and the per-session families agree.
    latency: ByName,
    stages: ByName,
}

/// Where a `{session}`-labeled family's samples come from.
#[derive(Clone, Copy)]
enum Source {
    /// One sample per resident session; the family is written even
    /// when the roster is empty.
    Roster(fn(&SessionRow) -> f64),
    /// One sample per loaded session that has a value; a family with
    /// none is left out.
    Gauges(fn(&SessionGauges) -> Option<f64>),
}

/// One `{session}`-labeled family of the `metrics` exposition: name,
/// help, whether it is a counter, and its samples' source.
type SessionFamily = (&'static str, &'static str, bool, Source);

/// The per-session families written before the server-wide counters.
const ROSTER_FAMILIES: [SessionFamily; 2] = [
    (
        "mgba_server_write_queue_depth",
        "lane jobs admitted but not yet dequeued, per session",
        false,
        Source::Roster(|r| r.handle.write_queue_depth() as f64),
    ),
    (
        "mgba_server_session_rebuilds_total",
        "crash-isolated session state rebuilds (latency histograms survive them)",
        true,
        Source::Roster(|r| r.handle.rebuilds() as f64),
    ),
];

/// The per-session families written after the server-wide ones, in
/// exposition order.
const SESSION_FAMILIES: [SessionFamily; 14] = [
    (
        "mgba_session_degraded",
        "1 while serving fault-recovered state without calibration",
        false,
        Source::Roster(|r| if r.degraded { 1.0 } else { 0.0 }),
    ),
    (
        "mgba_server_recalibrate_warm_total",
        "incremental warm-start recalibrations (dirty rows patched)",
        true,
        Source::Gauges(|g| Some(g.recalib_warm as f64)),
    ),
    (
        "mgba_server_recalibrate_cold_total",
        "full cold recalibrations (`full:true` or warm cache unavailable)",
        true,
        Source::Gauges(|g| Some(g.recalib_cold as f64)),
    ),
    (
        "mgba_engine_wns",
        "worst negative slack, ps",
        false,
        Source::Gauges(|g| Some(g.wns)),
    ),
    (
        "mgba_engine_tns",
        "total negative slack, ps",
        false,
        Source::Gauges(|g| Some(g.tns)),
    ),
    (
        "mgba_engine_calibrated",
        "1 when mGBA weights are fitted",
        false,
        Source::Gauges(|g| Some(if g.calibrated { 1.0 } else { 0.0 })),
    ),
    (
        "mgba_engine_full_updates_total",
        "full timing propagations",
        true,
        Source::Gauges(|g| Some(g.full_updates as f64)),
    ),
    (
        "mgba_engine_incremental_updates_total",
        "incremental timing propagations",
        true,
        Source::Gauges(|g| Some(g.incremental_updates as f64)),
    ),
    (
        "mgba_engine_cells_propagated_total",
        "cells touched by timing propagation",
        true,
        Source::Gauges(|g| Some(g.cells_propagated as f64)),
    ),
    // Calibration drift: sessions with at least one fit, describing
    // the most recent one.
    (
        "mgba_calibration_drift_mse",
        "mean squared mGBA-vs-PBA slack error after the latest fit, ps^2",
        false,
        Source::Gauges(|g| g.latest_fit.as_ref().map(|r| r.mse_after)),
    ),
    (
        "mgba_calibration_drift_rms_ps",
        "root-mean-squared mGBA-vs-PBA slack error after the latest fit, ps",
        false,
        Source::Gauges(|g| g.latest_fit.as_ref().map(|r| r.mse_after.max(0.0).sqrt())),
    ),
    (
        "mgba_calibration_drift_weight_sparsity_pct",
        "share of gates fitted to exactly zero weight, percent",
        false,
        Source::Gauges(|g| {
            g.latest_fit.as_ref().map(|r| {
                if r.weights_total == 0 {
                    0.0
                } else {
                    100.0 * (r.weights_total - r.weights_nonzero) as f64 / r.weights_total as f64
                }
            })
        }),
    ),
    (
        "mgba_calibration_drift_commits_since_fit",
        "commits the latest fit absorbed since the previous fit",
        false,
        Source::Gauges(|g| g.latest_fit.as_ref().map(|r| r.commits_since_fit as f64)),
    ),
    (
        "mgba_calibration_drift_records",
        "drift records resident in the per-session history ring",
        false,
        Source::Gauges(|g| g.latest_fit.as_ref().map(|_| g.history_len as f64)),
    ),
];

/// Writes `{session}`-labeled families, one sample per session row.
fn write_session_families(p: &mut PromWriter, rows: &[SessionRow], families: &[SessionFamily]) {
    for &(family, help, counter, source) in families {
        let samples: Vec<(&str, f64)> = rows
            .iter()
            .filter_map(|r| {
                let v = match source {
                    Source::Roster(value) => value(r),
                    Source::Gauges(value) => value(r.gauges.as_ref()?)?,
                };
                Some((r.name, v))
            })
            .collect();
        if samples.is_empty() && matches!(source, Source::Gauges(_)) {
            continue;
        }
        if counter {
            p.counter_family(family, help);
        } else {
            p.gauge_family(family, help);
        }
        for (name, v) in samples {
            p.sample_labels(family, &[("session", name)], v);
        }
    }
}

/// Writes one histogram family with one series per label set.
fn write_histograms<'a>(
    p: &mut PromWriter,
    family: &str,
    help: &str,
    series: impl IntoIterator<Item = (Vec<(&'a str, &'a str)>, &'a Histogram)>,
) {
    p.histogram_family(family, help);
    for (labels, h) in series {
        let s = h.snapshot(family);
        p.histogram_series_labels(family, &labels, &s.buckets, s.count, s.sum);
    }
}

/// Renders the full Prometheus exposition: server counters, per-session
/// engine, recalibration and drift figures (`{session="…"}` labels),
/// the merged per-command latency family (keeping the original
/// `mgba_server_command_latency_us{cmd}` series names valid), a
/// per-session latency family, and whatever the `obs` registry holds
/// (empty unless `--profile` is on). Like `stats`, the output is
/// non-deterministic (latencies), so it is excluded from the
/// byte-identity protocol tests.
fn exposition(
    session: &Session,
    handle: &SessionHandle,
    registry: &Registry,
    shared: &Shared,
) -> String {
    let handles = registry.handles();
    let rows: Vec<SessionRow> = handles
        .iter()
        .map(|(name, h)| {
            let (degraded, gauges) = if name == handle.name() {
                (session.is_degraded(), session.gauges())
            } else {
                let g = h.published();
                (g.as_ref().is_some_and(|g| g.degraded), g)
            };
            SessionRow {
                name,
                handle: h,
                degraded,
                gauges,
                latency: h.latency.lock().unwrap().clone(),
                stages: h.stage_latency.lock().unwrap().clone(),
            }
        })
        .collect();
    let mut p = PromWriter::new();
    p.gauge(
        "mgba_server_queue_depth",
        "configured bounded-queue depth",
        shared.queue_depth as f64,
    );
    p.gauge(
        "mgba_server_sessions",
        "resident sessions",
        rows.len() as f64,
    );
    p.gauge(
        "mgba_server_threads",
        "kernel threads of the timing engine (--threads / MGBA_THREADS)",
        parallel::global().threads() as f64,
    );
    // Info-style build gauge: the value is always 1, the labels carry
    // the metadata.
    p.gauge_family("mgba_build_info", "build metadata; the value is always 1");
    p.sample_labels(
        "mgba_build_info",
        &[("version", BUILD_VERSION), ("commit", BUILD_COMMIT)],
        1.0,
    );
    write_session_families(&mut p, &rows, &ROSTER_FAMILIES);
    p.counter(
        "mgba_server_served_total",
        "requests executed to completion",
        shared.served.load(Ordering::SeqCst),
    );
    p.counter(
        "mgba_server_rejected_overload_total",
        "requests rejected with a full queue",
        shared.rejected_overload.load(Ordering::SeqCst),
    );
    p.counter(
        "mgba_server_rejected_deadline_total",
        "requests whose admission deadline expired while queued",
        shared.rejected_deadline.load(Ordering::SeqCst),
    );
    p.counter(
        "mgba_server_panics_total",
        "request handlers that panicked and were crash-isolated",
        shared.panicked.load(Ordering::SeqCst),
    );
    p.counter(
        "mgba_server_sessions_evicted_total",
        "sessions removed by TTL expiry or close_session",
        shared.evicted.load(Ordering::SeqCst),
    );
    // Durability telemetry: always rendered (all-zero while
    // `--state-dir` is off) so dashboards need no conditional scrape.
    let wal_c = &registry.wal_counters;
    p.counter(
        "mgba_server_wal_appended_bytes_total",
        "bytes appended to session write-ahead logs, framing included",
        wal_c.appended_bytes.load(Ordering::SeqCst),
    );
    p.counter(
        "mgba_server_wal_fsyncs_total",
        "successful WAL data syncs (appends and compactions)",
        wal_c.fsyncs.load(Ordering::SeqCst),
    );
    p.counter(
        "mgba_server_wal_replayed_records_total",
        "WAL records replayed into sessions at recovery",
        wal_c.replayed_records.load(Ordering::SeqCst),
    );
    p.counter(
        "mgba_server_wal_truncated_tails_total",
        "torn WAL tails truncated at recovery",
        wal_c.truncated_tails.load(Ordering::SeqCst),
    );
    p.counter(
        "mgba_server_wal_checkpoints_total",
        "on-disk checkpoints written (each compacts its WAL)",
        wal_c.checkpoints.load(Ordering::SeqCst),
    );
    // Lint issue counts by severity, accumulated over every `lint`
    // command this process served (all sessions).
    let (lint_errors, lint_warnings) = session::lint_totals();
    p.counter_family(
        "mgba_lint_issues_total",
        "issues found by `lint` commands, by severity",
    );
    for (severity, n) in [("error", lint_errors), ("warning", lint_warnings)] {
        p.sample_labels(
            "mgba_lint_issues_total",
            &[("severity", severity)],
            n as f64,
        );
    }
    write_session_families(&mut p, &rows, &SESSION_FAMILIES);
    let mut batch = Histogram::default();
    for r in &rows {
        batch.merge(&r.handle.whatif_sizes.lock().unwrap());
    }
    // The merged view keeps the original family name, so dashboards
    // scraping `mgba_server_command_latency_us{cmd}` keep working.
    let merged = merge_by_name(rows.iter().map(|r| &r.latency));
    write_histograms(
        &mut p,
        "mgba_server_command_latency_us",
        "per-command request latency across all sessions, microseconds",
        merged.iter().map(|(cmd, h)| (vec![("cmd", *cmd)], h)),
    );
    write_histograms(
        &mut p,
        "mgba_server_session_command_latency_us",
        "per-session per-command request latency, microseconds",
        rows.iter().flat_map(|r| {
            r.latency
                .iter()
                .map(move |(cmd, h)| (vec![("session", r.name), ("cmd", *cmd)], h))
        }),
    );
    write_histograms(
        &mut p,
        "mgba_server_stage_us",
        "per-session request-stage durations, microseconds",
        rows.iter().flat_map(|r| {
            r.stages
                .iter()
                .map(move |(stage, h)| (vec![("session", r.name), ("stage", *stage)], h))
        }),
    );
    write_histograms(
        &mut p,
        "mgba_server_whatif_batch_size",
        "candidates per whatif_batch request",
        [(Vec::new(), &batch)],
    );
    let mut text = p.finish();
    // The obs registry rides along when profiling is enabled.
    text.push_str(&obs::prom::encode(&obs::metrics::snapshot()));
    text
}

/// Renders the `metrics` result (exposition wrapped in JSON).
pub(crate) fn render_metrics(
    session: &Session,
    handle: &SessionHandle,
    registry: &Registry,
    shared: &Shared,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("content_type");
    w.str(obs::prom::CONTENT_TYPE);
    w.key("exposition");
    w.str(&exposition(session, handle, registry, shared));
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn registry_with(names: &[&str]) -> (Arc<Registry>, Vec<SessionEntry>) {
        let shared = Arc::new(Shared::new(8));
        let registry = Registry::new(8, shared, None, None, None);
        let entries = names
            .iter()
            .map(|n| registry.session(n).map_err(|_| ()).unwrap())
            .collect();
        (registry, entries)
    }

    fn close(registry: &Registry) {
        for lane in registry.close() {
            let _ = lane.join();
        }
    }

    #[test]
    fn sessions_are_created_lazily_and_capped() {
        let shared = Arc::new(Shared::new(4));
        let registry = Registry::new(4, shared, None, None, None);
        assert!(registry.session_names().is_empty());
        for i in 0..MAX_SESSIONS {
            assert!(registry.session(&format!("s{i}")).is_ok());
        }
        assert!(matches!(
            registry.session("one-too-many"),
            Err(AdmitRejection::TooManySessions)
        ));
        // Existing sessions still resolve at the cap.
        assert!(registry.session("s0").is_ok());
        assert_eq!(registry.session_names().len(), MAX_SESSIONS);
        close(&registry);
        assert!(matches!(
            registry.session("post-close"),
            Err(AdmitRejection::Draining)
        ));
    }

    #[test]
    fn tickets_commit_only_on_successful_admission() {
        let (registry, entries) = registry_with(&["t"]);
        let entry = &entries[0];
        let (reply_tx, reply_rx) = mpsc::channel();
        let meta = EnvMeta::v2(Some(1), "t");
        entry
            .handle
            .admit_lane(&entry.lane_tx, meta, Command::Ping, None, reply_tx)
            .unwrap();
        // The accepted admission committed request id 1, and the lane
        // answers under it.
        assert_eq!(*entry.handle.request_seq.lock().unwrap(), 1);
        let resp = reply_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(resp.contains("\"request_id\":1,"), "{resp}");
        assert!(resp.contains("\"pong\":true"), "{resp}");
        close(&registry);
    }

    #[test]
    fn full_lane_queue_rolls_the_ticket_back() {
        let shared = Arc::new(Shared::new(1));
        let registry = Registry::new(1, Arc::clone(&shared), None, None, None);
        let entry = registry.session("q").map_err(|_| ()).unwrap();
        let (reply_tx, reply_rx) = mpsc::channel();
        // A sleep occupies the lane; the queue (depth 1) then fills.
        entry
            .handle
            .admit_lane(
                &entry.lane_tx,
                EnvMeta::v2(Some(1), "q"),
                Command::Sleep { ms: 150 },
                None,
                reply_tx.clone(),
            )
            .unwrap();
        let mut overflowed = false;
        let mut admitted = 1u64;
        for i in 0..8 {
            let r = entry.handle.admit_lane(
                &entry.lane_tx,
                EnvMeta::v2(Some(2 + i), "q"),
                Command::Ping,
                None,
                reply_tx.clone(),
            );
            match r {
                Ok(()) => admitted += 1,
                Err(TrySendError::Full(_)) => {
                    overflowed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(overflowed, "depth-1 queue must overflow");
        // The rejected job must NOT have consumed a request id: the
        // counter equals the number of accepted admissions.
        assert_eq!(*entry.handle.request_seq.lock().unwrap(), admitted);
        drop(reply_tx);
        for _ in 0..admitted {
            let _ = reply_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        close(&registry);
    }

    #[test]
    fn refused_admission_leaves_the_write_queue_depth_unchanged() {
        // The test holds the queue's receiving end, so nothing dequeues.
        let handle = SessionHandle::new("q");
        let (lane_tx, lane_rx) = mpsc::sync_channel(1);
        let (reply_tx, _reply_rx) = mpsc::channel();
        let admit = |id: u64| {
            let meta = EnvMeta::v2(Some(id), "q");
            handle
                .admit_lane(&lane_tx, meta, Command::Ping, None, reply_tx.clone())
                .map_err(|refused| match refused {
                    TrySendError::Full(_) => "full",
                    TrySendError::Disconnected(_) => "disconnected",
                })
        };
        admit(1).unwrap();
        assert_eq!(handle.write_queue_depth(), 1);
        assert_eq!(admit(2), Err("full"));
        assert_eq!(handle.write_queue_depth(), 1);
        drop(lane_rx);
        assert_eq!(admit(3), Err("disconnected"));
        assert_eq!(handle.write_queue_depth(), 1);
    }

    #[test]
    fn write_queue_depth_never_exceeds_the_queue_depth() {
        // Keep at most `DEPTH` requests outstanding, so no admission is
        // refused and at most `DEPTH` jobs wait at any instant. The lane
        // reads the gauge into every `stats` reply, and a watcher thread
        // polls it as another session's `metrics` scrape would. A job
        // counted only after `try_send` can be dequeued first, and the
        // gauge then wraps below zero; the watcher's load on the cores
        // makes that interleaving common.
        const DEPTH: usize = 4;
        const ROUNDS: u64 = 3000;
        let shared = Arc::new(Shared::new(DEPTH));
        let registry = Registry::new(DEPTH, Arc::clone(&shared), None, None, None);
        let entry = registry.session("w").map_err(|_| ()).unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let watcher = {
            let (handle, done) = (Arc::clone(&entry.handle), Arc::clone(&done));
            thread::spawn(move || {
                let mut worst = 0;
                while !done.load(Ordering::SeqCst) {
                    worst = worst.max(handle.write_queue_depth());
                }
                worst
            })
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        let (mut sent, mut outstanding) = (0u64, 0usize);
        let mut worst_reply = 0.0f64;
        while sent < ROUNDS || outstanding > 0 {
            if sent < ROUNDS && outstanding < DEPTH {
                sent += 1;
                let meta = EnvMeta::v2(Some(sent), "w");
                entry
                    .handle
                    .admit_lane(&entry.lane_tx, meta, Command::Stats, None, reply_tx.clone())
                    .expect("an outstanding window within the queue depth");
                outstanding += 1;
                continue;
            }
            let resp = reply_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            outstanding -= 1;
            let depth = parse(&resp)
                .unwrap()
                .get("result")
                .and_then(|r| r.get("write_queue_depth"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("no write_queue_depth in {resp}"));
            worst_reply = worst_reply.max(depth);
        }
        done.store(true, Ordering::SeqCst);
        let worst_polled = watcher.join().unwrap();
        assert!(
            worst_reply <= DEPTH as f64,
            "a stats reply read {worst_reply}"
        );
        assert!(worst_polled <= DEPTH, "the watcher read {worst_polled}");
        close(&registry);
    }

    #[test]
    fn snapshot_publishes_after_load_and_reads_match_lane_bytes() {
        // The lane publishes the session's gauges once `load` settles;
        // their WNS is the figure the lane serves to a `wns` read.
        let (registry, entries) = registry_with(&["r"]);
        let entry = &entries[0];
        assert!(entry.handle.published().is_none());
        let (reply_tx, reply_rx) = mpsc::channel();
        for (id, cmd) in [
            (
                1,
                Command::Load {
                    spec: "small:7".into(),
                    period: None,
                },
            ),
            (2, Command::Wns),
        ] {
            entry
                .handle
                .admit_lane(
                    &entry.lane_tx,
                    EnvMeta::v2(Some(id), "r"),
                    cmd,
                    None,
                    reply_tx.clone(),
                )
                .unwrap();
        }
        let load_resp = reply_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(load_resp.contains("\"ok\":true"), "{load_resp}");
        let lane_wns = reply_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let published = entry.handle.published().expect("published after load");
        assert!(!published.calibrated && !published.degraded);
        let mut w = JsonWriter::new();
        w.f64(published.wns);
        let wns = w.finish();
        assert!(lane_wns.contains(&format!("\"wns\":{wns},")), "{lane_wns}");
        close(&registry);
    }

    #[test]
    fn hello_reports_protocol_window_and_sessions() {
        let (registry, _entries) = registry_with(&["b", "a"]);
        let r = parse(&render_hello(&registry, None)).unwrap();
        assert_eq!(r.get("proto").and_then(Value::as_u64), Some(2));
        assert_eq!(r.get("proto_min").and_then(Value::as_u64), Some(1));
        assert_eq!(r.get("proto_max").and_then(Value::as_u64), Some(2));
        match r.get("sessions").unwrap() {
            Value::Arr(a) => {
                let names: Vec<&str> = a.iter().filter_map(Value::as_str).collect();
                assert_eq!(names, vec!["a", "b"], "sorted session list");
            }
            other => panic!("{other:?}"),
        }
        // Negotiation clamps into the supported window.
        let r = parse(&render_hello(&registry, Some(1))).unwrap();
        assert_eq!(r.get("proto").and_then(Value::as_u64), Some(1));
        let r = parse(&render_hello(&registry, Some(99))).unwrap();
        assert_eq!(r.get("proto").and_then(Value::as_u64), Some(2));
        close(&registry);
    }

    #[test]
    fn stats_and_exposition_read_one_latency_histogram() {
        let (registry, entries) = registry_with(&["s"]);
        let handle = &entries[0].handle;
        for us in [3, 5, 100, 7_000] {
            observe_us(&handle.latency, "wns", Duration::from_micros(us));
        }
        let session = Session::new();
        let st = parse(&render_stats(&session, handle, &registry, &registry.shared)).unwrap();
        let wns = st.get("commands").and_then(|c| c.get("wns")).unwrap();
        let field = |key| wns.get(key).and_then(Value::as_u64).unwrap();
        let (count, max_us, p50_us) = (field("count"), field("max_us"), field("p50_us"));
        assert_eq!((count, max_us, p50_us), (4, 7_000, 8));

        let m = parse(&render_metrics(
            &session,
            handle,
            &registry,
            &registry.shared,
        ))
        .unwrap();
        let text = m.get("exposition").and_then(Value::as_str).unwrap();
        let series = "mgba_server_session_command_latency_us";
        let labels = "session=\"s\",cmd=\"wns\"";
        assert!(
            text.contains(&format!("{series}_count{{{labels}}} {count}.0\n")),
            "{text}"
        );
        // Cumulative (le, count) pairs of the command's finite buckets.
        let prefix = format!("{series}_bucket{{{labels},le=\"");
        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix)?.split_once("\"} "))
            .filter(|(le, _)| *le != "+Inf")
            .map(|(le, c)| (le.parse().unwrap(), c.parse::<f64>().unwrap() as u64))
            .collect();
        assert_eq!(buckets.last().map(|b| b.1), Some(count), "{text}");
        // p50 is the first bound whose cumulative count reaches half the
        // requests, clamped to the slowest one; the slowest lies in the
        // last bucket that gained a request.
        let p50 = buckets.iter().find(|b| 2 * b.1 >= count).unwrap().0;
        assert_eq!(p50.min(max_us as f64), p50_us as f64);
        let top = buckets.iter().position(|b| b.1 == count).unwrap();
        assert!(buckets[top - 1].0 < max_us as f64 && max_us as f64 <= buckets[top].0);
        close(&registry);
    }

    #[test]
    fn stats_and_metrics_render_per_session_and_merged_views() {
        let (registry, entries) = registry_with(&["alpha", "beta"]);
        let alpha = &entries[0];
        let beta = &entries[1];
        observe_us(&alpha.handle.latency, "ping", Duration::from_micros(12));
        observe_us(&beta.handle.latency, "wns", Duration::from_micros(4));
        observe_us(&beta.handle.latency, "wns", Duration::from_micros(70_000));
        beta.handle.whatif_sizes.lock().unwrap().observe(3.0);
        let mut session = Session::new();
        session
            .handle(&Command::Load {
                spec: "small:7".into(),
                period: None,
            })
            .unwrap();

        let st = parse(&render_stats(
            &session,
            &alpha.handle,
            &registry,
            &registry.shared,
        ))
        .unwrap();
        let server = st.get("server").unwrap();
        assert_eq!(server.get("sessions").and_then(Value::as_u64), Some(2));
        assert_eq!(st.get("session").and_then(Value::as_str), Some("alpha"));
        // Own-session commands vs the merged view.
        let own = st.get("commands").unwrap();
        assert!(own.get("ping").is_some());
        assert!(own.get("wns").is_none());
        let all = st.get("commands_all").unwrap();
        assert!(all.get("ping").is_some());
        assert_eq!(
            all.get("wns")
                .and_then(|w| w.get("count"))
                .and_then(Value::as_u64),
            Some(2)
        );
        // The stats-serving session's engine view is live.
        assert!(st.get("engine").unwrap().get("design").is_some());

        let m = parse(&render_metrics(
            &session,
            &alpha.handle,
            &registry,
            &registry.shared,
        ))
        .unwrap();
        let text = m.get("exposition").and_then(Value::as_str).unwrap();
        obs::prom::validate(text).expect("conformant exposition");
        assert!(text.contains("mgba_server_sessions 2.0"), "{text}");
        // Original series names stay valid (merged across sessions)...
        assert!(
            text.contains("mgba_server_command_latency_us_count{cmd=\"wns\"} 2"),
            "{text}"
        );
        // ...and the per-session family breaks them down.
        assert!(
            text.contains(
                "mgba_server_session_command_latency_us_count{session=\"beta\",cmd=\"wns\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains("mgba_session_degraded{session=\"alpha\"} 0"),
            "{text}"
        );
        // Engine gauges are labeled with the serving session's name
        // (alpha is live-loaded; beta published nothing and has no
        // sample).
        assert!(
            text.contains("mgba_engine_wns{session=\"alpha\"}"),
            "{text}"
        );
        assert!(
            !text.contains("mgba_engine_wns{session=\"beta\"}"),
            "{text}"
        );
        assert!(
            text.contains("mgba_server_whatif_batch_size_count 1"),
            "{text}"
        );
        close(&registry);
    }
}
