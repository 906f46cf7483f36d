//! The daemon: bounded admission, per-session writer lanes, TCP and
//! stdio front-ends.
//!
//! # Threading model
//!
//! The server hosts many named sessions (see [`crate::registry`]). Each
//! session's commands, reads included, funnel through its own **writer
//! lane** — one thread that owns the session state and executes jobs
//! strictly in admission order. Responses per session therefore depend
//! only on that session's request sequence, never on connection
//! interleaving or the `--threads` setting (the engine's parallel
//! kernels are themselves bit-identical across thread counts).
//!
//! Each TCP connection gets a reader thread (parse + admit) and a
//! writer thread that emits responses **in admission order**: admission
//! enqueues a per-request reply slot, and the writer drains slots
//! first-in-first-out no matter which lane produced each reply.
//!
//! # Backpressure
//!
//! Lane admission goes through a bounded [`mpsc::sync_channel`]. When
//! the queue is full the reader does **not** block — it immediately
//! answers with an `"overload"` error envelope. A saturated server
//! therefore stays responsive: clients always get an answer, just
//! sometimes "try later".
//!
//! # Deadlines
//!
//! `deadline_ms` (per request, or `--deadline-ms` server default) is
//! checked when a lane *dequeues* the request: work that already missed
//! its deadline while queued is rejected with a `"deadline"` envelope
//! instead of being executed. Deadlines are admission control, not
//! preemption — a request that starts executing runs to completion.
//!
//! # Shutdown
//!
//! `shutdown` answers `{"draining":true}`, then every lane drains the
//! requests admitted before it and exits; late arrivals get a
//! `"shutdown"` envelope. On TCP the accept loop notices the flag
//! within one poll interval and `run` returns.

use crate::proto::{self, Command};
use crate::registry::{self, AdmitRejection, Registry, SessionHandle, Shared};
use mgba::MgbaError;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Tunables for a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded per-session request-queue depth; admissions beyond this
    /// are rejected with an `"overload"` envelope.
    pub queue_depth: usize,
    /// Default per-request deadline applied when a request carries none.
    pub default_deadline_ms: Option<u64>,
    /// Evict sessions idle longer than this many seconds (`None` or
    /// `Some(0)` = never). Eviction is lazy — checked when the next
    /// admission resolves a session — and releases the lane thread and
    /// resident engine; clients can also evict explicitly with the
    /// `close_session` command.
    pub session_ttl_secs: Option<u64>,
    /// Slow-query threshold in milliseconds (`--slow-ms`). Lane commands
    /// whose execution takes at least this long are recorded in the
    /// per-session slow-query ring served by the `slowlog` command.
    /// `None` (the default) disables recording; `Some(0)` records every
    /// non-read command, which is the deterministic test mode.
    pub slow_ms: Option<u64>,
    /// Durable session state (`--state-dir DIR`): every session gets a
    /// write-ahead log plus periodic checkpoints under `DIR`, and the
    /// registry replays them on startup. `None` (the default) keeps the
    /// server fully in-memory with zero per-request overhead.
    pub state_dir: Option<std::path::PathBuf>,
    /// With `state_dir` set: write an on-disk checkpoint (and compact
    /// the WAL) after this many logged mutations per session.
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            default_deadline_ms: None,
            session_ttl_secs: None,
            slow_ms: None,
            state_dir: None,
            checkpoint_every: 32,
        }
    }
}

impl ServerConfig {
    /// The effective TTL (`Some(0)` means disabled, like `None`).
    fn session_ttl(&self) -> Option<Duration> {
        self.session_ttl_secs
            .filter(|s| *s > 0)
            .map(Duration::from_secs)
    }

    /// The registry-level durability settings (`None` = off).
    fn durability(&self) -> Option<registry::DurabilityConfig> {
        self.state_dir
            .as_ref()
            .map(|dir| registry::DurabilityConfig {
                state_dir: dir.clone(),
                checkpoint_every: self.checkpoint_every.max(1),
            })
    }
}

/// Everything admission needs, cloned per connection: the session
/// registry and the shared counters.
#[derive(Clone)]
struct Gate {
    registry: Arc<Registry>,
    shared: Arc<Shared>,
    default_deadline_ms: Option<u64>,
}

/// A reply slot: the receiver the stream's writer drains next, plus the
/// session handle to attribute the reply-write stage to (None for
/// replies that never reached a session — handshakes, rejects,
/// malformed input).
type ReplySlot = (Receiver<String>, Option<Arc<SessionHandle>>);

/// Reads request lines, admits them, and answers what never reaches a
/// lane (handshakes, rejects, malformed input) inline. Shared by TCP
/// connections and stdio mode.
///
/// Response ordering: every line — served or rejected — enqueues exactly
/// one reply slot on `slot_tx`, in line order (this loop is sequential),
/// and the stream's writer drains slots in that order. Responses
/// therefore come back in admission order even when the requests of
/// one connection execute on several sessions' lanes.
fn serve_lines(reader: impl BufRead, slot_tx: &mpsc::Sender<ReplySlot>, gate: &Gate) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let parsed = proto::parse_request(&line);
        let (reply_tx, reply_rx) = mpsc::channel::<String>();
        // Malformed input is answered, never dropped — and the
        // connection keeps serving. Its slot is queued like any other,
        // so the error still lands in admission order.
        let mut request = match parsed {
            Ok(request) => request,
            Err((meta, error)) => {
                obs::counter_add("server.requests.malformed", 1);
                gate.shared.served.fetch_add(1, Ordering::SeqCst);
                let _ = reply_tx.send(proto::mgba_error_envelope(&meta, &error));
                if slot_tx.send((reply_rx, None)).is_err() {
                    // Writer gone: the peer disconnected mid-stream.
                    break;
                }
                continue;
            }
        };
        if request.deadline_ms.is_none() {
            request.deadline_ms = gate.default_deadline_ms;
        }
        let meta = request.meta();
        if gate.shared.shutting_down.load(Ordering::SeqCst) {
            let _ = reply_tx.send(proto::error_envelope(
                &meta,
                "shutdown",
                "server is draining",
            ));
            if slot_tx.send((reply_rx, None)).is_err() {
                break;
            }
            continue;
        }
        // `hello` is the handshake: answered at admission, it needs no
        // session state and creates no session.
        if let Command::Hello { max_proto } = &request.cmd {
            gate.shared.served.fetch_add(1, Ordering::SeqCst);
            obs::counter_add("server.requests.hello", 1);
            let result = registry::render_hello(&gate.registry, *max_proto);
            let _ = reply_tx.send(proto::ok_envelope(&meta, false, &result));
            if slot_tx.send((reply_rx, None)).is_err() {
                break;
            }
            continue;
        }
        // `close_session` operates on the registry map, not on session
        // state, so it too answers at admission — and never creates the
        // session it is asked to close.
        if matches!(request.cmd, Command::CloseSession) {
            gate.shared.served.fetch_add(1, Ordering::SeqCst);
            obs::counter_add("server.requests.close_session", 1);
            let closed = gate.registry.remove(&request.session);
            let mut w = obs::json::JsonWriter::new();
            w.begin_obj();
            w.key("closed");
            w.bool(closed);
            w.end_obj();
            let _ = reply_tx.send(proto::ok_envelope(&meta, false, &w.finish()));
            if slot_tx.send((reply_rx, None)).is_err() {
                break;
            }
            continue;
        }
        let entry = match gate.registry.session(&request.session) {
            Ok(entry) => entry,
            Err(AdmitRejection::Draining) => {
                let _ = reply_tx.send(proto::error_envelope(
                    &meta,
                    "shutdown",
                    "server is draining",
                ));
                if slot_tx.send((reply_rx, None)).is_err() {
                    break;
                }
                continue;
            }
            Err(AdmitRejection::TooManySessions) => {
                let _ = reply_tx.send(proto::error_envelope(
                    &meta,
                    "usage",
                    &format!(
                        "too many sessions ({} resident); reuse an existing session name",
                        registry::MAX_SESSIONS
                    ),
                ));
                if slot_tx.send((reply_rx, None)).is_err() {
                    break;
                }
                continue;
            }
        };
        if slot_tx
            .send((reply_rx, Some(Arc::clone(&entry.handle))))
            .is_err()
        {
            break;
        }
        let is_shutdown = matches!(request.cmd, Command::Shutdown);
        match entry.handle.admit_lane(
            &entry.lane_tx,
            meta,
            request.cmd,
            request.deadline_ms,
            reply_tx,
        ) {
            Ok(()) => {
                if is_shutdown {
                    // Stop reading: this connection asked us to exit.
                    break;
                }
            }
            Err(TrySendError::Full(mut job)) => {
                // The admission rolled the request id back; the rejection
                // envelope must not carry the id the next admitted
                // request will reuse.
                job.meta.request_id = None;
                gate.shared.rejected_overload.fetch_add(1, Ordering::SeqCst);
                obs::counter_add("server.rejected.overload", 1);
                let _ = job.reply.send(proto::error_envelope(
                    &job.meta,
                    "overload",
                    &format!(
                        "request queue full ({} deep); retry later",
                        gate.shared.queue_depth
                    ),
                ));
            }
            Err(TrySendError::Disconnected(mut job)) => {
                job.meta.request_id = None;
                let _ = job.reply.send(proto::error_envelope(
                    &job.meta,
                    "shutdown",
                    "server is draining",
                ));
                break;
            }
        }
    }
}

/// Writes one reply line per slot, in slot order, until the slots run
/// out or the sink fails, recording each write as its session's
/// `reply_write` stage.
fn write_replies(w: &mut impl Write, slots: Receiver<ReplySlot>) {
    for (slot, handle) in slots {
        // A dropped reply sender (job discarded at teardown) just skips
        // the slot; admitted-and-served replies always arrive.
        let Ok(line) = slot.recv() else { continue };
        let start = Instant::now();
        if w.write_all(line.as_bytes()).is_err()
            || w.write_all(b"\n").is_err()
            || w.flush().is_err()
        {
            break;
        }
        if let Some(handle) = &handle {
            let d = start.elapsed();
            handle.record_stage("reply_write", d);
            if obs::trace_enabled() {
                obs::trace::emit_complete("reply_write", start, d);
            }
        }
    }
}

/// One TCP connection: a reader (this thread) plus a writer thread that
/// drains reply slots in admission order.
fn connection(stream: TcpStream, gate: Gate) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (slot_tx, slot_rx) = mpsc::channel::<ReplySlot>();
    let writer = thread::spawn(move || write_replies(&mut BufWriter::new(write_half), slot_rx));
    serve_lines(BufReader::new(stream), &slot_tx, &gate);
    drop(slot_tx);
    // Reader done; the writer exits once every admitted request's reply
    // has been drained.
    let _ = writer.join();
}

/// A bound TCP server, ready to `run`.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7400`; port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Io`] when the address cannot be bound.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<Self, MgbaError> {
        let listener = TcpListener::bind(addr).map_err(|e| MgbaError::io(addr, e))?;
        Ok(Self { listener, config })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Io`] when the socket refuses to report it.
    pub fn local_addr(&self) -> Result<SocketAddr, MgbaError> {
        self.listener
            .local_addr()
            .map_err(|e| MgbaError::io("listener", e))
    }

    /// Serves connections until a `shutdown` request drains the lanes.
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Io`] when the listener cannot be switched to
    /// non-blocking mode (required for graceful exit).
    pub fn run(self) -> Result<(), MgbaError> {
        let _span = obs::span("server.run");
        self.listener
            .set_nonblocking(true)
            .map_err(|e| MgbaError::io("listener", e))?;
        let shared = Arc::new(Shared::new(self.config.queue_depth));
        let registry = Registry::new(
            self.config.queue_depth,
            Arc::clone(&shared),
            self.config.session_ttl(),
            self.config.slow_ms,
            self.config.durability(),
        );
        // Crash-safe restart: rebuild every durable session from its
        // checkpoint + WAL tail before the first connection is accepted.
        registry.recover();
        let gate = Gate {
            registry: Arc::clone(&registry),
            shared: Arc::clone(&shared),
            default_deadline_ms: self.config.default_deadline_ms,
        };
        while !shared.shutting_down.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Request/response JSON lines are small writes; with
                    // Nagle on, every strict (non-pipelined) round trip
                    // stalls on the peer's delayed ACK (~40 ms). Latency
                    // is the product here — trade the batching away.
                    let _ = stream.set_nodelay(true);
                    obs::counter_add("server.connections", 1);
                    let gate = gate.clone();
                    thread::spawn(move || connection(stream, gate));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    // Transient accept failure; keep serving.
                    thread::sleep(ACCEPT_POLL);
                }
            }
        }
        drop(gate);
        for lane in registry.close() {
            let _ = lane.join();
        }
        Ok(())
    }
}

/// Serves one request stream to one response sink (no TCP). This is the
/// `--stdio` engine and the deterministic unit-test entry: responses
/// come back in admission order on the returned writer.
///
/// Exits when the input ends or a `shutdown` request is served; either
/// way every lane drains before the writer is returned.
///
/// # Errors
///
/// Currently infallible at this layer (I/O failures terminate the
/// stream, matching a disconnecting client); the `Result` keeps the
/// signature stable for front-ends that must report bind-style errors.
pub fn serve_stream<R, W>(config: &ServerConfig, reader: R, writer: W) -> Result<W, MgbaError>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let shared = Arc::new(Shared::new(config.queue_depth));
    let registry = Registry::new(
        config.queue_depth,
        Arc::clone(&shared),
        config.session_ttl(),
        config.slow_ms,
        config.durability(),
    );
    registry.recover();
    let gate = Gate {
        registry: Arc::clone(&registry),
        shared: Arc::clone(&shared),
        default_deadline_ms: config.default_deadline_ms,
    };
    let (slot_tx, slot_rx) = mpsc::channel::<ReplySlot>();
    let writer_thread = thread::spawn(move || {
        let mut w = writer;
        write_replies(&mut w, slot_rx);
        w
    });
    serve_lines(reader, &slot_tx, &gate);
    // Teardown order matters: close lanes first (they send the last
    // replies), then close the slot stream so the writer drains and
    // returns.
    for lane in registry.close() {
        let _ = lane.join();
    }
    drop(gate);
    drop(slot_tx);
    let writer = writer_thread
        .join()
        .unwrap_or_else(|_| panic!("writer thread panicked"));
    Ok(writer)
}

/// Runs the daemon over stdin/stdout (`serve --stdio`).
///
/// # Errors
///
/// Propagates [`serve_stream`] errors.
pub fn serve_stdio(config: &ServerConfig) -> Result<(), MgbaError> {
    let stdin = std::io::stdin();
    serve_stream(config, stdin.lock(), std::io::stdout())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_session(config: &ServerConfig, script: &str) -> Vec<String> {
        let out = serve_stream(config, script.as_bytes(), Vec::<u8>::new()).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn stream_serves_in_order_and_drains_on_eof() {
        let script = "{\"id\":1,\"cmd\":\"ping\"}\n{\"id\":2,\"cmd\":\"ping\"}\n";
        let lines = run_session(&ServerConfig::default(), script);
        // v1 requests keep working, flagged as deprecated.
        assert_eq!(
            lines,
            vec![
                "{\"id\":1,\"ok\":true,\"deprecated\":true,\"result\":{\"pong\":true}}",
                "{\"id\":2,\"ok\":true,\"deprecated\":true,\"result\":{\"pong\":true}}",
            ]
        );
    }

    #[test]
    fn v2_requests_carry_their_session_in_the_envelope() {
        let script = "{\"id\":1,\"proto\":2,\"session\":\"opt-a\",\"cmd\":\"ping\"}\n";
        let lines = run_session(&ServerConfig::default(), script);
        assert_eq!(
            lines,
            vec![
                "{\"id\":1,\"ok\":true,\"session\":\"opt-a\",\"request_id\":1,\"result\":{\"pong\":true}}"
            ]
        );
    }

    #[test]
    fn malformed_line_gets_error_and_serving_continues() {
        let script = "this is not json\n{\"id\":7,\"cmd\":\"ping\"}\n";
        let lines = run_session(&ServerConfig::default(), script);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ok\":false"));
        assert!(lines[0].contains("\"kind\":\"usage\""));
        assert!(lines[0].contains("\"code\":\"usage\""));
        assert!(lines[1].contains("\"id\":7"));
        assert!(lines[1].contains("\"pong\":true"));
    }

    #[test]
    fn shutdown_stops_reading_further_input() {
        let script = "{\"id\":1,\"cmd\":\"shutdown\"}\n{\"id\":2,\"cmd\":\"ping\"}\n";
        let lines = run_session(&ServerConfig::default(), script);
        // The ping after shutdown is never read: exactly one response.
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"draining\":true"));
    }

    #[test]
    fn hello_negotiates_proto_and_lists_sessions() {
        let script = concat!(
            r#"{"id":1,"cmd":"hello"}"#,
            "\n",
            r#"{"id":2,"proto":2,"session":"opt-a","cmd":"ping"}"#,
            "\n",
            r#"{"id":3,"proto":2,"session":"default","cmd":"hello","max_proto":1}"#,
            "\n",
        );
        let lines = run_session(&ServerConfig::default(), script);
        assert_eq!(lines.len(), 3);
        // Before any addressed request: no sessions yet.
        assert!(lines[0].contains("\"proto\":2"), "{}", lines[0]);
        assert!(lines[0].contains("\"sessions\":[]"), "{}", lines[0]);
        // hello creates no session; the addressed ping created one.
        assert!(lines[2].contains("\"proto\":1"), "{}", lines[2]);
        assert!(
            lines[2].contains("\"sessions\":[\"opt-a\"]"),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn sessions_are_isolated_state_shards() {
        let script = concat!(
            r#"{"id":1,"proto":2,"session":"x","cmd":"load","design":"small:3"}"#,
            "\n",
            r#"{"id":2,"proto":2,"session":"y","cmd":"wns"}"#,
            "\n",
            r#"{"id":3,"proto":2,"session":"x","cmd":"wns"}"#,
            "\n",
        );
        let lines = run_session(&ServerConfig::default(), script);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        // Session y never loaded a design.
        assert!(lines[1].contains("\"code\":\"usage\""), "{}", lines[1]);
        assert!(lines[1].contains("no design loaded"), "{}", lines[1]);
        assert!(lines[2].contains("\"wns\":"), "{}", lines[2]);
    }

    #[test]
    fn metrics_command_lands_in_stats_latency_set() {
        // `metrics` is itself a command: the lane records its latency
        // like any other, so the following `stats` reports it.
        let script = "{\"id\":1,\"cmd\":\"metrics\"}\n{\"id\":2,\"cmd\":\"stats\"}\n";
        let lines = run_session(&ServerConfig::default(), script);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"exposition\""), "{}", lines[0]);
        assert!(lines[0].contains("mgba_server_queue_depth"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"metrics\":{\"count\":1"),
            "stats must include the metrics command: {}",
            lines[1]
        );
        assert!(
            lines[1].contains("\"session\":\"default\""),
            "stats names its session: {}",
            lines[1]
        );
    }

    #[test]
    fn expired_deadline_is_rejected_at_dequeue() {
        // sleep(30) occupies the lane while the deadline_ms:1 ping
        // waits in the queue past its deadline.
        let script = "{\"id\":1,\"cmd\":\"sleep\",\"ms\":30}\n\
                      {\"id\":2,\"cmd\":\"ping\",\"deadline_ms\":1}\n\
                      {\"id\":3,\"cmd\":\"ping\"}\n";
        let lines = run_session(&ServerConfig::default(), script);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"slept_ms\":30"));
        assert!(
            lines[1].contains("\"kind\":\"deadline\""),
            "got {}",
            lines[1]
        );
        assert!(lines[2].contains("\"pong\":true"));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_panic_is_isolated_and_state_auto_restores() {
        // Serialize against other failpoint-arming tests; arming happens
        // over the protocol, so take the lock manually instead of
        // `scoped`.
        let _lock = faultinject::exclusive();
        faultinject::clear();
        let script = concat!(
            r#"{"id":1,"cmd":"load","design":"small:3"}"#,
            "\n",
            r#"{"id":2,"cmd":"calibrate","solver":"cgnr"}"#,
            "\n",
            r#"{"id":3,"cmd":"wns"}"#,
            "\n",
            r#"{"id":4,"cmd":"failpoint","spec":"server.handle=panic*1"}"#,
            "\n",
            r#"{"id":5,"cmd":"wns"}"#,
            "\n",
            r#"{"id":6,"cmd":"wns"}"#,
            "\n",
            r#"{"id":7,"cmd":"stats"}"#,
            "\n",
        );
        let out = serve_stream(
            &ServerConfig::default(),
            script.as_bytes(),
            Vec::<u8>::new(),
        )
        .unwrap();
        faultinject::clear();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "{text}");
        // The arming request itself succeeds (it arms *after* the hook).
        assert!(lines[3].contains("\"applied\":1"), "{}", lines[3]);
        // The next request hits the one-shot panic: typed internal error.
        assert!(lines[4].contains("\"ok\":false"), "{}", lines[4]);
        assert!(lines[4].contains("\"kind\":\"internal\""), "{}", lines[4]);
        assert!(lines[4].contains("restored"), "{}", lines[4]);
        // The request after that is served from the auto-restored
        // calibrated state: same wns bytes as before the crash, and NOT
        // degraded (the checkpoint carried the calibration).
        assert!(lines[5].contains("\"ok\":true"), "{}", lines[5]);
        assert!(!lines[5].contains("degraded"), "{}", lines[5]);
        let wns_field = |line: &str| {
            let start = line.find("\"wns\":").expect("wns field") + 6;
            line[start..]
                .split(&[',', '}'][..])
                .next()
                .unwrap()
                .to_owned()
        };
        assert_eq!(wns_field(lines[2]), wns_field(lines[5]));
        assert!(lines[6].contains("\"panics\":1"), "{}", lines[6]);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn panic_before_calibration_degrades_until_recalibrated() {
        let _lock = faultinject::exclusive();
        faultinject::clear();
        let script = concat!(
            r#"{"id":1,"cmd":"load","design":"small:5"}"#,
            "\n",
            r#"{"id":2,"cmd":"failpoint","spec":"server.handle=panic*1"}"#,
            "\n",
            r#"{"id":3,"cmd":"wns"}"#,
            "\n",
            r#"{"id":4,"cmd":"wns"}"#,
            "\n",
            r#"{"id":5,"cmd":"calibrate","solver":"cgnr"}"#,
            "\n",
            r#"{"id":6,"cmd":"wns"}"#,
            "\n",
        );
        let out = serve_stream(
            &ServerConfig::default(),
            script.as_bytes(),
            Vec::<u8>::new(),
        )
        .unwrap();
        faultinject::clear();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "{text}");
        assert!(lines[2].contains("\"kind\":\"internal\""), "{}", lines[2]);
        // Restored state has no calibration: served, but flagged.
        assert!(lines[3].contains("\"ok\":true"), "{}", lines[3]);
        assert!(lines[3].contains("\"degraded\":true"), "{}", lines[3]);
        // A successful calibrate clears the flag.
        assert!(lines[4].contains("\"ok\":true"), "{}", lines[4]);
        assert!(!lines[5].contains("degraded"), "{}", lines[5]);
    }

    #[test]
    fn default_deadline_applies_when_request_has_none() {
        let config = ServerConfig {
            default_deadline_ms: Some(1),
            ..ServerConfig::default()
        };
        let script = "{\"id\":1,\"cmd\":\"sleep\",\"ms\":30}\n{\"id\":2,\"cmd\":\"ping\"}\n";
        let lines = run_session(&config, script);
        // The sleep itself is admitted instantly (no queue wait), so it
        // runs; the ping queued behind it exceeds the default deadline.
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"kind\":\"deadline\""), "{}", lines[1]);
    }
}
