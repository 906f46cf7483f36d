//! Typed wire client for the daemon: connect/timeout/retry, protocol
//! v2 session addressing, and parsed response envelopes.
//!
//! The CLI `query` command and the bench harness both speak the
//! protocol through this module instead of hand-rolling JSON lines, so
//! there is exactly one encoder ([`proto::render_request`]) and one
//! envelope decoder ([`Response::parse`]) in the tree.
//!
//! The client is deliberately synchronous and pipelining-friendly:
//! [`Client::call`] is one strict request/response round trip, while
//! [`Client::send`] / [`Client::recv`] split the two halves so a bench
//! loop can keep many requests in flight on one connection.

use crate::json::{self, Value};
use crate::proto::{self, Command};
use mgba::MgbaError;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side connection tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-I/O timeout (read and write), milliseconds. `0` disables.
    pub timeout_ms: u64,
    /// Extra connect attempts after the first fails (covers a daemon
    /// that is still binding its port). The same budget governs
    /// mid-flight reconnects: a connection reset/refused/EOF while a
    /// request is outstanding triggers a reconnect (itself retried
    /// under this policy) and a replay of every unanswered request —
    /// so a client rides through a server restart. Replay is
    /// at-least-once: a mutation the server acknowledged to its WAL
    /// just before dying may be applied again on replay.
    pub connect_retries: u32,
    /// Initial sleep between connect attempts, milliseconds (doubles
    /// after every failed retry).
    pub backoff_ms: u64,
    /// Protocol version to speak: `2` (sessions) or `1` (legacy
    /// sessionless requests; the server answers `deprecated:true`).
    pub proto: u64,
    /// Session this client addresses (ignored at `proto: 1`).
    pub session: String,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            timeout_ms: 30_000,
            connect_retries: 2,
            backoff_ms: 50,
            proto: proto::PROTO_MAX,
            session: proto::DEFAULT_SESSION.to_owned(),
        }
    }
}

/// A structured `error` object from a response envelope.
#[derive(Debug, Clone)]
pub struct WireError {
    /// Error category (legacy key; always equals `code`).
    pub kind: String,
    /// Stable error code: `parse`, `solver`, `io`, `usage`, `timeout`,
    /// `internal`, `overload`, `deadline`, or `shutdown`.
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// One parsed response envelope.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed request id.
    pub id: Option<u64>,
    /// `true` on success.
    pub ok: bool,
    /// Session that served the request (v2 envelopes only).
    pub session: Option<String>,
    /// `true` when the server flagged the request as using the
    /// deprecated v1 sessionless addressing.
    pub deprecated: bool,
    /// `true` while the session serves fault-recovered state without
    /// calibration.
    pub degraded: bool,
    /// Parsed `result` payload on success.
    pub result: Option<Value>,
    /// Structured error on failure.
    pub error: Option<WireError>,
    /// The raw response line, verbatim.
    pub raw: String,
}

impl Response {
    /// Parses one envelope line.
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Internal`] when the line is not a JSON
    /// object with a boolean `ok` key — the server side of the wire is
    /// broken, not the caller.
    pub fn parse(line: &str) -> Result<Self, MgbaError> {
        let v = json::parse(line)
            .map_err(|e| MgbaError::Internal(format!("malformed response line: {e}")))?;
        let ok = v
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or_else(|| MgbaError::Internal("response missing `ok`".into()))?;
        let error = v.get("error").map(|e| WireError {
            kind: e
                .get("kind")
                .and_then(Value::as_str)
                .unwrap_or("internal")
                .to_owned(),
            code: e
                .get("code")
                .and_then(Value::as_str)
                .unwrap_or("internal")
                .to_owned(),
            message: e
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned(),
        });
        Ok(Self {
            id: v.get("id").and_then(Value::as_u64),
            ok,
            session: v.get("session").and_then(Value::as_str).map(str::to_owned),
            deprecated: v
                .get("deprecated")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            degraded: v.get("degraded").and_then(Value::as_bool).unwrap_or(false),
            result: v.get("result").cloned(),
            error,
            raw: line.to_owned(),
        })
    }

    /// The successful `result`, or the wire error converted to
    /// [`MgbaError`].
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Internal`] carrying `code: message` when the
    /// envelope reports failure.
    pub fn into_result(self) -> Result<Value, MgbaError> {
        if self.ok {
            Ok(self.result.unwrap_or(Value::Null))
        } else {
            let e = self.error.unwrap_or(WireError {
                kind: "internal".into(),
                code: "internal".into(),
                message: "malformed error envelope".into(),
            });
            Err(MgbaError::Internal(format!("{e}")))
        }
    }
}

/// True for the I/O failures a server restart produces mid-connection:
/// reset/aborted/refused, a broken pipe, or a clean server-side close.
/// Timeouts are deliberately excluded — a slow server is not a dead one.
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// A connected protocol client (one TCP stream, line-oriented).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    config: ClientConfig,
    next_id: u64,
    /// Connect target, kept so mid-flight disconnects can reconnect.
    addr: String,
    /// Request lines sent but not yet answered, in send order — resent
    /// verbatim after a mid-flight reconnect so the caller's pending
    /// `recv`s still complete.
    outstanding: std::collections::VecDeque<String>,
}

impl Client {
    /// Connects to `addr` with the config's retry/backoff/timeout
    /// policy: `connect_retries` extra attempts under exponential
    /// backoff starting at `backoff_ms`, each attempt (and later every
    /// read/write) bounded by `timeout_ms`.
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Io`] when every connect attempt fails or the
    /// socket rejects its timeout configuration.
    pub fn connect(addr: &str, config: ClientConfig) -> Result<Self, MgbaError> {
        let (reader, writer) = Self::open_stream(addr, &config)?;
        Ok(Self {
            reader,
            writer,
            config,
            next_id: 0,
            addr: addr.to_owned(),
            outstanding: std::collections::VecDeque::new(),
        })
    }

    /// One full connect cycle under the config's retry/backoff/timeout
    /// policy (shared by [`Client::connect`] and mid-flight
    /// reconnects).
    fn open_stream(
        addr: &str,
        config: &ClientConfig,
    ) -> Result<(BufReader<TcpStream>, TcpStream), MgbaError> {
        use std::net::ToSocketAddrs as _;
        let connect_once = || -> std::io::Result<TcpStream> {
            if config.timeout_ms == 0 {
                return TcpStream::connect(addr);
            }
            let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotFound, "address resolved to nothing")
            })?;
            TcpStream::connect_timeout(&sock, Duration::from_millis(config.timeout_ms))
        };
        let mut delay = Duration::from_millis(config.backoff_ms.max(1));
        let mut last_err = None;
        for attempt in 0..=config.connect_retries {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay *= 2;
            }
            match connect_once() {
                Ok(stream) => {
                    let timeout =
                        (config.timeout_ms > 0).then(|| Duration::from_millis(config.timeout_ms));
                    stream
                        .set_read_timeout(timeout)
                        .and_then(|()| stream.set_write_timeout(timeout))
                        .map_err(|e| MgbaError::io(addr, e))?;
                    let _ = stream.set_nodelay(true);
                    let writer = stream.try_clone().map_err(|e| MgbaError::io(addr, e))?;
                    return Ok((BufReader::new(stream), writer));
                }
                Err(e) => last_err = Some(e),
            }
        }
        let last_err = last_err.unwrap_or_else(|| std::io::Error::other("no connect attempt ran"));
        let last_err = if config.connect_retries > 0 {
            std::io::Error::new(
                last_err.kind(),
                format!(
                    "connect failed after retry {0}/{0}: {last_err}",
                    config.connect_retries
                ),
            )
        } else {
            last_err
        };
        Err(MgbaError::io(addr, last_err))
    }

    /// Re-establishes the connection and resends every unanswered
    /// request line in send order, so pending `recv`s still complete
    /// (against the restarted server's replies).
    fn reconnect_and_replay(&mut self) -> Result<(), MgbaError> {
        let (reader, writer) = Self::open_stream(&self.addr, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        for i in 0..self.outstanding.len() {
            let line = self.outstanding[i].clone();
            self.writer
                .write_all(line.as_bytes())
                .and_then(|()| self.writer.write_all(b"\n"))
                .map_err(|e| MgbaError::io("send (replay)", e))?;
        }
        Ok(())
    }

    /// The session this client addresses.
    pub fn session(&self) -> &str {
        &self.config.session
    }

    /// Points subsequent requests at a different session.
    pub fn set_session(&mut self, session: impl Into<String>) {
        self.config.session = session.into();
    }

    /// Sends `cmd` without waiting for the response; returns the
    /// request id. Pair with [`Client::recv`] — responses come back in
    /// send order, so a pipelined loop is `N × send` then `N × recv`.
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Io`] when the write fails or times out.
    pub fn send(&mut self, cmd: &Command, deadline_ms: Option<u64>) -> Result<u64, MgbaError> {
        self.next_id += 1;
        let id = self.next_id;
        let session = (self.config.proto >= 2).then_some(self.config.session.as_str());
        let line = proto::render_request(Some(id), self.config.proto, session, cmd, deadline_ms);
        self.send_raw(&line)?;
        Ok(id)
    }

    /// Writes one raw request line (escape hatch for pre-rendered or
    /// intentionally malformed requests). A disconnect during the write
    /// reconnects and replays under the retry policy.
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Io`] when the write fails or times out.
    pub fn send_raw(&mut self, line: &str) -> Result<(), MgbaError> {
        self.outstanding.push_back(line.to_owned());
        let wrote = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"));
        match wrote {
            Ok(()) => Ok(()),
            Err(e) if is_disconnect(&e) && self.config.connect_retries > 0 => {
                // The replay includes the line just queued.
                self.reconnect_and_replay()
            }
            Err(e) => {
                self.outstanding.pop_back();
                Err(MgbaError::io("send", e))
            }
        }
    }

    /// Reads one line, mapping a server-closed stream to
    /// [`std::io::ErrorKind::UnexpectedEof`].
    fn read_line_once(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Reads one raw response line. A disconnect while requests are
    /// outstanding (the server restarted mid-flight) reconnects,
    /// replays the unanswered requests, and keeps reading — bounded by
    /// the config's `connect_retries` budget.
    ///
    /// # Errors
    ///
    /// Returns [`MgbaError::Io`] on timeout, a non-retryable disconnect,
    /// or an exhausted retry budget.
    pub fn recv_raw(&mut self) -> Result<String, MgbaError> {
        let mut reconnects = 0u32;
        loop {
            match self.read_line_once() {
                Ok(line) => {
                    self.outstanding.pop_front();
                    return Ok(line);
                }
                Err(e)
                    if is_disconnect(&e)
                        && !self.outstanding.is_empty()
                        && reconnects < self.config.connect_retries =>
                {
                    reconnects += 1;
                    self.reconnect_and_replay()?;
                }
                Err(e) => return Err(MgbaError::io("recv", e)),
            }
        }
    }

    /// Reads and parses one response envelope.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::recv_raw`] I/O errors and
    /// [`Response::parse`] errors.
    pub fn recv(&mut self) -> Result<Response, MgbaError> {
        let line = self.recv_raw()?;
        Response::parse(&line)
    }

    /// One strict round trip: send `cmd`, wait for its response.
    ///
    /// # Errors
    ///
    /// Propagates send/receive errors; a response with `ok:false` is
    /// still `Ok` (inspect [`Response::error`] or use
    /// [`Response::into_result`]).
    pub fn call(&mut self, cmd: &Command) -> Result<Response, MgbaError> {
        self.send(cmd, None)?;
        self.recv()
    }

    /// Performs the `hello` handshake and pins `config.proto` to the
    /// granted version.
    ///
    /// # Errors
    ///
    /// Propagates round-trip errors; fails with [`MgbaError::Internal`]
    /// when the server refuses the handshake.
    pub fn hello(&mut self) -> Result<Response, MgbaError> {
        let max = self.config.proto;
        let resp = self.call(&Command::Hello {
            max_proto: Some(max),
        })?;
        if !resp.ok {
            return Err(MgbaError::Internal(format!(
                "hello rejected: {}",
                resp.error
                    .as_ref()
                    .map(|e| e.message.as_str())
                    .unwrap_or("?")
            )));
        }
        if let Some(granted) = resp
            .result
            .as_ref()
            .and_then(|r| r.get("proto"))
            .and_then(Value::as_u64)
        {
            self.config.proto = granted;
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    #[test]
    fn typed_round_trips_hello_sessions_and_errors() {
        let (addr, server) = spawn_server(ServerConfig::default());
        let mut c = Client::connect(
            &addr,
            ClientConfig {
                session: "opt-a".into(),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let hello = c.hello().unwrap();
        let granted = hello.result.as_ref().unwrap();
        assert_eq!(granted.get("proto").and_then(Value::as_u64), Some(2));

        let pong = c.call(&Command::Ping).unwrap();
        assert!(pong.ok);
        assert_eq!(pong.session.as_deref(), Some("opt-a"));
        assert!(!pong.deprecated);
        assert!(pong.result.unwrap().get("pong").is_some());

        // Typed error envelope: no design loaded yet.
        let err = c.call(&Command::Wns).unwrap();
        assert!(!err.ok);
        let wire = err.error.clone().unwrap();
        assert_eq!(wire.code, "usage");
        assert_eq!(wire.kind, "usage");
        assert!(wire.message.contains("no design loaded"), "{wire}");
        assert!(err.into_result().is_err());

        // v1 addressing round trip on a second connection.
        let mut v1 = Client::connect(
            &addr,
            ClientConfig {
                proto: 1,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let pong = v1.call(&Command::Ping).unwrap();
        assert!(pong.ok && pong.deprecated);
        assert_eq!(pong.session, None);

        let bye = c.call(&Command::Shutdown).unwrap();
        assert!(bye.ok, "{}", bye.raw);
        server.join().unwrap();
    }

    #[test]
    fn pipelined_sends_return_responses_in_order() {
        let (addr, server) = spawn_server(ServerConfig::default());
        let mut c = Client::connect(&addr, ClientConfig::default()).unwrap();
        let ids: Vec<u64> = (0..16)
            .map(|_| c.send(&Command::Ping, None).unwrap())
            .collect();
        for id in ids {
            let resp = c.recv().unwrap();
            assert_eq!(resp.id, Some(id));
            assert!(resp.ok);
        }
        c.call(&Command::Shutdown).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn connect_retries_give_up_with_io_error() {
        // Nothing listens here; all attempts must fail fast.
        let err = Client::connect(
            "127.0.0.1:1",
            ClientConfig {
                connect_retries: 1,
                backoff_ms: 1,
                ..ClientConfig::default()
            },
        );
        let Err(e) = err else {
            panic!("connect to a dead port must fail")
        };
        assert!(matches!(e, MgbaError::Io { .. }));
        let msg = e.to_string();
        assert!(msg.contains("retry 1/1"), "{msg}");
    }
}
