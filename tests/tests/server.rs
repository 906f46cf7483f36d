//! Integration tests for the mgba-server daemon: a real TCP server on
//! localhost, plus the stdio stream engine for determinism checks.
//!
//! Protocol invariants exercised here:
//!
//! - the full command flow (load → calibrate → query → what-if → commit
//!   → snapshot → restore → stats → shutdown) works over TCP;
//! - responses are byte-identical under `--threads 1` and `--threads 4`;
//! - `metrics` rows for a session read the same whichever session
//!   serves the scrape;
//! - protocol v2: sessions shard state, every v2 envelope names its
//!   session, and concurrent clients get admission-ordered replies;
//! - protocol v1 requests still work sessionless, pinned byte-for-byte
//!   with the `"deprecated":true` envelope key;
//! - malformed requests get structured error envelopes and the server
//!   keeps serving;
//! - overload is an explicit rejection, not a hang: every request is
//!   answered even when the bounded queue is full;
//! - expired deadlines are rejected at dequeue;
//! - `shutdown` drains and the server process (thread) exits cleanly.

use server::client::{Client, ClientConfig};
use server::proto::Command;
use server::{serve_stream, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn start(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let srv = Server::bind("127.0.0.1:0", config).expect("bind localhost");
    let addr = srv.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || srv.run().expect("server run"));
    (addr, handle)
}

/// Pipelines `requests` over one connection and reads one response per
/// request, in order.
fn transact(addr: SocketAddr, requests: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    for r in requests {
        writeln!(w, "{r}").expect("send");
    }
    w.flush().expect("flush");
    BufReader::new(stream)
        .lines()
        .take(requests.len())
        .map(|l| l.expect("read response"))
        .collect()
}

fn ok(line: &str) -> bool {
    line.contains("\"ok\":true")
}

#[test]
fn full_command_flow_over_tcp() {
    let dir = std::env::temp_dir().join(format!(
        "mgba_server_integration_{}_flow",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("flow.snapshot");
    let snap_str = snap.to_str().unwrap();

    let (addr, handle) = start(ServerConfig::default());
    let snapshot_req = format!(r#"{{"id":9,"cmd":"snapshot","file":"{snap_str}"}}"#);
    let restore_req = format!(r#"{{"id":10,"cmd":"restore","file":"{snap_str}"}}"#);
    let requests = [
        r#"{"id":1,"cmd":"ping"}"#,
        r#"{"id":2,"cmd":"load","design":"small:5"}"#,
        r#"{"id":3,"cmd":"calibrate","solver":"scgrs"}"#,
        r#"{"id":4,"cmd":"slack","top":5}"#,
        r#"{"id":5,"cmd":"wns"}"#,
        r#"{"id":6,"cmd":"tns"}"#,
        r#"{"id":7,"cmd":"path","pba":true}"#,
        r#"{"id":8,"cmd":"stats"}"#,
        &snapshot_req,
        &restore_req,
        r#"{"id":11,"cmd":"wns"}"#,
        r#"{"id":12,"cmd":"shutdown"}"#,
    ];
    let responses = transact(addr, &requests);
    assert_eq!(responses.len(), requests.len());
    for (req, resp) in requests.iter().zip(&responses) {
        assert!(ok(resp), "request {req} failed: {resp}");
    }
    // Calibration actually installed weights…
    assert!(
        responses[2].contains("\"converged\":true"),
        "{}",
        responses[2]
    );
    // …and the restore reproduced the calibrated WNS bit-for-bit: the
    // wns queries before snapshot and after restore match.
    let wns_field = |line: &str| {
        let start = line.find("\"wns\":").expect("wns field") + 6;
        line[start..]
            .split(&[',', '}'][..])
            .next()
            .unwrap()
            .to_owned()
    };
    assert_eq!(wns_field(&responses[4]), wns_field(&responses[10]));
    assert!(responses[11].contains("\"draining\":true"));
    // Graceful drain-then-exit: run() returns, the thread joins.
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn responses_are_bit_identical_across_thread_counts_and_read_modes() {
    // Sessions serialize execution per writer lane, responses drain
    // through admission-ordered reply slots, and no envelope carries a
    // wall-clock field — so the entire response stream must be
    // byte-identical no matter how many threads the engine's parallel
    // kernels use. The script mixes v1 sessionless lines with v2
    // session-addressed lines across two sessions to pin the sharded
    // path too.
    //
    // Observability surfaces are part of the determinism contract: with
    // slow_ms 0 every non-read command lands in the slow-query ring, a
    // second fit grows the drift history, and both rings (plus the v2
    // `request_id` stamps) must serialize to the same bytes at every
    // thread count — no timing fields leak.
    let script = concat!(
        r#"{"id":1,"cmd":"load","design":"small:7"}"#,
        "\n",
        r#"{"id":2,"cmd":"calibrate","solver":"scgrs"}"#,
        "\n",
        r#"{"id":3,"proto":2,"session":"alpha","cmd":"load","design":"small:5"}"#,
        "\n",
        r#"{"id":4,"cmd":"commit","cell":"g_1_0_0","to":"up"}"#,
        "\n",
        r#"{"id":5,"proto":2,"session":"alpha","cmd":"calibrate","solver":"cgnr"}"#,
        "\n",
        r#"{"id":6,"cmd":"whatif_resize","cell":"g_1_1_0","to":"up"}"#,
        "\n",
        r#"{"id":7,"cmd":"slack","top":10}"#,
        "\n",
        r#"{"id":8,"cmd":"path","pba":true}"#,
        "\n",
        r#"{"id":9,"proto":2,"session":"alpha","cmd":"wns"}"#,
        "\n",
        r#"{"id":10,"cmd":"wns"}"#,
        "\n",
        r#"{"id":11,"proto":2,"session":"alpha","cmd":"tns"}"#,
        "\n",
        r#"{"id":12,"cmd":"tns"}"#,
        "\n",
        r#"{"id":13,"cmd":"lint"}"#,
        "\n",
        r#"{"id":14,"proto":2,"session":"alpha","cmd":"lint"}"#,
        "\n",
        "this line is not json\n",
        r#"{"id":15,"proto":2,"session":"alpha","cmd":"slowlog"}"#,
        "\n",
        r#"{"id":16,"proto":2,"session":"alpha","cmd":"history"}"#,
        "\n",
        r#"{"id":17,"cmd":"slowlog"}"#,
        "\n",
        r#"{"id":18,"cmd":"history"}"#,
        "\n",
        r#"{"id":19,"cmd":"health"}"#,
        "\n",
        r#"{"id":20,"proto":2,"session":"alpha","cmd":"health"}"#,
        "\n",
        r#"{"id":21,"cmd":"shutdown"}"#,
        "\n",
    );
    let run_with = |threads: usize| -> String {
        parallel::set_global_threads(threads);
        let out = serve_stream(
            &ServerConfig {
                slow_ms: Some(0),
                ..ServerConfig::default()
            },
            script.as_bytes(),
            Vec::<u8>::new(),
        )
        .expect("stream run");
        String::from_utf8(out).expect("utf8 responses")
    };
    let reference = run_with(1);
    assert!(!reference.is_empty());
    // The new surfaces actually answered with content, and v2 envelopes
    // carry admission-order request ids.
    assert!(reference.contains("\"entries\":["), "{reference}");
    assert!(reference.contains("\"records\":["), "{reference}");
    assert!(reference.contains("\"request_id\":"), "{reference}");
    // `health` is a read command with no timing fields; durability is
    // off here, so it reports durable:false and a quiet WAL.
    assert!(reference.contains("\"durable\":false"), "{reference}");
    assert!(reference.contains("\"recovered\":false"), "{reference}");
    assert!(reference.contains("\"wal_records\":0"), "{reference}");
    assert_eq!(
        run_with(4),
        reference,
        "threads=4 must reproduce the threads=1 response bytes"
    );
    parallel::set_global_threads(1);
}

#[test]
fn malformed_requests_get_structured_errors_and_serving_continues() {
    let (addr, handle) = start(ServerConfig::default());
    let requests = [
        r#"{"id":1,"cmd":"ping"}"#,
        r#"{"truncated": "#,
        r#"{"id":2,"cmd":"no_such_command"}"#,
        r#"{"id":3,"cmd":"slack"}"#,
        r#"[1,2,3]"#,
        r#"{"id":4,"cmd":"ping"}"#,
        r#"{"id":5,"cmd":"shutdown"}"#,
    ];
    let responses = transact(addr, &requests);
    assert_eq!(responses.len(), requests.len());
    assert!(ok(&responses[0]));
    assert!(
        responses[1].contains("\"kind\":\"usage\""),
        "{}",
        responses[1]
    );
    // Unknown command recovers the request id into the envelope.
    assert!(responses[2].contains("\"id\":2"), "{}", responses[2]);
    assert!(responses[2].contains("\"kind\":\"usage\""));
    // slack before load: a domain error, also structured.
    assert!(responses[3].contains("\"kind\":\"usage\""));
    assert!(responses[3].contains("no design loaded"));
    assert!(responses[4].contains("\"kind\":\"usage\""));
    // The server is still alive and answers normal requests.
    assert!(ok(&responses[5]), "{}", responses[5]);
    assert!(responses[6].contains("\"draining\":true"));
    handle.join().expect("clean exit");
}

#[test]
fn overload_is_an_explicit_rejection_not_a_hang() {
    // Queue depth 1: while the worker executes sleep(300), at most one
    // request can wait; the rest of the burst must be rejected with an
    // explicit overload envelope — and every request must be answered.
    let (addr, handle) = start(ServerConfig {
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut requests = vec![r#"{"id":0,"cmd":"sleep","ms":300}"#.to_owned()];
    for i in 1..=8 {
        requests.push(format!(r#"{{"id":{i},"cmd":"ping"}}"#));
    }
    let refs: Vec<&str> = requests.iter().map(String::as_str).collect();
    let responses = transact(addr, &refs);
    assert_eq!(responses.len(), requests.len(), "every request is answered");
    // Overload rejections are answered by the connection's reader
    // thread immediately, so they may arrive ahead of the responses of
    // admitted requests — match by id, not position.
    let overloads = responses
        .iter()
        .filter(|r| r.contains("\"kind\":\"overload\""))
        .count();
    assert!(overloads >= 1, "burst must trip the bounded queue");
    assert!(
        responses
            .iter()
            .any(|r| r.contains("\"slept_ms\":300") && ok(r)),
        "the sleep itself completes: {responses:?}"
    );
    // Cleanup.
    let bye = transact(addr, &[r#"{"id":99,"cmd":"shutdown"}"#]);
    assert!(bye[0].contains("\"draining\":true"));
    handle.join().expect("clean exit");
}

#[test]
fn expired_deadlines_are_rejected_at_dequeue() {
    let (addr, handle) = start(ServerConfig::default());
    let requests = [
        r#"{"id":1,"cmd":"sleep","ms":60}"#,
        r#"{"id":2,"cmd":"ping","deadline_ms":1}"#,
        r#"{"id":3,"cmd":"ping","deadline_ms":60000}"#,
        r#"{"id":4,"cmd":"shutdown"}"#,
    ];
    let responses = transact(addr, &requests);
    assert!(ok(&responses[0]));
    assert!(
        responses[1].contains("\"kind\":\"deadline\""),
        "{}",
        responses[1]
    );
    assert!(
        ok(&responses[2]),
        "generous deadline passes: {}",
        responses[2]
    );
    handle.join().expect("clean exit");
}

#[test]
fn v1_requests_pin_the_deprecated_envelope_bytes() {
    // Compatibility contract: a sessionless v1 request routes to the
    // `default` session and its envelope is byte-for-byte the v1 shape
    // plus the `deprecated` flag — nothing else moved.
    let (addr, handle) = start(ServerConfig::default());
    let responses = transact(
        addr,
        &[
            r#"{"id":1,"cmd":"ping"}"#,
            r#"{"id":2,"cmd":"wns"}"#,
            r#"{"id":3,"cmd":"shutdown"}"#,
        ],
    );
    assert_eq!(
        responses[0],
        r#"{"id":1,"ok":true,"deprecated":true,"result":{"pong":true}}"#
    );
    // Error envelopes carry the flag too, before the error object.
    assert!(
        responses[1].starts_with(r#"{"id":2,"ok":false,"deprecated":true,"error":{"#),
        "{}",
        responses[1]
    );
    assert!(responses[1].contains("no design loaded"));
    assert!(responses[2].contains("\"deprecated\":true"));
    handle.join().expect("clean exit");
}

#[test]
fn sessions_shard_state_and_v1_routes_to_default() {
    let (addr, handle) = start(ServerConfig::default());
    let connect = |session: &str| {
        Client::connect(
            &addr.to_string(),
            ClientConfig {
                session: session.into(),
                ..ClientConfig::default()
            },
        )
        .expect("connect")
    };

    // Two v2 sessions load different designs; a third stays empty.
    let mut a = connect("opt-a");
    let mut b = connect("opt-b");
    let mut empty = connect("spectator");
    for (c, design) in [(&mut a, "small:3"), (&mut b, "small:7")] {
        let resp = c
            .call(&Command::Load {
                spec: design.into(),
                period: None,
            })
            .expect("load");
        assert!(resp.ok, "{}", resp.raw);
    }
    let wns = |c: &mut Client| {
        let resp = c.call(&Command::Wns).expect("wns");
        assert!(resp.ok, "{}", resp.raw);
        (
            resp.session.clone().expect("v2 envelope names its session"),
            resp.raw.clone(),
        )
    };
    let (sess_a, wns_a) = wns(&mut a);
    let (sess_b, wns_b) = wns(&mut b);
    assert_eq!(sess_a, "opt-a");
    assert_eq!(sess_b, "opt-b");
    assert_ne!(
        wns_a.replace("opt-a", ""),
        wns_b.replace("opt-b", ""),
        "different designs must yield different timing"
    );
    // The untouched session sees none of it.
    let resp = empty.call(&Command::Wns).expect("wns");
    assert!(!resp.ok, "{}", resp.raw);
    assert_eq!(resp.error.as_ref().expect("error").code, "usage");

    // A v1 sessionless line lands in `default`, whose state is then
    // visible to a v2 client addressing `default` explicitly.
    let one = transact(addr, &[r#"{"id":1,"cmd":"load","design":"small:5"}"#]);
    assert!(ok(&one[0]), "{}", one[0]);
    let mut default = connect("default");
    let resp = default.call(&Command::Wns).expect("wns");
    assert!(
        resp.ok,
        "v1 load must be visible in `default`: {}",
        resp.raw
    );
    assert_eq!(resp.session.as_deref(), Some("default"));

    let bye = default.call(&Command::Shutdown).expect("shutdown");
    assert!(bye.ok, "{}", bye.raw);
    handle.join().expect("clean exit");
}

#[test]
fn concurrent_clients_get_admission_ordered_replies_per_session() {
    // N clients hammer one shared session with a mixed read/write
    // pipeline. Each connection must get exactly its own responses, in
    // the order it sent the requests, although the lane interleaves
    // every connection's requests. The lane queue holds all 100
    // pipelined requests: this test pins reply order, not backpressure.
    let (addr, handle) = start(ServerConfig {
        queue_depth: 128,
        ..ServerConfig::default()
    });
    let config = || ClientConfig {
        session: "shared".into(),
        ..ClientConfig::default()
    };
    let mut setup = Client::connect(&addr.to_string(), config()).expect("connect");
    let loaded = setup
        .call(&Command::Load {
            spec: "small:5".into(),
            period: None,
        })
        .expect("load");
    assert!(loaded.ok, "{}", loaded.raw);

    let clients: Vec<_> = (0..4)
        .map(|k| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, config()).expect("connect");
                let mut sent = Vec::new();
                for round in 0..25 {
                    let cmd = match round % 4 {
                        0 => Command::Wns,
                        1 => Command::Tns,
                        2 => Command::WhatIfResize {
                            cell: format!("g_1_{}_0", (k + round) % 4),
                            to: "up".into(),
                        },
                        _ => Command::Slack {
                            endpoint: None,
                            top: 5,
                        },
                    };
                    sent.push(c.send(&cmd, None).expect("send"));
                }
                for expected in sent {
                    let resp = c.recv().expect("recv");
                    assert!(resp.ok, "{}", resp.raw);
                    assert_eq!(
                        resp.id,
                        Some(expected),
                        "responses must come back in admission order"
                    );
                    assert_eq!(resp.session.as_deref(), Some("shared"));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let bye = setup.call(&Command::Shutdown).expect("shutdown");
    assert!(bye.ok, "{}", bye.raw);
    handle.join().expect("clean exit");
}

#[test]
fn lint_is_read_only_and_close_session_evicts_state() {
    // `lint` is a read command: it never mutates the design and
    // reports the collected issues for the loaded netlist.
    // `close_session` drops the session from the registry; the next
    // request on the same name starts from a blank session.
    let (addr, handle) = start(ServerConfig::default());
    let responses = transact(
        addr,
        &[
            r#"{"id":1,"proto":2,"session":"tmp","cmd":"load","design":"small:5"}"#,
            r#"{"id":2,"proto":2,"session":"tmp","cmd":"lint"}"#,
            r#"{"id":3,"proto":2,"session":"tmp","cmd":"wns"}"#,
            r#"{"id":4,"proto":2,"session":"tmp","cmd":"close_session"}"#,
            r#"{"id":5,"proto":2,"session":"tmp","cmd":"close_session"}"#,
            r#"{"id":6,"proto":2,"session":"tmp","cmd":"wns"}"#,
            r#"{"id":7,"proto":2,"session":"tmp","cmd":"shutdown"}"#,
        ],
    );
    assert!(ok(&responses[0]), "{}", responses[0]);
    // The lint report names the design and carries the issue counters.
    assert!(ok(&responses[1]), "{}", responses[1]);
    assert!(responses[1].contains("\"errors\":"), "{}", responses[1]);
    assert!(responses[1].contains("\"issues\":"), "{}", responses[1]);
    // Lint did not disturb the loaded state.
    assert!(ok(&responses[2]), "{}", responses[2]);
    // First close drops the session, the second finds nothing resident.
    assert!(responses[3].contains("\"closed\":true"), "{}", responses[3]);
    assert!(
        responses[4].contains("\"closed\":false"),
        "{}",
        responses[4]
    );
    // The name is reusable but starts blank: no design loaded.
    assert!(
        responses[5].contains("no design loaded"),
        "{}",
        responses[5]
    );
    handle.join().expect("clean exit");
}

#[test]
fn idle_sessions_are_evicted_after_the_ttl() {
    // With a 1-second TTL, a session left idle past the deadline is
    // lazily evicted when any other session is touched; its name then
    // resolves to a fresh, blank session.
    let (addr, handle) = start(ServerConfig {
        session_ttl_secs: Some(1),
        ..ServerConfig::default()
    });
    let loaded = transact(
        addr,
        &[r#"{"id":1,"proto":2,"session":"idle","cmd":"load","design":"small:3"}"#],
    );
    assert!(ok(&loaded[0]), "{}", loaded[0]);
    std::thread::sleep(std::time::Duration::from_millis(1300));
    // Touching another session sweeps the expired one…
    let other = transact(
        addr,
        &[r#"{"id":2,"proto":2,"session":"busy","cmd":"ping"}"#],
    );
    assert!(ok(&other[0]), "{}", other[0]);
    // …so the idle session's design is gone.
    let responses = transact(
        addr,
        &[
            r#"{"id":3,"proto":2,"session":"idle","cmd":"wns"}"#,
            r#"{"id":4,"proto":2,"session":"idle","cmd":"shutdown"}"#,
        ],
    );
    assert!(
        responses[0].contains("no design loaded"),
        "evicted session must come back blank: {}",
        responses[0]
    );
    handle.join().expect("clean exit");
}

#[test]
fn live_exposition_scrapes_and_validates() {
    // Scrape the full Prometheus exposition from a running server after
    // a calibrate and two committed resizes, run it through the
    // conformance checker, and pin the observability families added for
    // request tracing and calibration-drift telemetry.
    let script = concat!(
        r#"{"id":1,"cmd":"load","design":"small:5"}"#,
        "\n",
        r#"{"id":2,"cmd":"calibrate","solver":"cgnr"}"#,
        "\n",
        r#"{"id":3,"cmd":"commit","cell":"g_1_0_0","to":"up"}"#,
        "\n",
        r#"{"id":4,"cmd":"commit","cell":"g_1_1_0","to":"up"}"#,
        "\n",
        r#"{"id":5,"cmd":"metrics"}"#,
        "\n",
        r#"{"id":6,"cmd":"history"}"#,
        "\n",
        r#"{"id":7,"cmd":"shutdown"}"#,
        "\n",
    );
    let out = serve_stream(
        &ServerConfig {
            slow_ms: Some(0),
            ..ServerConfig::default()
        },
        script.as_bytes(),
        Vec::<u8>::new(),
    )
    .expect("stream run");
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 7, "{text}");
    assert!(lines.iter().all(|l| ok(l)), "{text}");
    let envelope = server::json::parse(lines[4]).expect("metrics envelope parses");
    let exposition = envelope
        .get("result")
        .and_then(|r| r.get("exposition"))
        .and_then(|e| e.as_str())
        .expect("metrics result carries the exposition")
        .to_owned();
    obs::prom::validate(&exposition).expect("exposition conforms");
    for family in [
        "mgba_build_info{version=",
        "mgba_server_write_queue_depth{session=\"default\"}",
        "mgba_server_session_rebuilds_total{session=\"default\"}",
        "mgba_server_stage_us",
        "mgba_server_command_latency_us",
        "mgba_calibration_drift_mse{session=\"default\"}",
        "mgba_calibration_drift_rms_ps{session=\"default\"}",
        "mgba_calibration_drift_weight_sparsity_pct",
        "mgba_calibration_drift_commits_since_fit",
        "mgba_calibration_drift_records{session=\"default\"}",
    ] {
        assert!(
            exposition.contains(family),
            "exposition is missing `{family}`:\n{exposition}"
        );
    }
    // Stage histograms carry real samples by the time `metrics` runs:
    // at minimum the lane's queue-wait and execute stages.
    for stage in ["stage=\"queue_wait\"", "stage=\"execute\""] {
        assert!(
            exposition.contains(stage),
            "stage histograms missing {stage}:\n{exposition}"
        );
    }
    // One cold calibrate plus two commit-triggered warm refits: three
    // drift records, the latest having absorbed exactly one commit.
    assert!(
        exposition.contains("mgba_calibration_drift_records{session=\"default\"} 3.0"),
        "{exposition}"
    );
    assert!(
        exposition.contains("mgba_calibration_drift_commits_since_fit{session=\"default\"} 1.0"),
        "{exposition}"
    );
    let history = lines[5];
    assert!(history.contains("\"count\":3"), "{history}");
    assert!(history.contains("\"mode\":\"cold\""), "{history}");
    assert!(history.contains("\"mode\":\"warm\""), "{history}");
}

/// Drives [`serve_stream`] in lock step: each request goes in only after
/// the previous response came out, so requests addressed to different
/// sessions also execute in script order.
fn serve_lockstep(config: ServerConfig, requests: &[&str]) -> Vec<String> {
    let (request_rx, mut request_tx) = std::io::pipe().expect("request pipe");
    let (response_rx, response_tx) = std::io::pipe().expect("response pipe");
    let server = std::thread::spawn(move || {
        serve_stream(&config, BufReader::new(request_rx), response_tx).map(drop)
    });
    let mut responses = BufReader::new(response_rx).lines();
    let out = requests
        .iter()
        .map(|r| {
            writeln!(request_tx, "{r}").expect("send");
            responses
                .next()
                .expect("one response per request")
                .expect("read")
        })
        .collect();
    drop(request_tx);
    server.join().expect("server thread").expect("stream run");
    out
}

/// The exposition text carried by a `metrics` response line.
fn exposition_of(line: &str) -> String {
    server::json::parse(line)
        .expect("metrics envelope parses")
        .get("result")
        .and_then(|r| r.get("exposition"))
        .and_then(|e| e.as_str())
        .expect("metrics result carries the exposition")
        .to_owned()
}

#[test]
fn metrics_rows_for_another_session_match_its_own_scrape() {
    // Session `a`'s rows must read the same whether `a` serves the
    // scrape (live state) or `b` does (the state `a` last published).
    let responses = serve_lockstep(
        ServerConfig::default(),
        &[
            r#"{"id":1,"proto":2,"session":"a","cmd":"load","design":"small:7"}"#,
            r#"{"id":2,"proto":2,"session":"a","cmd":"calibrate"}"#,
            r#"{"id":3,"proto":2,"session":"a","cmd":"commit","cell":"g_1_0_0","to":"up"}"#,
            r#"{"id":4,"proto":2,"session":"b","cmd":"load","design":"small:5"}"#,
            r#"{"id":5,"proto":2,"session":"a","cmd":"metrics"}"#,
            r#"{"id":6,"proto":2,"session":"b","cmd":"metrics"}"#,
            r#"{"id":7,"proto":2,"session":"b","cmd":"shutdown"}"#,
        ],
    );
    assert!(responses.iter().all(|l| ok(l)), "{responses:#?}");
    let rows_for_a = |line: &str| -> Vec<String> {
        let text = exposition_of(line);
        [
            "mgba_engine_wns{session=\"a\"} ",
            "mgba_engine_tns{session=\"a\"} ",
            "mgba_engine_calibrated{session=\"a\"} ",
            "mgba_calibration_drift_records{session=\"a\"} ",
        ]
        .iter()
        .map(|head| {
            text.lines()
                .find(|l| l.starts_with(head))
                .unwrap_or_else(|| panic!("no `{head}` sample:\n{text}"))
                .to_owned()
        })
        .collect()
    };
    let served_by_a = rows_for_a(&responses[4]);
    assert_eq!(served_by_a, rows_for_a(&responses[5]));
    assert_eq!(served_by_a[2], "mgba_engine_calibrated{session=\"a\"} 1.0");
    // The commit refit warm once; the counter keeps that series in every
    // scrape, not only in scrapes `a` serves.
    for line in &responses[4..6] {
        let text = exposition_of(line);
        assert!(
            text.lines()
                .any(|l| l == "mgba_server_recalibrate_warm_total{session=\"a\"} 1.0"),
            "{text}"
        );
    }
}

#[test]
fn engine_counters_for_another_session_follow_its_whatif_commands() {
    // A what-if resizes and rolls back, advancing `a`'s update counters
    // without changing its state; a scrape `b` serves must still show
    // the counters `a` would report itself.
    let responses = serve_lockstep(
        ServerConfig::default(),
        &[
            r#"{"id":1,"proto":2,"session":"a","cmd":"load","design":"small:7"}"#,
            r#"{"id":2,"proto":2,"session":"a","cmd":"whatif_resize","cell":"g_1_0_0","to":"up"}"#,
            r#"{"id":3,"proto":2,"session":"b","cmd":"load","design":"small:5"}"#,
            r#"{"id":4,"proto":2,"session":"a","cmd":"metrics"}"#,
            r#"{"id":5,"proto":2,"session":"b","cmd":"metrics"}"#,
            r#"{"id":6,"proto":2,"session":"b","cmd":"shutdown"}"#,
        ],
    );
    assert!(responses.iter().all(|l| ok(l)), "{responses:#?}");
    let counters_for_a = |line: &str| -> Vec<String> {
        let text = exposition_of(line);
        [
            "mgba_engine_incremental_updates_total{session=\"a\"} ",
            "mgba_engine_cells_propagated_total{session=\"a\"} ",
        ]
        .iter()
        .map(|head| {
            text.lines()
                .find(|l| l.starts_with(head))
                .unwrap_or_else(|| panic!("no `{head}` sample:\n{text}"))
                .to_owned()
        })
        .collect()
    };
    let served_by_a = counters_for_a(&responses[3]);
    assert_eq!(served_by_a, counters_for_a(&responses[4]));
    assert_eq!(
        served_by_a[0], "mgba_engine_incremental_updates_total{session=\"a\"} 2.0",
        "the what-if resized and rolled back"
    );
}

#[test]
fn stdio_stream_supports_the_smoke_flow() {
    // The same engine the CLI's `serve --stdio` uses, driven directly.
    let script = concat!(
        r#"{"id":1,"cmd":"load","design":"small:3"}"#,
        "\n",
        r#"{"id":2,"cmd":"calibrate"}"#,
        "\n",
        r#"{"id":3,"cmd":"slack","top":3}"#,
        "\n",
        r#"{"id":4,"cmd":"shutdown"}"#,
        "\n",
    );
    let out = serve_stream(
        &ServerConfig::default(),
        script.as_bytes(),
        Vec::<u8>::new(),
    )
    .expect("stream run");
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines.iter().all(|l| ok(l)), "{text}");
    assert!(lines[3].contains("\"draining\":true"));
}
