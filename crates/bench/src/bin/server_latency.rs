//! Records a machine-local snapshot of mgba-server throughput and
//! per-command latency to `results/server_latency.json`.
//!
//! Three passes over the same workload (load → calibrate → a
//! query/what-if mix), so the numbers separate protocol cost from
//! transport cost from concurrency headroom:
//!
//! - **stream**: the in-process stdio engine (`serve_stream`) — parse +
//!   dispatch + execute, no sockets;
//! - **tcp**: a real localhost server driven through the typed
//!   [`server::client::Client`] — adds loopback, connection threads,
//!   and the bounded admission queue;
//! - **saturation**: [`bench::saturation`] — concurrent pipelined read
//!   clients against one session's writer lane.
//!
//! The stream/tcp passes size the queue to hold the entire pipelined
//! script: they measure service latency, not backpressure (the
//! rejection path has its own integration tests).
//!
//! Per-command p50/p99 come from the server's own `stats` command (the
//! same log₂ histograms `--profile=json` reports), spliced verbatim
//! into the snapshot.

use bench::saturation::{self, SaturationSpec};
use server::client::{Client, ClientConfig};
use server::proto::Command;
use server::{json, serve_stream, Server, ServerConfig};
use std::time::Instant;

/// The steady-state query mix, `reps` rounds after one load+calibrate.
fn workload(design: &str, reps: usize) -> String {
    let mut script = String::new();
    script.push_str(&format!(
        "{{\"id\":1,\"cmd\":\"load\",\"design\":\"{design}\"}}\n"
    ));
    script.push_str("{\"id\":2,\"cmd\":\"calibrate\",\"solver\":\"scgrs\"}\n");
    let mut id = 3u64;
    for round in 0..reps {
        for req in [
            "\"cmd\":\"wns\"".to_owned(),
            "\"cmd\":\"tns\"".to_owned(),
            "\"cmd\":\"slack\",\"top\":10".to_owned(),
            "\"cmd\":\"path\",\"pba\":true".to_owned(),
            format!(
                "\"cmd\":\"whatif_resize\",\"cell\":\"g_1_{}_0\",\"to\":\"up\"",
                round % 4
            ),
        ] {
            script.push_str(&format!("{{\"id\":{id},{req}}}\n"));
            id += 1;
        }
    }
    script.push_str(&format!("{{\"id\":{id},\"cmd\":\"stats\"}}\n"));
    script
}

/// Pulls the per-session `result.commands` object out of a `stats`
/// response line.
fn commands_json(stats_line: &str) -> String {
    json::parse(stats_line)
        .ok()
        .and_then(|v| v.get("result").and_then(|r| r.get("commands")).cloned())
        .map(|c| json::render(&c))
        .unwrap_or_else(|| "{}".into())
}

struct Pass {
    transport: &'static str,
    requests: usize,
    elapsed_ms: f64,
    commands: String,
}

impl Pass {
    fn throughput_rps(&self) -> f64 {
        if self.elapsed_ms > 0.0 {
            self.requests as f64 / (self.elapsed_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// A queue deep enough that the fully-pipelined script is admitted
/// without overload rejections.
fn bench_config(script: &str) -> ServerConfig {
    ServerConfig {
        queue_depth: script.lines().count() + 1,
        ..ServerConfig::default()
    }
}

fn run_stream(script: &str) -> Pass {
    let requests = script.lines().count();
    let t = Instant::now();
    let out = serve_stream(&bench_config(script), script.as_bytes(), Vec::<u8>::new())
        .expect("stream pass");
    let elapsed_ms = 1e3 * t.elapsed().as_secs_f64();
    let text = String::from_utf8(out).expect("utf8 responses");
    let stats_line = text.lines().last().expect("stats response");
    Pass {
        transport: "stream",
        requests,
        elapsed_ms,
        commands: commands_json(stats_line),
    }
}

fn run_tcp(script: &str) -> Pass {
    let srv = Server::bind("127.0.0.1:0", bench_config(script)).expect("bind");
    let addr = srv.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || srv.run().expect("run"));
    let requests = script.lines().count();

    let t = Instant::now();
    let mut client = Client::connect(&addr, ClientConfig::default()).expect("connect");
    // The script is pre-rendered (same bytes as the stream pass), so it
    // rides the raw pipelining escape hatch of the typed client.
    for line in script.lines() {
        client.send_raw(line).expect("send");
    }
    let responses: Vec<String> = (0..requests)
        .map(|_| client.recv_raw().expect("response"))
        .collect();
    let elapsed_ms = 1e3 * t.elapsed().as_secs_f64();

    let stats_line = responses.last().expect("stats response").clone();
    let mut bye = Client::connect(&addr, ClientConfig::default()).expect("connect for shutdown");
    let resp = bye.call(&Command::Shutdown).expect("shutdown round trip");
    assert!(resp.ok, "shutdown failed: {}", resp.raw);
    handle.join().expect("clean server exit");

    Pass {
        transport: "tcp",
        requests,
        elapsed_ms,
        commands: commands_json(&stats_line),
    }
}

/// Evaluates the same `n` resize candidates twice against a calibrated
/// TCP session — as `n` strict `whatif_resize` round trips, then as one
/// `whatif_batch` request — and returns `(sequential_ms, batch_ms)`.
/// The batch pays the per-request framing, parse, dispatch, and loopback
/// cost once instead of `n` times, which is the case for its existence.
fn run_batch_comparison(design: &str, n: usize) -> (f64, f64) {
    let config = ServerConfig {
        queue_depth: n + 8,
        ..ServerConfig::default()
    };
    let srv = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = srv.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || srv.run().expect("run"));

    let mut client = Client::connect(&addr, ClientConfig::default()).expect("connect");
    let loaded = client
        .call(&Command::Load {
            spec: design.into(),
            period: None,
        })
        .expect("load");
    assert!(loaded.ok, "load failed: {}", loaded.raw);
    let calibrated = client
        .call(&Command::Calibrate {
            solver: Some("scgrs".into()),
        })
        .expect("calibrate");
    assert!(calibrated.ok, "calibrate failed: {}", calibrated.raw);

    let cells: Vec<String> = (0..n).map(|i| format!("g_1_{}_0", i % 4)).collect();
    let t = Instant::now();
    for c in &cells {
        let resp = client
            .call(&Command::WhatIfResize {
                cell: c.clone(),
                to: "up".into(),
            })
            .expect("whatif round trip");
        assert!(resp.ok, "sequential what-if: {}", resp.raw);
    }
    let sequential_ms = 1e3 * t.elapsed().as_secs_f64();

    let t = Instant::now();
    let resp = client
        .call(&Command::WhatIfBatch {
            resizes: cells.iter().map(|c| (c.clone(), "up".to_owned())).collect(),
            pba: false,
        })
        .expect("batch round trip");
    let batch_ms = 1e3 * t.elapsed().as_secs_f64();
    assert!(resp.ok, "batch what-if: {}", resp.raw);

    let bye = client.call(&Command::Shutdown).expect("shutdown");
    assert!(bye.ok, "shutdown failed: {}", bye.raw);
    handle.join().expect("clean server exit");

    (sequential_ms, batch_ms)
}

fn main() {
    let design = "small:5";
    let reps = 40;
    let script = workload(design, reps);
    eprintln!(
        "server latency: {} requests over {design}, stream + tcp passes",
        script.lines().count()
    );

    let passes = [run_stream(&script), run_tcp(&script)];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"design\": \"{design}\",\n"));
    json.push_str(&format!("  \"query_rounds\": {reps},\n"));
    json.push_str("  \"passes\": [\n");
    for (i, p) in passes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"transport\": \"{}\", \"requests\": {}, \"elapsed_ms\": {:.3}, \
             \"throughput_rps\": {:.1}, \"commands\": {}}}{}\n",
            p.transport,
            p.requests,
            p.elapsed_ms,
            p.throughput_rps(),
            p.commands,
            if i + 1 < passes.len() { "," } else { "" }
        ));
        println!(
            "{:<8} {:>5} requests in {:>8.2} ms  ({:>8.1} req/s)",
            p.transport,
            p.requests,
            p.elapsed_ms,
            p.throughput_rps()
        );
    }
    json.push_str("  ],\n");

    let batch_n = 32;
    let (sequential_ms, batch_ms) = run_batch_comparison(design, batch_n);
    let speedup = if batch_ms > 0.0 {
        sequential_ms / batch_ms
    } else {
        0.0
    };
    println!(
        "whatif   {batch_n:>5} candidates: sequential {sequential_ms:>8.2} ms, \
         batch {batch_ms:>8.2} ms  ({speedup:>5.1}x)"
    );
    assert!(
        batch_ms < sequential_ms,
        "one whatif_batch ({batch_ms:.2} ms) must beat {batch_n} sequential \
         round trips ({sequential_ms:.2} ms)"
    );
    json.push_str(&format!(
        "  \"whatif_batch\": {{\"candidates\": {batch_n}, \"sequential_ms\": {sequential_ms:.3}, \
         \"batch_ms\": {batch_ms:.3}, \"speedup\": {speedup:.2}}},\n"
    ));

    let spec = SaturationSpec::default();
    let read_qps_lane = saturation::run(&spec);
    println!(
        "saturate {:>5} clients: lane {read_qps_lane:>8.1} q/s",
        spec.clients
    );
    json.push_str(&format!(
        "  \"saturation\": {{\"clients\": {}, \"read_qps_lane\": {read_qps_lane:.1}}}\n",
        spec.clients
    ));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/server_latency.json", &json).expect("write snapshot");
    eprintln!("wrote results/server_latency.json");
}
