//! Read-throughput saturation runner: how many read queries per second
//! one session's writer lane serves to concurrent pipelined clients.
//!
//! One trial spins up a TCP server, loads a design into one session,
//! and then hammers it with `clients` concurrent pipelined connections
//! issuing read-only queries (`wns`/`tns`/`slack`). Every read runs on
//! the session's writer lane, so the figure measures admission, the
//! lane handoff and the reply path under contention. The result is the
//! best-of-`trials` throughput, which shaves scheduler noise.

use server::client::{Client, ClientConfig};
use server::proto::Command;
use server::{Server, ServerConfig};
use std::time::Instant;

/// How many requests each client keeps in flight per pipeline window.
const WINDOW: usize = 32;

/// Tunables for one saturation measurement.
#[derive(Debug, Clone)]
pub struct SaturationSpec {
    /// Design loaded into the measured session (e.g. `small:5`).
    pub design: String,
    /// Concurrent pipelined client connections.
    pub clients: usize,
    /// Read requests issued by each client per trial.
    pub reads_per_client: usize,
    /// Trials; the best throughput is reported.
    pub trials: usize,
}

impl Default for SaturationSpec {
    fn default() -> Self {
        Self {
            design: "small:5".into(),
            clients: 4,
            reads_per_client: 150,
            trials: 3,
        }
    }
}

fn client_config(session: &str) -> ClientConfig {
    ClientConfig {
        session: session.into(),
        ..ClientConfig::default()
    }
}

/// The rotating read mix: cheap summaries plus a worst-endpoints scan.
fn read_command(i: usize) -> Command {
    match i % 3 {
        0 => Command::Wns,
        1 => Command::Tns,
        _ => Command::Slack {
            endpoint: None,
            top: 10,
        },
    }
}

/// One trial: returns read queries per second over the measured span.
fn trial_qps(spec: &SaturationSpec) -> f64 {
    let srv = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            queue_depth: WINDOW * spec.clients + 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = srv.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || srv.run().expect("serve"));

    let mut setup = Client::connect(&addr, client_config("bench")).expect("connect");
    let loaded = setup
        .call(&Command::Load {
            spec: spec.design.clone(),
            period: None,
        })
        .expect("load round trip");
    assert!(loaded.ok, "load failed: {}", loaded.raw);

    let t = Instant::now();
    let workers: Vec<_> = (0..spec.clients)
        .map(|_| {
            let addr = addr.clone();
            let reads = spec.reads_per_client;
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, client_config("bench")).expect("connect");
                let mut done = 0usize;
                while done < reads {
                    let burst = WINDOW.min(reads - done);
                    for i in 0..burst {
                        c.send(&read_command(done + i), None).expect("send");
                    }
                    for _ in 0..burst {
                        let resp = c.recv().expect("recv");
                        assert!(resp.ok, "read failed: {}", resp.raw);
                    }
                    done += burst;
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let elapsed = t.elapsed().as_secs_f64();

    let bye = setup.call(&Command::Shutdown).expect("shutdown");
    assert!(bye.ok, "shutdown failed: {}", bye.raw);
    server.join().expect("clean server exit");

    (spec.clients * spec.reads_per_client) as f64 / elapsed.max(1e-9)
}

/// Best read throughput over `spec.trials` trials, queries per second.
pub fn run(spec: &SaturationSpec) -> f64 {
    (0..spec.trials.max(1))
        .map(|_| trial_qps(spec))
        .fold(0.0, f64::max)
}
