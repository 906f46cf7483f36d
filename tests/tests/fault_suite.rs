//! Cross-crate fault suite: walks the failpoint catalog end-to-end and
//! proves every injected fault lands in the designed degradation path —
//! never a crash, never a silently wrong answer.
//!
//! Compiled only under `--features failpoints`; run with
//! `--test-threads=1` (the failpoint registry is process-global, and
//! [`faultinject::scoped`] serializes arming tests through one lock).
//!
//! | failpoint        | injected at             | designed degradation          |
//! |------------------|-------------------------|-------------------------------|
//! | `load.netlist`   | netlist file load       | typed internal error          |
//! | `pba.retime`     | golden path retime      | guards demote to identity     |
//! | `fit.build`      | fit-matrix construction | identity weights, no error    |
//! | `solver.iter`    | each solver iteration   | staged fallback down ladder   |
//! | `weights.write`  | weights sidecar write   | old file intact (atomic)      |
//! | `server.handle`  | server request dispatch | crash-isolated, auto-restored |
//! | `wal.append`     | WAL record write        | session read-only, degraded   |
//! | `wal.fsync`      | WAL record fsync        | session read-only, degraded   |
//! | `wal.checkpoint` | checkpoint + compaction | session read-only, degraded   |
#![cfg(feature = "failpoints")]

use mgba::{
    load_netlist_file, run_mgba, run_mgba_with_accuracy, FallbackStage, MgbaConfig, MgbaError,
    Solver,
};
use netlist::GeneratorConfig;
use server::{serve_stream, Server, ServerConfig};
use sta::Sta;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A small engine with genuine setup violations (same recipe as
/// `end_to_end.rs`).
fn engine(seed: u64) -> Sta {
    let netlist = GeneratorConfig::small(seed).generate();
    mgba::build_engine_at_fraction(netlist, 10_000.0, 0.15).expect("engine builds")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mgba_fault_suite_{}_{name}", std::process::id()));
    p
}

#[test]
fn load_netlist_failpoint_is_a_typed_error() {
    let path = tmp("load.nl");
    std::fs::write(
        &path,
        netlist::write_netlist(&GeneratorConfig::small(1).generate()),
    )
    .expect("fixture written");
    let path_str = path.to_str().unwrap();
    {
        let _fp = faultinject::scoped("load.netlist=error");
        let err = load_netlist_file(path_str).expect_err("injected failure");
        assert!(matches!(err, MgbaError::Internal(_)), "{err}");
        assert!(err.to_string().contains("load.netlist"), "{err}");
    }
    // Disarmed: the same file loads fine.
    assert!(load_netlist_file(path_str).is_ok());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn delay_failpoint_slows_but_never_alters_results() {
    let path = tmp("delay.nl");
    let design = GeneratorConfig::small(2).generate();
    std::fs::write(&path, netlist::write_netlist(&design)).expect("fixture written");
    let _fp = faultinject::scoped("load.netlist=delay:5");
    let loaded = load_netlist_file(path.to_str().unwrap()).expect("delay is not a failure");
    assert_eq!(loaded.num_cells(), design.num_cells());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_golden_retimes_demote_to_identity_weights() {
    // Every PBA retime returns NaN: the fit target is garbage, so the
    // guards must refuse every solver stage and land on identity weights
    // (raw GBA) rather than fitting to non-finite data.
    let mut sta = engine(301);
    let baseline_wns = sta.wns();
    let report = {
        let _fp = faultinject::scoped("pba.retime=nan");
        run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs)
    };
    assert_eq!(report.fallback, FallbackStage::Identity);
    assert!(report.weights.iter().all(|&w| w == 0.0));
    // Identity weights leave the engine exactly at raw GBA.
    assert_eq!(sta.wns().to_bits(), baseline_wns.to_bits());
}

#[test]
fn fit_build_failpoint_degrades_to_identity_with_stage_recorded() {
    let mut sta = engine(302);
    let (report, accuracy) = {
        let _fp = faultinject::scoped("fit.build=error");
        run_mgba_with_accuracy(&mut sta, &MgbaConfig::default(), Solver::ScgRs)
    };
    assert_eq!(report.fallback, FallbackStage::Identity);
    assert!(report.fallback.is_degraded());
    assert!(!report.converged);
    assert!(report.weights.iter().all(|&w| w == 0.0));
    let fault = report.solver_fault.expect("fault recorded");
    assert!(fault.contains("fit.build"), "{fault}");
    // The degradation rung is part of the accuracy report (and its JSON).
    assert_eq!(accuracy.fallback_stage, "identity");
    assert!(accuracy
        .to_json()
        .contains("\"fallback_stage\":\"identity\""));
}

#[test]
fn persistent_solver_faults_walk_the_whole_ladder() {
    let mut sta = engine(303);
    let report = {
        let _fp = faultinject::scoped("solver.iter=nan");
        run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs)
    };
    // Every rung's iterations are poisoned, so the ladder bottoms out.
    assert_eq!(report.fallback, FallbackStage::Identity);
    assert!(report.weights.iter().all(|&w| w == 0.0));
}

#[test]
fn one_shot_solver_fault_demotes_one_rung_and_recovers() {
    let mut sta = engine(304);
    let report = {
        // Only the first iteration anywhere is poisoned: the primary
        // solver trips, the next rung runs clean.
        let _fp = faultinject::scoped("solver.iter=nan*1");
        run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs)
    };
    assert_ne!(report.fallback, FallbackStage::Primary);
    assert!(!report.fallback.is_degraded(), "{:?}", report.fallback);
    assert!(report.weights.iter().all(|w| w.is_finite()));
    assert!(report.weights.iter().any(|&w| w != 0.0));
    // The demoted fit is still a real fit.
    assert!(report.mse_after < report.mse_before);
}

#[test]
fn torn_weights_write_keeps_previous_sidecar() {
    let mut sta = engine(305);
    let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::Cgnr);
    let path = tmp("torn.weights");
    let path_str = path.to_str().unwrap();
    mgba::write_weights_file(path_str, sta.netlist(), &report.weights).expect("healthy write");
    let before = std::fs::read_to_string(&path).expect("sidecar exists");
    {
        let _fp = faultinject::scoped("weights.write=error");
        let err = mgba::write_weights_file(path_str, sta.netlist(), &report.weights)
            .expect_err("injected torn write");
        assert!(err.to_string().contains("weights.write"), "{err}");
    }
    // The interrupted rewrite never touched the committed file, and the
    // temporary was cleaned up.
    assert_eq!(std::fs::read_to_string(&path).expect("still there"), before);
    assert!(!std::path::Path::new(&format!("{path_str}.tmp")).exists());
    let _ = std::fs::remove_file(&path);
}

// --- TCP chaos: crash isolation over a real socket -----------------------

fn start() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let srv = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind localhost");
    let addr = srv.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || srv.run().expect("server run"));
    (addr, handle)
}

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

fn wns_field(line: &str) -> &str {
    let start = line.find("\"wns\":").expect("wns field") + 6;
    line[start..].split(&[',', '}'][..]).next().unwrap()
}

fn start_durable(dir: &std::path::Path) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let srv = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            state_dir: Some(dir.to_owned()),
            ..ServerConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = srv.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || srv.run().expect("server run"));
    (addr, handle)
}

/// Scratch state dir for the WAL failpoint scenarios.
fn state_dir(name: &str) -> std::path::PathBuf {
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");
    dir
}

#[test]
fn wal_append_fault_degrades_the_session_to_read_only() {
    // A failed WAL write means the mutation cannot be made durable: the
    // request is answered `durability_lost`, the in-memory state still
    // serves reads (flagged degraded), and every later mutation is
    // refused up front until a restart — at which point the log, which
    // never acknowledged the lost record, recovers the pre-fault state
    // and the session is writable again.
    let _lock = faultinject::exclusive();
    faultinject::clear();
    let dir = state_dir("wal_append");

    let (addr, handle) = start_durable(&dir);
    let responses = transact(
        addr,
        &[
            r#"{"id":1,"cmd":"load","design":"small:23"}"#,
            r#"{"id":2,"cmd":"wns"}"#,
            r#"{"id":3,"cmd":"failpoint","spec":"wal.append=error*1"}"#,
            r#"{"id":4,"cmd":"commit","cell":"g_1_0_0","to":"up"}"#,
            r#"{"id":5,"cmd":"wns"}"#,
            r#"{"id":6,"cmd":"commit","cell":"g_1_1_0","to":"up"}"#,
            r#"{"id":7,"cmd":"health"}"#,
            r#"{"id":8,"cmd":"shutdown"}"#,
        ],
    );
    faultinject::clear();
    assert_eq!(responses.len(), 8);
    for r in &responses[..3] {
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    // The un-journaled commit is refused with the typed code…
    assert!(responses[3].contains("\"ok\":false"), "{}", responses[3]);
    assert!(
        responses[3].contains("\"code\":\"durability_lost\""),
        "{}",
        responses[3]
    );
    assert!(responses[3].contains("read-only"), "{}", responses[3]);
    // …reads still serve (the commit's state was installed), degraded…
    assert!(responses[4].contains("\"ok\":true"), "{}", responses[4]);
    assert!(
        responses[4].contains("\"degraded\":true"),
        "{}",
        responses[4]
    );
    // …and the loss is sticky for mutations even though the failpoint
    // only fired once.
    assert!(
        responses[5].contains("\"code\":\"durability_lost\""),
        "{}",
        responses[5]
    );
    assert!(
        responses[6].contains("\"degraded\":true"),
        "{}",
        responses[6]
    );
    handle.join().expect("server thread exits");

    // Restart on the same state dir: the torn half-record the failpoint
    // left behind is truncated away, the durable prefix (the load)
    // replays, and the session is writable again.
    let (addr, handle) = start_durable(&dir);
    let responses = transact(
        addr,
        &[
            r#"{"id":9,"cmd":"wns"}"#,
            r#"{"id":10,"cmd":"commit","cell":"g_1_0_0","to":"up"}"#,
            r#"{"id":11,"cmd":"health"}"#,
            r#"{"id":12,"cmd":"shutdown"}"#,
        ],
    );
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    assert!(
        !responses[0].contains("\"degraded\":true"),
        "restart clears the degradation: {}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"ok\":true"),
        "mutations work after restart: {}",
        responses[1]
    );
    assert!(
        responses[2].contains("\"recovered\":true"),
        "{}",
        responses[2]
    );
    handle.join().expect("server thread exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_fsync_fault_is_a_durability_loss_too() {
    let _lock = faultinject::exclusive();
    faultinject::clear();
    let dir = state_dir("wal_fsync");

    let (addr, handle) = start_durable(&dir);
    let responses = transact(
        addr,
        &[
            r#"{"id":1,"cmd":"load","design":"small:24"}"#,
            r#"{"id":2,"cmd":"failpoint","spec":"wal.fsync=error*1"}"#,
            r#"{"id":3,"cmd":"commit","cell":"g_1_0_0","to":"up"}"#,
            r#"{"id":4,"cmd":"wns"}"#,
            r#"{"id":5,"cmd":"shutdown"}"#,
        ],
    );
    faultinject::clear();
    assert!(
        responses[2].contains("\"code\":\"durability_lost\""),
        "{}",
        responses[2]
    );
    assert!(responses[3].contains("\"ok\":true"), "{}", responses[3]);
    assert!(
        responses[3].contains("\"degraded\":true"),
        "{}",
        responses[3]
    );
    handle.join().expect("server thread exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_checkpoint_fault_is_a_durability_loss() {
    // Checkpointing runs inside the mutation that crossed the cadence;
    // with checkpoint_every=1 the very first logged mutation trips it.
    let _lock = faultinject::exclusive();
    faultinject::clear();
    let dir = state_dir("wal_checkpoint");

    let srv = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            state_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = srv.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || srv.run().expect("server run"));
    let responses = transact(
        addr,
        &[
            r#"{"id":1,"cmd":"failpoint","spec":"wal.checkpoint=error*1"}"#,
            r#"{"id":2,"cmd":"load","design":"small:25"}"#,
            r#"{"id":3,"cmd":"wns"}"#,
            r#"{"id":4,"cmd":"health"}"#,
            r#"{"id":5,"cmd":"shutdown"}"#,
        ],
    );
    faultinject::clear();
    assert!(
        responses[1].contains("\"code\":\"durability_lost\""),
        "{}",
        responses[1]
    );
    // The load's state was installed (degraded), and health agrees.
    assert!(responses[2].contains("\"ok\":true"), "{}", responses[2]);
    assert!(
        responses[2].contains("\"degraded\":true"),
        "{}",
        responses[2]
    );
    assert!(
        responses[3].contains("\"degraded\":true"),
        "{}",
        responses[3]
    );
    handle.join().expect("server thread exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_paths_stay_confined_after_durability_loss() {
    // A lost WAL makes the session read-only, but `snapshot` is not a
    // mutation and still runs: its path must stay inside the state dir.
    let _lock = faultinject::exclusive();
    faultinject::clear();
    let dir = state_dir("confine_after_loss");
    let escaped = tmp("escaped.snap");
    let _ = std::fs::remove_file(&escaped);
    let snapshot = format!(
        r#"{{"id":4,"cmd":"snapshot","file":"{}"}}"#,
        escaped.to_str().unwrap()
    );
    let (addr, handle) = start_durable(&dir);
    let responses = transact(
        addr,
        &[
            r#"{"id":1,"cmd":"load","design":"small:23"}"#,
            r#"{"id":2,"cmd":"failpoint","spec":"wal.append=error*1"}"#,
            r#"{"id":3,"cmd":"commit","cell":"g_1_0_0","to":"up"}"#,
            &snapshot,
            r#"{"id":5,"cmd":"shutdown"}"#,
        ],
    );
    faultinject::clear();
    handle.join().expect("server thread exits");
    assert!(
        responses[2].contains("\"code\":\"durability_lost\""),
        "{}",
        responses[2]
    );
    assert!(
        responses[3].contains("\"code\":\"path_escape\""),
        "{}",
        responses[3]
    );
    assert!(!escaped.exists(), "snapshot escaped the state dir");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_chaos_panic_is_isolated_and_calibration_survives() {
    // Arming goes over the protocol (`failpoint` command), so hold the
    // process-global registry lock manually for the whole scenario.
    let _lock = faultinject::exclusive();
    faultinject::clear();

    let (addr, handle) = start();
    let responses = transact(
        addr,
        &[
            r#"{"id":1,"cmd":"load","design":"small:21"}"#,
            r#"{"id":2,"cmd":"calibrate","solver":"cgnr"}"#,
            r#"{"id":3,"cmd":"wns"}"#,
            r#"{"id":4,"cmd":"failpoint","spec":"server.handle=panic*1"}"#,
            r#"{"id":5,"cmd":"wns"}"#,
            r#"{"id":6,"cmd":"wns"}"#,
            r#"{"id":7,"cmd":"stats"}"#,
            r#"{"id":8,"cmd":"history"}"#,
            r#"{"id":9,"cmd":"shutdown"}"#,
        ],
    );
    faultinject::clear();
    assert_eq!(responses.len(), 9);
    // Healthy prefix.
    for r in &responses[..4] {
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    assert!(responses[3].contains("\"applied\":1"), "{}", responses[3]);
    // The armed request dies with a structured internal error…
    assert!(responses[4].contains("\"ok\":false"), "{}", responses[4]);
    assert!(
        responses[4].contains("\"kind\":\"internal\""),
        "{}",
        responses[4]
    );
    assert!(responses[4].contains("restored"), "{}", responses[4]);
    // …and the very next query serves the calibrated state, not a
    // degraded one: same WNS bits as before the crash, no degraded flag.
    assert!(responses[5].contains("\"ok\":true"), "{}", responses[5]);
    assert!(!responses[5].contains("degraded"), "{}", responses[5]);
    assert_eq!(wns_field(&responses[5]), wns_field(&responses[2]));
    // The panic is visible in stats, and so is the crash-isolated
    // session rebuild it forced. Stats continuity: the latency counters
    // live on the session handle, so the wns calls from before the
    // crash are still counted after the rebuild.
    assert!(responses[6].contains("\"panics\":1"), "{}", responses[6]);
    assert!(responses[6].contains("\"rebuilds\":1"), "{}", responses[6]);
    assert!(
        responses[6].contains("\"wns\":{\"count\":3"),
        "latency histograms must survive the rebuild: {}",
        responses[6]
    );
    // The calibration-drift history also survives: the ring lives
    // outside the crash-replaced engine state.
    assert!(responses[7].contains("\"count\":1"), "{}", responses[7]);
    assert!(
        responses[7].contains("\"mode\":\"cold\""),
        "{}",
        responses[7]
    );
    assert!(responses[8].contains("\"ok\":true"), "{}", responses[8]);
    handle.join().expect("server thread exits");
}

#[test]
fn tcp_chaos_uncalibrated_panic_degrades_until_recalibrated() {
    let _lock = faultinject::exclusive();
    faultinject::clear();

    let (addr, handle) = start();
    let responses = transact(
        addr,
        &[
            r#"{"id":1,"cmd":"load","design":"small:22"}"#,
            r#"{"id":2,"cmd":"failpoint","spec":"server.handle=panic*1"}"#,
            r#"{"id":3,"cmd":"wns"}"#,
            r#"{"id":4,"cmd":"wns"}"#,
            r#"{"id":5,"cmd":"calibrate","solver":"cgnr"}"#,
            r#"{"id":6,"cmd":"wns"}"#,
            r#"{"id":7,"cmd":"shutdown"}"#,
        ],
    );
    faultinject::clear();
    assert_eq!(responses.len(), 7);
    assert!(
        responses[2].contains("\"kind\":\"internal\""),
        "{}",
        responses[2]
    );
    // Recovered, but the rebuilt session was never calibrated: answers
    // are served with an explicit degraded marker…
    assert!(responses[3].contains("\"ok\":true"), "{}", responses[3]);
    assert!(
        responses[3].contains("\"degraded\":true"),
        "{}",
        responses[3]
    );
    // …until a successful calibration clears it.
    assert!(responses[4].contains("\"ok\":true"), "{}", responses[4]);
    assert!(responses[5].contains("\"ok\":true"), "{}", responses[5]);
    assert!(!responses[5].contains("degraded"), "{}", responses[5]);
    handle.join().expect("server thread exits");
}

// --- Panic drill: recovery replays the journal exactly -------------------

/// The mutation storm of `scripts/crash_recovery.sh`.
const STORM: [&str; 8] = [
    r#"{"id":1,"cmd":"load","design":"small:7"}"#,
    r#"{"id":2,"cmd":"calibrate","solver":"scgrs"}"#,
    r#"{"id":3,"cmd":"commit","cell":"g_1_0_0","to":"up"}"#,
    r#"{"id":4,"cmd":"commit","cell":"g_1_1_0","to":"up"}"#,
    r#"{"id":5,"cmd":"commit","cell":"g_0_0_1","to":"up"}"#,
    r#"{"id":6,"cmd":"recalibrate"}"#,
    r#"{"id":7,"cmd":"commit","cell":"g_1_0_0","to":"down"}"#,
    r#"{"id":8,"cmd":"commit","cell":"g_0_0_2","to":"up"}"#,
];

/// The script's v1 read suite: v1 envelopes carry no `request_id`, so
/// replies compare byte for byte across runs.
const READS: [&str; 4] = [
    r#"{"id":90,"cmd":"slack","top":5}"#,
    r#"{"id":91,"cmd":"wns"}"#,
    r#"{"id":92,"cmd":"tns"}"#,
    r#"{"id":93,"cmd":"history"}"#,
];

/// Serves `requests` in-process with the default config.
fn stream(requests: &[&str]) -> Vec<String> {
    let mut script = requests.join("\n");
    script.push('\n');
    let out = serve_stream(
        &ServerConfig::default(),
        script.as_bytes(),
        Vec::<u8>::new(),
    )
    .expect("stream run");
    String::from_utf8(out)
        .expect("utf8 responses")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// A CGNR session whose cold refits inherit its solver: `commit` with
/// `full`, then warm commits on top.
const CGNR_STORM: [&str; 5] = [
    r#"{"id":1,"cmd":"load","design":"small:7"}"#,
    r#"{"id":2,"cmd":"calibrate","solver":"cgnr"}"#,
    r#"{"id":3,"cmd":"commit","cell":"g_1_0_0","to":"up","full":true}"#,
    r#"{"id":4,"cmd":"commit","cell":"g_1_1_0","to":"up"}"#,
    r#"{"id":5,"cmd":"commit","cell":"g_0_0_1","to":"up"}"#,
];

/// Runs `storm` then the read suite, once uninterrupted and once with a
/// one-shot panic after each of its mutations, and asserts that every
/// reply after the panicking request is the uninterrupted run's.
fn drill(storm: &[&str]) {
    let reference = stream(&[storm, &READS[..]].concat());
    for r in &reference {
        assert!(r.contains("\"ok\":true"), "{r}");
    }
    for k in 1..=storm.len() {
        let drill = [
            &storm[..k],
            &[
                r#"{"id":70,"cmd":"failpoint","spec":"server.handle=panic*1"}"#,
                r#"{"id":71,"cmd":"wns"}"#,
            ],
            &storm[k..],
            &READS[..],
        ]
        .concat();
        let replies = stream(&drill);
        faultinject::clear();
        assert!(
            replies[k + 1].contains("\"kind\":\"internal\""),
            "panic after mutation {k}: {}",
            replies[k + 1]
        );
        assert_eq!(
            &replies[k + 2..],
            &reference[k..],
            "replies after a panic following mutation {k}"
        );
    }
}

#[test]
fn replies_after_a_caught_panic_match_a_fault_free_run() {
    // A caught panic rebuilds the session from its journal, so the
    // warm refits that follow — and every later reply — are the ones an
    // uninterrupted session gives.
    let _lock = faultinject::exclusive();
    faultinject::clear();
    drill(&STORM);
    // Replayed cold refits keep the session's solver.
    drill(&CGNR_STORM);
}
