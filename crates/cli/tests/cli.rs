//! End-to-end tests of the `mgba-sta` binary: every subcommand driven
//! through a real process over real files.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mgba-sta"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mgba_cli_test_{}_{name}", std::process::id()));
    p
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_stats_report_pipeline() {
    let nl = tmp("pipe.nl");
    run_ok(bin().args(["generate", "small:33", "--out"]).arg(&nl));
    let stats = run_ok(bin().arg("stats").arg(&nl));
    assert!(stats.contains("design small_33"));
    assert!(stats.contains("drive mix"));
    let report = run_ok(bin().arg("report").arg(&nl).args(["--period", "1500"]));
    assert!(report.contains("WNS"));
    assert!(report.contains("slack distribution"));
    let _ = std::fs::remove_file(&nl);
}

#[test]
fn verilog_generation_parses_back() {
    let v = tmp("pipe.v");
    run_ok(
        bin()
            .args(["generate", "small:34", "--format", "verilog", "--out"])
            .arg(&v),
    );
    let text = std::fs::read_to_string(&v).expect("file written");
    assert!(text.starts_with("module"));
    // The binary auto-detects Verilog input.
    let stats = run_ok(bin().arg("stats").arg(&v));
    assert!(stats.contains("design small_34"));
    let _ = std::fs::remove_file(&v);
}

#[test]
fn fit_writes_and_report_reads_weights() {
    let nl = tmp("fit.nl");
    let weights = tmp("fit.weights");
    run_ok(bin().args(["generate", "small:35", "--out"]).arg(&nl));
    // A period tight enough to violate (probing would need the library;
    // small designs violate well below ~1000 ps).
    let fit_out = run_ok(
        bin()
            .arg("calibrate")
            .arg(&nl)
            .args(["--period", "900", "--solver", "cgnr", "--out"])
            .arg(&weights),
    );
    assert!(fit_out.contains("pass ratio"));
    let sidecar = std::fs::read_to_string(&weights).expect("sidecar written");
    assert!(sidecar.starts_with("# mgba weights v1"));
    let report = run_ok(
        bin()
            .arg("report")
            .arg(&nl)
            .args(["--period", "900", "--weights"])
            .arg(&weights),
    );
    assert!(report.contains("WNS"));
    let _ = std::fs::remove_file(&nl);
    let _ = std::fs::remove_file(&weights);
}

#[test]
fn sdf_export_is_well_formed() {
    let nl = tmp("sdf.nl");
    let sdf = tmp("out.sdf");
    run_ok(bin().args(["generate", "small:36", "--out"]).arg(&nl));
    run_ok(
        bin()
            .arg("sdf")
            .arg(&nl)
            .args(["--period", "1200", "--fit", "--out"])
            .arg(&sdf),
    );
    let text = std::fs::read_to_string(&sdf).expect("sdf written");
    assert!(text.starts_with("(DELAYFILE"));
    assert!(text.contains("IOPATH"));
    let _ = std::fs::remove_file(&nl);
    let _ = std::fs::remove_file(&sdf);
}

#[test]
fn corners_and_flow_and_holdfix_run() {
    let nl = tmp("flow.nl");
    run_ok(bin().args(["generate", "small:37", "--out"]).arg(&nl));
    let corners = run_ok(bin().arg("corners").arg(&nl).args(["--period", "1500"]));
    assert!(corners.contains("signoff:"));
    let flow = bin()
        .arg("flow")
        .arg(&nl)
        .args(["--period", "1200", "--timer", "mgba"])
        .output()
        .expect("runs");
    assert!(flow.status.success());
    assert!(String::from_utf8_lossy(&flow.stdout).contains("signoff PBA"));
    let hold = bin()
        .arg("holdfix")
        .arg(&nl)
        .args(["--period", "1500"])
        .output()
        .expect("runs");
    assert!(hold.status.success());
    assert!(String::from_utf8_lossy(&hold.stdout).contains("hold violations"));
    let _ = std::fs::remove_file(&nl);
}

/// Runs `cmd` with its stdout pipe closed before the child writes: a
/// reader that goes away (`mgba-sta ... | head -c 10`) is a clean exit.
fn exits_cleanly_into_a_closed_pipe(cmd: &mut Command) {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{cmd:?} exited {}: {err}", out.status);
    assert!(!err.contains("panicked"), "{cmd:?}: {err}");
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    let nl = tmp("closed.nl");
    run_ok(bin().args(["generate", "small:7", "--out"]).arg(&nl));
    exits_cleanly_into_a_closed_pipe(bin().args(["calibrate", "small:7"]));
    exits_cleanly_into_a_closed_pipe(bin().arg("flow").arg(&nl).args(["--period", "1200"]));
    exits_cleanly_into_a_closed_pipe(bin().arg("holdfix").arg(&nl).args(["--period", "1500"]));
    let _ = std::fs::remove_file(&nl);
}

#[test]
fn calibrate_profile_json_writes_span_tree() {
    // `calibrate` takes generator specs directly and auto-derives a
    // violating period; `--profile=json` drops the observability report
    // in results/ under the working directory.
    let dir = tmp("calibrate_profile");
    std::fs::create_dir_all(&dir).expect("workdir");
    let out = run_ok(
        bin()
            .current_dir(&dir)
            .args(["calibrate", "small:38", "--profile=json"]),
    );
    assert!(out.contains("pass ratio"));
    let profile = std::fs::read_to_string(dir.join("results/profile_calibrate.json"))
        .expect("profile written");
    assert!(profile.starts_with("{\"version\":2,"));
    // The span tree covers the whole pipeline and the solver telemetry
    // recorded Algorithm 1's rounds.
    for span in [
        "\"calibrate\"",
        "\"load\"",
        "\"sta_build\"",
        "\"mgba\"",
        "\"select\"",
        "\"build\"",
        "\"solve\"",
        "\"fold_back\"",
        "\"evaluate\"",
    ] {
        assert!(profile.contains(span), "missing span {span}");
    }
    assert!(profile.contains("\"SCG + RS\""));
    assert!(profile.contains("\"rounds\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn calibrate_trace_writes_chrome_trace() {
    use server::json::{parse, Value};

    let trace = tmp("calibrate_trace.json");
    run_ok(bin().args(["calibrate", "small:40", "--trace"]).arg(&trace));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let Value::Arr(events) = parse(&text).expect("valid JSON") else {
        panic!("trace must be a JSON array");
    };
    assert!(!events.is_empty(), "calibrate must emit span events");
    // Every event is a B/E/X duration event; per tid, ts never goes
    // backwards; B and E counts balance.
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    let (mut begins, mut ends) = (0u64, 0u64);
    for e in &events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph");
        assert!(matches!(ph, "B" | "E" | "X"), "bad phase {ph}");
        match ph {
            "B" => {
                begins += 1;
                assert!(e.get("name").and_then(Value::as_str).is_some());
            }
            "E" => ends += 1,
            _ => {}
        }
        let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
        let tid = e.get("tid").and_then(Value::as_u64).expect("tid");
        assert_eq!(e.get("pid").and_then(Value::as_u64), Some(1));
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "tid {tid} timestamp went backwards");
        *prev = ts;
    }
    assert_eq!(begins, ends, "B/E events must balance");
    // The pipeline's spans are on the timeline.
    for name in ["\"calibrate\"", "\"mgba\"", "\"solve\""] {
        assert!(text.contains(name), "missing {name}");
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn calibrate_qor_writes_accuracy_dashboard() {
    use server::json::{parse, Value};

    let qor = tmp("calibrate_qor.json");
    run_ok(bin().args(["calibrate", "small:41", "--qor"]).arg(&qor));
    let text = std::fs::read_to_string(&qor).expect("dashboard written");
    let v = parse(&text).expect("valid JSON");
    assert_eq!(v.get("version").and_then(Value::as_u64), Some(1));
    assert!(v.get("paths").and_then(Value::as_u64).unwrap() > 0);
    let after = v.get("abs_err_after").unwrap();
    let before = v.get("abs_err_before").unwrap();
    assert!(
        after.get("mean").and_then(Value::as_f64).unwrap()
            < before.get("mean").and_then(Value::as_f64).unwrap(),
        "dashboard must show the pessimism reduction"
    );
    for key in ["wns", "tns", "constraint", "weights", "endpoints", "stages"] {
        assert!(v.get(key).is_some(), "missing {key}");
    }
    let _ = std::fs::remove_file(&qor);
}

#[test]
fn calibrate_profile_text_goes_to_stderr() {
    let nl = tmp("calib.nl");
    run_ok(bin().args(["generate", "small:39", "--out"]).arg(&nl));
    let out = bin()
        .arg("calibrate")
        .arg(&nl)
        .args(["--period", "900", "--profile"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("spans:"));
    assert!(err.contains("mgba"));
    // stdout stays a clean fit summary.
    assert!(String::from_utf8_lossy(&out.stdout).contains("pass ratio"));
    let _ = std::fs::remove_file(&nl);
}

#[test]
fn query_times_out_against_a_wedged_server() {
    use std::net::TcpListener;

    // A listener that accepts the connection and then never answers: the
    // client's read timeout must fire and surface as a typed timeout
    // error with a nonzero exit instead of hanging forever.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let wedged = std::thread::spawn(move || {
        let conn = listener.accept().ok();
        std::thread::sleep(std::time::Duration::from_millis(2_000));
        drop(conn);
    });
    let out = bin()
        .args(["query", "--connect", &addr, "--timeout-ms", "200", "ping"])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "a wedged server must not exit 0");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("timed out after 200 ms"), "stderr: {err}");
    wedged.join().expect("listener thread");
}

#[test]
fn query_connect_failure_reports_after_retries() {
    // Nothing listens on this freshly-bound-then-dropped port; the
    // client should retry with backoff and then fail cleanly.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let out = bin()
        .args([
            "query",
            "--connect",
            &addr,
            "--timeout-ms",
            "200",
            "--retries",
            "1",
            "--backoff-ms",
            "10",
            "ping",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("retry 1/1"), "stderr: {err}");
}

#[test]
fn bad_usage_fails_with_usage_text() {
    let out = bin().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"));
    let out = bin()
        .args(["report", "/nonexistent.nl", "--period", "10"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn periods_that_are_not_finite_and_positive_are_refused() {
    let nl = tmp("periods.nl");
    run_ok(bin().args(["generate", "small:42", "--out"]).arg(&nl));
    for cmd in ["report", "calibrate", "flow", "holdfix", "corners", "sdf"] {
        for period in ["nan", "inf", "0", "-1"] {
            let args = [cmd, "--period", period];
            let out = bin().args(args).arg(&nl).output().expect("runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{cmd} --period {period}");
            assert!(err.contains("error: bad period"), "{cmd} {period}: {err}");
        }
    }
    // A design with no timed endpoint has no period to derive.
    let tiny = "design tiny\nlibrary std45\ncell a IN_PORT input 0 0\n";
    std::fs::write(&nl, tiny).unwrap();
    let out = bin().arg("calibrate").arg(&nl).output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot derive a clock period"), "{err}");
    let _ = std::fs::remove_file(&nl);
}
