//! `mgba-sta` — command-line front end for the mGBA framework.
//!
//! ```text
//! mgba-sta generate  <D1..D10|small:SEED> [--format text|verilog|edif] [--out FILE]
//! mgba-sta import    --edif FILE [--format text|verilog] [--out FILE]
//! mgba-sta lint      <FILE> [--json]
//! mgba-sta stats     <FILE>
//! mgba-sta report    <FILE> --period PS [--top N]
//! mgba-sta calibrate <D1..D10|small:SEED|FILE> [--period PS] [--solver ...] [--out WEIGHTS]
//! mgba-sta flow      <FILE> --period PS [--timer gba|mgba]
//! mgba-sta holdfix   <FILE> --period PS [--guard PS]
//! mgba-sta corners   <FILE> --period PS
//! mgba-sta sdf       <FILE> --period PS [--fit] [--out FILE]
//! mgba-sta serve     [--listen ADDR | --stdio] [--queue N] [--deadline-ms MS]
//!                    [--session-ttl-secs S] [--slow-ms MS]
//!                    [--state-dir DIR] [--checkpoint-every N]
//! mgba-sta query     --connect ADDR [--timeout-ms MS] [--retries N]
//!                    [--backoff-ms MS] [--session NAME] [--proto 1|2]
//!                    [REQUEST...]
//! ```
//!
//! Every subcommand additionally accepts the global options:
//!
//! - `--threads N` (default: the `MGBA_THREADS` environment variable,
//!   else all cores) pins the worker-thread count of the parallel
//!   PBA-retiming and fitting kernels. Results are bit-identical for
//!   every thread count.
//! - `--profile` / `--profile=json` enables the observability layer
//!   (`obs`): hierarchical timed spans over load → select → build →
//!   solve → fold-back, a metrics registry, and per-iteration solver
//!   telemetry. `--profile` prints a pretty report to stderr;
//!   `--profile=json` writes `results/profile_<command>.json`.
//!   Instrumentation never changes results — outputs are bit-identical
//!   with and without it.
//! - `--trace FILE` records every span as a Chrome `trace_event` and
//!   writes the timeline JSON to FILE on success — load it in
//!   `chrome://tracing` or Perfetto. Independent of `--profile`; under
//!   `serve` each request's handler appears as its own span, and each
//!   request stage (queue wait, execute, reply write, …) as a complete
//!   event. The same bit-identity guarantee applies.
//! - `--log FILE` records the structured event log (`obs::events`) —
//!   typed lifecycle events with severity, monotonic sequence numbers,
//!   and session/request attribution — and writes it to FILE as JSON
//!   lines on success. Off by default with the same zero-overhead,
//!   bit-identity guarantee as the other instrumentation.
//!
//! Netlist files may be in the native text format (`.nl`), the
//! structural-Verilog subset (`.v`), or EDIF 2.0.0 (`.edif`),
//! auto-detected by content; `import` converts EDIF to the other
//! formats and `lint` runs the collected-issues validator on any of
//! them.

use mgba::prelude::*;
use optim::{run_flow, FlowConfig};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

mod args;
use args::Args;

/// Writes to stdout, treating a broken pipe (e.g. `mgba-sta ... | head`)
/// as a clean exit instead of a panic.
fn emit(text: &str) -> Result<(), MgbaError> {
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(MgbaError::io("<stdout>", e)),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // The usage wall helps when the command line was wrong; for
            // runtime failures (I/O, timeouts, solver faults) it buries
            // the actual error.
            if matches!(e, MgbaError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  mgba-sta generate  <D1..D10|small:SEED> [--format text|verilog|edif] [--out FILE]
  mgba-sta import    --edif FILE [--format text|verilog] [--out FILE]
                     (strict EDIF 2.0.0 import; every collected issue is
                     printed to stderr, any error-severity issue fails)
  mgba-sta lint      <FILE> [--json]   (collected-issues netlist validator
                     over native text, Verilog, or EDIF, auto-detected;
                     exits nonzero when error-severity issues are found)
  mgba-sta stats     <FILE>
  mgba-sta report    <FILE> --period PS [--top N] [--weights WEIGHTS]
  mgba-sta calibrate <D1..D10|small:SEED|FILE> [--period PS] [--solver gd|scg|scgrs|cgnr]
                     [--out WEIGHTS] [--qor FILE]   (fit mGBA weights; without
                     --period a violating period is derived; --qor writes the
                     QoR accuracy dashboard JSON)
  mgba-sta flow      <FILE> --period PS [--timer gba|mgba]
  mgba-sta holdfix   <FILE> --period PS [--guard PS]
  mgba-sta corners   <FILE> --period PS
  mgba-sta sdf       <FILE> --period PS [--fit] [--out FILE]
  mgba-sta serve     [--listen ADDR | --stdio] [--queue N] [--deadline-ms MS]
                     [--session-ttl-secs S] [--slow-ms MS]
                     [--state-dir DIR] [--checkpoint-every N]
                     (each session runs its commands in admission order
                     on its own writer lane. Sessions idle longer than S
                     seconds are evicted lazily; 0/unset = never.
                     --slow-ms records non-read commands executing >= MS
                     ms in the per-session ring served by `slowlog`.
                     --state-dir makes sessions durable: every mutation is
                     fsynced to a per-session write-ahead log before it is
                     acknowledged, a checkpoint is cut every N records
                     [default 32], and a restarted server replays
                     checkpoint + WAL tail so reads answer byte-identically
                     after a crash. While it is set, `snapshot`/`restore`
                     file paths are confined to DIR — absolute paths and
                     `..` components are rejected)
  mgba-sta query     --connect ADDR [--timeout-ms MS] [--retries N] [--backoff-ms MS]
                     [--session NAME] [--proto 1|2] [REQUEST...]
                     (reads stdin when no REQUEST;
                     a bare word like `wns` or `metrics` means {\"cmd\":\"...\"};
                     a bare `metrics` prints the raw Prometheus exposition;
                     --session addresses a named server session (default
                     `default`); --proto 1 speaks the legacy sessionless
                     protocol; --timeout-ms bounds socket reads/writes,
                     default 30000, 0 disables; connect retries back off
                     exponentially, and the same budget replays in-flight
                     requests if the connection drops mid-stream — e.g.
                     across a server restart; see the at-least-once note
                     in the README)

global options:
  --threads N       worker threads for PBA retiming / fitting kernels
                    (default: MGBA_THREADS env, else all cores; 1 = serial;
                    results are identical for every value)
  --profile         print a span/metrics/solver-telemetry report to stderr
  --profile=json    write the report to results/profile_<command>.json
  --trace FILE      write a Chrome trace_event timeline (chrome://tracing)
  --log FILE        write the structured event log as JSON lines";

/// Where the `--profile` report goes.
#[derive(Clone, Copy, PartialEq)]
enum ProfileFormat {
    Text,
    Json,
}

fn run(argv: &[String]) -> Result<(), MgbaError> {
    let mut args = Args::new(argv);
    // Global flags, honored by every subcommand. They must be consumed
    // before the first positional read: `positional` treats the token
    // after an unconsumed `--flag` as that flag's value.
    if let Some(t) = args.option("--threads")? {
        let threads: usize = t.parse().map_err(|_| {
            MgbaError::Usage(format!("bad --threads `{t}` (want a non-negative integer)"))
        })?;
        parallel::set_global_threads(threads);
    }
    let profile = if args.flag("--profile=json") {
        Some(ProfileFormat::Json)
    } else if args.flag("--profile") {
        Some(ProfileFormat::Text)
    } else {
        None
    };
    if profile.is_some() {
        obs::set_enabled(true);
    }
    let trace_path = args.option("--trace")?;
    if trace_path.is_some() {
        obs::set_trace_enabled(true);
    }
    let log_path = args.option("--log")?;
    if log_path.is_some() {
        obs::set_log_enabled(true);
    }
    let command = args.positional("command")?;
    obs::events::emit(
        obs::events::Severity::Info,
        "cli.start",
        None,
        None,
        &[("command", command.clone())],
    );
    let result = {
        // Root span: the whole subcommand, named after it.
        let _span = obs::span(&command);
        match command.as_str() {
            "generate" => cmd_generate(&mut args),
            "import" => cmd_import(&mut args),
            "lint" => cmd_lint(&mut args),
            "stats" => cmd_stats(&mut args),
            "report" => cmd_report(&mut args),
            "calibrate" => cmd_calibrate(&mut args),
            "flow" => cmd_flow(&mut args),
            "holdfix" => cmd_holdfix(&mut args),
            "corners" => cmd_corners(&mut args),
            "sdf" => cmd_sdf(&mut args),
            "serve" => cmd_serve(&mut args),
            "query" => cmd_query(&mut args),
            other => Err(MgbaError::Usage(format!("unknown command `{other}`"))),
        }
    };
    obs::events::emit(
        obs::events::Severity::Info,
        "cli.finish",
        None,
        None,
        &[
            ("command", command.clone()),
            ("ok", result.is_ok().to_string()),
        ],
    );
    if result.is_ok() {
        if let Some(path) = &trace_path {
            obs::set_trace_enabled(false);
            write_trace(path)?;
        }
        if let Some(path) = &log_path {
            obs::set_log_enabled(false);
            write_events(path)?;
        }
        if let Some(format) = profile {
            obs::set_enabled(false);
            write_profile(&command, format)?;
        }
    }
    result
}

/// Writes the collected Chrome trace_event timeline.
fn write_trace(path: &str) -> Result<(), MgbaError> {
    std::fs::write(path, obs::trace::export_json()).map_err(|e| MgbaError::io(path, e))?;
    match obs::trace::dropped_events() {
        0 => eprintln!("wrote trace {path}"),
        n => eprintln!("wrote trace {path} ({n} events dropped past cap)"),
    }
    Ok(())
}

/// Writes the structured event log as JSON lines (`--log FILE`).
fn write_events(path: &str) -> Result<(), MgbaError> {
    std::fs::write(path, obs::events::export_jsonl()).map_err(|e| MgbaError::io(path, e))?;
    match obs::events::evicted_events() {
        0 => eprintln!("wrote event log {path}"),
        n => eprintln!("wrote event log {path} ({n} events evicted past cap)"),
    }
    Ok(())
}

/// Emits the captured observability report in the requested format.
fn write_profile(command: &str, format: ProfileFormat) -> Result<(), MgbaError> {
    let report = obs::ProfileReport::capture();
    match format {
        ProfileFormat::Text => eprint!("{}", report.to_pretty()),
        ProfileFormat::Json => {
            let dir = Path::new("results");
            std::fs::create_dir_all(dir).map_err(|e| MgbaError::io(dir, e))?;
            let path = dir.join(format!("profile_{command}.json"));
            std::fs::write(&path, report.to_json()).map_err(|e| MgbaError::io(&path, e))?;
            eprintln!("wrote profile {}", path.display());
        }
    }
    Ok(())
}

fn cmd_generate(args: &mut Args) -> Result<(), MgbaError> {
    let spec = args.positional("design")?;
    let format = args.option("--format")?.unwrap_or_else(|| "text".into());
    let out = args.option("--out")?;
    args.finish()?;
    let netlist = parse_design(&spec)?;
    let text = match format.as_str() {
        "text" => netlist::write_netlist(&netlist),
        "verilog" => netlist::write_verilog(&netlist),
        "edif" => ingest::write_edif(&netlist),
        other => return Err(MgbaError::Usage(format!("unknown format `{other}`"))),
    };
    match out {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| MgbaError::io(&path, e))?;
            eprintln!(
                "wrote {} ({} cells, {} nets)",
                path,
                netlist.num_cells(),
                netlist.num_nets()
            );
        }
        None => emit(&text)?,
    }
    Ok(())
}

/// Strict EDIF 2.0.0 front door: runs the collected-issues load, prints
/// the whole report to stderr (warnings included), and converts the
/// design to the requested output format only when no error-severity
/// issue was found — so one run shows every defect instead of the first.
fn cmd_import(args: &mut Args) -> Result<(), MgbaError> {
    let file: String = args.required_option("--edif")?;
    let format = args.option("--format")?.unwrap_or_else(|| "text".into());
    let out = args.option("--out")?;
    args.finish()?;
    let text = std::fs::read_to_string(&file).map_err(|e| MgbaError::io(&file, e))?;
    let imported = ingest::lint_edif(&text);
    if !imported.report.issues.is_empty() {
        eprint!("{}", imported.report.render_text());
    }
    let netlist = match imported.netlist {
        Some(n) if imported.report.num_errors() == 0 => n,
        _ => {
            return Err(MgbaError::Lint {
                path: file.into(),
                errors: imported.report.num_errors().max(1),
                warnings: imported.report.num_warnings(),
            })
        }
    };
    let rendered = match format.as_str() {
        "text" => netlist::write_netlist(&netlist),
        "verilog" => netlist::write_verilog(&netlist),
        other => return Err(MgbaError::Usage(format!("unknown format `{other}`"))),
    };
    match out {
        Some(path) => {
            std::fs::write(&path, rendered).map_err(|e| MgbaError::io(&path, e))?;
            eprintln!(
                "imported {} ({} cells, {} nets) -> {}",
                file,
                netlist.num_cells(),
                netlist.num_nets(),
                path
            );
        }
        None => emit(&rendered)?,
    }
    Ok(())
}

/// Collected-issues validator over any supported netlist format
/// (auto-detected by content, like every other subcommand). Prints the
/// full report — text by default, a JSON object with `--json` — and
/// exits nonzero when error-severity issues are present.
fn cmd_lint(args: &mut Args) -> Result<(), MgbaError> {
    let file = args.positional("netlist file")?;
    let json = args.flag("--json");
    args.finish()?;
    let text = std::fs::read_to_string(&file).map_err(|e| MgbaError::io(&file, e))?;
    let head = text.trim_start();
    let report = if head.starts_with("(edif") || head.starts_with("(EDIF") {
        ingest::lint_edif(&text).report
    } else if head.starts_with("module") {
        // The Verilog reader is fail-fast; fold its first error into the
        // same report shape so callers see one output format.
        match netlist::parse_verilog(&text) {
            Ok(n) => netlist::lint_netlist(&n),
            Err(e) => {
                let mut r = netlist::LintReport::new();
                r.error(netlist::lint::codes::MALFORMED, None, e.to_string());
                r
            }
        }
    } else {
        netlist::lint_netlist_text(&text).1
    };
    if json {
        emit(&render_lint_json(&file, &report))?;
        emit("\n")?;
    } else {
        emit(&report.render_text())?;
    }
    if report.num_errors() > 0 {
        return Err(MgbaError::Lint {
            path: file.into(),
            errors: report.num_errors(),
            warnings: report.num_warnings(),
        });
    }
    Ok(())
}

/// Machine-readable `lint --json` payload: the same fields the server's
/// `lint` command answers with, so tooling can share a decoder.
fn render_lint_json(file: &str, report: &netlist::LintReport) -> String {
    use server::json::Value;
    use std::collections::BTreeMap;
    let issues = report
        .issues
        .iter()
        .map(|i| {
            let mut m = BTreeMap::new();
            m.insert("severity".to_owned(), Value::Str(i.severity.label().into()));
            m.insert("code".to_owned(), Value::Str(i.code.into()));
            m.insert("message".to_owned(), Value::Str(i.message.clone()));
            if let Some(s) = i.span {
                m.insert("line".to_owned(), Value::Num(f64::from(s.line)));
                m.insert("col".to_owned(), Value::Num(f64::from(s.col)));
            }
            Value::Obj(m)
        })
        .collect();
    let mut top = BTreeMap::new();
    top.insert("file".to_owned(), Value::Str(file.to_owned()));
    top.insert("errors".to_owned(), Value::Num(report.num_errors() as f64));
    top.insert(
        "warnings".to_owned(),
        Value::Num(report.num_warnings() as f64),
    );
    top.insert("issues".to_owned(), Value::Arr(issues));
    server::json::render(&Value::Obj(top))
}

fn cmd_stats(args: &mut Args) -> Result<(), MgbaError> {
    let file = args.positional("netlist file")?;
    args.finish()?;
    let netlist = load_netlist_file(&file)?;
    emit(&netlist::DesignStats::collect(&netlist).to_string())?;
    Ok(())
}

fn cmd_holdfix(args: &mut Args) -> Result<(), MgbaError> {
    let file = args.positional("netlist file")?;
    let period: f64 = args.required_option("--period")?;
    let guard: f64 = args.option("--guard")?.map_or(Ok(0.0), |g| {
        g.parse()
            .map_err(|_| MgbaError::Usage(format!("bad --guard `{g}`")))
    })?;
    args.finish()?;
    let mut sta = build_engine(load_netlist_file(&file)?, period)?;
    let report = optim::fix_hold_violations(&mut sta, guard);
    println!(
        "hold violations {} -> {}, {} pad buffers inserted, {} skipped for setup",
        report.violations_before,
        report.violations_after,
        report.buffers_added,
        report.skipped_for_setup
    );
    Ok(())
}

fn cmd_corners(args: &mut Args) -> Result<(), MgbaError> {
    let file = args.positional("netlist file")?;
    let period: f64 = args.required_option("--period")?;
    args.finish()?;
    let netlist = load_netlist_file(&file)?;
    let mc = sta::MultiCornerSta::new(
        &netlist,
        &Sdc::with_period(period),
        sta::Corner::signoff_set(),
    )?;
    emit(&mc.report())?;
    Ok(())
}

fn cmd_sdf(args: &mut Args) -> Result<(), MgbaError> {
    let file = args.positional("netlist file")?;
    let period: f64 = args.required_option("--period")?;
    let fit = args.flag("--fit");
    let out = args.option("--out")?;
    args.finish()?;
    let mut sta = build_engine(load_netlist_file(&file)?, period)?;
    if fit {
        let _ = run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
    }
    let sdf = sta::write_sdf(&sta);
    match out {
        Some(path) => std::fs::write(&path, sdf).map_err(|e| MgbaError::io(&path, e))?,
        None => emit(&sdf)?,
    }
    Ok(())
}

fn cmd_report(args: &mut Args) -> Result<(), MgbaError> {
    let file = args.positional("netlist file")?;
    let period: f64 = args.required_option("--period")?;
    let top: usize = args.option("--top")?.map_or(Ok(10), |t| {
        t.parse()
            .map_err(|_| MgbaError::Usage(format!("bad --top `{t}`")))
    })?;
    let weights_file = args.option("--weights")?;
    args.finish()?;
    let mut sta = build_engine(load_netlist_file(&file)?, period)?;
    if let Some(path) = weights_file {
        let text = std::fs::read_to_string(&path).map_err(|e| MgbaError::io(&path, e))?;
        let pairs = parse_weights(&text)?;
        let weights = mgba::apply_weights(sta.netlist(), &pairs)?;
        sta.set_weights(&weights);
        eprintln!("applied {} weights from {path}", pairs.len());
    }
    emit(&sta::timing_report(&sta, top))?;
    Ok(())
}

/// Prints the post-fit summary of `calibrate`.
fn print_fit_report(report: &MgbaReport, sta: &Sta) {
    println!("design {}: {}", report.design, report.solver_name);
    println!(
        "  {} paths fitted over {} weighted cells ({:.1}% gate coverage)",
        report.num_paths,
        report.num_gates,
        100.0 * report.coverage
    );
    println!(
        "  solve: {} iterations, {} row gradients, {:.1} ms, converged = {}",
        report.iterations,
        report.rows_touched,
        report.solve_time.as_secs_f64() * 1e3,
        report.converged
    );
    println!(
        "  mse vs golden PBA: {:.3e} -> {:.3e}",
        report.mse_before, report.mse_after
    );
    println!(
        "  pass ratio: {:.2}% -> {:.2}%",
        report.pass_before.percent(),
        report.pass_after.percent()
    );
    println!(
        "  corrected timing: WNS {:.1} ps, TNS {:.1} ps, {} violating endpoints",
        sta.wns(),
        sta.tns(),
        sta.violating_endpoints().len()
    );
}

/// Fits mGBA weights to a generator spec or a netlist file, deriving a
/// tight clock period when `--period` is omitted — the one-command way
/// to exercise the full load → select → build → solve → fold-back
/// pipeline (and, with `--profile`, to capture its span tree and solver
/// telemetry).
fn cmd_calibrate(args: &mut Args) -> Result<(), MgbaError> {
    let spec = args.positional("design or netlist file")?;
    let period: Option<f64> = match args.option("--period")? {
        Some(p) => Some(
            p.parse()
                .map_err(|_| MgbaError::Usage(format!("bad value `{p}` for --period")))?,
        ),
        None => None,
    };
    let solver = Solver::parse(&args.option("--solver")?.unwrap_or_else(|| "scgrs".into()))?;
    let out = args.option("--out")?;
    let qor = args.option("--qor")?;
    args.finish()?;
    let netlist = load_design_or_file(&spec)?;
    let period = match period {
        Some(p) => p,
        None => {
            let p = auto_period(&netlist)?;
            eprintln!("auto-derived clock period {p:.1} ps");
            p
        }
    };
    let mut sta = build_engine(netlist, period)?;
    let config = MgbaConfig::default();
    let report = match &qor {
        Some(path) => {
            let (report, accuracy) = run_mgba_with_accuracy(&mut sta, &config, solver);
            std::fs::write(path, accuracy.to_json()).map_err(|e| MgbaError::io(path, e))?;
            eprintln!("wrote QoR accuracy report {path}");
            report
        }
        None => run_mgba(&mut sta, &config, solver),
    };
    if let Some(path) = &out {
        let text = write_weights(sta.netlist(), &report.weights);
        atomic_write_text(path, &text)?;
        eprintln!("wrote weights sidecar {path}");
    }
    print_fit_report(&report, &sta);
    Ok(())
}

fn cmd_flow(args: &mut Args) -> Result<(), MgbaError> {
    let file = args.positional("netlist file")?;
    let period: f64 = args.required_option("--period")?;
    let timer = args.option("--timer")?.unwrap_or_else(|| "gba".into());
    args.finish()?;
    let mut sta = build_engine(load_netlist_file(&file)?, period)?;
    let cfg = match timer.as_str() {
        "gba" => FlowConfig::gba(),
        "mgba" => FlowConfig::mgba(MgbaConfig::default(), Solver::ScgRs),
        other => return Err(MgbaError::Usage(format!("unknown timer `{other}`"))),
    };
    let r = run_flow(&mut sta, &cfg);
    println!("design {} [{} timer]", r.design, r.timer);
    println!(
        "  {} passes: {} upsizes, {} buffers, {} recovery downsizes; closed = {}",
        r.passes, r.counts.upsizes, r.counts.buffers, r.counts.downsizes, r.closed
    );
    println!(
        "  runtime {:.0} ms (mGBA fitting {:.0} ms)",
        r.elapsed.as_secs_f64() * 1e3,
        r.mgba_time.as_secs_f64() * 1e3
    );
    println!(
        "  area {:.0} -> {:.0} um^2, leakage {:.0} -> {:.0} nW, buffers {} -> {}",
        r.qor_initial.area,
        r.qor_final.area,
        r.qor_initial.leakage,
        r.qor_final.leakage,
        r.qor_initial.buffers,
        r.qor_final.buffers
    );
    println!(
        "  signoff PBA: WNS {:.1} ps, TNS {:.1} ps, {} violating endpoints",
        r.qor_final_pba.wns, r.qor_final_pba.tns, r.qor_final_pba.violating_endpoints
    );
    Ok(())
}

/// Runs the JSON-lines timing-query daemon (see `DESIGN.md` §9 for the
/// protocol). With `--listen` the server accepts TCP connections until a
/// `shutdown` request drains the queue; with `--stdio` it serves one
/// request stream on stdin/stdout and exits on EOF or `shutdown` —
/// ideal for pipelines and smoke tests. `--state-dir` turns on the
/// durability layer (DESIGN.md §16): per-session write-ahead logs,
/// periodic checkpoints, and crash-safe replay on restart.
fn cmd_serve(args: &mut Args) -> Result<(), MgbaError> {
    let stdio = args.flag("--stdio");
    let listen = args.option("--listen")?;
    let queue_depth: usize = args.option("--queue")?.map_or(Ok(64), |q| {
        q.parse()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| MgbaError::Usage(format!("bad --queue `{q}` (want a positive integer)")))
    })?;
    let default_deadline_ms: Option<u64> = match args.option("--deadline-ms")? {
        Some(d) => Some(
            d.parse()
                .map_err(|_| MgbaError::Usage(format!("bad --deadline-ms `{d}`")))?,
        ),
        None => None,
    };
    let session_ttl_secs: Option<u64> = match args.option("--session-ttl-secs")? {
        Some(s) => Some(s.parse().map_err(|_| {
            MgbaError::Usage(format!(
                "bad --session-ttl-secs `{s}` (want a non-negative integer; 0 disables eviction)"
            ))
        })?),
        None => None,
    };
    let slow_ms: Option<u64> = match args.option("--slow-ms")? {
        Some(s) => Some(s.parse().map_err(|_| {
            MgbaError::Usage(format!(
                "bad --slow-ms `{s}` (want milliseconds; 0 records every lane command)"
            ))
        })?),
        None => None,
    };
    let state_dir: Option<std::path::PathBuf> =
        args.option("--state-dir")?.map(std::path::PathBuf::from);
    let checkpoint_every: Option<u64> = match args.option("--checkpoint-every")? {
        Some(n) => Some(n.parse().ok().filter(|v| *v > 0).ok_or_else(|| {
            MgbaError::Usage(format!(
                "bad --checkpoint-every `{n}` (want a positive record count)"
            ))
        })?),
        None => None,
    };
    if checkpoint_every.is_some() && state_dir.is_none() {
        return Err(MgbaError::Usage(
            "--checkpoint-every requires --state-dir".into(),
        ));
    }
    args.finish()?;
    let config = server::ServerConfig {
        queue_depth,
        default_deadline_ms,
        session_ttl_secs,
        slow_ms,
        state_dir,
        checkpoint_every: checkpoint_every
            .unwrap_or(server::ServerConfig::default().checkpoint_every),
    };
    if stdio {
        if listen.is_some() {
            return Err(MgbaError::Usage(
                "--stdio and --listen are mutually exclusive".into(),
            ));
        }
        return server::serve_stdio(&config);
    }
    let addr = listen.unwrap_or_else(|| "127.0.0.1:7878".into());
    let srv = server::Server::bind(&addr, config)?;
    eprintln!("mgba-server listening on {}", srv.local_addr()?);
    srv.run()
}

/// Bare-word request sugar: `wns` → `{"cmd":"wns"}`. Anything that
/// isn't a plain identifier passes through untouched.
fn desugar_request(line: &str) -> String {
    let t = line.trim();
    if !t.is_empty()
        && !t.starts_with('{')
        && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        format!("{{\"cmd\":\"{t}\"}}")
    } else {
        line.to_owned()
    }
}

/// Maps a typed-client I/O error onto the wire-appropriate error: an
/// expired read/write timeout becomes [`MgbaError::Timeout`] (nonzero
/// exit, distinguishable from connection refusal); everything else
/// passes through.
fn io_or_timeout(addr: &str, timeout_ms: u64, e: MgbaError) -> MgbaError {
    use std::io::ErrorKind;
    match &e {
        MgbaError::Io { source, .. }
            if matches!(source.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            MgbaError::timeout(format!("waiting for {addr}"), timeout_ms)
        }
        _ => e,
    }
}

/// Stamps protocol v2 session addressing onto a request line: a JSON
/// object that names neither `proto` nor `session` gains both. Lines
/// that are not JSON objects (the server answers those with a parse
/// error) and lines that address explicitly pass through untouched.
fn address_request(line: &str, proto: u64, session: &str) -> String {
    if proto < 2 {
        return line.to_owned();
    }
    let Ok(server::json::Value::Obj(mut m)) = server::json::parse(line) else {
        return line.to_owned();
    };
    if m.contains_key("proto") || m.contains_key("session") {
        return line.to_owned();
    }
    m.insert("proto".to_owned(), server::json::Value::Num(proto as f64));
    m.insert(
        "session".to_owned(),
        server::json::Value::Str(session.to_owned()),
    );
    server::json::render(&server::json::Value::Obj(m))
}

/// Batch client for a running `serve` daemon: sends each REQUEST line
/// (or, with none given, every non-blank stdin line), then prints the
/// server's responses in order, one JSON object per line. Requests may
/// be bare command words ([`desugar_request`]); a bare `metrics`
/// request prints its Prometheus exposition as raw text instead of the
/// JSON envelope, so `mgba-sta query --connect HOST metrics` pipes
/// straight into Prometheus tooling.
///
/// Speaks protocol v2 through [`server::client::Client`]: every request
/// that does not address a session explicitly is stamped with
/// `--session` (default `default`); `--proto 1` reverts to the legacy
/// sessionless grammar (the server answers those `deprecated:true`).
///
/// The socket carries read/write timeouts (`--timeout-ms`, default
/// 30 000; 0 disables) so a wedged daemon surfaces as a typed timeout
/// error with a nonzero exit instead of a hang; the initial connect
/// retries with exponential backoff (`--retries`, `--backoff-ms`).
fn cmd_query(args: &mut Args) -> Result<(), MgbaError> {
    use server::client::{Client, ClientConfig};
    use std::io::BufRead as _;

    let connect: String = args.required_option("--connect")?;
    let timeout_ms: u64 = args.option("--timeout-ms")?.map_or(Ok(30_000), |t| {
        t.parse()
            .map_err(|_| MgbaError::Usage(format!("bad --timeout-ms `{t}` (want milliseconds)")))
    })?;
    let retries: u32 = args.option("--retries")?.map_or(Ok(2), |r| {
        r.parse()
            .map_err(|_| MgbaError::Usage(format!("bad --retries `{r}` (want a count)")))
    })?;
    let backoff_ms: u64 = args.option("--backoff-ms")?.map_or(Ok(50), |b| {
        b.parse()
            .map_err(|_| MgbaError::Usage(format!("bad --backoff-ms `{b}` (want milliseconds)")))
    })?;
    let session: String = args
        .option("--session")?
        .unwrap_or_else(|| server::proto::DEFAULT_SESSION.to_owned());
    server::proto::validate_session_name(&session)?;
    let proto: u64 = args.option("--proto")?.map_or(Ok(2), |p| {
        p.parse()
            .ok()
            .filter(|v| (1..=2).contains(v))
            .ok_or_else(|| MgbaError::Usage(format!("bad --proto `{p}` (want 1 or 2)")))
    })?;
    let mut raw_requests = Vec::new();
    while let Ok(r) = args.positional("request") {
        raw_requests.push(r);
    }
    args.finish()?;
    if raw_requests.is_empty() {
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| MgbaError::io("<stdin>", e))?;
            if !line.trim().is_empty() {
                raw_requests.push(line);
            }
        }
    }
    let requests: Vec<String> = raw_requests
        .iter()
        .map(|r| address_request(&desugar_request(r), proto, &session))
        .collect();
    let mut client = Client::connect(
        &connect,
        ClientConfig {
            timeout_ms,
            connect_retries: retries,
            backoff_ms,
            proto,
            session,
        },
    )
    .map_err(|e| io_or_timeout(&connect, timeout_ms, e))?;
    // Pipelined: all requests go out, then exactly one response line
    // comes back per request, in admission order.
    for request in &requests {
        client
            .send_raw(request)
            .map_err(|e| io_or_timeout(&connect, timeout_ms, e))?;
    }
    for raw in &raw_requests {
        match client.recv_raw() {
            Ok(response) => {
                if raw.trim() == "metrics" {
                    if let Some(exposition) = extract_exposition(&response) {
                        emit(&exposition)?;
                        continue;
                    }
                }
                emit(&response)?;
                emit("\n")?;
            }
            Err(MgbaError::Io { source, .. })
                if source.kind() == std::io::ErrorKind::UnexpectedEof =>
            {
                return Err(MgbaError::Usage(
                    "server closed the connection before answering".into(),
                ))
            }
            Err(e) => return Err(io_or_timeout(&connect, timeout_ms, e)),
        }
    }
    Ok(())
}

/// Pulls `result.exposition` out of a successful `metrics` response.
/// Returns `None` for error envelopes (the caller prints them as-is).
fn extract_exposition(response: &str) -> Option<String> {
    let v = server::json::parse(response).ok()?;
    v.get("result")?
        .get("exposition")?
        .as_str()
        .map(str::to_owned)
}
