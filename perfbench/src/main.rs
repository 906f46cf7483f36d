//! Seeded end-to-end benchmark of the mGBA workspace, with a traced mode
//! that times the calls into each layer.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload calibrate_cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload runs in this one process, pinned to one CPU, as a closed
//! loop: one caller, the next op issued only after the previous one
//! returned. The run sets up one design after another, each generated
//! from its own seed derived from `--seed`, and times a few ops on each;
//! every op on a design repeats the same work, and a fixed reference
//! kernel is timed after each op. Every op's output is checked. The last
//! line of standard output is one JSON object, `{"correct", "attempted",
//! "failed", "metrics"}`, whose metrics are the end-to-end ones with
//! `--trace 0` and the per-layer ones with `--trace 1`. The lines before
//! it report every figure by name and unit. `perfbench/README.md`
//! describes the workloads and metrics.

mod calibrate;
mod design;
mod flow;
mod host;
mod layers;
mod serve;
mod stats;

use layers::{timed, Layers, Metric};
use obs::json::JsonWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One design of a benchmark workload, set up on a seeded input.
pub trait Workload {
    /// One op, untraced.
    fn op(&mut self) -> Result<(), String>;
    /// The same op, timing each call into a layer into `layers`.
    fn traced_op(&mut self, layers: &mut Layers) -> Result<(), String>;
    /// Figures taken over the design's ops (QoR, dirty rows).
    fn finish(self: Box<Self>) -> Result<Vec<Metric>, String>;
}

/// A workload's run: sets up its designs, which may share what the run
/// started once (the server workload's one in-process server).
pub trait Designs {
    /// Sets up a design from its generator seed, warm-up op included. It
    /// replaces the previous design, which the caller drops first.
    fn setup(&mut self, seed: u64, layers: &mut Layers) -> Result<Box<dyn Workload>, String>;
    /// Figures taken once over the whole run, after which the run
    /// releases what it started.
    fn finish(self: Box<Self>) -> Result<Vec<Metric>, String>;
}

/// Designs that share nothing: each is set up on its own.
struct Independent<W>(fn(u64, &mut Layers) -> Result<W, String>);

impl<W: Workload + 'static> Designs for Independent<W> {
    fn setup(&mut self, seed: u64, layers: &mut Layers) -> Result<Box<dyn Workload>, String> {
        Ok(Box::new((self.0)(seed, layers)?))
    }

    fn finish(self: Box<Self>) -> Result<Vec<Metric>, String> {
        Ok(Vec::new())
    }
}

/// Starts a workload's run.
type Start = fn() -> Result<Box<dyn Designs>, String>;

/// The workloads by name.
const WORKLOADS: [(&str, Start); 3] = [
    ("calibrate_cold", || {
        Ok(Box::new(Independent(calibrate::Calibrate::setup)))
    }),
    ("closure_flow", || {
        Ok(Box::new(Independent(flow::ClosureFlow::setup)))
    }),
    ("server_optimizer", || {
        Ok(Box::new(serve::ServerRun::start()?))
    }),
];

/// Timed ops per design, after the warm-up op of its set-up. A run
/// measures many designs with a few ops each rather than a few designs
/// with many ops: op cost varies between single designs of one class by
/// 14–18% (log standard deviation), so the design sample, not the op
/// count, limits how well a run repeats.
const OPS_PER_DESIGN: usize = 4;

/// Designs a run sets up at least, however short `--seconds` is. The
/// per-design figures (QoR, pass ratio, dirty rows) are averaged over
/// these first designs only, so they repeat exactly for a seed however
/// many designs a run reaches.
const MIN_DESIGNS: usize = 16;

/// Generator seed of design `k` of the run seeded `seed`: a stride of
/// 2^20 per run, so distinct runs get disjoint design sets.
fn design_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(k as u64)
}

struct Args {
    workload: &'static str,
    start: Start,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        names.join(" ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let &(workload, start) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    Ok(Args {
        workload,
        start,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Op outcomes of a run, per design.
struct Ops {
    /// Latency of every op that passed its checks, ms, by design.
    latency_ms: Vec<Vec<f64>>,
    /// Time of the reference kernel run right after each of those ops,
    /// ms, by design (untraced ops only).
    reference_ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Ops {
    fn new() -> Self {
        Self {
            latency_ms: Vec::new(),
            reference_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Starts the ops of the next design.
    fn begin_design(&mut self) {
        self.latency_ms.push(Vec::new());
        self.reference_ms.push(Vec::new());
    }

    /// Records the outcome of an op of the current design; true if it
    /// passed.
    fn record(&mut self, outcome: std::thread::Result<Result<(), String>>, ms: f64) -> bool {
        self.attempted += 1;
        let design = self.latency_ms.len() - 1;
        let failure = match outcome {
            Ok(Ok(())) => {
                self.latency_ms[design].push(ms);
                return true;
            }
            Ok(Err(e)) => e,
            Err(_) => "the op panicked".to_owned(),
        };
        self.failed += 1;
        self.first_failure
            .get_or_insert(format!("design {design}: {failure}"));
        false
    }

    fn passed(&self) -> usize {
        self.latency_ms.iter().map(Vec::len).sum()
    }

    /// Ops per second over the time the passing ops took.
    fn rate(&self) -> f64 {
        let busy_s: f64 = self.latency_ms.iter().flatten().sum::<f64>() / 1e3;
        self.passed() as f64 / busy_s
    }

    /// Records the reference kernel's time right after the current
    /// design's last passing op.
    fn record_reference(&mut self, ms: f64) {
        if let Some(v) = self.reference_ms.last_mut() {
            v.push(ms);
        }
    }

    /// The latencies of each design with passing ops.
    fn measured(&self) -> impl Iterator<Item = &Vec<f64>> {
        self.latency_ms.iter().filter(|v| !v.is_empty())
    }

    /// Op time in units of the reference kernel: each design's op time
    /// over the reference time beside the same ops, then the geometric
    /// mean over designs, so every design weighs the same.
    fn reference_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .latency_ms
            .iter()
            .zip(&self.reference_ms)
            .filter(|(ops, _)| !ops.is_empty())
            .map(|(ops, refs)| ops.iter().sum::<f64>() / refs.iter().sum::<f64>())
            .collect();
        bench::geomean(&ratios)
    }

    /// The typical op latency: the geometric mean over designs of each
    /// design's median.
    fn p50(&self) -> f64 {
        let medians: Vec<f64> = self.measured().map(|v| stats::median(v)).collect();
        bench::geomean(&medians)
    }

    /// The tail latency: the typical latency times the tail of all op
    /// latencies normalised by their own design's median, so the
    /// percentile is taken over many ops of one kind, never over a mix
    /// of op sizes.
    fn tail(&self) -> Metric {
        let ratios: Vec<f64> = self
            .measured()
            .flat_map(|v| {
                let m = stats::median(v);
                v.iter().map(move |x| x / m)
            })
            .collect();
        match stats::tail(&ratios) {
            Some(t) => Metric::new("op_tail_ms", self.p50() * t.value, "ms")
                .with_note(t.note("ops, each over its design's median")),
            None => {
                let max = ratios.iter().copied().fold(0.0, f64::max);
                Metric::new("op_tail_ms", self.p50() * max, "ms")
                    .with_note("the maximum: too few ops for a percentile with 10 beyond".into())
            }
        }
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    report: Vec<Metric>,
}

/// The manifest that declares the benchmark's metrics, at the root of
/// the checkout the benchmark runs from.
const MANIFEST: &str = "BENCHMARK.json";

/// Every per-layer metric the manifest declares that `measured` lacks,
/// at 0: the layers this workload does not run. A traced run reports
/// the whole declared set.
fn unmeasured_layers(measured: &[Metric]) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let manifest = server::json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let Some(server::json::Value::Arr(declared)) = manifest.get("per_layer") else {
        return Err(format!("{MANIFEST} has no `per_layer` list"));
    };
    Ok(declared
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .filter(|(name, _)| !measured.iter().any(|m| m.name == *name))
        .map(|(name, unit)| {
            Metric::new(name, 0.0, unit).with_note("not run by this workload".into())
        })
        .collect())
}

/// Averages each workload figure over the designs that report it.
fn mean_by_name(per_design: Vec<Vec<Metric>>) -> Vec<Metric> {
    let mut sums: Vec<(Metric, f64)> = Vec::new();
    for m in per_design.into_iter().flatten() {
        match sums.iter_mut().find(|(o, _)| o.name == m.name) {
            Some((o, n)) => {
                o.value += m.value;
                *n += 1.0;
            }
            None => sums.push((m, 1.0)),
        }
    }
    sums.into_iter()
        .map(|(m, n)| Metric {
            value: m.value / n,
            ..m
        })
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    // Every workload runs single-threaded, and the whole process on one
    // CPU: on a small shared host, two threads make timings unsteady, and
    // the reference kernel must run where the op's work runs (see
    // README.md).
    parallel::set_global_threads(1);
    host::pin_to_current_cpu()?;
    let mut designs = (args.start)()?;
    // Wall time of every design's set-up, s.
    let mut setup_s = Vec::new();
    let mut setup_layers = Layers::default();
    let mut plain = Ops::new();
    let mut traced = Ops::new();
    let mut layers = Layers::default();
    let mut per_design = Vec::new();
    let reference = host::Reference::new();
    let budget = Duration::from_secs_f64(args.seconds);
    // Set-ups and ops alternate over the whole run, so both sample the
    // host across it rather than in one phase.
    let start = Instant::now();
    for k in 0.. {
        if k >= MIN_DESIGNS && start.elapsed() >= budget {
            break;
        }
        let seed = design_seed(args.seed, k);
        let (w, ms) = timed(|| designs.setup(seed, &mut setup_layers));
        setup_s.push(ms / 1e3);
        let mut w = w?;
        plain.begin_design();
        traced.begin_design();
        for _ in 0..OPS_PER_DESIGN {
            let (r, ms) = timed(|| catch_unwind(AssertUnwindSafe(|| w.op())));
            if plain.record(r, ms) {
                plain.record_reference(reference.time_ms());
            }
            if args.trace {
                layers.begin_op();
                let (r, ms) = timed(|| catch_unwind(AssertUnwindSafe(|| w.traced_op(&mut layers))));
                let op_ms = layers.end_op(ms);
                traced.record(r, op_ms);
            }
        }
        let figures = w.finish()?;
        if k < MIN_DESIGNS {
            per_design.push(figures);
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    per_design.push(designs.finish()?);
    let probe = host::probe();

    let e2e = vec![
        Metric::new("setup_s", bench::geomean(&setup_s), "s")
            .with_note(format!("geometric mean of {} set-ups", setup_s.len())),
        Metric::new("op_ref_ratio", plain.reference_ratio(), "ratio").with_note(format!(
            "geometric mean of {} designs' op time / reference time",
            setup_s.len()
        )),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    // Plain op times are reported but not among the end-to-end metrics:
    // they follow the phases of a shared host, which `op_ref_ratio`
    // largely cancels (see README.md).
    let reference_ms: Vec<f64> = plain.reference_ms.concat();
    let mut per_layer = vec![
        Metric::new("ops_per_s", plain.rate(), "1/s").with_note(format!("{} ops", plain.passed())),
        Metric::new("op_p50_ms", plain.p50(), "ms").with_note(format!(
            "geometric mean of {} designs' medians",
            setup_s.len()
        )),
        plain.tail(),
    ];
    per_layer.extend(setup_layers.medians());
    per_layer.extend(layers.medians());
    per_layer.extend(mean_by_name(per_design));
    per_layer.push(Metric::new("host.alu_ms", probe.alu_ms, "ms"));
    per_layer.push(Metric::new("host.mem_ms", probe.mem_ms, "ms"));
    per_layer.push(
        Metric::new("host.ref_ms", stats::median(&reference_ms), "ms").with_note(format!(
            "median of {} reference kernels",
            reference_ms.len()
        )),
    );
    if args.trace {
        per_layer.push(
            Metric::new(
                "trace.overhead_ratio",
                traced.rate() / plain.rate(),
                "ratio",
            )
            .with_note("traced / untraced ops per second".into()),
        );
    }
    for failure in [&plain.first_failure, &traced.first_failure]
        .into_iter()
        .flatten()
    {
        eprintln!("perfbench: op failed: {failure}");
    }
    let fail = Metric::new("fail_ratio", failed as f64 / attempted as f64, "ratio");
    Ok(if args.trace {
        let unmeasured = unmeasured_layers(&per_layer)?;
        per_layer.extend(unmeasured);
        Outcome {
            attempted,
            failed,
            metrics: per_layer,
            report: vec![fail],
        }
    } else {
        let mut report = per_layer;
        report.push(fail);
        Outcome {
            attempted,
            failed,
            metrics: e2e,
            report,
        }
    })
}

fn print_metric(m: &Metric) {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  ({})", m.note)
    };
    println!("  {:<28} {:>14.6} {}{note}", m.name, m.value, m.unit);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Taken before the run pins the process to one CPU.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} ops_per_design={OPS_PER_DESIGN} threads=1 cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    outcome.metrics.iter().for_each(print_metric);
    println!(" not in the result:");
    outcome.report.iter().for_each(print_metric);

    let correct = outcome.failed == 0;
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("correct");
    w.bool(correct);
    w.key("attempted");
    w.u64(outcome.attempted);
    w.key("failed");
    w.u64(outcome.failed);
    w.key("metrics");
    w.begin_obj();
    for m in &outcome.metrics {
        w.key(&m.name);
        w.begin_obj();
        w.key("value");
        w.f64(m.value);
        w.key("unit");
        w.str(&m.unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    println!("{}", w.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
