//! Per-layer timers for the traced run: the benchmark times its own
//! calls into each layer's public functions (no spans inside the
//! program), and reports the median over the traced ops.

use std::collections::BTreeMap;
use std::time::Instant;

/// One named figure with its unit.
#[derive(Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// How the value was taken, for the report lines.
    pub note: String,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.into(),
            note: String::new(),
        }
    }

    /// The metric with a note on how it was taken.
    pub fn with_note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// Samples of per-layer figures, collected per op.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, (&'static str, Vec<f64>)>,
    /// Layer time of the current op, ms.
    op_layer_ms: f64,
    /// Time of the current op spent on measurement work that is not part
    /// of the op (the parallel-layer probe), ms.
    op_excluded_ms: f64,
}

impl Layers {
    /// Times `f` as one call into the layer stage `name` (unit `ms`).
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let (out, ms) = timed(f);
        self.stage_ms(name, ms);
        out
    }

    /// Records `ms` as the time of stage `name` in the current op, for
    /// stages the caller times itself because they span several calls
    /// (such as fold-back's two halves).
    pub fn stage_ms(&mut self, name: &str, ms: f64) {
        self.op_layer_ms += ms;
        self.push(name, ms, "ms");
    }

    /// Runs `f` as measurement work that is not part of the op.
    pub fn excluded<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, ms) = timed(f);
        self.op_excluded_ms += ms;
        out
    }

    /// Records a figure that is not a stage time (a count, a ratio, or a
    /// time nested inside a stage already timed).
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit);
    }

    /// Samples recorded so far of figure `name`.
    pub fn count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, |(_, v)| v.len())
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.samples
            .entry(name.to_owned())
            .or_insert_with(|| (unit, Vec::new()))
            .1
            .push(value);
    }

    /// Starts a traced op.
    pub fn begin_op(&mut self) {
        self.op_layer_ms = 0.0;
        self.op_excluded_ms = 0.0;
    }

    /// Ends a traced op timed at `wall_ms` by the caller; returns the op
    /// time without excluded measurement work, and records the share of
    /// it the layer timers cover.
    pub fn end_op(&mut self, wall_ms: f64) -> f64 {
        let op_ms = wall_ms - self.op_excluded_ms;
        self.push("trace.coverage_ratio", self.op_layer_ms / op_ms, "ratio");
        op_ms
    }

    /// The median of every figure, by name.
    pub fn medians(&self) -> Vec<Metric> {
        self.samples
            .iter()
            .map(|(name, (unit, v))| Metric::new(name.clone(), crate::stats::median(v), *unit))
            .collect()
    }
}

/// Runs `f`, returning its result and its wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}
