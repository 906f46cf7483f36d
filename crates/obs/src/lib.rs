//! Zero-dependency observability for the mGBA workspace.
//!
//! The paper's value proposition is a *measured* trade: fit quality
//! against the runtime of path selection, row sampling, and the
//! stochastic solvers. This crate provides the instrumentation layer
//! that makes those measurements first-class:
//!
//! - **Timed spans** ([`span()`]) — hierarchical wall-clock accounting.
//!   Identically-named spans under the same parent aggregate (call
//!   count, total/min/max), so a hot function called 10⁴ times is one
//!   tree node, not 10⁴.
//! - **Metrics** ([`metrics`]) — named counters, gauges, and histograms
//!   with fixed log₂-scale buckets, aggregated process-wide. The
//!   histogram ([`metrics::Histogram`]) is also a plain value that
//!   always-on stores keep for themselves.
//! - **Solver telemetry** ([`telemetry`]) — per-iteration traces
//!   (objective, gradient norm, step size, rows touched) for every
//!   solver run, plus Algorithm 1's ratio-doubling rounds.
//! - **Snapshots** ([`ProfileReport`]) — one call captures the span
//!   tree, metrics registry, and solver traces, renderable as JSON or
//!   indented text (the CLI's `--profile[=json]`).
//!
//! # Cost model
//!
//! Instrumentation is **off by default**. Every recording entry point
//! first checks one relaxed atomic bool ([`enabled`]) and returns
//! immediately when disabled — no allocation, no lock, no time query —
//! so instrumented hot paths stay within noise of uninstrumented code.
//! Crucially, recording only ever *reads* the values it is handed:
//! enabling observability never changes a computed result, an RNG
//! draw, or an iteration count. The integration suite asserts the
//! calibrate flow is bit-identical with instrumentation on and off.
//!
//! # Threading
//!
//! All stores are behind mutexes and safe to use from any thread. Span
//! parentage is tracked per thread: a span opened on a worker thread
//! roots its own tree on that thread (the workspace convention is to
//! open spans on the coordinating thread, around parallel regions).
//!
//! # Example
//!
//! ```
//! obs::set_enabled(true);
//! {
//!     let _outer = obs::span("solve");
//!     let _inner = obs::span("matvec");
//!     obs::counter_add("rows", 128);
//!     obs::observe("latency_ns", 425.0);
//! }
//! let report = obs::ProfileReport::capture();
//! assert_eq!(report.spans[0].name, "solve");
//! assert_eq!(report.spans[0].children[0].name, "matvec");
//! obs::set_enabled(false);
//! obs::reset();
//! ```

pub mod events;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod report;
pub mod span;
pub mod telemetry;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use events::{log_enabled, set_log_enabled};
pub use metrics::{counter_add, gauge_set, observe, MetricsSnapshot};
pub use report::ProfileReport;
pub use span::{span, SpanGuard, SpanSnapshot};
pub use trace::{set_trace_enabled, trace_enabled};

/// Process-wide master switch. Relaxed loads keep the disabled path to a
/// single uncontended atomic read.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Spans opened while enabled finish
/// recording even if recording is disabled before they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Clears every collected span, metric, solver trace, trace event, and
/// logged event. Does not change the enabled flags.
pub fn reset() {
    span::reset();
    metrics::reset();
    telemetry::reset();
    trace::reset();
    events::reset();
}

#[cfg(test)]
pub(crate) mod testlock {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that touch the global stores. `cargo test` runs
    /// tests of one binary concurrently; the global registries would
    /// otherwise bleed between them.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::set_enabled(false);
        crate::set_trace_enabled(false);
        crate::set_log_enabled(false);
        crate::reset();
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_records_nothing() {
        let _l = testlock::hold();
        {
            let _s = span("nothing");
            counter_add("nothing", 1);
        }
        let r = ProfileReport::capture();
        assert!(r.spans.is_empty());
        assert!(r.metrics.counters.is_empty());
    }

    #[test]
    fn enable_disable_roundtrip() {
        let _l = testlock::hold();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn reset_clears_all_stores() {
        let _l = testlock::hold();
        set_enabled(true);
        {
            let _s = span("a");
            counter_add("c", 2);
            telemetry::solve_begin("S");
            telemetry::solve_end(true, 1, 1, Some(0.5));
        }
        set_enabled(false);
        reset();
        let r = ProfileReport::capture();
        assert!(r.spans.is_empty());
        assert!(r.metrics.counters.is_empty());
        assert!(r.solves.is_empty());
    }
}
