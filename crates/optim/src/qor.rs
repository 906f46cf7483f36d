//! Quality-of-result metrics (the paper's Table 2 columns).

use serde::{Deserialize, Serialize};
use sta::{paths::worst_paths_to_endpoint, pba_timing, Sta};

/// A snapshot of the design-quality metrics the paper's Table 2 compares.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Qor {
    /// Worst negative slack, ps (GBA view of the measuring engine).
    pub wns: f64,
    /// Total negative slack, ps.
    pub tns: f64,
    /// Endpoints with negative setup slack.
    pub violating_endpoints: usize,
    /// Total cell area, µm².
    pub area: f64,
    /// Total leakage power, nW.
    pub leakage: f64,
    /// Data-network buffers.
    pub buffers: usize,
}

impl Qor {
    /// Captures the metrics from an engine in its current timing view.
    pub fn capture(sta: &Sta) -> Self {
        Self {
            wns: sta.wns(),
            tns: sta.tns(),
            violating_endpoints: sta.violating_endpoints().len(),
            area: sta.netlist().total_area(),
            leakage: sta.netlist().total_leakage(),
            buffers: sta.netlist().buffer_count(),
        }
    }

    /// Captures the metrics with WNS/TNS measured by **golden PBA** on
    /// each endpoint's worst path — the signoff-grade view used to compare
    /// flows fairly (a flow driven by a less pessimistic timer would look
    /// artificially bad under the original GBA yardstick).
    pub fn capture_pba(sta: &Sta) -> Self {
        // Path tracing + PBA retiming per endpoint is embarrassingly
        // parallel; the reduction folds the per-endpoint slacks serially
        // in endpoint order, so the result is bit-identical for every
        // thread count.
        let slacks = parallel::par_map(parallel::global(), sta.endpoints(), |&e| {
            worst_paths_to_endpoint(sta, e, 1)
                .into_iter()
                .next()
                .map(|path| pba_timing(sta, &path).slack)
        });
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut violating = 0usize;
        for slack in slacks.into_iter().flatten() {
            if slack.is_finite() {
                wns = wns.min(slack);
                if slack < 0.0 {
                    tns += slack;
                    violating += 1;
                }
            }
        }
        Self {
            wns,
            tns,
            violating_endpoints: violating,
            area: sta.netlist().total_area(),
            leakage: sta.netlist().total_leakage(),
            buffers: sta.netlist().buffer_count(),
        }
    }

    /// Relative improvement of `other` over `self` in percent, for a
    /// smaller-is-better metric (`area`, `leakage`, `buffers`):
    /// `(self − other) / self × 100`.
    pub fn reduction_percent(base: f64, other: f64) -> f64 {
        if base != 0.0 {
            (base - other) / base * 100.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GeneratorConfig;
    use sta::{DerateSet, Sdc};

    #[test]
    fn capture_reflects_engine() {
        let n = GeneratorConfig::small(121).generate();
        let sta = Sta::new(n, Sdc::with_period(900.0), DerateSet::standard()).unwrap();
        let q = Qor::capture(&sta);
        assert_eq!(q.wns, sta.wns());
        assert_eq!(q.tns, sta.tns());
        assert!(q.area > 0.0);
        assert!(q.leakage > 0.0);
        assert_eq!(q.buffers, sta.netlist().buffer_count());
    }

    #[test]
    fn reduction_percent_signs() {
        assert_eq!(Qor::reduction_percent(100.0, 90.0), 10.0);
        assert_eq!(Qor::reduction_percent(100.0, 110.0), -10.0);
        assert_eq!(Qor::reduction_percent(0.0, 5.0), 0.0);
    }
}
