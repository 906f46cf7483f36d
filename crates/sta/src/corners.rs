//! Multi-corner analysis.
//!
//! Industrial signoff times a design at several process/voltage/
//! temperature corners and takes the worst case per check type: **setup
//! at the slow corner** (longest delays eat into the period) and **hold
//! at the fast corner** (shortest delays race the clock). This module
//! replicates one engine per corner over delay-scaled copies of the
//! library ([`netlist::Library::scale_delays`]) and merges the verdicts.
//!
//! The OCV derating of the paper is *within-corner* variation; corners
//! capture *global* variation. Both margins coexist in real flows, and
//! the mGBA correction applies per corner (each corner's GBA has its own
//! pessimism vs that corner's PBA).

use crate::analysis::Sta;
use crate::aocv::DerateSet;
use crate::constraints::Sdc;
use netlist::{BuildError, Netlist};
use std::fmt::Write as _;

/// One PVT corner: a name, a global delay scale, and a derate set.
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    /// Corner name (`ss_0p72v_125c`-style or just `slow`).
    pub name: String,
    /// Global delay multiplier vs the typical library.
    pub delay_scale: f64,
    /// Within-corner OCV derating.
    pub derates: DerateSet,
}

impl Corner {
    /// The slow (setup-critical) corner: +15 % delays.
    pub fn slow() -> Self {
        Self {
            name: "slow".to_owned(),
            delay_scale: 1.15,
            derates: DerateSet::standard(),
        }
    }

    /// The typical corner.
    pub fn typical() -> Self {
        Self {
            name: "typical".to_owned(),
            delay_scale: 1.0,
            derates: DerateSet::standard(),
        }
    }

    /// The fast (hold-critical) corner: −15 % delays.
    pub fn fast() -> Self {
        Self {
            name: "fast".to_owned(),
            delay_scale: 0.85,
            derates: DerateSet::standard(),
        }
    }

    /// The conventional three-corner signoff set.
    pub fn signoff_set() -> Vec<Corner> {
        vec![Corner::slow(), Corner::typical(), Corner::fast()]
    }
}

/// A per-corner verdict for one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerVerdict {
    /// Corner the worst value came from.
    pub corner: String,
    /// The worst value, ps.
    pub value: f64,
}

/// One timing engine per corner over the same design.
pub struct MultiCornerSta {
    engines: Vec<(Corner, Sta)>,
}

impl MultiCornerSta {
    /// Builds an engine per corner. Each corner gets its own copy of the
    /// design with a delay-scaled library.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] from any corner's engine construction.
    ///
    /// # Panics
    ///
    /// Panics if `corners` is empty.
    pub fn new(netlist: &Netlist, sdc: &Sdc, corners: Vec<Corner>) -> Result<Self, BuildError> {
        assert!(!corners.is_empty(), "need at least one corner");
        let mut engines = Vec::with_capacity(corners.len());
        for corner in corners {
            let scaled = netlist.with_scaled_delays(corner.delay_scale);
            // External input paths sit in silicon at the same corner, so
            // SDC input arrivals scale with it; the output-margin and the
            // period are system constraints and do not.
            let mut corner_sdc = sdc.clone();
            corner_sdc.input_delay_late *= corner.delay_scale;
            corner_sdc.input_delay_early *= corner.delay_scale;
            let sta = Sta::new(scaled, corner_sdc, corner.derates.clone())?;
            engines.push((corner, sta));
        }
        Ok(Self { engines })
    }

    /// The corners analyzed, in construction order.
    pub fn corners(&self) -> impl Iterator<Item = &Corner> {
        self.engines.iter().map(|(c, _)| c)
    }

    /// The engine for a named corner.
    pub fn corner(&self, name: &str) -> Option<&Sta> {
        self.engines
            .iter()
            .find(|(c, _)| c.name == name)
            .map(|(_, s)| s)
    }

    /// Worst setup slack over all corners (expected at the slow corner).
    pub fn setup_wns(&self) -> CornerVerdict {
        self.engines
            .iter()
            .map(|(c, s)| CornerVerdict {
                corner: c.name.clone(),
                value: s.wns(),
            })
            .min_by(|a, b| a.value.partial_cmp(&b.value).expect("finite WNS"))
            .expect("at least one corner")
    }

    /// Worst hold slack over all corners (expected at the fast corner).
    pub fn hold_wns(&self) -> CornerVerdict {
        self.engines
            .iter()
            .map(|(c, s)| {
                let worst = s
                    .netlist()
                    .endpoints()
                    .into_iter()
                    .filter_map(|e| s.hold_slack(e))
                    .filter(|h| h.is_finite())
                    .fold(f64::INFINITY, f64::min);
                CornerVerdict {
                    corner: c.name.clone(),
                    value: worst,
                }
            })
            .min_by(|a, b| a.value.partial_cmp(&b.value).expect("finite hold"))
            .expect("at least one corner")
    }

    /// A summary report of all corners.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>12} {:>12} {:>12} {:>8}",
            "corner", "scale", "setup WNS", "setup TNS", "hold WNS", "viol"
        );
        for (c, s) in &self.engines {
            let hold = s
                .netlist()
                .endpoints()
                .into_iter()
                .filter_map(|e| s.hold_slack(e))
                .filter(|h| h.is_finite())
                .fold(f64::INFINITY, f64::min);
            let _ = writeln!(
                out,
                "{:<10} {:>7.2} {:>12.1} {:>12.1} {:>12.1} {:>8}",
                c.name,
                c.delay_scale,
                s.wns(),
                s.tns(),
                hold,
                s.violating_endpoints().len()
            );
        }
        let setup = self.setup_wns();
        let hold = self.hold_wns();
        let _ = writeln!(
            out,
            "signoff: setup WNS {:.1} ps @ {}, hold WNS {:.1} ps @ {}",
            setup.value, setup.corner, hold.value, hold.corner
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GeneratorConfig;

    fn multi(seed: u64, period: f64) -> MultiCornerSta {
        let n = GeneratorConfig::small(seed).generate();
        // Input arrivals later than the clock-tree insertion delay, so
        // port-fed flops have genuine positive hold margins (in a real
        // flow this is the input-delay-vs-network-latency budgeting the
        // SDC writer does).
        let mut sdc = Sdc::with_period(period);
        sdc.input_delay_early = 1200.0;
        sdc.input_delay_late = 1400.0;
        MultiCornerSta::new(&n, &sdc, Corner::signoff_set()).unwrap()
    }

    #[test]
    fn setup_is_worst_at_the_slow_corner() {
        let mc = multi(1001, 1500.0);
        assert_eq!(mc.setup_wns().corner, "slow");
        // And strictly worse than typical.
        let slow = mc.corner("slow").unwrap().wns();
        let typ = mc.corner("typical").unwrap().wns();
        assert!(slow < typ);
    }

    #[test]
    fn hold_is_worst_at_the_fast_corner() {
        let mc = multi(1002, 1500.0);
        assert_eq!(mc.hold_wns().corner, "fast");
    }

    #[test]
    fn delay_scaling_is_proportional() {
        let n = GeneratorConfig::small(1004).generate();
        let base = Sta::new(n.clone(), Sdc::with_period(1500.0), DerateSet::standard()).unwrap();
        let scaled = Sta::new(
            n.with_scaled_delays(2.0),
            Sdc::with_period(1500.0),
            DerateSet::standard(),
        )
        .unwrap();
        // Arrival times exactly double (every path-delay quantity
        // scales; ports carry zero SDC delay here).
        for e in base.netlist().endpoints().into_iter().take(10) {
            let a = base.endpoint_arrival(e);
            let b = scaled.endpoint_arrival(e);
            if a.is_finite() {
                assert!((b - 2.0 * a).abs() < 1e-6, "{b} != 2*{a}");
            }
        }
    }

    #[test]
    fn report_lists_all_corners() {
        let mc = multi(1005, 1500.0);
        let r = mc.report();
        for c in ["slow", "typical", "fast", "signoff:"] {
            assert!(r.contains(c), "missing {c} in:\n{r}");
        }
    }

    #[test]
    fn unknown_corner_is_none() {
        let mc = multi(1006, 1500.0);
        assert!(mc.corner("nonexistent").is_none());
        assert_eq!(mc.corners().count(), 3);
    }
}
