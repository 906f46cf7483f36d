//! Hold-time analysis and fixing.
//!
//! The paper's Eq. (1) constrains both setup *and* hold slack; the
//! optimization sections then focus on setup. This module completes the
//! hold side of the flow: finding endpoints whose early data arrival
//! races the late capture clock, and fixing them the way production
//! flows do — padding the `D` input with minimum-size delay buffers,
//! while watching the setup slack the padding erodes.

use netlist::{CellId, DriveStrength, Function, PinIndex};
use serde::{Deserialize, Serialize};
use sta::Sta;

/// Outcome of a hold-fixing run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoldFixReport {
    /// Hold-violating flip-flops before fixing.
    pub violations_before: usize,
    /// Hold-violating flip-flops after fixing.
    pub violations_after: usize,
    /// Delay buffers inserted.
    pub buffers_added: usize,
    /// Fixes skipped because padding would have broken setup.
    pub skipped_for_setup: usize,
}

/// Flip-flops with negative hold slack, worst first.
pub fn hold_violations(sta: &Sta) -> Vec<(CellId, f64)> {
    let mut v: Vec<(CellId, f64)> = sta
        .endpoints()
        .iter()
        .filter_map(|&e| {
            sta.hold_slack(e)
                .filter(|s| s.is_finite() && *s < 0.0)
                .map(|s| (e, s))
        })
        .collect();
    v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite slacks"));
    v
}

/// Maximum padding buffers per endpoint (a hold violation deeper than
/// this many buffer delays indicates a structural problem, not a race).
const MAX_BUFFERS_PER_ENDPOINT: usize = 8;

/// Fixes hold violations by inserting minimum-size buffers on the
/// violating flip-flops' `D` nets. A fix is rolled back if it would push
/// the endpoint's *setup* slack below `setup_guard`.
///
/// Returns the report; the engine's timing is fully updated.
pub fn fix_hold_violations(sta: &mut Sta, setup_guard: f64) -> HoldFixReport {
    let before = hold_violations(sta);
    let mut buffers_added = 0usize;
    let mut skipped = 0usize;
    let buf_lib = sta
        .netlist()
        .library()
        .variant(Function::Buf, DriveStrength::X1)
        .expect("standard library has BUF_X1");

    for (ff, _) in before.clone() {
        let mut attempts = 0;
        while attempts < MAX_BUFFERS_PER_ENDPOINT {
            let hold = sta.hold_slack(ff).unwrap_or(f64::INFINITY);
            if hold >= 0.0 {
                break;
            }
            // Setup headroom check: padding delays the late path too.
            if sta.setup_slack(ff) < setup_guard {
                skipped += 1;
                break;
            }
            let Some(d_net) = sta.netlist().cell(ff).inputs[PinIndex::FF_D.index()] else {
                break;
            };
            let name = format!("hold_buf_{}_{}", sta.netlist().cell(ff).name, attempts);
            if sta
                .insert_buffer(d_net, buf_lib, &name, &[(ff, PinIndex::FF_D)])
                .is_err()
            {
                break;
            }
            buffers_added += 1;
            attempts += 1;
        }
    }

    HoldFixReport {
        violations_before: before.len(),
        violations_after: hold_violations(sta).len(),
        buffers_added,
        skipped_for_setup: skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{CellRole, GeneratorConfig, Library, NetlistBuilder, Point};
    use sta::{DerateSet, Sdc};

    /// A design with a deliberate hold race: two flip-flops on distant
    /// clock-tree leaves, connected by a single fast gate, so the late
    /// capture clock beats the early data edge.
    fn racy() -> Sta {
        let mut b = NetlistBuilder::new("racy", Library::standard());
        let clk = b.add_clock_port("clk", Point::new(0.0, 0.0));
        // Launch clock path: direct. Capture clock path: through two
        // clock buffers (large insertion delay → hold race at capture).
        let cb1 = b
            .add_gate("cb1", "CLKBUF_X2", Point::new(100.0, 0.0), &[clk])
            .unwrap();
        let cb2 = b
            .add_gate(
                "cb2",
                "CLKBUF_X2",
                Point::new(200.0, 0.0),
                &[b.cell_output(cb1)],
            )
            .unwrap();
        let d = b.add_input("d", Point::new(0.0, 10.0));
        let ff_l = b
            .add_flip_flop("ff_l", "DFF_X1", Point::new(5.0, 10.0), clk)
            .unwrap();
        b.connect_flip_flop_d_net(ff_l, d);
        let g = b
            .add_gate(
                "g",
                "INV_X4",
                Point::new(10.0, 10.0),
                &[b.cell_output(ff_l)],
            )
            .unwrap();
        let ff_c = b
            .add_flip_flop("ff_c", "DFF_X1", Point::new(15.0, 10.0), b.cell_output(cb2))
            .unwrap();
        b.connect_flip_flop_d(ff_c, g).unwrap();
        let q = b.cell_output(ff_c);
        b.add_output("y", Point::new(20.0, 10.0), q).unwrap();
        // Early input arrival keeps the launch flop itself hold-clean;
        // only the engineered ff_c race remains.
        let mut sdc = Sdc::with_period(5000.0);
        sdc.input_delay_early = 50.0;
        sdc.input_delay_late = 60.0;
        Sta::new(b.build().unwrap(), sdc, DerateSet::standard()).unwrap()
    }

    #[test]
    fn racy_design_has_a_hold_violation() {
        let sta = racy();
        let v = hold_violations(&sta);
        assert_eq!(v.len(), 1);
        assert_eq!(sta.netlist().cell(v[0].0).name, "ff_c");
        assert!(v[0].1 < 0.0);
    }

    #[test]
    fn padding_fixes_the_race() {
        let mut sta = racy();
        let report = fix_hold_violations(&mut sta, 0.0);
        assert_eq!(report.violations_before, 1);
        assert_eq!(
            report.violations_after, 0,
            "padding must clear the race: {report:?}"
        );
        assert!(report.buffers_added >= 1);
        // The pad slowed the early path without breaking setup.
        let ff_c = sta.netlist().find_cell("ff_c").unwrap();
        assert!(sta.hold_slack(ff_c).unwrap() >= 0.0);
        assert!(sta.setup_slack(ff_c) > 0.0);
    }

    #[test]
    fn fix_respects_setup_guard() {
        let mut sta = racy();
        // An absurd guard forbids any padding.
        let report = fix_hold_violations(&mut sta, 1e12);
        assert_eq!(report.buffers_added, 0);
        assert_eq!(report.skipped_for_setup, 1);
        assert_eq!(report.violations_after, 1);
    }

    #[test]
    fn generated_designs_mostly_hold_clean_and_fixable() {
        let n = GeneratorConfig::small(701).generate();
        let mut sta = Sta::new(n, Sdc::with_period(5000.0), DerateSet::standard()).unwrap();
        let before = hold_violations(&sta).len();
        let report = fix_hold_violations(&mut sta, 0.0);
        assert_eq!(report.violations_before, before);
        assert!(
            report.violations_after <= report.violations_before,
            "fixing never increases violations"
        );
        let hold_clean = sta
            .netlist()
            .cells()
            .filter(|(_, c)| c.role == CellRole::Sequential)
            .filter(|(id, _)| sta.hold_slack(*id).is_some_and(|s| s >= 0.0))
            .count();
        assert!(hold_clean > 0);
    }

    #[test]
    fn fixing_is_idempotent_when_clean() {
        let mut sta = racy();
        let _ = fix_hold_violations(&mut sta, 0.0);
        let again = fix_hold_violations(&mut sta, 0.0);
        assert_eq!(again.violations_before, 0);
        assert_eq!(again.buffers_added, 0);
    }
}
