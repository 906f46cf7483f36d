//! Integration tests of the timing-closure flows: the mGBA-driven flow
//! must never do more optimization work than the GBA-driven flow, and
//! both must leave the design safe under golden PBA.

use mgba::{MgbaConfig, Solver};
use netlist::GeneratorConfig;
use optim::{run_flow, FlowConfig};
use sta::Sta;

fn flow_engine(seed: u64) -> Sta {
    let netlist = GeneratorConfig::small(seed).generate();
    mgba::build_engine_at_fraction(netlist, 10_000.0, 0.08).unwrap()
}

#[test]
fn both_flows_repair_the_design() {
    for seed in [301, 302] {
        for mgba_mode in [false, true] {
            let mut sta = flow_engine(seed);
            let initial_tns = sta.tns();
            assert!(initial_tns < 0.0);
            let cfg = if mgba_mode {
                FlowConfig::mgba(MgbaConfig::default(), Solver::ScgRs)
            } else {
                FlowConfig::gba()
            };
            let r = run_flow(&mut sta, &cfg);
            assert!(
                r.qor_final_pba.tns >= initial_tns,
                "seed {seed} mgba={mgba_mode}: flow must not worsen true timing"
            );
            assert!(r.counts.total() > 0);
        }
    }
}

#[test]
fn mgba_flow_never_does_more_repair_work() {
    for seed in [311, 312] {
        let mut gba_sta = flow_engine(seed);
        let gba = run_flow(&mut gba_sta, &FlowConfig::gba());
        let mut mgba_sta = flow_engine(seed);
        let mgba = run_flow(
            &mut mgba_sta,
            &FlowConfig::mgba(MgbaConfig::default(), Solver::ScgRs),
        );
        assert!(
            mgba.counts.upsizes + mgba.counts.buffers <= gba.counts.upsizes + gba.counts.buffers,
            "seed {seed}: mGBA repair work {} must not exceed GBA {}",
            mgba.counts.upsizes + mgba.counts.buffers,
            gba.counts.upsizes + gba.counts.buffers
        );
        assert!(mgba.qor_final.area <= gba.qor_final.area * 1.01);
    }
}

#[test]
fn recovery_respects_pba_timing_within_tolerance() {
    // After the mGBA flow (repair + recovery in the corrected view), true
    // PBA timing may dip only by the fit tolerance — not catastrophically.
    let mut sta = flow_engine(321);
    let period = sta.sdc().clock_period;
    let r = run_flow(
        &mut sta,
        &FlowConfig::mgba(MgbaConfig::default(), Solver::ScgRs),
    );
    assert!(
        r.qor_final_pba.wns > -0.05 * period,
        "PBA WNS {:.1} dipped more than 5% of the period {period:.0}",
        r.qor_final_pba.wns
    );
}

#[test]
fn flow_reports_runtime_split() {
    let mut sta = flow_engine(331);
    let r = run_flow(
        &mut sta,
        &FlowConfig::mgba(MgbaConfig::default(), Solver::ScgRs),
    );
    assert!(r.mgba_time <= r.elapsed);
    assert!(r.mgba_time.as_nanos() > 0, "mGBA flow must pay for fits");
    let mut sta = flow_engine(331);
    let r = run_flow(&mut sta, &FlowConfig::gba());
    assert_eq!(r.mgba_time.as_nanos(), 0, "GBA flow never fits");
}
