//! End-to-end pipeline integration: generator → STA → path selection →
//! PBA labeling → mGBA fit → weight application, across several seeds.

use mgba::{run_mgba, MgbaConfig, Solver};
use netlist::GeneratorConfig;
use sta::{gba_path_timing, pba_timing, select_critical_paths, Sta};

fn engine(seed: u64, depth_frac: f64) -> Sta {
    let netlist = GeneratorConfig::small(seed).generate();
    netlist.validate().expect("generated design is valid");
    mgba::build_engine_at_fraction(netlist, 10_000.0, depth_frac).expect("engine builds")
}

#[test]
fn pessimism_invariant_holds_across_seeds() {
    // For every enumerated path on every seed: GBA slack ≤ PBA slack.
    for seed in [201, 202, 203] {
        let sta = engine(seed, 0.1);
        let paths = select_critical_paths(&sta, 10, usize::MAX, false);
        assert!(!paths.is_empty());
        for p in &paths {
            let gba = gba_path_timing(&sta, p);
            let pba = pba_timing(&sta, p);
            assert!(
                pba.slack >= gba.slack - 1e-9,
                "seed {seed}: PBA {:.3} < GBA {:.3}",
                pba.slack,
                gba.slack
            );
        }
    }
}

#[test]
fn mgba_closes_most_of_the_gap_on_every_seed() {
    for seed in [211, 212, 213] {
        let mut sta = engine(seed, 0.15);
        let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
        assert!(report.num_paths > 0, "seed {seed} must violate");
        assert!(
            report.mse_after < 0.5 * report.mse_before,
            "seed {seed}: mse {:.3e} -> {:.3e} is not enough improvement",
            report.mse_before,
            report.mse_after
        );
        assert!(report.pass_after.ratio() >= report.pass_before.ratio());
    }
}

#[test]
fn corrected_engine_is_still_internally_consistent() {
    // After weights are installed, the graph arrival at every endpoint
    // still equals the max over its enumerated paths.
    let mut sta = engine(221, 0.12);
    let _ = run_mgba(&mut sta, &MgbaConfig::default(), Solver::Cgnr);
    for e in sta.netlist().endpoints().into_iter().take(20) {
        let arr = sta.endpoint_arrival(e);
        if !arr.is_finite() {
            continue;
        }
        let paths = sta::paths::worst_paths_to_endpoint(&sta, e, 1);
        assert!(
            (paths[0].gba_arrival - arr).abs() < 1e-6,
            "worst path must realize the corrected endpoint arrival"
        );
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let mut sta = engine(231, 0.15);
        let r = run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
        (r.num_paths, r.iterations, r.mse_after.to_bits(), r.weights)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

#[test]
fn weights_never_produce_negative_path_delay() {
    let mut sta = engine(241, 0.2);
    let _ = run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
    for (id, cell) in sta.netlist().cells() {
        if cell.role == netlist::CellRole::Combinational {
            assert!(sta.effective_derate(id) >= 0.0);
        }
    }
    // Arrival times stay ordered: every endpoint arrival is at least the
    // launch clock arrival of some startpoint (no time travel).
    for e in sta.netlist().endpoints().into_iter().take(20) {
        let arr = sta.endpoint_arrival(e);
        if arr.is_finite() {
            assert!(arr >= 0.0, "arrival {arr} must be non-negative");
        }
    }
}
