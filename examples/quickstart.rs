//! Quickstart: generate a design, time it with GBA, measure the
//! GBA-vs-PBA pessimism, fit the mGBA correction, and show the corrected
//! slacks tracking golden PBA.
//!
//! Run with `cargo run --release -p bench --example quickstart`.

use mgba::prelude::*;
use sta::{gba_path_timing, paths::worst_paths_to_endpoint, pba_timing};

fn main() -> Result<(), netlist::BuildError> {
    // 1. A synthetic placed design: 3 pipeline stages, ~250 cells.
    let design = GeneratorConfig::small(7).generate();
    println!(
        "design `{}`: {} cells, {} nets",
        design.name(),
        design.num_cells(),
        design.num_nets()
    );

    // 2. Time it, then retarget to a period that leaves the worst
    //    endpoint violating (slack shifts 1:1 with the period).
    let mut sta = Sta::new(design, Sdc::with_period(10_000.0), DerateSet::standard())?;
    let period = 10_000.0 - sta.wns() - 250.0;
    sta.set_period(period);
    println!(
        "GBA timing @ {period:.0} ps: WNS = {:.1} ps, TNS = {:.1} ps, {} violating endpoints",
        sta.wns(),
        sta.tns(),
        sta.violating_endpoints().len()
    );

    // 3. The pessimism gap on the worst path: GBA derates each gate at
    //    its worst-case depth; golden PBA uses the path's true depth.
    let worst = sta.violating_endpoints()[0];
    let path = worst_paths_to_endpoint(&sta, worst, 1)
        .into_iter()
        .next()
        .expect("violating endpoint has a path");
    let gba = gba_path_timing(&sta, &path);
    let pba = pba_timing(&sta, &path);
    println!(
        "\nworst path ({} gates, bbox {:.0} um):",
        path.num_gates(),
        pba.distance
    );
    println!(
        "  GBA slack  {:>9.1} ps   (per-gate worst-depth derates)",
        gba.slack
    );
    println!(
        "  PBA slack  {:>9.1} ps   (path derate {:.4}, with CRPR)",
        pba.slack, pba.derate
    );
    println!("  pessimism  {:>9.1} ps", pba.slack - gba.slack);

    // 4. Fit the mGBA correction and re-inspect the same path.
    let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
    let corrected = gba_path_timing(&sta, &path);
    println!(
        "\nmGBA fit: {} paths, {} weighted gates, solved in {:.1} ms ({} iterations)",
        report.num_paths,
        report.num_gates,
        report.solve_time.as_secs_f64() * 1e3,
        report.iterations
    );
    println!(
        "  mGBA slack {:>9.1} ps   (graph-based speed, path-based accuracy)",
        corrected.slack
    );
    println!(
        "  pass ratio: GBA {:.1}% -> mGBA {:.1}%  (good = <5% or <5 ps error vs PBA)",
        report.pass_before.percent(),
        report.pass_after.percent()
    );
    Ok(())
}
