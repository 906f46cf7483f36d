//! Cross-format interchange integration: the text format, the Verilog
//! subset, and the SDF export must all agree about the same design.

use netlist::{parse_netlist, parse_verilog, write_netlist, write_verilog, GeneratorConfig};
use sta::{write_sdf, DerateSet, Sdc, Sta};

#[test]
fn text_and_verilog_views_time_identically() {
    let design = GeneratorConfig::small(2001).generate();
    let via_text = parse_netlist(&write_netlist(&design)).expect("text round trip");
    let via_verilog = parse_verilog(&write_verilog(&design)).expect("verilog round trip");

    let sdc = Sdc::with_period(1500.0);
    let a = Sta::new(via_text, sdc.clone(), DerateSet::standard()).unwrap();
    let b = Sta::new(via_verilog, sdc, DerateSet::standard()).unwrap();

    // The Verilog view drops port placement (ports sit at the origin), so
    // compare per-endpoint slacks only up to the port-wire difference:
    // flip-flop endpoints must agree exactly.
    for (e, cell) in a.netlist().cells() {
        if cell.role != netlist::CellRole::Sequential {
            continue;
        }
        let e_b = b.netlist().find_cell(&cell.name).expect("same flops");
        assert!(
            (a.setup_slack(e) - b.setup_slack(e_b)).abs() < 1e-6,
            "slack mismatch at {}",
            cell.name
        );
    }
}

#[test]
fn sdf_reflects_engine_delays() {
    let design = GeneratorConfig::small(2003).generate();
    let sta = Sta::new(design, Sdc::with_period(1500.0), DerateSet::standard()).unwrap();
    let sdf = write_sdf(&sta);
    // Spot-check one combinational gate: its typ IOPATH value equals the
    // engine's underated delay.
    let (id, cell) = sta
        .netlist()
        .cells()
        .find(|(_, c)| c.role == netlist::CellRole::Combinational)
        .expect("has gates");
    let expected = format!("{:.1}", sta.gate_delay(id));
    let block = sdf
        .split("(INSTANCE ")
        .find(|b| b.starts_with(&cell.name))
        .expect("instance in SDF");
    assert!(
        block.contains(&format!(":{expected}:")),
        "typ delay {expected} missing for {} in:\n{block}",
        cell.name
    );
}

#[test]
fn verilog_of_all_benchmark_designs_parses() {
    for spec in [netlist::DesignSpec::D1, netlist::DesignSpec::D5] {
        let design = spec.generate();
        let parsed = parse_verilog(&write_verilog(&design)).expect("round trip");
        assert_eq!(parsed.num_cells(), design.num_cells(), "{spec}");
        parsed.validate().expect("valid");
    }
}
