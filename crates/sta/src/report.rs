//! Human-readable timing reports in the style industrial timers print:
//! per-path cell-by-cell arrival breakdowns, endpoint summaries, and
//! slack histograms.

use crate::analysis::Sta;
use crate::paths::{worst_paths_to_endpoint, Path};
use crate::pba::{gba_path_timing, pba_timing};
use netlist::{CellId, CellRole};
use std::fmt::Write as _;

/// Formats a cell-by-cell breakdown of one path, in both the GBA and
/// golden PBA views.
///
/// ```text
/// Startpoint: ff_0_3 (flip-flop clocked by clk)
/// Endpoint:   ff_1_7 (setup check)
///
///   cell            lib        incr(GBA)   arrival    derate
///   ...
/// ```
pub fn path_report(sta: &Sta, path: &Path) -> String {
    let nl = sta.netlist();
    let mut out = String::new();
    let start = path.startpoint();
    let end = path.endpoint;
    let _ = writeln!(
        out,
        "Startpoint: {} ({})",
        nl.cell(start).name,
        match nl.cell(start).role {
            CellRole::Sequential => "flip-flop clock-to-Q",
            CellRole::Input => "primary input",
            _ => "startpoint",
        }
    );
    let _ = writeln!(
        out,
        "Endpoint:   {} ({})",
        nl.cell(end).name,
        match nl.cell(end).role {
            CellRole::Sequential => "setup check against clock",
            CellRole::Output => "primary output",
            _ => "endpoint",
        }
    );
    let _ = writeln!(
        out,
        "Path group: {} gates, GBA depth view vs PBA\n",
        path.num_gates()
    );
    let _ = writeln!(
        out,
        "  {:<18} {:<10} {:>10} {:>10} {:>8}",
        "cell", "lib", "incr (ps)", "arrival", "derate"
    );

    let mut arrival = sta.arrival_late(start);
    let _ = writeln!(
        out,
        "  {:<18} {:<10} {:>10.1} {:>10.1} {:>8}",
        nl.cell(start).name,
        nl.library().cell(nl.cell(start).lib_cell).name,
        arrival,
        arrival,
        "-"
    );
    let mut prev = start;
    for &g in &path.cells[1..path.cells.len().saturating_sub(1)] {
        let wire = sta
            .graph()
            .fanins(g)
            .iter()
            .find(|e| e.from == prev)
            .map(|e| e.wire_delay)
            .unwrap_or(0.0);
        let derate = sta.effective_derate(g);
        let incr = wire + sta.gate_delay(g) * derate;
        arrival += incr;
        let _ = writeln!(
            out,
            "  {:<18} {:<10} {:>10.1} {:>10.1} {:>8.4}",
            nl.cell(g).name,
            nl.library().cell(nl.cell(g).lib_cell).name,
            incr,
            arrival,
            derate
        );
        prev = g;
    }
    let wire = sta
        .graph()
        .fanins(end)
        .iter()
        .find(|e| e.from == prev)
        .map(|e| e.wire_delay)
        .unwrap_or(0.0);
    arrival += wire;
    let _ = writeln!(
        out,
        "  {:<18} {:<10} {:>10.1} {:>10.1} {:>8}",
        nl.cell(end).name,
        nl.library().cell(nl.cell(end).lib_cell).name,
        wire,
        arrival,
        "-"
    );

    let gba = gba_path_timing(sta, path);
    let pba = pba_timing(sta, path);
    let _ = writeln!(out);
    let _ = writeln!(out, "  data required time (GBA) {:>12.1}", gba.required);
    let _ = writeln!(out, "  data arrival time (GBA)  {:>12.1}", gba.arrival);
    let _ = writeln!(out, "  slack (GBA)              {:>12.1}", gba.slack);
    let _ = writeln!(
        out,
        "  slack (golden PBA)       {:>12.1}   (path depth {}, bbox {:.0} um, derate {:.4})",
        pba.slack, pba.depth, pba.distance, pba.derate
    );
    let _ = writeln!(
        out,
        "  pessimism removed by PBA {:>12.1}",
        pba.slack - gba.slack
    );
    out
}

/// Formats the worst `n` endpoints with their slacks, one line each.
pub fn endpoint_summary(sta: &Sta, n: usize) -> String {
    let mut rows: Vec<(f64, CellId)> = sta
        .netlist()
        .endpoints()
        .into_iter()
        .map(|e| (sta.setup_slack(e), e))
        .filter(|(s, _)| s.is_finite())
        .collect();
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite slacks"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<20} {:>12} {:>12} {:>10}",
        "endpoint", "arrival", "required", "slack"
    );
    for (slack, e) in rows.into_iter().take(n) {
        let _ = writeln!(
            out,
            "  {:<20} {:>12.1} {:>12.1} {:>10.1}{}",
            sta.netlist().cell(e).name,
            sta.endpoint_arrival(e),
            sta.endpoint_required(e),
            slack,
            if slack < 0.0 { "  (VIOLATED)" } else { "" }
        );
    }
    out
}

/// A text histogram of endpoint setup slacks in `buckets` bins.
pub fn slack_histogram(sta: &Sta, buckets: usize) -> String {
    let slacks: Vec<f64> = sta
        .netlist()
        .endpoints()
        .into_iter()
        .map(|e| sta.setup_slack(e))
        .filter(|s| s.is_finite())
        .collect();
    let mut out = String::new();
    if slacks.is_empty() || buckets == 0 {
        out.push_str("  (no constrained endpoints)\n");
        return out;
    }
    let lo = slacks.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = slacks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / buckets as f64).max(1e-9);
    let mut counts = vec![0usize; buckets];
    for &s in &slacks {
        let b = (((s - lo) / width) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    for (b, &c) in counts.iter().enumerate() {
        let x0 = lo + b as f64 * width;
        let bar = "#".repeat((c * 50).div_ceil(max).min(50));
        let _ = writeln!(out, "  {x0:>9.0} .. {:>9.0} | {c:>5} {bar}", x0 + width);
    }
    out
}

/// Full report: summary line, worst endpoints, worst path breakdown,
/// slack histogram.
pub fn timing_report(sta: &Sta, top_endpoints: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "design {}: {} cells, clock period {:.1} ps",
        sta.netlist().name(),
        sta.netlist().num_cells(),
        sta.sdc().clock_period
    );
    let _ = writeln!(
        out,
        "WNS {:.1} ps, TNS {:.1} ps, {} violating endpoints\n",
        sta.wns(),
        sta.tns(),
        sta.violating_endpoints().len()
    );
    let _ = writeln!(out, "worst endpoints:");
    out.push_str(&endpoint_summary(sta, top_endpoints));
    if let Some(&worst) = sta.violating_endpoints().first() {
        if let Some(path) = worst_paths_to_endpoint(sta, worst, 1).into_iter().next() {
            let _ = writeln!(out, "\nworst path:");
            out.push_str(&path_report(sta, &path));
        }
    }
    let _ = writeln!(out, "\nendpoint slack distribution:");
    out.push_str(&slack_histogram(sta, 12));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aocv::DerateSet;
    use crate::constraints::Sdc;
    use netlist::GeneratorConfig;

    fn engine() -> Sta {
        let n = GeneratorConfig::small(501).generate();
        let mut sta = Sta::new(n, Sdc::with_period(10_000.0), DerateSet::standard()).unwrap();
        sta.set_period(10_000.0 - sta.wns() - 200.0);
        sta
    }

    #[test]
    fn path_report_contains_every_cell() {
        let sta = engine();
        let e = sta.violating_endpoints()[0];
        let path = worst_paths_to_endpoint(&sta, e, 1)[0].clone();
        let report = path_report(&sta, &path);
        for &c in &path.cells {
            assert!(
                report.contains(&sta.netlist().cell(c).name),
                "missing {}",
                sta.netlist().cell(c).name
            );
        }
        assert!(report.contains("slack (GBA)"));
        assert!(report.contains("slack (golden PBA)"));
    }

    #[test]
    fn path_report_arrival_matches_engine() {
        let sta = engine();
        let e = sta.violating_endpoints()[0];
        let path = worst_paths_to_endpoint(&sta, e, 1)[0].clone();
        let report = path_report(&sta, &path);
        // The final arrival printed must equal the enumerated arrival.
        let expect = format!("{:.1}", path.gba_arrival);
        assert!(
            report.contains(&expect),
            "report should contain arrival {expect}:\n{report}"
        );
    }

    #[test]
    fn endpoint_summary_sorted_and_flagged() {
        let sta = engine();
        let summary = endpoint_summary(&sta, 5);
        assert!(summary.contains("VIOLATED"));
        assert!(summary.lines().count() >= 2);
    }

    #[test]
    fn histogram_covers_all_endpoints() {
        let sta = engine();
        let h = slack_histogram(&sta, 8);
        let total: usize = h
            .lines()
            .filter_map(|l| l.split('|').nth(1))
            .filter_map(|r| r.split_whitespace().next())
            .filter_map(|c| c.parse::<usize>().ok())
            .sum();
        let expect = sta
            .netlist()
            .endpoints()
            .into_iter()
            .filter(|&e| sta.setup_slack(e).is_finite())
            .count();
        assert_eq!(total, expect);
    }

    #[test]
    fn full_report_is_well_formed() {
        let sta = engine();
        let r = timing_report(&sta, 5);
        assert!(r.contains("WNS"));
        assert!(r.contains("worst path:"));
        assert!(r.contains("slack distribution"));
    }

    #[test]
    fn histogram_handles_empty() {
        let sta = engine();
        assert!(slack_histogram(&sta, 0).contains("no constrained endpoints"));
    }
}
