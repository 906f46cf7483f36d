//! Shared workload definitions and table formatting for the benchmark
//! harness.
//!
//! Every table/figure binary builds its designs through [`build_engine`]
//! so the whole evaluation runs on the same ten benchmark circuits with
//! the same deterministic clock-period selection: the period is chosen so
//! the worst endpoint violates by a design-specific fraction of its data
//! depth, guaranteeing a realistic population of violating paths (the
//! paper's designs are all pre-closure post-route snapshots).

pub mod compare;
pub mod harness;
pub mod saturation;

use netlist::DesignSpec;
use sta::Sta;

/// Fraction of the worst arrival by which the worst endpoint violates in
/// the *analysis* experiments (Tables 3/4, figures). Deep enough that
/// most endpoints violate, mirroring the pre-closure snapshots the paper
/// measures (its selected-path counts are in the 10⁵–10⁶ range).
pub fn violation_fraction(spec: DesignSpec) -> f64 {
    use DesignSpec::*;
    match spec {
        D1 => 0.15,
        D2 => 0.30,
        D3 => 0.30,
        D4 => 0.30,
        D5 => 0.28,
        D6 => 0.32,
        D7 => 0.28,
        D8 => 0.35,
        D9 => 0.30,
        D10 => 0.30,
    }
}

/// Milder violation fraction for the *flow* experiments (Tables 2/5):
/// the repair transforms can realistically recover this much delay, so
/// both flows have a fighting chance of closure.
pub fn flow_violation_fraction(spec: DesignSpec) -> f64 {
    // Deeper than the typical GBA pessimism gap (~10-13% of the worst
    // arrival), so the violation population is a mix of real violations
    // and pessimism-only phantoms — the regime Table 2 measures.
    violation_fraction(spec) * 0.45
}

fn engine_at_fraction(spec: DesignSpec, frac: f64) -> Sta {
    mgba::build_engine_at_fraction(spec.generate(), 100_000.0, frac)
        .expect("generated designs are valid")
}

/// Builds the timing engine for one benchmark design at its standard
/// analysis (deeply violating) clock period.
pub fn build_engine(spec: DesignSpec) -> Sta {
    engine_at_fraction(spec, violation_fraction(spec))
}

/// Builds the engine at the milder flow-experiment period.
pub fn build_flow_engine(spec: DesignSpec) -> Sta {
    engine_at_fraction(spec, flow_violation_fraction(spec))
}

/// Renders one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{c:>w$} ", w = w));
    }
    out.trim_end().to_owned()
}

/// Geometric mean of positive values (used for speedup averages).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_engine_has_violations() {
        let sta = build_engine(DesignSpec::D1);
        assert!(sta.wns() < 0.0);
        assert!(!sta.violating_endpoints().is_empty());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a   bb");
    }
}
