//! Design loading shared by every front end (CLI subcommands, the
//! `server` daemon, benches): generator specs, netlist files, automatic
//! clock-period derivation, and engine construction.
//!
//! A "design spec" is either one of the paper's benchmark names
//! (`D1`..`D10`), a seeded small generator instance (`small:SEED`), or a
//! path to a netlist file in the native text format (`.nl`) or the
//! structural-Verilog subset (`.v`), auto-detected by content.

use crate::error::MgbaError;
use netlist::{DesignSpec, GeneratorConfig, Netlist};
use sta::{DerateSet, Sdc, Sta};

/// Parses a generator spec (`D1`..`D10` or `small:SEED`) into a netlist.
///
/// # Errors
///
/// Returns [`MgbaError::Usage`] for unknown specs or bad seeds.
pub fn parse_design(spec: &str) -> Result<Netlist, MgbaError> {
    if let Some(seed) = spec.strip_prefix("small:") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| MgbaError::Usage(format!("bad seed in `{spec}`")))?;
        return Ok(GeneratorConfig::small(seed).generate());
    }
    DesignSpec::all()
        .into_iter()
        .find(|d| d.to_string() == spec)
        .map(DesignSpec::generate)
        .ok_or_else(|| {
            MgbaError::Usage(format!(
                "unknown design `{spec}` (want D1..D10 or small:SEED)"
            ))
        })
}

/// Reads and parses a netlist file (native text, structural Verilog, or
/// EDIF 2.0.0, auto-detected by content).
///
/// # Errors
///
/// Returns [`MgbaError::Io`] when the file cannot be read and
/// [`MgbaError::Parse`] when it does not parse.
pub fn load_netlist_file(path: &str) -> Result<Netlist, MgbaError> {
    let _span = obs::span("load");
    if faultinject::fire("load.netlist").is_some() {
        return Err(MgbaError::Internal(format!(
            "failpoint `load.netlist`: injected failure loading `{path}`"
        )));
    }
    let text = std::fs::read_to_string(path).map_err(|e| MgbaError::io(path, e))?;
    let head = text.trim_start();
    if head.starts_with("module") {
        Ok(netlist::parse_verilog(&text)?)
    } else if head.starts_with("(edif") || head.starts_with("(EDIF") {
        let (netlist, _sources) = ingest::import_edif(&text)?;
        Ok(netlist)
    } else {
        Ok(netlist::parse_netlist(&text)?)
    }
}

/// Accepts either a generator spec (`D3`, `small:7`) or a netlist file.
///
/// # Errors
///
/// Propagates [`parse_design`] / [`load_netlist_file`] errors.
pub fn load_design_or_file(spec: &str) -> Result<Netlist, MgbaError> {
    let looks_like_spec =
        spec.starts_with("small:") || DesignSpec::all().iter().any(|d| d.to_string() == spec);
    if looks_like_spec {
        let _span = obs::span("load");
        parse_design(spec)
    } else {
        load_netlist_file(spec)
    }
}

/// The period [`auto_period`] and [`build_engine_auto`] time a design at,
/// ps, and the fraction of its worst data arrival they tighten it by.
const RELAXED: f64 = 10_000.0;
const AUTO_FRACTION: f64 = 0.10;

/// Constraints at a clock period, which must be finite and positive.
///
/// # Errors
///
/// Returns [`MgbaError::Usage`] (`bad period P`) for any other period.
pub fn sdc_at(period: f64) -> Result<Sdc, MgbaError> {
    if period > 0.0 && period.is_finite() {
        Ok(Sdc::with_period(period))
    } else {
        Err(MgbaError::Usage(format!("bad period {period}")))
    }
}

fn new_engine(netlist: Netlist, period: f64) -> Result<Sta, MgbaError> {
    Ok(Sta::new(netlist, sdc_at(period)?, DerateSet::standard())?)
}

/// Builds the timing engine with the standard derate set.
///
/// # Errors
///
/// Returns [`MgbaError::Usage`] for a period [`sdc_at`] refuses and
/// [`MgbaError::Parse`] when the netlist fails structural validation
/// (e.g. combinational cycles).
pub fn build_engine(netlist: Netlist, period: f64) -> Result<Sta, MgbaError> {
    let _span = obs::span("sta_build");
    new_engine(netlist, period)
}

/// The period rule of [`build_engine_at_fraction`], with `sta`'s period
/// as `built_at`.
fn period_at_fraction(sta: &Sta, fraction: f64) -> Result<f64, MgbaError> {
    let max_arrival = sta
        .endpoints()
        .iter()
        .map(|&e| sta.endpoint_arrival(e))
        .filter(|a| a.is_finite())
        .fold(0.0, f64::max);
    let period = sta.sdc().clock_period - sta.wns() - fraction * max_arrival;
    if period > 0.0 && period.is_finite() {
        Ok(period)
    } else {
        Err(MgbaError::Usage(format!(
            "cannot derive a clock period for `{}` (got {period} ps); give one",
            sta.netlist().name()
        )))
    }
}

/// Builds one engine at `built_at`, then retargets it
/// ([`Sta::set_period`]) to the period at which its worst endpoint
/// violates by `fraction` of the worst data arrival: `built_at − WNS −
/// fraction · max_arrival` (slack shifts 1:1 with the period; arrivals
/// do not move). Bit-identical to a [`build_engine`] at that period.
///
/// # Errors
///
/// As [`build_engine`]; also [`MgbaError::Usage`] when the derived period
/// is not finite and positive, as for a design with no timed endpoint.
pub fn build_engine_at_fraction(
    netlist: Netlist,
    built_at: f64,
    fraction: f64,
) -> Result<Sta, MgbaError> {
    let _span = obs::span("sta_build");
    let mut sta = new_engine(netlist, built_at)?;
    sta.set_period(period_at_fraction(&sta, fraction)?);
    Ok(sta)
}

/// Builds the engine at a period that leaves the worst endpoint
/// violating by a tenth of the worst data arrival, so a calibration fit
/// has paths to work with.
///
/// # Errors
///
/// As [`build_engine_at_fraction`].
pub fn build_engine_auto(netlist: Netlist) -> Result<Sta, MgbaError> {
    build_engine_at_fraction(netlist, RELAXED, AUTO_FRACTION)
}

/// The period [`build_engine_auto`] derives, read off a throwaway probe
/// engine, for callers that want only the number.
///
/// # Errors
///
/// As [`build_engine_auto`].
pub fn auto_period(netlist: &Netlist) -> Result<f64, MgbaError> {
    let _span = obs::span("probe_period");
    period_at_fraction(&new_engine(netlist.clone(), RELAXED)?, AUTO_FRACTION)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_and_files_both_load() {
        let n = parse_design("small:3").unwrap();
        assert!(n.num_cells() > 0);
        assert!(matches!(parse_design("small:x"), Err(MgbaError::Usage(_))));
        assert!(matches!(parse_design("D99"), Err(MgbaError::Usage(_))));

        let dir = std::env::temp_dir().join(format!("mgba_load_test_{}_files", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.nl");
        std::fs::write(&path, netlist::write_netlist(&n)).unwrap();
        let re = load_design_or_file(path.to_str().unwrap()).unwrap();
        assert_eq!(re.num_cells(), n.num_cells());
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_netlist_file("/nonexistent/x.nl"),
            Err(MgbaError::Io { .. })
        ));
    }

    #[test]
    fn malformed_file_is_parse_error() {
        let dir =
            std::env::temp_dir().join(format!("mgba_load_test_{}_malformed", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.nl");
        std::fs::write(&path, "design x\nlibrary std45\nnonsense here\n").unwrap();
        assert!(matches!(
            load_netlist_file(path.to_str().unwrap()),
            Err(MgbaError::Parse(_))
        ));
    }

    /// The one-engine build equals a probe plus a second build at the
    /// probed period, bit for bit.
    #[test]
    fn auto_period_yields_violations() {
        let bits = |s: &Sta| -> Vec<u64> {
            let cells = (0..s.netlist().num_cells()).map(netlist::CellId::new);
            let timing = cells.flat_map(|c| {
                let (late, early) = (s.arrival_late(c), s.arrival_early(c));
                [late, early, s.required_late(c), s.gate_delay(c)]
            });
            let slacks = s.endpoints().iter().map(|&e| s.setup_slack(e));
            let totals = [s.sdc().clock_period, s.wns(), s.tns()];
            timing
                .chain(slacks)
                .chain(totals)
                .map(f64::to_bits)
                .collect()
        };
        for spec in ["small:3", "small:9", "small:77", "D1", "D5", "D10"] {
            let n = parse_design(spec).unwrap();
            let want = build_engine(n.clone(), auto_period(&n).unwrap()).unwrap();
            let got = build_engine_auto(n).unwrap();
            assert!(got.wns() < 0.0, "{spec}: auto period must leave violations");
            assert!(bits(&got) == bits(&want), "{spec}: timing differs");
            assert_eq!(got.stats, want.stats, "{spec}");
        }
    }
}
