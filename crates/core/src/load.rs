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

/// Builds the timing engine with the standard derate set.
///
/// # Errors
///
/// Returns [`MgbaError::Parse`] when the netlist fails structural
/// validation (e.g. combinational cycles).
pub fn build_engine(netlist: Netlist, period: f64) -> Result<Sta, MgbaError> {
    let _span = obs::span("sta_build");
    Ok(Sta::new(
        netlist,
        Sdc::with_period(period),
        DerateSet::standard(),
    )?)
}

/// Picks a clock period that leaves the design with moderate setup
/// violations (so a calibration fit has paths to work with): probe WNS at
/// a relaxed period — slack shifts 1:1 with the period — then tighten by
/// a tenth of the worst data arrival.
///
/// # Errors
///
/// Returns [`MgbaError::Parse`] when the probe engine cannot be built.
pub fn auto_period(netlist: &Netlist) -> Result<f64, MgbaError> {
    let _span = obs::span("probe_period");
    const RELAXED: f64 = 10_000.0;
    let probe = Sta::new(
        netlist.clone(),
        Sdc::with_period(RELAXED),
        DerateSet::standard(),
    )?;
    let max_arrival = netlist
        .endpoints()
        .iter()
        .map(|&e| probe.endpoint_arrival(e))
        .filter(|a| a.is_finite())
        .fold(0.0, f64::max);
    Ok(RELAXED - probe.wns() - 0.10 * max_arrival)
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

    #[test]
    fn auto_period_yields_violations() {
        let n = parse_design("small:9").unwrap();
        let period = auto_period(&n).unwrap();
        let sta = build_engine(n, period).unwrap();
        assert!(sta.wns() < 0.0, "auto period must leave violations");
    }
}
