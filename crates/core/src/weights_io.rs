//! Persisting fitted weights.
//!
//! A fitted correction is only useful if it can outlive the process that
//! computed it: the optimization flow fits once and many later tool
//! invocations (reports, what-if sizing, SDF export) want the corrected
//! view. This module serializes weights as a line-oriented sidecar file
//! keyed by *cell name* (robust to cell-id renumbering across
//! sessions):
//!
//! ```text
//! # mgba weights v1 design=D3
//! g_0_2_14 -0.03125
//! g_1_0_7 -0.00871
//! ```
//!
//! Zero weights are omitted (the x* sparsity of Fig. 3 keeps these files
//! small).

use crate::error::MgbaError;
use netlist::Netlist;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Errors from [`parse_weights`] / [`apply_weights`].
#[derive(Debug, Clone, PartialEq)]
pub enum WeightsError {
    /// A line was not `name value`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description.
        reason: String,
    },
    /// A referenced cell does not exist in the netlist.
    UnknownCell(String),
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightsError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            WeightsError::UnknownCell(c) => write!(f, "unknown cell `{c}`"),
        }
    }
}

impl Error for WeightsError {}

/// Serializes per-cell weights (indexed by [`netlist::CellId`]) as the
/// sidecar format. Cells with exactly-zero weight are omitted.
pub fn write_weights(netlist: &Netlist, weights: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# mgba weights v1 design={}", netlist.name());
    for (id, cell) in netlist.cells() {
        let w = weights.get(id.index()).copied().unwrap_or(0.0);
        if w != 0.0 {
            let _ = writeln!(out, "{} {}", cell.name, w);
        }
    }
    out
}

/// Parses the sidecar format into `(cell name, weight)` pairs.
///
/// # Errors
///
/// Returns [`WeightsError::Malformed`] on bad lines.
pub fn parse_weights(text: &str) -> Result<Vec<(String, f64)>, WeightsError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.split_once(char::is_whitespace) else {
            return Err(WeightsError::Malformed {
                line: i + 1,
                reason: format!("expected `name value`, got `{line}`"),
            });
        };
        let w: f64 = value.trim().parse().map_err(|_| WeightsError::Malformed {
            line: i + 1,
            reason: format!("bad weight `{}`", value.trim()),
        })?;
        out.push((name.to_owned(), w));
    }
    Ok(out)
}

/// Resolves parsed weights against `netlist` into a dense per-cell
/// vector suitable for [`sta::Sta::set_weights`].
///
/// # Errors
///
/// Returns [`WeightsError::UnknownCell`] for names not in the netlist.
pub fn apply_weights(netlist: &Netlist, pairs: &[(String, f64)]) -> Result<Vec<f64>, WeightsError> {
    let mut weights = vec![0.0; netlist.num_cells()];
    for (name, w) in pairs {
        let id = netlist
            .find_cell(name)
            .ok_or_else(|| WeightsError::UnknownCell(name.clone()))?;
        weights[id.index()] = *w;
    }
    Ok(weights)
}

/// Writes `text` to `path` atomically: the content lands in a `.tmp`
/// sibling first, is fsynced, and only then renamed over the target.
/// A crash (or the `weights.write` failpoint) mid-write leaves the
/// previous file intact — readers never observe a torn sidecar.
///
/// # Errors
///
/// Returns [`MgbaError::Io`] when any step fails; the partially written
/// temp file is removed on the error path.
pub fn atomic_write_text(path: impl AsRef<Path>, text: &str) -> Result<(), MgbaError> {
    use std::io::Write as _;
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let write_all = |tmp: &Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(text.as_bytes())?;
        if faultinject::fire("weights.write").is_some() {
            // Simulated torn write: half the payload made it to disk and
            // the process "died" before the rename. The target file must
            // be untouched.
            f.set_len((text.len() / 2) as u64)?;
            return Err(std::io::Error::other(
                "failpoint `weights.write`: injected crash before rename",
            ));
        }
        f.sync_all()?;
        Ok(())
    };
    if let Err(e) = write_all(&tmp) {
        let _ = std::fs::remove_file(&tmp);
        return Err(MgbaError::io(path, e));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        MgbaError::io(path, e)
    })
}

/// Writes the weights sidecar for `netlist` to `path` (atomically, via
/// [`atomic_write_text`]).
///
/// # Errors
///
/// Returns [`MgbaError::Io`] when the file cannot be written.
pub fn write_weights_file(
    path: impl AsRef<Path>,
    netlist: &Netlist,
    weights: &[f64],
) -> Result<(), MgbaError> {
    atomic_write_text(path, &write_weights(netlist, weights))
}

/// Reads a weights sidecar from `path` and resolves it against `netlist`
/// into a dense per-cell vector.
///
/// This is the daemon-safe loading path: a missing file surfaces as
/// [`MgbaError::Io`] and a malformed or mismatched file as
/// [`MgbaError::Parse`] — never a panic.
///
/// # Errors
///
/// Returns [`MgbaError::Io`] or [`MgbaError::Parse`] as above.
pub fn read_weights_file(path: impl AsRef<Path>, netlist: &Netlist) -> Result<Vec<f64>, MgbaError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| MgbaError::io(path, e))?;
    let pairs = parse_weights(&text)?;
    Ok(apply_weights(netlist, &pairs)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_mgba, MgbaConfig, Solver};
    use netlist::GeneratorConfig;
    use sta::{DerateSet, Sdc, Sta};

    fn fitted_engine() -> (Sta, Vec<f64>) {
        let n = GeneratorConfig::small(1201).generate();
        let mut sta = Sta::new(n, Sdc::with_period(10_000.0), DerateSet::standard()).unwrap();
        sta.set_period(10_000.0 - sta.wns() - 300.0);
        let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::Cgnr);
        (sta, report.weights)
    }

    #[test]
    fn file_round_trip_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "mgba_weights_io_test_{}_round_trip",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.weights");
        let (sta, weights) = fitted_engine();
        write_weights_file(&path, sta.netlist(), &weights).unwrap();
        let restored = read_weights_file(&path, sta.netlist()).unwrap();
        // Bit-identical, not approximately equal: the sidecar must
        // reproduce the fitted engine exactly on warm restart.
        assert_eq!(weights.len(), restored.len());
        for (a, b) in weights.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A second write of the restored vector is byte-identical too.
        let path2 = dir.join("w2.weights");
        write_weights_file(&path2, sta.netlist(), &restored).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            std::fs::read_to_string(&path2).unwrap()
        );
    }

    #[test]
    fn missing_weights_file_is_io_error() {
        let (sta, _) = fitted_engine();
        let err = read_weights_file("/nonexistent/x.weights", sta.netlist()).unwrap_err();
        assert!(matches!(err, MgbaError::Io { .. }), "{err}");
    }

    #[test]
    fn malformed_weights_file_is_parse_error_not_panic() {
        let dir = std::env::temp_dir().join(format!(
            "mgba_weights_io_test_{}_malformed",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (sta, _) = fitted_engine();
        for (name, content) in [
            ("nopair.weights", "just_a_name\n"),
            ("badnum.weights", "g_0_0_0 not_a_number\n"),
            ("ghost.weights", "no_such_cell -0.5\n"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            let err = read_weights_file(&path, sta.netlist()).unwrap_err();
            assert!(matches!(err, MgbaError::Parse(_)), "{name}: {err}");
        }
    }

    #[test]
    fn round_trip_preserves_every_weight() {
        let (sta, weights) = fitted_engine();
        let text = write_weights(sta.netlist(), &weights);
        let pairs = parse_weights(&text).unwrap();
        let restored = apply_weights(sta.netlist(), &pairs).unwrap();
        for (i, (a, b)) in weights.iter().zip(&restored).enumerate() {
            assert_eq!(a, b, "weight {i}");
        }
    }

    #[test]
    fn restored_weights_reproduce_corrected_timing() {
        let (sta, weights) = fitted_engine();
        let text = write_weights(sta.netlist(), &weights);
        // A fresh engine + restored weights = the same corrected WNS.
        let mut fresh = Sta::new(
            sta.netlist().clone(),
            sta.sdc().clone(),
            sta.derates().clone(),
        )
        .unwrap();
        let pairs = parse_weights(&text).unwrap();
        let restored = apply_weights(fresh.netlist(), &pairs).unwrap();
        fresh.set_weights(&restored);
        assert!((fresh.wns() - sta.wns()).abs() < 1e-9);
        assert!((fresh.tns() - sta.tns()).abs() < 1e-9);
    }

    #[test]
    fn zero_weights_are_omitted() {
        let (sta, weights) = fitted_engine();
        let text = write_weights(sta.netlist(), &weights);
        let nonzero = weights.iter().filter(|w| **w != 0.0).count();
        // header + one line per nonzero weight
        assert_eq!(text.lines().count(), nonzero + 1);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(matches!(
            parse_weights("just_a_name\n"),
            Err(WeightsError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            parse_weights("cell not_a_number\n"),
            Err(WeightsError::Malformed { .. })
        ));
    }

    #[test]
    fn unknown_cells_are_rejected() {
        let (sta, _) = fitted_engine();
        let err = apply_weights(sta.netlist(), &[("ghost".to_owned(), -0.1)]).unwrap_err();
        assert_eq!(err, WeightsError::UnknownCell("ghost".to_owned()));
    }

    #[test]
    fn atomic_write_replaces_existing_content() {
        let dir = std::env::temp_dir().join(format!(
            "mgba_weights_io_test_{}_atomic",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.weights");
        atomic_write_text(&path, "old content\n").unwrap();
        atomic_write_text(&path, "new content\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new content\n");
        // No temp file left behind.
        assert!(!dir.join("atomic.weights.tmp").exists());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn torn_write_failpoint_leaves_previous_file_intact() {
        let dir =
            std::env::temp_dir().join(format!("mgba_weights_io_test_{}_torn", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.weights");
        atomic_write_text(&path, "good content\n").unwrap();

        let _fp = faultinject::scoped("weights.write=error");
        let err = atomic_write_text(&path, "replacement that dies mid-write\n").unwrap_err();
        assert!(matches!(err, MgbaError::Io { .. }), "{err}");
        assert!(err.to_string().contains("weights.write"), "{err}");
        // The target still holds the previous generation, bit for bit,
        // and the torn temp file was cleaned up.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "good content\n");
        assert!(!dir.join("torn.weights.tmp").exists());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let pairs = parse_weights("# header\n\na -0.5\n").unwrap();
        assert_eq!(pairs, vec![("a".to_owned(), -0.5)]);
    }
}
