//! The workspace-wide typed error, [`MgbaError`].
//!
//! Every fallible surface of the mGBA toolchain funnels into this enum:
//! parsing (native netlist, Verilog, EDIF, weights), solver failures,
//! file I/O, and command-line usage. The variants keep their underlying
//! causes (`source()` chains to the original parse error), so callers can
//! match on the broad category and still drill down.

use crate::weights_io::WeightsError;
use ingest::EdifError;
use netlist::{BuildError, ParseNetlistError, ParseVerilogError};
use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Which parser produced a [`MgbaError::Parse`].
#[derive(Debug)]
pub enum ParseError {
    /// Native netlist interchange format.
    Netlist(ParseNetlistError),
    /// Structural Verilog.
    Verilog(ParseVerilogError),
    /// Netlist graph construction.
    Build(BuildError),
    /// Weights sidecar file.
    Weights(WeightsError),
    /// EDIF 2.0.0 document.
    Edif(EdifError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Netlist(e) => write!(f, "netlist: {e}"),
            ParseError::Verilog(e) => write!(f, "verilog: {e}"),
            ParseError::Build(e) => write!(f, "netlist build: {e}"),
            ParseError::Weights(e) => write!(f, "weights: {e}"),
            ParseError::Edif(e) => write!(f, "edif: {e}"),
        }
    }
}

impl ParseError {
    fn inner(&self) -> &(dyn Error + 'static) {
        match self {
            ParseError::Netlist(e) => e,
            ParseError::Verilog(e) => e,
            ParseError::Build(e) => e,
            ParseError::Weights(e) => e,
            ParseError::Edif(e) => e,
        }
    }
}

/// The error type of the mGBA toolchain.
#[derive(Debug)]
pub enum MgbaError {
    /// An input file failed to parse or assemble.
    Parse(ParseError),
    /// A solver failed to produce an acceptable solution.
    Solver {
        /// Paper-style solver name.
        solver: String,
        /// What went wrong.
        message: String,
    },
    /// A file operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Bad command-line usage.
    Usage(String),
    /// An operation exceeded its time budget (socket read/write, solver
    /// wall clock).
    Timeout {
        /// What was being waited for.
        what: String,
        /// The budget that was exceeded, in milliseconds.
        ms: u64,
    },
    /// A netlist failed the collected-issues lint with error-severity
    /// findings (the full report has already been shown to the user).
    Lint {
        /// The linted file or design name.
        path: PathBuf,
        /// Error-severity findings.
        errors: usize,
        /// Warning-severity findings.
        warnings: usize,
    },
    /// An unexpected internal failure that was contained (e.g. a request
    /// handler panic caught at the server boundary).
    Internal(String),
}

impl MgbaError {
    /// Constructs a [`MgbaError::Io`] wrapping an OS error for `path`.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        MgbaError::Io {
            path: path.into(),
            source,
        }
    }

    /// Constructs a [`MgbaError::Timeout`] for `what` after `ms`
    /// milliseconds.
    pub fn timeout(what: impl Into<String>, ms: u64) -> Self {
        MgbaError::Timeout {
            what: what.into(),
            ms,
        }
    }
}

impl fmt::Display for MgbaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgbaError::Parse(e) => write!(f, "parse error: {e}"),
            MgbaError::Solver { solver, message } => {
                write!(f, "solver {solver}: {message}")
            }
            MgbaError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            MgbaError::Usage(msg) => f.write_str(msg),
            MgbaError::Timeout { what, ms } => {
                write!(f, "timed out after {ms} ms: {what}")
            }
            MgbaError::Lint {
                path,
                errors,
                warnings,
            } => write!(
                f,
                "{}: lint failed with {errors} error(s), {warnings} warning(s)",
                path.display()
            ),
            MgbaError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl Error for MgbaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MgbaError::Parse(e) => Some(e.inner()),
            MgbaError::Io { source, .. } => Some(source),
            MgbaError::Solver { .. }
            | MgbaError::Usage(_)
            | MgbaError::Timeout { .. }
            | MgbaError::Lint { .. }
            | MgbaError::Internal(_) => None,
        }
    }
}

impl From<ParseNetlistError> for MgbaError {
    fn from(e: ParseNetlistError) -> Self {
        MgbaError::Parse(ParseError::Netlist(e))
    }
}

impl From<ParseVerilogError> for MgbaError {
    fn from(e: ParseVerilogError) -> Self {
        MgbaError::Parse(ParseError::Verilog(e))
    }
}

impl From<BuildError> for MgbaError {
    fn from(e: BuildError) -> Self {
        MgbaError::Parse(ParseError::Build(e))
    }
}

impl From<EdifError> for MgbaError {
    fn from(e: EdifError) -> Self {
        MgbaError::Parse(ParseError::Edif(e))
    }
}

impl From<WeightsError> for MgbaError {
    fn from(e: WeightsError) -> Self {
        MgbaError::Parse(ParseError::Weights(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_cause() {
        let e = MgbaError::from(ParseNetlistError::Invalid("dangling net".into()));
        let s = e.to_string();
        assert!(s.starts_with("parse error: netlist:"), "{s}");
        assert!(e.source().is_some());
    }

    #[test]
    fn io_chains_to_os_error() {
        let os = std::io::Error::new(std::io::ErrorKind::NotFound, "no such file");
        let e = MgbaError::io("designs/x.nl", os);
        assert!(e.to_string().contains("designs/x.nl"));
        assert!(e.source().is_some());
    }

    #[test]
    fn conversions_cover_all_parsers() {
        // Each netlist-side error converts without boilerplate at call
        // sites (`?` just works).
        fn takes(_: MgbaError) {}
        takes(ParseNetlistError::UnsupportedLibrary("foo".into()).into());
        takes(ParseVerilogError::Syntax("x".into()).into());
        takes(
            WeightsError::Malformed {
                line: 2,
                reason: "z".into(),
            }
            .into(),
        );
    }
}
