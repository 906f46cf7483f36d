//! Gate-level netlist substrate for the mGBA pessimism-reduction framework.
//!
//! This crate models everything the timing engine ([`sta`]) needs from a
//! physical design:
//!
//! - a characterized **cell library** ([`Library`]) with per-drive-strength
//!   delay, slew, area, and leakage data in the spirit of a Liberty file;
//! - a **netlist** ([`Netlist`]) of cell instances connected by nets, with
//!   placement locations so distance-based AOCV derating is meaningful;
//! - a seeded **synthetic design generator** ([`generate`]) standing in for
//!   the proprietary industrial designs D1–D10 of the paper;
//! - a plain-text interchange **format** ([`format`](mod@format)) for persisting and
//!   inspecting designs.
//!
//! # Example
//!
//! ```
//! use netlist::{Library, NetlistBuilder, Function, Point};
//!
//! # fn main() -> Result<(), netlist::BuildError> {
//! let lib = Library::standard();
//! let mut b = NetlistBuilder::new("adder_bit", lib);
//! let clk = b.add_clock_port("clk", Point::new(0.0, 0.0));
//! let a = b.add_input("a", Point::new(0.0, 10.0));
//! let ff = b.add_flip_flop("ff0", "DFF_X1", Point::new(30.0, 10.0), clk)?;
//! let inv = b.add_gate("u0", "INV_X1", Point::new(15.0, 10.0), &[a])?;
//! b.connect_flip_flop_d(ff, inv)?;
//! let q = b.cell_output(ff);
//! let out = b.add_output("y", Point::new(60.0, 10.0), q)?;
//! # let _ = out;
//! let design = b.build()?;
//! assert_eq!(design.num_cells(), 5);
//! # Ok(())
//! # }
//! ```
//!
//! [`sta`]: https://docs.rs/sta

pub mod cell;
pub mod format;
pub mod generate;
pub mod ids;
pub mod library;
pub mod lint;
pub mod netlist;
pub mod point;
pub mod stats;
pub mod verilog;

pub use cell::{Cell, CellRole};
pub use format::{lint_netlist_text, parse_netlist, write_netlist, ParseNetlistError};
pub use generate::{DesignSpec, GeneratorConfig};
pub use ids::{CellId, LibCellId, NetId, PinIndex};
pub use library::{DriveStrength, Function, LibCell, Library};
pub use lint::{
    lint_netlist, lint_netlist_spanned, LintIssue, LintReport, Severity, SourceMap, SrcSpan,
};
pub use netlist::{BuildError, Net, Netlist, NetlistBuilder};
pub use point::Point;
pub use stats::DesignStats;
pub use verilog::{parse_verilog, write_verilog, ParseVerilogError};
