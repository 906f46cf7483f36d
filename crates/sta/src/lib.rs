//! Static timing analysis engine for the mGBA pessimism-reduction
//! framework.
//!
//! This crate implements everything the paper's evaluation assumes from a
//! commercial timer:
//!
//! - a levelized **timing graph** ([`graph::TimingGraph`]) over a
//!   [`netlist::Netlist`];
//! - **AOCV derating** ([`aocv`]) with depth × distance tables (the
//!   paper's Table 1);
//! - worst-case **GBA depth analysis** ([`depth`]) — the minimum cell
//!   depth and maximal bounding box over all paths through each gate
//!   (the paper's Fig. 2);
//! - graph-based **arrival/required propagation** with setup & hold
//!   slacks, worst-slew propagation, a clock tree, and CRPR
//!   ([`analysis::Sta`]);
//! - **critical path enumeration** ([`paths`]) — per-endpoint k-worst
//!   paths (the paper's §3.2 selection schemes);
//! - golden **PBA** path re-timing ([`pba`]);
//! - **incremental update** after gate sizing and buffer insertion
//!   ([`Sta::resize_cell`], [`Sta::insert_buffer`]).
//!
//! # Example
//!
//! ```
//! use netlist::GeneratorConfig;
//! use sta::{DerateSet, Sdc, Sta};
//!
//! # fn main() -> Result<(), netlist::BuildError> {
//! let design = GeneratorConfig::small(1).generate();
//! let sta = Sta::new(design, Sdc::with_period(1200.0), DerateSet::standard())?;
//! println!("WNS = {:.1} ps, TNS = {:.1} ps", sta.wns(), sta.tns());
//! let paths = sta::paths::select_critical_paths(&sta, 20, 1_000, false);
//! let golden = sta::pba::pba_timing(&sta, &paths[0]);
//! assert!(golden.slack >= paths[0].gba_slack); // PBA removes pessimism
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod aocv;
pub mod constraints;
pub mod corners;
pub mod depth;
pub mod graph;
pub mod paths;
pub mod pba;
pub mod report;
pub mod sdf;

pub use analysis::{Sta, UpdateStats};
pub use aocv::{DerateSet, DeratingTable};
pub use constraints::Sdc;
pub use corners::{Corner, MultiCornerSta};
pub use paths::{select_critical_paths, select_top_global_paths, Path};
pub use pba::{
    gba_path_timing, gba_path_timing_batch, gba_path_timing_rows, pba_timing, pba_timing_batch,
    pba_timing_rows, PathTiming,
};
pub use report::timing_report;
pub use sdf::write_sdf;
