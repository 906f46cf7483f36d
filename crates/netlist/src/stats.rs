//! Design statistics: the structural profile of a netlist.
//!
//! Used by the generator's own tests (to verify the synthetic designs
//! look like circuits rather than random graphs), by the CLI's `stats`
//! subcommand, and by anyone deciding whether a design is a reasonable
//! workload for the mGBA experiments.

use crate::cell::CellRole;
use crate::ids::PinIndex;
use crate::netlist::Netlist;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Structural profile of a design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignStats {
    /// Design name.
    pub name: String,
    /// Total cell instances (ports included).
    pub cells: usize,
    /// Combinational gates.
    pub combinational: usize,
    /// Flip-flops.
    pub sequential: usize,
    /// Clock-tree cells (source + buffers).
    pub clock_cells: usize,
    /// Primary inputs (data only).
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Nets.
    pub nets: usize,
    /// Instance count per library-cell variant name.
    pub by_variant: BTreeMap<String, usize>,
    /// Instance count per drive strength (combinational only).
    pub by_drive: BTreeMap<String, usize>,
    /// Maximum logic depth (combinational stages) over all paths.
    pub max_logic_depth: usize,
    /// Maximum net fanout.
    pub max_fanout: usize,
    /// Mean net fanout (driven nets only).
    pub mean_fanout: f64,
    /// Total estimated wirelength, µm.
    pub total_wirelength: f64,
    /// Total cell area, µm².
    pub area: f64,
    /// Total leakage, nW.
    pub leakage: f64,
}

impl DesignStats {
    /// Profiles `netlist`.
    pub fn collect(netlist: &Netlist) -> Self {
        let mut by_variant: BTreeMap<String, usize> = BTreeMap::new();
        let mut by_drive: BTreeMap<String, usize> = BTreeMap::new();
        let mut combinational = 0;
        let mut sequential = 0;
        let mut clock_cells = 0;
        let mut inputs = 0;
        let mut outputs = 0;
        for (_, cell) in netlist.cells() {
            let lib = netlist.library().cell(cell.lib_cell);
            *by_variant.entry(lib.name.clone()).or_default() += 1;
            match cell.role {
                CellRole::Combinational => {
                    combinational += 1;
                    *by_drive.entry(lib.drive.to_string()).or_default() += 1;
                }
                CellRole::Sequential => sequential += 1,
                CellRole::ClockBuffer | CellRole::ClockSource => clock_cells += 1,
                CellRole::Input => inputs += 1,
                CellRole::Output => outputs += 1,
            }
        }

        // Logic depth: longest chain of combinational gates between path
        // boundaries, via DP over the dependency topological order.
        let mut depth = vec![0usize; netlist.num_cells()];
        let mut max_logic_depth = 0;
        if let Ok(order) = netlist.topo_order() {
            for c in order {
                let cell = netlist.cell(c);
                if cell.role != CellRole::Combinational {
                    continue;
                }
                let mut best = 0usize;
                for (pin, net) in cell.inputs.iter().enumerate() {
                    if cell.role == CellRole::Sequential && pin != PinIndex::FF_CK.index() {
                        continue;
                    }
                    if let Some(net) = net {
                        if let Some(driver) = netlist.net(*net).driver {
                            if netlist.cell(driver).role == CellRole::Combinational {
                                best = best.max(depth[driver.index()]);
                            }
                        }
                    }
                }
                depth[c.index()] = best + 1;
                max_logic_depth = max_logic_depth.max(best + 1);
            }
        }

        let mut max_fanout = 0usize;
        let mut fanout_sum = 0usize;
        let mut driven = 0usize;
        let mut total_wirelength = 0.0;
        for (id, net) in netlist.nets() {
            if net.driver.is_some() {
                driven += 1;
                fanout_sum += net.sinks.len();
                max_fanout = max_fanout.max(net.sinks.len());
                total_wirelength += netlist.net_length(id);
            }
        }

        Self {
            name: netlist.name().to_owned(),
            cells: netlist.num_cells(),
            combinational,
            sequential,
            clock_cells,
            inputs,
            outputs,
            nets: netlist.num_nets(),
            by_variant,
            by_drive,
            max_logic_depth,
            max_fanout,
            mean_fanout: if driven > 0 {
                fanout_sum as f64 / driven as f64
            } else {
                0.0
            },
            total_wirelength,
            area: netlist.total_area(),
            leakage: netlist.total_leakage(),
        }
    }
}

impl fmt::Display for DesignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design {}", self.name)?;
        writeln!(
            f,
            "  cells {} (comb {}, seq {}, clock {}, in {}, out {}), nets {}",
            self.cells,
            self.combinational,
            self.sequential,
            self.clock_cells,
            self.inputs,
            self.outputs,
            self.nets
        )?;
        writeln!(
            f,
            "  max logic depth {}, fanout max {} / mean {:.2}",
            self.max_logic_depth, self.max_fanout, self.mean_fanout
        )?;
        writeln!(
            f,
            "  wirelength {:.0} um, area {:.1} um^2, leakage {:.0} nW",
            self.total_wirelength, self.area, self.leakage
        )?;
        writeln!(f, "  drive mix:")?;
        for (drive, count) in &self.by_drive {
            writeln!(f, "    {drive:<4} {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{DesignSpec, GeneratorConfig};

    #[test]
    fn profile_of_small_design_is_sane() {
        let n = GeneratorConfig::small(901).generate();
        let s = DesignStats::collect(&n);
        assert_eq!(s.cells, n.num_cells());
        assert_eq!(
            s.combinational + s.sequential + s.clock_cells + s.inputs + s.outputs,
            s.cells
        );
        assert_eq!(s.sequential, 4 * 12);
        assert!(s.max_logic_depth >= 4, "cloud depth lower bound");
        assert!(s.max_logic_depth <= 8 * 3 + 3, "skips cannot exceed clouds");
        assert!(s.mean_fanout >= 1.0);
        assert!(s.total_wirelength > 0.0);
    }

    #[test]
    fn drive_mix_reflects_generator_fractions() {
        let n = GeneratorConfig::small(902).generate();
        let s = DesignStats::collect(&n);
        let count = |d: &str| s.by_drive.get(d).copied().unwrap_or(0);
        let (x1, x2, x4) = (count("X1"), count("X2"), count("X4"));
        assert!(x1 > x2, "X1 majority: {x1} vs {x2}");
        assert!(x2 > 0 && x4 > 0);
        assert_eq!(count("X8"), 0, "generator stops at X4");
    }

    #[test]
    fn variant_counts_sum_to_cells() {
        let n = DesignSpec::D1.generate();
        let s = DesignStats::collect(&n);
        let total: usize = s.by_variant.values().sum();
        assert_eq!(total, s.cells);
    }

    #[test]
    fn display_is_complete() {
        let n = GeneratorConfig::small(903).generate();
        let s = DesignStats::collect(&n);
        let text = s.to_string();
        assert!(text.contains("drive mix"));
        assert!(text.contains("max logic depth"));
    }
}
