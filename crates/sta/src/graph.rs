//! The timing graph: structural view of a netlist for timing traversal.
//!
//! Nodes are cell instances (the paper's "delay units"); edges are
//! driver→sink net connections annotated with estimated wire delay. The
//! graph caches the topological order and per-cell classification so the
//! propagation engines ([`Sta`](crate::Sta)) are simple array sweeps.

use netlist::{BuildError, CellId, CellRole, Netlist, PinIndex};

/// An edge arriving at a cell's input pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaninEdge {
    /// Driving cell.
    pub from: CellId,
    /// Input pin on the receiving cell.
    pub pin: PinIndex,
    /// Estimated wire delay in ps.
    pub wire_delay: f64,
}

/// An edge leaving a cell's output pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanoutEdge {
    /// Receiving cell.
    pub to: CellId,
    /// Input pin on the receiving cell.
    pub pin: PinIndex,
    /// Estimated wire delay in ps.
    pub wire_delay: f64,
}

/// Cached structural view of a [`Netlist`] for timing analysis.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    fanins: Vec<Vec<FaninEdge>>,
    fanouts: Vec<Vec<FanoutEdge>>,
    topo: Vec<CellId>,
    topo_pos: Vec<u32>,
    is_clock_network: Vec<bool>,
}

impl TimingGraph {
    /// Builds the graph from `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CombinationalCycle`] if the netlist's timing
    /// dependency relation is cyclic.
    pub fn new(netlist: &Netlist) -> Result<Self, BuildError> {
        let n = netlist.num_cells();
        let mut fanins: Vec<Vec<FaninEdge>> = vec![Vec::new(); n];
        let mut fanouts: Vec<Vec<FanoutEdge>> = vec![Vec::new(); n];
        for (_, net) in netlist.nets() {
            let Some(driver) = net.driver else { continue };
            let from_loc = netlist.cell(driver).loc;
            for &(sink, pin) in &net.sinks {
                let wire_delay = netlist.wire_delay(from_loc.manhattan(netlist.cell(sink).loc));
                fanins[sink.index()].push(FaninEdge {
                    from: driver,
                    pin,
                    wire_delay,
                });
                fanouts[driver.index()].push(FanoutEdge {
                    to: sink,
                    pin,
                    wire_delay,
                });
            }
        }
        let topo = netlist.topo_order()?;
        let mut topo_pos = vec![0u32; n];
        for (pos, &c) in topo.iter().enumerate() {
            topo_pos[c.index()] = pos as u32;
        }
        let is_clock_network = netlist
            .cells()
            .map(|(_, c)| c.role.is_clock_network())
            .collect();
        Ok(Self {
            fanins,
            fanouts,
            topo,
            topo_pos,
            is_clock_network,
        })
    }

    /// Edges into `cell`'s input pins.
    #[inline]
    pub fn fanins(&self, cell: CellId) -> &[FaninEdge] {
        &self.fanins[cell.index()]
    }

    /// Edges out of `cell`'s output pin.
    #[inline]
    pub fn fanouts(&self, cell: CellId) -> &[FanoutEdge] {
        &self.fanouts[cell.index()]
    }

    /// Cells in timing-dependency topological order.
    #[inline]
    pub fn topo(&self) -> &[CellId] {
        &self.topo
    }

    /// Position of `cell` in [`TimingGraph::topo`].
    #[inline]
    pub fn topo_pos(&self, cell: CellId) -> usize {
        self.topo_pos[cell.index()] as usize
    }

    /// Whether `cell` belongs to the clock distribution network.
    #[inline]
    pub fn in_clock_network(&self, cell: CellId) -> bool {
        self.is_clock_network[cell.index()]
    }

    /// Number of nodes.
    pub fn num_cells(&self) -> usize {
        self.fanins.len()
    }

    /// Data fanins of a cell: for flip-flops only the `D` edge, and edges
    /// from clock-network cells are excluded (a data gate fed by a clock
    /// buffer would be clock gating, which this model does not time).
    pub fn data_fanins<'a>(
        &'a self,
        netlist: &'a Netlist,
        cell: CellId,
    ) -> impl Iterator<Item = &'a FaninEdge> {
        let role = netlist.cell(cell).role;
        self.fanins(cell).iter().filter(move |e| {
            if self.is_clock_network[e.from.index()] {
                return false;
            }
            match role {
                CellRole::Sequential => e.pin == PinIndex::FF_D,
                _ => true,
            }
        })
    }

    /// Data fanouts of a cell: edges into flip-flop `CK` pins are excluded.
    pub fn data_fanouts<'a>(
        &'a self,
        netlist: &'a Netlist,
        cell: CellId,
    ) -> impl Iterator<Item = &'a FanoutEdge> {
        self.fanouts(cell).iter().filter(move |e| {
            let to_role = netlist.cell(e.to).role;
            (to_role != CellRole::Sequential || e.pin != PinIndex::FF_CK)
                && !to_role.is_clock_network()
        })
    }

    /// The clock fanin of a flip-flop (its `CK` edge), if present.
    pub fn clock_fanin(&self, netlist: &Netlist, ff: CellId) -> Option<&FaninEdge> {
        debug_assert_eq!(netlist.cell(ff).role, CellRole::Sequential);
        self.fanins(ff).iter().find(|e| e.pin == PinIndex::FF_CK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GeneratorConfig;

    #[test]
    fn graph_matches_netlist_shape() {
        let n = GeneratorConfig::small(17).generate();
        let g = TimingGraph::new(&n).unwrap();
        assert_eq!(g.num_cells(), n.num_cells());
        let expected_edges: usize = n.nets().map(|(_, net)| net.sinks.len()).sum();
        let edges: usize = n.cells().map(|(id, _)| g.fanins(id).len()).sum();
        assert_eq!(edges, expected_edges);
        assert_eq!(g.topo().len(), n.num_cells());
    }

    #[test]
    fn topo_pos_is_consistent() {
        let n = GeneratorConfig::small(18).generate();
        let g = TimingGraph::new(&n).unwrap();
        for (pos, &c) in g.topo().iter().enumerate() {
            assert_eq!(g.topo_pos(c), pos);
        }
    }

    #[test]
    fn ff_data_fanins_are_d_only() {
        let n = GeneratorConfig::small(19).generate();
        let g = TimingGraph::new(&n).unwrap();
        for (id, cell) in n.cells() {
            if cell.role == CellRole::Sequential {
                let data: Vec<_> = g.data_fanins(&n, id).collect();
                assert_eq!(data.len(), 1, "FF has exactly one data fanin (D)");
                assert_eq!(data[0].pin, PinIndex::FF_D);
                assert!(g.clock_fanin(&n, id).is_some());
            }
        }
    }

    #[test]
    fn clock_cells_marked() {
        let n = GeneratorConfig::small(20).generate();
        let g = TimingGraph::new(&n).unwrap();
        let marked = (0..n.num_cells())
            .filter(|&i| g.in_clock_network(CellId::new(i)))
            .count();
        let expect = n.cells().filter(|(_, c)| c.role.is_clock_network()).count();
        assert_eq!(marked, expect);
        assert!(marked > 0);
    }

    #[test]
    fn wire_delay_scales_with_distance() {
        let n = GeneratorConfig::small(21).generate();
        let g = TimingGraph::new(&n).unwrap();
        for (id, _) in n.cells() {
            for e in g.fanins(id) {
                let len = n.cell(e.from).loc.manhattan(n.cell(id).loc);
                assert!((e.wire_delay - n.wire_delay(len)).abs() < 1e-9);
                assert!(e.wire_delay >= n.library().wire_delay_per_um * len);
            }
        }
    }
}
