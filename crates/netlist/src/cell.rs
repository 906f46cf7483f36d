//! Cell instances.

use crate::ids::{LibCellId, NetId};
use crate::library::Function;
use crate::point::Point;
use serde::{Deserialize, Serialize};

/// Structural role of a cell instance, derived from its library function.
///
/// Downstream analyses branch on the role constantly (ports anchor the
/// timing graph, sequentials split it into launch/capture stages, clock
/// cells are exempt from data-path transforms), so it is precomputed here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellRole {
    /// Primary input port.
    Input,
    /// Primary output port.
    Output,
    /// Clock source port (an input port distributing the clock).
    ClockSource,
    /// Flip-flop.
    Sequential,
    /// Clock-tree buffer.
    ClockBuffer,
    /// Ordinary combinational gate.
    Combinational,
}

impl CellRole {
    /// Whether this cell belongs to the clock network.
    pub fn is_clock_network(self) -> bool {
        matches!(self, CellRole::ClockSource | CellRole::ClockBuffer)
    }
}

/// A cell instance in a [`Netlist`](crate::Netlist).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// The characterized library cell implementing this instance.
    pub lib_cell: LibCellId,
    /// Structural role.
    pub role: CellRole,
    /// Placement location.
    pub loc: Point,
    /// Input nets, one per input pin in pin order. A slot may be `None`
    /// while the netlist is under construction; [`NetlistBuilder::build`]
    /// rejects unconnected pins.
    ///
    /// [`NetlistBuilder::build`]: crate::NetlistBuilder::build
    pub inputs: Vec<Option<NetId>>,
    /// The net driven by this cell's output pin, if it has one.
    pub output: Option<NetId>,
}

impl Cell {
    /// Creates an unconnected instance of `lib_cell` with `arity` input slots.
    pub(crate) fn new(
        name: String,
        lib_cell: LibCellId,
        function: Function,
        role: CellRole,
        loc: Point,
    ) -> Self {
        Self {
            name,
            lib_cell,
            role,
            loc,
            inputs: vec![None; function.arity()],
            output: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_predicates() {
        assert!(CellRole::ClockBuffer.is_clock_network());
        assert!(CellRole::ClockSource.is_clock_network());
        assert!(!CellRole::Sequential.is_clock_network());
    }

    #[test]
    fn new_cell_has_empty_slots() {
        let c = Cell::new(
            "u1".to_owned(),
            LibCellId::new(0),
            Function::Nand2,
            CellRole::Combinational,
            Point::ORIGIN,
        );
        assert_eq!(c.inputs.len(), 2);
        assert!(c.inputs.iter().all(Option::is_none));
        assert!(c.output.is_none());
    }
}
