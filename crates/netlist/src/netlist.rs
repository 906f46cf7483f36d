//! The netlist container, its builder, and structural validation.

use crate::cell::{Cell, CellRole};
use crate::ids::{CellId, LibCellId, NetId, PinIndex};
use crate::library::{Function, Library};
use crate::point::Point;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A net: one driver pin fanning out to zero or more sink pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// Net name, unique within the netlist.
    pub name: String,
    /// The cell whose output pin drives this net (`None` only during
    /// construction).
    pub driver: Option<CellId>,
    /// Sink pins as `(cell, input pin index)` pairs.
    pub sinks: Vec<(CellId, PinIndex)>,
}

/// Errors detected while building or validating a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A referenced library cell name does not exist.
    UnknownLibCell(String),
    /// The named library cell has the wrong function for the requested role.
    WrongFunction {
        /// Offending library cell name.
        lib_cell: String,
        /// What the call site required.
        expected: &'static str,
    },
    /// Number of supplied input nets differs from the cell's arity.
    ArityMismatch {
        /// Instance name.
        cell: String,
        /// Pins the function has.
        expected: usize,
        /// Nets supplied.
        got: usize,
    },
    /// Two cells or nets share a name.
    DuplicateName(String),
    /// An input pin was left unconnected.
    UnconnectedPin {
        /// Instance name.
        cell: String,
        /// Offending pin.
        pin: usize,
    },
    /// A cell that must drive a net does not.
    MissingOutput(String),
    /// A combinational feedback loop was found (cycle through cells that
    /// are not flip-flops).
    CombinationalCycle(String),
    /// A flip-flop's clock pin does not trace back to a clock source.
    UnclockedFlipFlop(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownLibCell(n) => write!(f, "unknown library cell `{n}`"),
            BuildError::WrongFunction { lib_cell, expected } => {
                write!(f, "library cell `{lib_cell}` is not {expected}")
            }
            BuildError::ArityMismatch {
                cell,
                expected,
                got,
            } => write!(f, "cell `{cell}` takes {expected} inputs, got {got}"),
            BuildError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            BuildError::UnconnectedPin { cell, pin } => {
                write!(f, "cell `{cell}` input pin {pin} is unconnected")
            }
            BuildError::MissingOutput(n) => write!(f, "cell `{n}` output drives no net"),
            BuildError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through cell `{n}`")
            }
            BuildError::UnclockedFlipFlop(n) => {
                write!(f, "flip-flop `{n}` clock pin does not reach a clock source")
            }
        }
    }
}

impl Error for BuildError {}

/// An immutable-by-default gate-level netlist with placement.
///
/// Construct one with [`NetlistBuilder`] (or the synthetic
/// [`generate`](crate::generate) module). The timing-closure optimizer uses
/// the controlled mutation methods ([`Netlist::set_lib_cell`],
/// [`Netlist::insert_buffer`]) which preserve all structural invariants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    library: Library,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    cell_names: HashMap<String, CellId>,
    net_names: HashMap<String, NetId>,
}

impl Netlist {
    /// Assembles a netlist from pre-built parts (used by the parser).
    pub(crate) fn from_parts(
        name: String,
        library: Library,
        cells: Vec<Cell>,
        nets: Vec<Net>,
        cell_names: HashMap<String, CellId>,
        net_names: HashMap<String, NetId>,
    ) -> Self {
        Self {
            name,
            library,
            cells,
            nets,
            cell_names,
            net_names,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A copy of this netlist remapped to a delay-scaled library (PVT
    /// corner modelling; see [`Library::scale_delays`]).
    pub fn with_scaled_delays(&self, factor: f64) -> Netlist {
        let mut scaled = self.clone();
        scaled.library = self.library.scale_delays(factor);
        scaled
    }

    /// The characterized library this design is mapped to.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Number of cell instances (including port pseudo-cells).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Looks up a cell instance.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks up a net.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Finds a cell by instance name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cell_names.get(name).copied()
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::new(i), c))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::new(i), n))
    }

    /// All timing startpoints: primary inputs and flip-flop outputs.
    pub fn startpoints(&self) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| matches!(c.role, CellRole::Input | CellRole::Sequential))
            .map(|(id, _)| id)
            .collect()
    }

    /// All timing endpoints: primary outputs and flip-flop `D` pins
    /// (represented by the flip-flop cell).
    pub fn endpoints(&self) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| matches!(c.role, CellRole::Output | CellRole::Sequential))
            .map(|(id, _)| id)
            .collect()
    }

    /// Total placed cell area in µm² (ports excluded; they have zero area).
    pub fn total_area(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| self.library.cell(c.lib_cell).area)
            .sum()
    }

    /// Total leakage power in nW.
    pub fn total_leakage(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| self.library.cell(c.lib_cell).leakage)
            .sum()
    }

    /// Number of buffer cells (`BUF_*`) in the data network — the paper's
    /// "buffer inserted" QoR metric counts these.
    pub fn buffer_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| {
                c.role == CellRole::Combinational
                    && self.library.cell(c.lib_cell).function == Function::Buf
            })
            .count()
    }

    /// Total estimated wire length of `net` in µm (star model from the
    /// driver to every sink).
    pub fn net_length(&self, id: NetId) -> f64 {
        let net = self.net(id);
        let Some(driver) = net.driver else {
            return 0.0;
        };
        let from = self.cell(driver).loc;
        net.sinks
            .iter()
            .map(|&(sink, _)| from.manhattan(self.cell(sink).loc))
            .sum()
    }

    /// Estimated wire delay for a run of `length` µm: linear plus
    /// distributed-RC quadratic term.
    pub fn wire_delay(&self, length: f64) -> f64 {
        self.library.wire_delay_per_um * length + self.library.wire_delay_per_um2 * length * length
    }

    /// Total capacitive load on `net` in fF: sink pin caps plus wire cap.
    pub fn net_load(&self, id: NetId) -> f64 {
        let net = self.net(id);
        let pin_cap: f64 = net
            .sinks
            .iter()
            .map(|&(sink, _)| self.library.cell(self.cell(sink).lib_cell).input_cap)
            .sum();
        pin_cap + self.library.wire_cap_per_um * self.net_length(id)
    }

    /// Topological order of all cells under the *timing dependency*
    /// relation: a combinational cell depends on all its input drivers, a
    /// flip-flop depends only on its clock pin driver (its `D` input is an
    /// endpoint, not a dependency).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CombinationalCycle`] naming a cell on the cycle
    /// if the dependency relation is cyclic.
    pub fn topo_order(&self) -> Result<Vec<CellId>, BuildError> {
        let (order, stuck) = self.kahn();
        if let Some(&first) = stuck.first() {
            return Err(BuildError::CombinationalCycle(
                self.cells[first.index()].name.clone(),
            ));
        }
        Ok(order)
    }

    /// Cells left with positive indegree after the Kahn pass — the
    /// members (and downstream dependents) of combinational cycles, in
    /// id order. Empty when the timing graph is acyclic. This is the
    /// same pass [`Self::topo_order`] runs; the lint engine
    /// ([`crate::lint`]) consumes the full set where the fail-fast path
    /// names only the first.
    pub fn cycle_members(&self) -> Vec<CellId> {
        self.kahn().1
    }

    /// One Kahn pass over the timing dependency graph: returns the topo
    /// order of schedulable cells and the ids still blocked at the end.
    fn kahn(&self) -> (Vec<CellId>, Vec<CellId>) {
        let n = self.cells.len();
        let mut indegree = vec![0u32; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, cell) in self.cells() {
            for (pin, net) in cell.inputs.iter().enumerate() {
                if cell.role == CellRole::Sequential && pin != PinIndex::FF_CK.index() {
                    continue; // D pin is not a dependency
                }
                let Some(net) = net else { continue };
                if let Some(driver) = self.net(*net).driver {
                    dependents[driver.index()].push(id.index() as u32);
                    indegree[id.index()] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(CellId::new(u));
            for &v in &dependents[u] {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    queue.push(v as usize);
                }
            }
        }
        let stuck = (0..n)
            .filter(|&i| indegree[i] > 0)
            .map(CellId::new)
            .collect();
        (order, stuck)
    }

    /// Swaps the library cell implementing `cell` (gate sizing).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::WrongFunction`] if `new_lib` implements a
    /// different logic function than the current cell.
    pub fn set_lib_cell(&mut self, cell: CellId, new_lib: LibCellId) -> Result<(), BuildError> {
        let old = self.cells[cell.index()].lib_cell;
        if self.library.cell(old).function != self.library.cell(new_lib).function {
            return Err(BuildError::WrongFunction {
                lib_cell: self.library.cell(new_lib).name.clone(),
                expected: "the same function as the cell it replaces",
            });
        }
        self.cells[cell.index()].lib_cell = new_lib;
        Ok(())
    }

    /// Inserts a buffer after the driver of `net`, transferring the given
    /// `moved_sinks` (or all sinks if empty) onto a new net driven by the
    /// buffer. Returns the new buffer's id.
    ///
    /// The buffer is placed at the midpoint of the driver and the centroid
    /// of the moved sinks.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownLibCell`] if `buf_lib` is not in the
    /// library, [`BuildError::WrongFunction`] if it is not a buffer, or
    /// [`BuildError::DuplicateName`] if `name` is taken.
    pub fn insert_buffer(
        &mut self,
        net: NetId,
        buf_lib: LibCellId,
        name: &str,
        moved_sinks: &[(CellId, PinIndex)],
    ) -> Result<CellId, BuildError> {
        let lib_cell = self.library.cell(buf_lib);
        if lib_cell.function != Function::Buf {
            return Err(BuildError::WrongFunction {
                lib_cell: lib_cell.name.clone(),
                expected: "a buffer",
            });
        }
        if self.cell_names.contains_key(name) {
            return Err(BuildError::DuplicateName(name.to_owned()));
        }
        let moved: Vec<(CellId, PinIndex)> = if moved_sinks.is_empty() {
            self.nets[net.index()].sinks.clone()
        } else {
            moved_sinks.to_vec()
        };
        // Placement: between the driver and the moved sinks' centroid.
        let driver_loc = self.nets[net.index()]
            .driver
            .map(|d| self.cell(d).loc)
            .unwrap_or(Point::ORIGIN);
        let centroid = if moved.is_empty() {
            driver_loc
        } else {
            let (sx, sy) = moved.iter().fold((0.0, 0.0), |(x, y), &(c, _)| {
                let p = self.cell(c).loc;
                (x + p.x, y + p.y)
            });
            Point::new(sx / moved.len() as f64, sy / moved.len() as f64)
        };
        let loc = driver_loc.midpoint(centroid);

        let buf_id = CellId::new(self.cells.len());
        let mut buf = Cell::new(
            name.to_owned(),
            buf_lib,
            Function::Buf,
            CellRole::Combinational,
            loc,
        );
        let new_net_id = NetId::new(self.nets.len());
        let new_net_name = format!("{name}_out");
        if self.net_names.contains_key(&new_net_name) {
            return Err(BuildError::DuplicateName(new_net_name));
        }
        buf.inputs[0] = Some(net);
        buf.output = Some(new_net_id);
        self.cell_names.insert(name.to_owned(), buf_id);
        self.cells.push(buf);

        // Re-home the moved sinks.
        let old_net = &mut self.nets[net.index()];
        old_net.sinks.retain(|s| !moved.iter().any(|m| m == s));
        old_net.sinks.push((buf_id, PinIndex(0)));
        for &(cell, pin) in &moved {
            self.cells[cell.index()].inputs[pin.index()] = Some(new_net_id);
        }
        self.net_names.insert(new_net_name.clone(), new_net_id);
        self.nets.push(Net {
            name: new_net_name,
            driver: Some(buf_id),
            sinks: moved,
        });
        Ok(buf_id)
    }

    /// Validates all structural invariants; called by
    /// [`NetlistBuilder::build`] and usable after manual mutation.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: unconnected pins, missing
    /// outputs, combinational cycles, net/pin cross-reference mismatches
    /// (reported as [`BuildError::UnconnectedPin`]), or unclocked flip-flops.
    pub fn validate(&self) -> Result<(), BuildError> {
        for (id, cell) in self.cells() {
            let lib = self.library.cell(cell.lib_cell);
            for (pin, net) in cell.inputs.iter().enumerate() {
                let Some(net) = net else {
                    return Err(BuildError::UnconnectedPin {
                        cell: cell.name.clone(),
                        pin,
                    });
                };
                let listed = self
                    .net(*net)
                    .sinks
                    .iter()
                    .any(|&(c, p)| c == id && p.index() == pin);
                if !listed {
                    return Err(BuildError::UnconnectedPin {
                        cell: cell.name.clone(),
                        pin,
                    });
                }
            }
            if lib.function.has_output() && cell.output.is_none() && !cell.inputs.is_empty() {
                // Dangling gate outputs are allowed only for ports; a gate
                // with inputs but no output is dead logic we reject.
                return Err(BuildError::MissingOutput(cell.name.clone()));
            }
            if let Some(out) = cell.output {
                if self.net(out).driver != Some(id) {
                    return Err(BuildError::MissingOutput(cell.name.clone()));
                }
            }
        }
        self.topo_order()?;
        self.check_clocking()
    }

    /// Every flip-flop's CK pin must trace back through clock buffers to a
    /// clock source.
    fn check_clocking(&self) -> Result<(), BuildError> {
        for (_, cell) in self.cells() {
            if cell.role != CellRole::Sequential {
                continue;
            }
            let mut cur = cell.inputs[PinIndex::FF_CK.index()];
            let mut hops = 0usize;
            loop {
                let Some(net) = cur else {
                    return Err(BuildError::UnclockedFlipFlop(cell.name.clone()));
                };
                let Some(driver) = self.net(net).driver else {
                    return Err(BuildError::UnclockedFlipFlop(cell.name.clone()));
                };
                let d = self.cell(driver);
                match d.role {
                    CellRole::ClockSource => break,
                    CellRole::ClockBuffer => {
                        cur = d.inputs[0];
                    }
                    _ => return Err(BuildError::UnclockedFlipFlop(cell.name.clone())),
                }
                hops += 1;
                if hops > self.cells.len() {
                    return Err(BuildError::UnclockedFlipFlop(cell.name.clone()));
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Netlist`].
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug)]
pub struct NetlistBuilder {
    inner: Netlist,
}

impl NetlistBuilder {
    /// Starts a new design named `name` mapped to `library`.
    pub fn new(name: impl Into<String>, library: Library) -> Self {
        Self {
            inner: Netlist {
                name: name.into(),
                library,
                cells: Vec::new(),
                nets: Vec::new(),
                cell_names: HashMap::new(),
                net_names: HashMap::new(),
            },
        }
    }

    fn fresh_net(&mut self, name: String, driver: Option<CellId>) -> NetId {
        let id = NetId::new(self.inner.nets.len());
        let unique = if self.inner.net_names.contains_key(&name) {
            format!("{name}_{id}")
        } else {
            name
        };
        self.inner.net_names.insert(unique.clone(), id);
        self.inner.nets.push(Net {
            name: unique,
            driver,
            sinks: Vec::new(),
        });
        id
    }

    fn add_cell(
        &mut self,
        name: &str,
        lib_cell: LibCellId,
        role: CellRole,
        loc: Point,
    ) -> Result<CellId, BuildError> {
        if self.inner.cell_names.contains_key(name) {
            return Err(BuildError::DuplicateName(name.to_owned()));
        }
        let function = self.inner.library.cell(lib_cell).function;
        let id = CellId::new(self.inner.cells.len());
        let mut cell = Cell::new(name.to_owned(), lib_cell, function, role, loc);
        if function.has_output() {
            let out = self.fresh_net(format!("{name}_out"), Some(id));
            cell.output = Some(out);
        }
        self.inner.cell_names.insert(name.to_owned(), id);
        self.inner.cells.push(cell);
        Ok(id)
    }

    fn connect(&mut self, net: NetId, cell: CellId, pin: PinIndex) {
        self.inner.cells[cell.index()].inputs[pin.index()] = Some(net);
        self.inner.nets[net.index()].sinks.push((cell, pin));
    }

    /// Adds a primary input port and returns the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if the library is missing the `IN_PORT` pseudo-cell.
    pub fn add_input(&mut self, name: &str, loc: Point) -> NetId {
        let lib = self
            .inner
            .library
            .find("IN_PORT")
            .expect("library must characterize IN_PORT");
        let id = self
            .add_cell(name, lib, CellRole::Input, loc)
            .unwrap_or_else(|e| panic!("{e}"));
        self.inner.cells[id.index()]
            .output
            .expect("port drives a net")
    }

    /// Adds a clock source port and returns the clock net it drives.
    ///
    /// # Panics
    ///
    /// Panics if the library is missing the `IN_PORT` pseudo-cell.
    pub fn add_clock_port(&mut self, name: &str, loc: Point) -> NetId {
        let lib = self
            .inner
            .library
            .find("IN_PORT")
            .expect("library must characterize IN_PORT");
        let id = self
            .add_cell(name, lib, CellRole::ClockSource, loc)
            .unwrap_or_else(|e| panic!("{e}"));
        self.inner.cells[id.index()]
            .output
            .expect("port drives a net")
    }

    /// Adds a primary output port fed by `net`.
    ///
    /// # Errors
    ///
    /// Returns an error if `name` is taken.
    pub fn add_output(&mut self, name: &str, loc: Point, net: NetId) -> Result<CellId, BuildError> {
        let lib = self
            .inner
            .library
            .find("OUT_PORT")
            .expect("library must characterize OUT_PORT");
        let id = self.add_cell(name, lib, CellRole::Output, loc)?;
        self.connect(net, id, PinIndex(0));
        Ok(id)
    }

    /// Adds a combinational gate (or clock buffer) and connects its inputs.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown/duplicate names, non-combinational
    /// library cells, or arity mismatch.
    pub fn add_gate(
        &mut self,
        name: &str,
        lib_cell: &str,
        loc: Point,
        inputs: &[NetId],
    ) -> Result<CellId, BuildError> {
        let lib = self
            .inner
            .library
            .find(lib_cell)
            .ok_or_else(|| BuildError::UnknownLibCell(lib_cell.to_owned()))?;
        let function = self.inner.library.cell(lib).function;
        if !function.is_combinational() {
            return Err(BuildError::WrongFunction {
                lib_cell: lib_cell.to_owned(),
                expected: "combinational",
            });
        }
        if function.arity() != inputs.len() {
            return Err(BuildError::ArityMismatch {
                cell: name.to_owned(),
                expected: function.arity(),
                got: inputs.len(),
            });
        }
        let role = if function == Function::ClkBuf {
            CellRole::ClockBuffer
        } else {
            CellRole::Combinational
        };
        let id = self.add_cell(name, lib, role, loc)?;
        for (pin, &net) in inputs.iter().enumerate() {
            self.connect(net, id, PinIndex(pin as u8));
        }
        Ok(id)
    }

    /// Adds a combinational gate with all input pins left open, to be
    /// wired later with [`NetlistBuilder::connect_input_pin`] (used by
    /// netlist readers, where an instance may reference nets whose
    /// drivers appear later in the file).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown/duplicate names or non-combinational
    /// library cells.
    pub fn add_gate_unwired(
        &mut self,
        name: &str,
        lib_cell: &str,
        loc: Point,
    ) -> Result<CellId, BuildError> {
        let lib = self
            .inner
            .library
            .find(lib_cell)
            .ok_or_else(|| BuildError::UnknownLibCell(lib_cell.to_owned()))?;
        let function = self.inner.library.cell(lib).function;
        if !function.is_combinational() {
            return Err(BuildError::WrongFunction {
                lib_cell: lib_cell.to_owned(),
                expected: "combinational",
            });
        }
        let role = if function == Function::ClkBuf {
            CellRole::ClockBuffer
        } else {
            CellRole::Combinational
        };
        self.add_cell(name, lib, role, loc)
    }

    /// Connects `net` to the given input pin of `cell` (companion to
    /// [`NetlistBuilder::add_gate_unwired`]).
    ///
    /// # Panics
    ///
    /// Panics if the pin index exceeds the cell's arity.
    pub fn connect_input_pin(&mut self, cell: CellId, pin: PinIndex, net: NetId) {
        assert!(
            pin.index() < self.inner.cells[cell.index()].inputs.len(),
            "pin {pin} out of range"
        );
        self.connect(net, cell, pin);
    }

    /// Adds a flip-flop with its clock pin tied to `clk`. The `D` pin is
    /// left open; connect it with [`NetlistBuilder::connect_flip_flop_d`].
    ///
    /// # Errors
    ///
    /// Returns an error for unknown/duplicate names or if `lib_cell` is not
    /// a flip-flop.
    pub fn add_flip_flop(
        &mut self,
        name: &str,
        lib_cell: &str,
        loc: Point,
        clk: NetId,
    ) -> Result<CellId, BuildError> {
        let lib = self
            .inner
            .library
            .find(lib_cell)
            .ok_or_else(|| BuildError::UnknownLibCell(lib_cell.to_owned()))?;
        if self.inner.library.cell(lib).function != Function::Dff {
            return Err(BuildError::WrongFunction {
                lib_cell: lib_cell.to_owned(),
                expected: "a flip-flop",
            });
        }
        let id = self.add_cell(name, lib, CellRole::Sequential, loc)?;
        self.connect(clk, id, PinIndex::FF_CK);
        Ok(id)
    }

    /// Adds a flip-flop with both `D` and `CK` pins left open, to be
    /// wired later with [`NetlistBuilder::connect_input_pin`] (used by
    /// netlist readers that replay connections in source order, where a
    /// flip-flop may appear before its clock driver).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown/duplicate names or if `lib_cell` is not
    /// a flip-flop.
    pub fn add_flip_flop_unwired(
        &mut self,
        name: &str,
        lib_cell: &str,
        loc: Point,
    ) -> Result<CellId, BuildError> {
        let lib = self
            .inner
            .library
            .find(lib_cell)
            .ok_or_else(|| BuildError::UnknownLibCell(lib_cell.to_owned()))?;
        if self.inner.library.cell(lib).function != Function::Dff {
            return Err(BuildError::WrongFunction {
                lib_cell: lib_cell.to_owned(),
                expected: "a flip-flop",
            });
        }
        self.add_cell(name, lib, CellRole::Sequential, loc)
    }

    /// Connects `driver`'s output net to the `D` pin of flip-flop `ff`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::MissingOutput`] if `driver` drives no net.
    pub fn connect_flip_flop_d(&mut self, ff: CellId, driver: CellId) -> Result<(), BuildError> {
        let net = self.inner.cells[driver.index()].output.ok_or_else(|| {
            BuildError::MissingOutput(self.inner.cells[driver.index()].name.clone())
        })?;
        self.connect(net, ff, PinIndex::FF_D);
        Ok(())
    }

    /// Connects an arbitrary `net` to the `D` pin of flip-flop `ff`.
    pub fn connect_flip_flop_d_net(&mut self, ff: CellId, net: NetId) {
        self.connect(net, ff, PinIndex::FF_D);
    }

    /// Placement location of the cell driving `net`, if any.
    pub fn net_driver_location(&self, net: NetId) -> Option<Point> {
        self.inner.nets[net.index()]
            .driver
            .map(|d| self.inner.cells[d.index()].loc)
    }

    /// The net driven by `cell`'s output pin.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no output (primary outputs).
    pub fn cell_output(&self, cell: CellId) -> NetId {
        self.inner.cells[cell.index()]
            .output
            .expect("cell has no output pin")
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.inner.cells.len()
    }

    /// Validates and finalizes the netlist.
    ///
    /// # Errors
    ///
    /// Any [`BuildError`] found by [`Netlist::validate`].
    pub fn build(self) -> Result<Netlist, BuildError> {
        self.inner.validate()?;
        Ok(self.inner)
    }

    /// Finalizes without validation (for intentionally-partial test fixtures).
    pub fn build_unchecked(self) -> Netlist {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::DriveStrength;

    fn tiny() -> Netlist {
        // clk ─▶ ff0 ─▶ inv ─▶ nand ─▶ ff1 ; in0 ─▶ nand
        let mut b = NetlistBuilder::new("tiny", Library::standard());
        let clk = b.add_clock_port("clk", Point::new(0.0, 0.0));
        let in0 = b.add_input("in0", Point::new(0.0, 20.0));
        let d0 = b.add_input("d0", Point::new(0.0, 0.0));
        let ff0 = b
            .add_flip_flop("ff0", "DFF_X1", Point::new(10.0, 0.0), clk)
            .unwrap();
        b.connect_flip_flop_d_net(ff0, d0);
        let inv = b
            .add_gate(
                "u_inv",
                "INV_X1",
                Point::new(20.0, 5.0),
                &[b.cell_output(ff0)],
            )
            .unwrap();
        let nand = b
            .add_gate(
                "u_nand",
                "NAND2_X1",
                Point::new(30.0, 10.0),
                &[b.cell_output(inv), in0],
            )
            .unwrap();
        let ff1 = b
            .add_flip_flop("ff1", "DFF_X1", Point::new(40.0, 10.0), clk)
            .unwrap();
        b.connect_flip_flop_d(ff1, nand).unwrap();
        let y = b.cell_output(ff1);
        b.add_output("y", Point::new(50.0, 10.0), y).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn tiny_design_builds_and_validates() {
        let n = tiny();
        assert_eq!(n.num_cells(), 8);
        assert_eq!(n.startpoints().len(), 4); // in0, d0 + 2 FFs
        assert_eq!(n.endpoints().len(), 3); // y + 2 FFs
        let clocks = n.cells().filter(|(_, c)| c.role == CellRole::ClockSource);
        assert_eq!(clocks.count(), 1);
        assert!(n.total_area() > 0.0);
        assert!(n.total_leakage() > 0.0);
        assert_eq!(n.buffer_count(), 0);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = tiny();
        let order = n.topo_order().unwrap();
        assert_eq!(order.len(), n.num_cells());
        let pos: HashMap<CellId, usize> = order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let ff0 = n.find_cell("ff0").unwrap();
        let inv = n.find_cell("u_inv").unwrap();
        let nand = n.find_cell("u_nand").unwrap();
        let clk = n.find_cell("clk").unwrap();
        assert!(pos[&clk] < pos[&ff0]);
        assert!(pos[&ff0] < pos[&inv]);
        assert!(pos[&inv] < pos[&nand]);
    }

    #[test]
    fn ff_d_input_is_not_a_dependency() {
        // ff1's D comes from nand, but ff1 may be ordered before nand.
        let n = tiny();
        assert!(n.topo_order().is_ok());
    }

    #[test]
    fn net_load_and_length() {
        let n = tiny();
        let inv = n.find_cell("u_inv").unwrap();
        let out = n.cell(inv).output.unwrap();
        let len = n.net_length(out);
        // inv at (20,5) → nand at (30,10): manhattan 15
        assert!((len - 15.0).abs() < 1e-9);
        let load = n.net_load(out);
        let nand_cap = n
            .library()
            .cell(
                n.library()
                    .variant(Function::Nand2, DriveStrength::X1)
                    .unwrap(),
            )
            .input_cap;
        assert!((load - (nand_cap + n.library().wire_cap_per_um * 15.0)).abs() < 1e-9);
    }

    #[test]
    fn sizing_swaps_variant() {
        let mut n = tiny();
        let inv = n.find_cell("u_inv").unwrap();
        let x4 = n
            .library()
            .variant(Function::Inv, DriveStrength::X4)
            .unwrap();
        n.set_lib_cell(inv, x4).unwrap();
        assert_eq!(n.cell(inv).lib_cell, x4);
        // Swapping to a different function is rejected.
        let buf = n
            .library()
            .variant(Function::Buf, DriveStrength::X1)
            .unwrap();
        assert!(n.set_lib_cell(inv, buf).is_err());
        n.validate().unwrap();
    }

    #[test]
    fn buffer_insertion_splits_net() {
        let mut n = tiny();
        let inv = n.find_cell("u_inv").unwrap();
        let out = n.cell(inv).output.unwrap();
        let buf_lib = n
            .library()
            .variant(Function::Buf, DriveStrength::X2)
            .unwrap();
        let before_sinks = n.net(out).sinks.clone();
        let buf = n.insert_buffer(out, buf_lib, "rbuf0", &[]).unwrap();
        // Old net now drives only the buffer.
        assert_eq!(n.net(out).sinks, vec![(buf, PinIndex(0))]);
        // New net drives the original sinks.
        let new_net = n.cell(buf).output.unwrap();
        assert_eq!(n.net(new_net).sinks, before_sinks);
        n.validate().unwrap();
        assert_eq!(n.buffer_count(), 1);
        assert!(n.topo_order().is_ok());
    }

    #[test]
    fn buffer_insertion_rejects_non_buffer() {
        let mut n = tiny();
        let inv = n.find_cell("u_inv").unwrap();
        let out = n.cell(inv).output.unwrap();
        let inv_lib = n
            .library()
            .variant(Function::Inv, DriveStrength::X1)
            .unwrap();
        assert!(matches!(
            n.insert_buffer(out, inv_lib, "b", &[]),
            Err(BuildError::WrongFunction { .. })
        ));
    }

    #[test]
    fn duplicate_cell_name_rejected() {
        let mut b = NetlistBuilder::new("dup", Library::standard());
        let clk = b.add_clock_port("clk", Point::ORIGIN);
        let _ff = b.add_flip_flop("ff", "DFF_X1", Point::ORIGIN, clk).unwrap();
        assert!(matches!(
            b.add_flip_flop("ff", "DFF_X1", Point::ORIGIN, clk),
            Err(BuildError::DuplicateName(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = NetlistBuilder::new("bad", Library::standard());
        let a = b.add_input("a", Point::ORIGIN);
        assert!(matches!(
            b.add_gate("g", "NAND2_X1", Point::ORIGIN, &[a]),
            Err(BuildError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unknown_lib_cell_rejected() {
        let mut b = NetlistBuilder::new("bad", Library::standard());
        let a = b.add_input("a", Point::ORIGIN);
        assert!(matches!(
            b.add_gate("g", "NAND99_X1", Point::ORIGIN, &[a]),
            Err(BuildError::UnknownLibCell(_))
        ));
    }

    #[test]
    fn unclocked_ff_rejected() {
        let mut b = NetlistBuilder::new("bad", Library::standard());
        let data = b.add_input("d", Point::ORIGIN);
        // Clock pin tied to a data input, not a clock source.
        let ff = b
            .add_flip_flop("ff", "DFF_X1", Point::ORIGIN, data)
            .unwrap();
        let q = b.cell_output(ff);
        b.add_output("y", Point::ORIGIN, q).unwrap();
        b.connect_flip_flop_d_net(ff, data);
        assert!(matches!(b.build(), Err(BuildError::UnclockedFlipFlop(_))));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut b = NetlistBuilder::new("loop", Library::standard());
        let a = b.add_input("a", Point::ORIGIN);
        // g0 and g1 feed each other.
        let g0 = b.add_gate("g0", "INV_X1", Point::ORIGIN, &[a]).unwrap();
        let g1 = b
            .add_gate("g1", "NAND2_X1", Point::ORIGIN, &[b.cell_output(g0), a])
            .unwrap();
        // Rewire g0's input to g1's output to close the loop.
        let mut n = b.build_unchecked();
        let g1_out = n.cell(g1).output.unwrap();
        n.cells[g0.index()].inputs[0] = Some(g1_out);
        n.nets[g1_out.index()].sinks.push((g0, PinIndex(0)));
        assert!(matches!(
            n.topo_order(),
            Err(BuildError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn clock_through_clkbuf_is_valid() {
        let mut b = NetlistBuilder::new("ct", Library::standard());
        let clk = b.add_clock_port("clk", Point::ORIGIN);
        let cb = b
            .add_gate("cb0", "CLKBUF_X4", Point::new(5.0, 0.0), &[clk])
            .unwrap();
        let ff = b
            .add_flip_flop("ff", "DFF_X1", Point::new(10.0, 0.0), b.cell_output(cb))
            .unwrap();
        let d = b.add_input("d", Point::ORIGIN);
        b.connect_flip_flop_d_net(ff, d);
        let q = b.cell_output(ff);
        b.add_output("y", Point::new(20.0, 0.0), q).unwrap();
        let n = b.build().unwrap();
        assert_eq!(
            n.cell(n.find_cell("cb0").unwrap()).role,
            CellRole::ClockBuffer
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = BuildError::ArityMismatch {
            cell: "u1".into(),
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("u1"));
        assert!(BuildError::UnknownLibCell("Z".into())
            .to_string()
            .contains('Z'));
    }
}
