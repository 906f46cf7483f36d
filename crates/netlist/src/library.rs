//! Characterized cell library.
//!
//! A [`Library`] plays the role of a Liberty (`.lib`) file: it lists every
//! available cell variant with its logic [`Function`], [`DriveStrength`],
//! and characterization data — a linear delay model, a linear output-slew
//! model, pin capacitance, area, and leakage power.
//!
//! The delay model is the classic first-order one used by fast timers:
//!
//! ```text
//! delay(load, input_slew) = intrinsic + drive_res · load + slew_sens · input_slew
//! slew_out(load)          = slew_intrinsic + slew_res · load
//! ```
//!
//! with `load` in femtofarads, times in picoseconds. Larger drive strengths
//! have smaller `drive_res` (they charge loads faster) but more input
//! capacitance, area, and leakage — the fundamental sizing trade-off the
//! timing-closure optimizer navigates.

use crate::ids::LibCellId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Logic function of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Function {
    /// Primary input port (no delay, no pins to drive it).
    Input,
    /// Primary output port (one input pin, no output).
    Output,
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2:1 multiplexer (3 input pins: A, B, S).
    Mux2,
    /// AND-OR-INVERT 2-1 (3 input pins).
    Aoi21,
    /// D flip-flop (pins: D, CK; output Q).
    Dff,
    /// Clock buffer (electrically a buffer, but kept distinct so clock-tree
    /// cells are recognizable and are never resized by data-path transforms).
    ClkBuf,
}

impl Function {
    /// Number of input pins instances of this function have.
    pub fn arity(self) -> usize {
        match self {
            Function::Input => 0,
            Function::Output | Function::Buf | Function::Inv | Function::ClkBuf => 1,
            Function::Nand2 | Function::Nor2 | Function::And2 | Function::Or2 | Function::Xor2 => 2,
            Function::Mux2 | Function::Aoi21 => 3,
            Function::Dff => 2, // D, CK
        }
    }

    /// Whether instances drive a net (everything except primary outputs).
    pub fn has_output(self) -> bool {
        !matches!(self, Function::Output)
    }

    /// Whether this is a sequential element.
    pub fn is_sequential(self) -> bool {
        matches!(self, Function::Dff)
    }

    /// Whether this is a port (primary input or output).
    pub fn is_port(self) -> bool {
        matches!(self, Function::Input | Function::Output)
    }

    /// Whether this is ordinary combinational logic (derateable, sizable).
    pub fn is_combinational(self) -> bool {
        !self.is_sequential() && !self.is_port()
    }

    /// Short name used in cell-variant names (`NAND2` in `NAND2_X2`).
    pub fn short_name(self) -> &'static str {
        match self {
            Function::Input => "IN",
            Function::Output => "OUT",
            Function::Buf => "BUF",
            Function::Inv => "INV",
            Function::Nand2 => "NAND2",
            Function::Nor2 => "NOR2",
            Function::And2 => "AND2",
            Function::Or2 => "OR2",
            Function::Xor2 => "XOR2",
            Function::Mux2 => "MUX2",
            Function::Aoi21 => "AOI21",
            Function::Dff => "DFF",
            Function::ClkBuf => "CLKBUF",
        }
    }

    /// Data-input pin names in pin-index order, using the library's
    /// interchange convention (`A`/`B`/`C` for gates, `D`/`CK` for
    /// flip-flops). Shared by every text importer/exporter — structural
    /// Verilog and EDIF — so the formats agree on pin naming.
    pub fn input_pin_names(self) -> &'static [&'static str] {
        match self {
            Function::Dff => &["D", "CK"],
            Function::Buf | Function::Inv | Function::ClkBuf | Function::Output => &["A"],
            Function::Nand2 | Function::Nor2 | Function::And2 | Function::Or2 | Function::Xor2 => {
                &["A", "B"]
            }
            Function::Mux2 | Function::Aoi21 => &["A", "B", "C"],
            Function::Input => &[],
        }
    }

    /// Output pin name in the interchange convention (`Q` for
    /// flip-flops, `Y` otherwise).
    pub fn output_pin_name(self) -> &'static str {
        if self == Function::Dff {
            "Q"
        } else {
            "Y"
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Drive strength of a cell variant.
///
/// Encodes the multiple of the unit transistor width, `X1` being the
/// weakest. The ordering matters: the sizing transform moves cells up and
/// down this ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DriveStrength {
    /// 1× unit drive.
    X1,
    /// 2× unit drive.
    X2,
    /// 4× unit drive.
    X4,
    /// 8× unit drive.
    X8,
}

impl DriveStrength {
    /// Numeric multiplier of the drive strength.
    pub fn factor(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 2.0,
            DriveStrength::X4 => 4.0,
            DriveStrength::X8 => 8.0,
        }
    }

    /// The next stronger variant, or `None` at the top of the ladder.
    pub fn upsize(self) -> Option<DriveStrength> {
        match self {
            DriveStrength::X1 => Some(DriveStrength::X2),
            DriveStrength::X2 => Some(DriveStrength::X4),
            DriveStrength::X4 => Some(DriveStrength::X8),
            DriveStrength::X8 => None,
        }
    }

    /// The next weaker variant, or `None` at the bottom of the ladder.
    pub fn downsize(self) -> Option<DriveStrength> {
        match self {
            DriveStrength::X1 => None,
            DriveStrength::X2 => Some(DriveStrength::X1),
            DriveStrength::X4 => Some(DriveStrength::X2),
            DriveStrength::X8 => Some(DriveStrength::X4),
        }
    }

    /// All drive strengths, weakest first.
    pub fn ladder() -> &'static [DriveStrength] {
        &[
            DriveStrength::X1,
            DriveStrength::X2,
            DriveStrength::X4,
            DriveStrength::X8,
        ]
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveStrength::X1 => f.write_str("X1"),
            DriveStrength::X2 => f.write_str("X2"),
            DriveStrength::X4 => f.write_str("X4"),
            DriveStrength::X8 => f.write_str("X8"),
        }
    }
}

/// One characterized cell variant (one `cell` group of a Liberty file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibCell {
    /// Variant name, e.g. `NAND2_X2`.
    pub name: String,
    /// Logic function.
    pub function: Function,
    /// Drive strength.
    pub drive: DriveStrength,
    /// Cell area in µm².
    pub area: f64,
    /// Leakage power in nW.
    pub leakage: f64,
    /// Input capacitance per pin in fF.
    pub input_cap: f64,
    /// Intrinsic (zero-load) delay in ps. For flip-flops this is the
    /// clock-to-Q delay.
    pub intrinsic: f64,
    /// Output resistance term in ps/fF.
    pub drive_res: f64,
    /// Delay sensitivity to input slew (ps of delay per ps of slew).
    pub slew_sens: f64,
    /// Intrinsic output slew in ps.
    pub slew_intrinsic: f64,
    /// Output slew growth in ps/fF.
    pub slew_res: f64,
    /// Maximum load the cell may legally drive, in fF.
    pub max_load: f64,
    /// Setup time in ps (flip-flops only, `0` otherwise).
    pub setup: f64,
    /// Hold time in ps (flip-flops only, `0` otherwise).
    pub hold: f64,
}

impl LibCell {
    /// Gate delay under the linear model, in ps.
    ///
    /// `load` is the total capacitance on the output net in fF and
    /// `input_slew` the transition time at the switching input in ps.
    #[inline]
    pub fn delay(&self, load: f64, input_slew: f64) -> f64 {
        self.intrinsic + self.drive_res * load + self.slew_sens * input_slew
    }

    /// Output transition time under the linear model, in ps.
    #[inline]
    pub fn output_slew(&self, load: f64) -> f64 {
        self.slew_intrinsic + self.slew_res * load
    }
}

/// A characterized cell library.
///
/// Use [`Library::standard`] for the default 45 nm-flavoured library, or
/// build a custom characterization incrementally with [`Library::new`] +
/// [`Library::add`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Library {
    name: String,
    cells: Vec<LibCell>,
    by_name: HashMap<String, LibCellId>,
    /// Wire capacitance per µm of estimated length, in fF/µm.
    pub wire_cap_per_um: f64,
    /// Linear wire delay per µm of estimated length, in ps/µm.
    pub wire_delay_per_um: f64,
    /// Quadratic wire delay term in ps/µm² (distributed-RC surrogate:
    /// Elmore delay grows with the square of unbuffered length, which is
    /// precisely why buffer insertion helps long nets).
    pub wire_delay_per_um2: f64,
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cells: Vec::new(),
            by_name: HashMap::new(),
            wire_cap_per_um: 0.2,
            wire_delay_per_um: 0.05,
            wire_delay_per_um2: 0.0009,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a characterized cell and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a cell with the same name already exists.
    pub fn add(&mut self, cell: LibCell) -> LibCellId {
        let id = LibCellId::new(self.cells.len());
        let prev = self.by_name.insert(cell.name.clone(), id);
        assert!(prev.is_none(), "duplicate library cell {}", cell.name);
        self.cells.push(cell);
        id
    }

    /// Looks a cell up by id.
    #[inline]
    pub fn cell(&self, id: LibCellId) -> &LibCell {
        &self.cells[id.index()]
    }

    /// Looks a cell up by variant name (`"NAND2_X2"`).
    pub fn find(&self, name: &str) -> Option<LibCellId> {
        self.by_name.get(name).copied()
    }

    /// Finds the variant of `function` at `drive`, if characterized.
    pub fn variant(&self, function: Function, drive: DriveStrength) -> Option<LibCellId> {
        self.find(&format!("{}_{}", function.short_name(), drive))
    }

    /// Number of characterized cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LibCellId, &LibCell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (LibCellId::new(i), c))
    }

    /// The upsized variant of `id` (same function, next drive), if any.
    pub fn upsized(&self, id: LibCellId) -> Option<LibCellId> {
        let c = self.cell(id);
        c.drive.upsize().and_then(|d| self.variant(c.function, d))
    }

    /// The downsized variant of `id` (same function, previous drive), if any.
    pub fn downsized(&self, id: LibCellId) -> Option<LibCellId> {
        let c = self.cell(id);
        c.drive.downsize().and_then(|d| self.variant(c.function, d))
    }

    /// A copy of this library with every *path delay* quantity scaled by
    /// `factor` — the cheap way to model a PVT corner (slow corner
    /// `factor > 1`, fast corner `factor < 1`). Cell delays, slews, and
    /// wire delays scale; setup/hold check windows deliberately do not
    /// (they are signoff margins, and keeping them fixed is what makes
    /// the fast corner hold-critical: the data path's positive hold
    /// margin shrinks by `factor` against an unscaled requirement).
    /// Capacitance, area, and leakage are corner-independent here.
    pub fn scale_delays(&self, factor: f64) -> Library {
        assert!(factor > 0.0, "delay scale must be positive");
        let mut scaled = self.clone();
        for cell in &mut scaled.cells {
            cell.intrinsic *= factor;
            cell.drive_res *= factor;
            cell.slew_intrinsic *= factor;
            cell.slew_res *= factor;
        }
        scaled.wire_delay_per_um *= factor;
        scaled.wire_delay_per_um2 *= factor;
        scaled
    }

    /// The standard library used throughout the reproduction: every
    /// characterized [`Function`] at drives X1–X8, plus port pseudo-cells.
    ///
    /// Characterization numbers are loosely modelled on a 45 nm educational
    /// PDK; the absolute values are unimportant, only that the sizing
    /// trade-offs (speed vs. area/leakage/cap) are realistic.
    pub fn standard() -> Self {
        let mut lib = Library::new("std45");
        // Port pseudo-cells: zero-delay anchors for primary I/O.
        lib.add(LibCell {
            name: "IN_PORT".to_owned(),
            function: Function::Input,
            drive: DriveStrength::X1,
            area: 0.0,
            leakage: 0.0,
            input_cap: 0.0,
            intrinsic: 0.0,
            drive_res: 0.0,
            slew_sens: 0.0,
            slew_intrinsic: 10.0,
            slew_res: 0.0,
            max_load: f64::INFINITY,
            setup: 0.0,
            hold: 0.0,
        });
        lib.add(LibCell {
            name: "OUT_PORT".to_owned(),
            function: Function::Output,
            drive: DriveStrength::X1,
            area: 0.0,
            leakage: 0.0,
            input_cap: 2.0,
            intrinsic: 0.0,
            drive_res: 0.0,
            slew_sens: 0.0,
            slew_intrinsic: 0.0,
            slew_res: 0.0,
            max_load: f64::INFINITY,
            setup: 0.0,
            hold: 0.0,
        });
        // (base intrinsic ps, base drive_res ps/fF, base cap fF, base area µm², base leak nW)
        let base: &[(Function, f64, f64, f64, f64, f64)] = &[
            (Function::Buf, 28.0, 5.2, 1.6, 1.06, 12.0),
            (Function::Inv, 16.0, 4.6, 1.4, 0.53, 8.0),
            (Function::Nand2, 22.0, 5.8, 1.7, 0.80, 14.0),
            (Function::Nor2, 26.0, 6.4, 1.8, 0.80, 15.0),
            (Function::And2, 34.0, 5.6, 1.7, 1.06, 18.0),
            (Function::Or2, 36.0, 5.9, 1.8, 1.06, 19.0),
            (Function::Xor2, 48.0, 7.2, 2.2, 1.60, 26.0),
            (Function::Mux2, 44.0, 6.8, 2.0, 1.86, 24.0),
            (Function::Aoi21, 30.0, 6.6, 1.9, 1.33, 20.0),
            (Function::Dff, 95.0, 6.0, 1.8, 4.52, 60.0),
            (Function::ClkBuf, 24.0, 4.0, 2.2, 1.33, 16.0),
        ];
        for &(function, intrinsic, res, cap, area, leak) in base {
            for &drive in DriveStrength::ladder() {
                let f = drive.factor();
                lib.add(LibCell {
                    name: format!("{}_{}", function.short_name(), drive),
                    function,
                    drive,
                    area: area * (0.6 + 0.4 * f),
                    leakage: leak * f,
                    input_cap: cap * (0.7 + 0.3 * f),
                    // Larger drives are marginally faster unloaded and much
                    // faster under load.
                    intrinsic: intrinsic * (1.0 - 0.03 * (f - 1.0)).max(0.75),
                    drive_res: res / f,
                    slew_sens: 0.04,
                    slew_intrinsic: 18.0 / f.sqrt(),
                    slew_res: 3.0 / f,
                    max_load: 24.0 * f,
                    setup: if function == Function::Dff { 32.0 } else { 0.0 },
                    hold: if function == Function::Dff { 8.0 } else { 0.0 },
                });
            }
        }
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_all_variants() {
        let lib = Library::standard();
        let characterized = [
            Function::Buf,
            Function::Inv,
            Function::Nand2,
            Function::Nor2,
            Function::And2,
            Function::Or2,
            Function::Xor2,
            Function::Mux2,
            Function::Aoi21,
            Function::Dff,
            Function::ClkBuf,
        ];
        for f in characterized {
            for &d in DriveStrength::ladder() {
                let id = lib
                    .variant(f, d)
                    .unwrap_or_else(|| panic!("missing {f}_{d}"));
                assert_eq!(lib.cell(id).function, f);
                assert_eq!(lib.cell(id).drive, d);
            }
        }
        // 2 ports + 11 functions × 4 drives
        assert_eq!(lib.len(), 2 + 11 * 4);
    }

    #[test]
    fn delay_decreases_with_drive_under_load() {
        let lib = Library::standard();
        let x1 = lib.cell(lib.variant(Function::Nand2, DriveStrength::X1).unwrap());
        let x4 = lib.cell(lib.variant(Function::Nand2, DriveStrength::X4).unwrap());
        let load = 12.0;
        let slew = 20.0;
        assert!(x4.delay(load, slew) < x1.delay(load, slew));
        // ...while costing more area and leakage.
        assert!(x4.area > x1.area);
        assert!(x4.leakage > x1.leakage);
        assert!(x4.input_cap > x1.input_cap);
    }

    #[test]
    fn slew_model_monotone_in_load() {
        let lib = Library::standard();
        let c = lib.cell(lib.variant(Function::Buf, DriveStrength::X2).unwrap());
        assert!(c.output_slew(10.0) > c.output_slew(1.0));
    }

    #[test]
    fn upsize_downsize_ladder() {
        let lib = Library::standard();
        let x1 = lib.variant(Function::Inv, DriveStrength::X1).unwrap();
        let x2 = lib.upsized(x1).unwrap();
        assert_eq!(lib.cell(x2).drive, DriveStrength::X2);
        assert_eq!(lib.downsized(x2), Some(x1));
        assert_eq!(lib.downsized(x1), None);
        let x8 = lib.variant(Function::Inv, DriveStrength::X8).unwrap();
        assert_eq!(lib.upsized(x8), None);
    }

    #[test]
    fn drive_strength_ladder_is_ordered() {
        let ladder = DriveStrength::ladder();
        for pair in ladder.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(pair[0].factor() < pair[1].factor());
            assert_eq!(pair[0].upsize(), Some(pair[1]));
            assert_eq!(pair[1].downsize(), Some(pair[0]));
        }
    }

    #[test]
    fn arity_matches_function() {
        assert_eq!(Function::Input.arity(), 0);
        assert_eq!(Function::Inv.arity(), 1);
        assert_eq!(Function::Nand2.arity(), 2);
        assert_eq!(Function::Mux2.arity(), 3);
        assert_eq!(Function::Dff.arity(), 2);
        assert!(Function::Dff.is_sequential());
        assert!(!Function::Dff.is_combinational());
        assert!(Function::Nand2.is_combinational());
        assert!(Function::Input.is_port());
        assert!(!Function::ClkBuf.is_port());
    }

    #[test]
    fn ff_has_setup_and_hold() {
        let lib = Library::standard();
        let ff = lib.cell(lib.variant(Function::Dff, DriveStrength::X1).unwrap());
        assert!(ff.setup > 0.0);
        assert!(ff.hold > 0.0);
        assert!(ff.hold < ff.setup);
        let inv = lib.cell(lib.variant(Function::Inv, DriveStrength::X1).unwrap());
        assert_eq!(inv.setup, 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate library cell")]
    fn duplicate_names_panic() {
        let mut lib = Library::standard();
        lib.add(LibCell {
            name: "INV_X1".to_owned(),
            function: Function::Inv,
            drive: DriveStrength::X1,
            area: 1.0,
            leakage: 1.0,
            input_cap: 1.0,
            intrinsic: 1.0,
            drive_res: 1.0,
            slew_sens: 0.0,
            slew_intrinsic: 1.0,
            slew_res: 0.0,
            max_load: 1.0,
            setup: 0.0,
            hold: 0.0,
        });
    }

    #[test]
    fn find_by_name() {
        let lib = Library::standard();
        assert!(lib.find("NAND2_X4").is_some());
        assert!(lib.find("NAND3_X4").is_none());
        assert!(!lib.is_empty());
        assert_eq!(lib.name(), "std45");
        assert_eq!(lib.iter().count(), lib.len());
    }
}
