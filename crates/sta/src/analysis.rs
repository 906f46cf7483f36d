//! The core STA engine: graph-based arrival/required propagation, setup
//! and hold slacks, per-gate AOCV derates, mGBA weight application, and
//! incremental update after netlist modification.
//!
//! One [`Sta`] owns its netlist. Every timing update — a resize, a weight
//! install, a full update — runs one dirty-cell sweep: the caller marks
//! the cells whose inputs it changed, a forward pass in topological order
//! re-evaluates marked cells and marks the fanouts of any whose values
//! changed, and a backward pass does the same for required times. Values
//! are compared bit for bit, so every update leaves the engine identical
//! to a [`Sta::full_update`] of the same netlist and weights.

use crate::aocv::DerateSet;
use crate::constraints::Sdc;
use crate::depth::DepthInfo;
use crate::graph::TimingGraph;
use netlist::{BuildError, CellId, CellRole, LibCellId, NetId, Netlist, PinIndex};

/// Counters describing how much work timing updates performed; used by the
/// benchmark harness to demonstrate the value of incremental update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Whole-graph updates: [`Sta::new`], [`Sta::full_update`] and the
    /// rebuild after [`Sta::insert_buffer`].
    pub full_updates: u64,
    /// Dirty-cell sweeps: one per [`Sta::resize_cell`] and one per weight
    /// install that changed at least one weight.
    pub incremental_updates: u64,
    /// Cell evaluations (forward plus backward) across those sweeps.
    pub cells_propagated: u64,
}

/// Cells one sweep direction must re-evaluate, as bits on topological
/// positions packed 64 to a word; every mark lies in `lo..hi`. Sized by
/// [`Marks::mark_all`].
#[derive(Clone, Default)]
struct Marks {
    words: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl Marks {
    fn mark(&mut self, pos: usize) {
        if self.lo == self.hi {
            (self.lo, self.hi) = (pos, pos);
        }
        (self.lo, self.hi) = (self.lo.min(pos), self.hi.max(pos + 1));
        self.words[pos / 64] |= 1 << (pos % 64);
    }

    fn mark_all(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), u64::MAX);
        if !n.is_multiple_of(64) {
            self.words[n / 64] = (1 << (n % 64)) - 1;
        }
        (self.lo, self.hi) = (0, n);
    }

    /// Unmarks and returns the lowest marked position, or the highest
    /// with `last`, skipping whole unmarked words.
    fn pop(&mut self, last: bool) -> Option<usize> {
        if self.lo >= self.hi {
            return None;
        }
        // Every mark lies in `lo..hi`, so the end words need no masking.
        let mut words = self.lo / 64..=(self.hi - 1) / 64;
        let found = if last {
            words.rev().find_map(|w| {
                let bits = self.words[w];
                (bits != 0).then(|| w * 64 + 63 - bits.leading_zeros() as usize)
            })
        } else {
            words.find_map(|w| {
                let bits = self.words[w];
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })
        };
        match found {
            Some(pos) => {
                self.words[pos / 64] &= !(1 << (pos % 64));
                if last {
                    self.hi = pos;
                } else {
                    self.lo = pos + 1;
                }
            }
            None => self.lo = self.hi,
        }
        found
    }
}

/// Graph-based static timing analysis over an owned netlist.
#[derive(Clone)]
pub struct Sta {
    netlist: Netlist,
    sdc: Sdc,
    derates: DerateSet,
    graph: TimingGraph,
    depth: DepthInfo,
    /// mGBA per-gate weight corrections `x_j`; effective derate is
    /// `λ_j · (1 + x_j)` clamped to at least 1.
    weights: Vec<f64>,

    // Characterization (recomputed on sizing).
    load: Vec<f64>,
    fixed_delay: Vec<f64>,
    slew_sens: Vec<f64>,
    slew_out: Vec<f64>,
    gba_delay: Vec<f64>,
    derate_late: Vec<f64>,
    derate_early: Vec<f64>,

    // Clock network arrivals (at cell output; for flip-flops: at CK pin).
    clk_late: Vec<f64>,
    clk_early: Vec<f64>,
    clock_path: Vec<Vec<CellId>>,

    // Data timing (at cell output).
    arrival_late: Vec<f64>,
    arrival_early: Vec<f64>,
    required_late: Vec<f64>,

    /// Cells re-evaluated by the forward pass of the most recent resize
    /// (empty after a full update or a weight install). See
    /// [`Sta::last_touched`].
    last_touched: Vec<CellId>,
    /// The part of `last_touched` whose path-timing inputs changed. See
    /// [`Sta::last_changed`].
    last_changed: Vec<CellId>,
    /// Setup endpoints in [`Netlist::endpoints`] order, rebuilt with the
    /// graph.
    endpoints: Vec<CellId>,
    // Sweep marks (see `Sta::sweep`), all clear between updates.
    dirty_fwd: Marks,
    dirty_bwd: Marks,

    /// Update effort counters.
    pub stats: UpdateStats,
}

impl Sta {
    /// Builds the engine and runs a full timing update.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the netlist fails structural validation
    /// (most notably combinational cycles).
    pub fn new(netlist: Netlist, sdc: Sdc, derates: DerateSet) -> Result<Self, BuildError> {
        let n = netlist.num_cells();
        let graph = TimingGraph::new(&netlist)?;
        let depth = DepthInfo::compute(&netlist, &graph);
        let endpoints = netlist.endpoints();
        let mut sta = Self {
            netlist,
            sdc,
            derates,
            graph,
            depth,
            weights: vec![0.0; n],
            load: vec![0.0; n],
            fixed_delay: vec![0.0; n],
            slew_sens: vec![0.0; n],
            slew_out: vec![0.0; n],
            gba_delay: vec![0.0; n],
            derate_late: vec![1.0; n],
            derate_early: vec![1.0; n],
            clk_late: vec![f64::NEG_INFINITY; n],
            clk_early: vec![f64::INFINITY; n],
            clock_path: vec![Vec::new(); n],
            arrival_late: vec![f64::NEG_INFINITY; n],
            arrival_early: vec![f64::INFINITY; n],
            required_late: vec![f64::INFINITY; n],
            last_touched: Vec::new(),
            last_changed: Vec::new(),
            endpoints,
            dirty_fwd: Marks::default(),
            dirty_bwd: Marks::default(),
            stats: UpdateStats::default(),
        };
        sta.full_update();
        Ok(sta)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The analyzed netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The timing constraints.
    pub fn sdc(&self) -> &Sdc {
        &self.sdc
    }

    /// The derate configuration.
    pub fn derates(&self) -> &DerateSet {
        &self.derates
    }

    /// The structural timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The GBA depth/distance analysis.
    pub fn depth_info(&self) -> &DepthInfo {
        &self.depth
    }

    /// Underated worst-slew delay of `cell`, ps (the paper's `d_j`).
    #[inline]
    pub fn gate_delay(&self, cell: CellId) -> f64 {
        self.gba_delay[cell.index()]
    }

    /// GBA AOCV derate of `cell` (the paper's `λ_j`), before weights.
    #[inline]
    pub fn gate_derate(&self, cell: CellId) -> f64 {
        self.derate_late[cell.index()]
    }

    /// Current mGBA weight `x_j` of `cell`.
    #[inline]
    pub fn gate_weight(&self, cell: CellId) -> f64 {
        self.weights[cell.index()]
    }

    /// Effective late derate: `λ_j · (1 + x_j)` for combinational cells
    /// and flip-flop clock-to-Q arcs — both are "delay units" the paper
    /// weights (a launch-flop weight is also what lets the fit absorb
    /// per-launch CRPR pessimism). Clamped to be non-negative: a weight
    /// can remove derating and slew/CRPR pessimism entirely, but never
    /// make a delay negative. Clock-network cells and ports keep their
    /// fixed derates.
    #[inline]
    pub fn effective_derate(&self, cell: CellId) -> f64 {
        let i = cell.index();
        match self.netlist.cell(cell).role {
            CellRole::Combinational | CellRole::Sequential => {
                (self.derate_late[i] * (1.0 + self.weights[i])).max(0.0)
            }
            _ => self.derate_late[i],
        }
    }

    /// Late (max) data arrival at `cell`'s output, ps.
    #[inline]
    pub fn arrival_late(&self, cell: CellId) -> f64 {
        self.arrival_late[cell.index()]
    }

    /// Early (min) data arrival at `cell`'s output, ps.
    #[inline]
    pub fn arrival_early(&self, cell: CellId) -> f64 {
        self.arrival_early[cell.index()]
    }

    /// Late required time at `cell`'s output, ps.
    #[inline]
    pub fn required_late(&self, cell: CellId) -> f64 {
        self.required_late[cell.index()]
    }

    /// Worst-slew output transition of `cell`, ps.
    #[inline]
    pub fn slew(&self, cell: CellId) -> f64 {
        self.slew_out[cell.index()]
    }

    /// Load-dependent part of `cell`'s delay (no slew term), ps.
    #[inline]
    pub fn fixed_delay(&self, cell: CellId) -> f64 {
        self.fixed_delay[cell.index()]
    }

    /// Slew sensitivity of `cell`'s delay, ps/ps.
    #[inline]
    pub fn slew_sensitivity(&self, cell: CellId) -> f64 {
        self.slew_sens[cell.index()]
    }

    /// Late clock arrival at a flip-flop's CK pin (or a clock cell's
    /// output), ps.
    #[inline]
    pub fn clock_arrival_late(&self, cell: CellId) -> f64 {
        self.clk_late[cell.index()]
    }

    /// Early clock arrival, ps.
    #[inline]
    pub fn clock_arrival_early(&self, cell: CellId) -> f64 {
        self.clk_early[cell.index()]
    }

    /// The chain of clock cells (source, buffers) feeding a flip-flop.
    pub fn clock_path(&self, ff: CellId) -> &[CellId] {
        &self.clock_path[ff.index()]
    }

    /// Every cell re-evaluated by the forward pass of the most recent
    /// [`Sta::resize_cell`], sorted by cell index and duplicate-free.
    ///
    /// Any cell *not* in this set kept its delay, slew, arrivals and clock
    /// arrivals bit for bit, so clients use it to invalidate caches of
    /// per-cell timing (e.g. the mGBA fit-matrix rows). Full updates and
    /// weight installs clear it, after which *all* cells must be
    /// considered touched: an empty set means "nothing moved" only
    /// immediately after a resize.
    pub fn last_touched(&self) -> &[CellId] {
        &self.last_touched
    }

    /// The cells of [`Sta::last_touched`] whose values path timing reads
    /// changed, sorted by cell index and duplicate-free: the resized cell
    /// and the drivers of its inputs (re-characterized: their loads,
    /// delays and slews moved), and every cell whose delay or clock
    /// arrivals changed bit for bit.
    ///
    /// [`gba_path_timing`](crate::gba_path_timing) and
    /// [`pba_timing`](crate::pba_timing) read only those per-cell values
    /// of a path's cells and of its launch and capture clock paths (plus
    /// structural and weight data a resize leaves alone). So a path none
    /// of whose cells or clock-path cells is in this set keeps its
    /// timing bit for bit. Cleared like `last_touched`.
    pub fn last_changed(&self) -> &[CellId] {
        &self.last_changed
    }

    /// Every setup endpoint (flip-flop `D` pins and output ports), in
    /// [`Netlist::endpoints`] order.
    pub fn endpoints(&self) -> &[CellId] {
        &self.endpoints
    }

    // ------------------------------------------------------------------
    // Endpoint timing
    // ------------------------------------------------------------------

    /// Late data arrival at the endpoint's input pin (FF `D` or output
    /// port), ps. Computed on demand from the driver's propagated arrival,
    /// because in dependency order the `D` driver is evaluated *after* the
    /// flip-flop itself.
    pub fn endpoint_arrival(&self, endpoint: CellId) -> f64 {
        self.graph
            .data_fanins(&self.netlist, endpoint)
            .map(|e| self.arrival_late[e.from.index()] + e.wire_delay)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Early data arrival at the endpoint's input pin, ps.
    pub fn endpoint_arrival_early(&self, endpoint: CellId) -> f64 {
        self.graph
            .data_fanins(&self.netlist, endpoint)
            .map(|e| self.arrival_early[e.from.index()] + e.wire_delay)
            .fold(f64::INFINITY, f64::min)
    }

    /// Setup required time at an endpoint under GBA (no CRPR credit):
    /// for a flip-flop, `T + early capture clock − t_setup`; for an output
    /// port, `T − output_delay`.
    pub fn endpoint_required(&self, endpoint: CellId) -> f64 {
        let cell = self.netlist.cell(endpoint);
        match cell.role {
            CellRole::Sequential => {
                let lib = self.netlist.library().cell(cell.lib_cell);
                self.sdc.clock_period + self.clk_early[endpoint.index()] - lib.setup
            }
            CellRole::Output => self.sdc.clock_period - self.sdc.output_delay,
            _ => f64::INFINITY,
        }
    }

    /// GBA setup slack at `endpoint`, ps. Positive means timing is met.
    pub fn setup_slack(&self, endpoint: CellId) -> f64 {
        self.endpoint_required(endpoint) - self.endpoint_arrival(endpoint)
    }

    /// GBA hold slack at a flip-flop endpoint, or `None` for ports.
    pub fn hold_slack(&self, endpoint: CellId) -> Option<f64> {
        let cell = self.netlist.cell(endpoint);
        if cell.role != CellRole::Sequential {
            return None;
        }
        let lib = self.netlist.library().cell(cell.lib_cell);
        Some(self.endpoint_arrival_early(endpoint) - (self.clk_late[endpoint.index()] + lib.hold))
    }

    /// Worst (most negative) setup slack over all endpoints, ps.
    pub fn wns(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&e| self.setup_slack(e))
            .filter(|s| s.is_finite())
            .fold(f64::INFINITY, f64::min)
    }

    /// Total negative setup slack over all endpoints, ps (≤ 0).
    pub fn tns(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|&e| self.setup_slack(e))
            .filter(|s| s.is_finite() && *s < 0.0)
            .sum()
    }

    /// Endpoints with negative setup slack, worst first.
    pub fn violating_endpoints(&self) -> Vec<CellId> {
        let mut v: Vec<(CellId, f64)> = self
            .endpoints
            .iter()
            .map(|&e| (e, self.setup_slack(e)))
            .filter(|(_, s)| s.is_finite() && *s < 0.0)
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("slacks are finite"));
        v.into_iter().map(|(e, _)| e).collect()
    }

    /// Clock-reconvergence pessimism credit between a launch and capture
    /// flip-flop: the late/early delay disagreement accumulated on the
    /// shared prefix of their clock paths. Zero unless both are flip-flops.
    pub fn crpr_credit(&self, launch: CellId, capture: CellId) -> f64 {
        if self.netlist.cell(launch).role != CellRole::Sequential
            || self.netlist.cell(capture).role != CellRole::Sequential
        {
            return 0.0;
        }
        let a = &self.clock_path[launch.index()];
        let b = &self.clock_path[capture.index()];
        let mut credit = 0.0;
        for (x, y) in a.iter().zip(b.iter()) {
            if x != y {
                break;
            }
            credit +=
                self.gba_delay[x.index()] * (self.derates.clock_late - self.derates.clock_early);
        }
        credit
    }

    /// Retargets the engine to clock period `period`, ps. Arrivals,
    /// delays and slews do not read the period, so only the backward
    /// (required-time) half of the sweep runs, over every cell, leaving
    /// the engine bit-identical to a [`Sta::full_update`] at `period`.
    /// `stats` is unchanged, so a fresh engine retargeted equals
    /// [`Sta::new`] at `period`. Clears [`Sta::last_touched`] and
    /// [`Sta::last_changed`].
    pub fn set_period(&mut self, period: f64) {
        self.sdc.clock_period = period;
        self.dirty_bwd.mark_all(self.netlist.num_cells());
        self.sweep();
    }

    // ------------------------------------------------------------------
    // mGBA weights
    // ------------------------------------------------------------------

    /// Installs mGBA weight corrections (one per cell; only combinational
    /// cells and flip-flop launch arcs are affected) and re-times the
    /// cones of the cells whose weight bits changed, returning at once if
    /// none did. Clears [`Sta::last_touched`] and [`Sta::last_changed`].
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != netlist.num_cells()`.
    pub fn set_weights(&mut self, weights: &[f64]) {
        assert_eq!(
            weights.len(),
            self.netlist.num_cells(),
            "one weight per cell required"
        );
        self.install(|i| weights[i]);
    }

    /// Clears all weights (back to original GBA), re-timing only the
    /// cones of the cells that carried one (see [`Sta::set_weights`]).
    pub fn clear_weights(&mut self) {
        self.install(|_| 0.0);
    }

    /// Sets cell `i`'s weight to `weight(i)`, marking each cell whose
    /// bits changed forward and its fanins backward (their required times
    /// read its effective derate), and sweeps if any changed.
    fn install(&mut self, weight: impl Fn(usize) -> f64) {
        let mut dirty = false;
        for i in 0..self.weights.len() {
            let (c, w) = (CellId::new(i), weight(i));
            if self.weights[i].to_bits() != w.to_bits() {
                self.weights[i] = w;
                self.dirty_fwd.mark(self.graph.topo_pos(c));
                self.mark_fanins(c);
                dirty = true;
            }
        }
        if dirty {
            self.incremental_sweep();
        }
        self.last_touched.clear();
        self.last_changed.clear();
    }

    // ------------------------------------------------------------------
    // Mutation + incremental update
    // ------------------------------------------------------------------

    /// Resizes `cell` to `new_lib` and incrementally updates timing.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::WrongFunction`] from the netlist.
    pub fn resize_cell(&mut self, cell: CellId, new_lib: LibCellId) -> Result<(), BuildError> {
        self.netlist.set_lib_cell(cell, new_lib)?;
        // Re-characterize the resized cell and the drivers of its inputs
        // (their loads include its input capacitance). The drivers'
        // required times re-read the cell's setup time.
        self.recharacterize(cell);
        for k in 0..self.graph.fanins(cell).len() {
            self.recharacterize(self.graph.fanins(cell)[k].from);
        }
        self.mark_fanins(cell);
        self.incremental_sweep();
        self.last_touched.sort_unstable_by_key(|c| c.index());
        self.last_changed.push(cell);
        self.last_changed
            .extend(self.graph.fanins(cell).iter().map(|e| e.from));
        self.last_changed.sort_unstable_by_key(|c| c.index());
        self.last_changed.dedup();
        Ok(())
    }

    /// Re-characterizes `c` and marks it and its fanouts: its output slew
    /// moved, which `evaluate` does not compare.
    fn recharacterize(&mut self, c: CellId) {
        self.characterize(c);
        self.dirty_fwd.mark(self.graph.topo_pos(c));
        self.mark_fanouts(c);
    }

    /// Inserts a buffer on `net` (see [`Netlist::insert_buffer`]) and
    /// rebuilds timing. This is a structural change, so depths, bounding
    /// boxes and the graph are recomputed; existing weights are preserved
    /// and the new buffer starts with weight 0.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors; the timing state is unchanged on error.
    pub fn insert_buffer(
        &mut self,
        net: NetId,
        buf_lib: LibCellId,
        name: &str,
        moved_sinks: &[(CellId, PinIndex)],
    ) -> Result<CellId, BuildError> {
        let buf = self
            .netlist
            .insert_buffer(net, buf_lib, name, moved_sinks)?;
        self.rebuild_structure()?;
        Ok(buf)
    }

    /// Rebuilds all structural caches after an external netlist change and
    /// runs a full update.
    fn rebuild_structure(&mut self) -> Result<(), BuildError> {
        let n = self.netlist.num_cells();
        self.graph = TimingGraph::new(&self.netlist)?;
        self.depth = DepthInfo::compute(&self.netlist, &self.graph);
        self.endpoints = self.netlist.endpoints();
        self.weights.resize(n, 0.0);
        for v in [
            &mut self.load,
            &mut self.fixed_delay,
            &mut self.slew_sens,
            &mut self.slew_out,
            &mut self.gba_delay,
        ] {
            v.resize(n, 0.0);
        }
        self.derate_late.resize(n, 1.0);
        self.derate_early.resize(n, 1.0);
        self.clk_late.resize(n, f64::NEG_INFINITY);
        self.clk_early.resize(n, f64::INFINITY);
        self.clock_path.resize(n, Vec::new());
        self.arrival_late.resize(n, f64::NEG_INFINITY);
        self.arrival_early.resize(n, f64::INFINITY);
        self.required_late.resize(n, f64::INFINITY);
        self.full_update();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internal propagation
    // ------------------------------------------------------------------

    /// Recomputes load, fixed delay, slew model parameters of one cell.
    fn characterize(&mut self, c: CellId) {
        let i = c.index();
        let cell = self.netlist.cell(c);
        let lib = self.netlist.library().cell(cell.lib_cell);
        self.load[i] = cell
            .output
            .map(|net| self.netlist.net_load(net))
            .unwrap_or(0.0);
        self.fixed_delay[i] = lib.intrinsic + lib.drive_res * self.load[i];
        self.slew_sens[i] = lib.slew_sens;
        self.slew_out[i] = lib.output_slew(self.load[i]);
    }

    /// Computes the AOCV derates of one cell from the depth analysis.
    fn derate(&mut self, c: CellId) {
        let d = &self.derates;
        (self.derate_late[c.index()], self.derate_early[c.index()]) =
            match (self.netlist.cell(c).role, self.depth.gba_depth(c)) {
                (CellRole::Combinational, Some(k)) => {
                    let dist = self.depth.gba_distance(c);
                    (
                        d.data_late.lookup(k as f64, dist),
                        d.data_early.lookup(k as f64, dist),
                    )
                }
                (CellRole::Sequential | CellRole::ClockBuffer | CellRole::ClockSource, _) => {
                    (d.clock_late, d.clock_early)
                }
                // Ports, and dead logic with no complete path, are not derated.
                _ => (1.0, 1.0),
            };
    }

    /// Worst (max) input slew seen by `c` under GBA slew propagation:
    /// combinational cells take the max over all data fanins; flip-flops
    /// the slew of their clock driver.
    fn worst_input_slew(&self, c: CellId) -> f64 {
        match self.netlist.cell(c).role {
            CellRole::Sequential => self
                .graph
                .clock_fanin(&self.netlist, c)
                .map(|e| self.slew_out[e.from.index()])
                .unwrap_or(0.0),
            CellRole::ClockBuffer => self
                .graph
                .fanins(c)
                .first()
                .map(|e| self.slew_out[e.from.index()])
                .unwrap_or(0.0),
            _ => self
                .graph
                .data_fanins(&self.netlist, c)
                .map(|e| self.slew_out[e.from.index()])
                .fold(0.0, f64::max),
        }
    }

    /// Re-evaluates one cell's forward values from its fanins. Returns
    /// whether, bit for bit, a value its fanouts read changed (arrivals,
    /// clock arrivals), whether a value its fanins' required times read
    /// changed (delay, early clock arrival), and whether a value path
    /// timing reads changed (clock arrivals, delay).
    fn evaluate(&mut self, c: CellId) -> (bool, bool, bool) {
        let i = c.index();
        let role = self.netlist.cell(c).role;
        let values = |s: &Self| {
            [
                s.arrival_late[i],
                s.arrival_early[i],
                s.clk_late[i],
                s.clk_early[i],
                s.gba_delay[i],
            ]
            .map(f64::to_bits)
        };
        let old = values(self);

        self.gba_delay[i] = match role {
            CellRole::Input | CellRole::Output | CellRole::ClockSource => 0.0,
            _ => self.fixed_delay[i] + self.slew_sens[i] * self.worst_input_slew(c),
        };

        match role {
            CellRole::Input => {
                self.arrival_late[i] = self.sdc.input_delay_late;
                self.arrival_early[i] = self.sdc.input_delay_early;
            }
            CellRole::ClockSource => {
                self.clk_late[i] = 0.0;
                self.clk_early[i] = 0.0;
                self.arrival_late[i] = 0.0;
                self.arrival_early[i] = 0.0;
            }
            CellRole::ClockBuffer => {
                if let Some(e) = self.graph.fanins(c).first() {
                    let d = self.gba_delay[i];
                    self.clk_late[i] =
                        self.clk_late[e.from.index()] + e.wire_delay + d * self.derates.clock_late;
                    self.clk_early[i] = self.clk_early[e.from.index()]
                        + e.wire_delay
                        + d * self.derates.clock_early;
                    self.arrival_late[i] = self.clk_late[i];
                    self.arrival_early[i] = self.clk_early[i];
                }
            }
            CellRole::Sequential => {
                if let Some(e) = self.graph.clock_fanin(&self.netlist, c) {
                    self.clk_late[i] = self.clk_late[e.from.index()] + e.wire_delay;
                    self.clk_early[i] = self.clk_early[e.from.index()] + e.wire_delay;
                }
                let d = self.gba_delay[i];
                self.arrival_late[i] = self.clk_late[i] + d * self.effective_derate(c);
                self.arrival_early[i] = self.clk_early[i] + d * self.derates.clock_early;
            }
            CellRole::Output => {
                let (mut dl, mut de) = (f64::NEG_INFINITY, f64::INFINITY);
                for e in self.graph.data_fanins(&self.netlist, c) {
                    dl = dl.max(self.arrival_late[e.from.index()] + e.wire_delay);
                    de = de.min(self.arrival_early[e.from.index()] + e.wire_delay);
                }
                self.arrival_late[i] = dl;
                self.arrival_early[i] = de;
            }
            CellRole::Combinational => {
                let (mut al, mut ae) = (f64::NEG_INFINITY, f64::INFINITY);
                for e in self.graph.data_fanins(&self.netlist, c) {
                    al = al.max(self.arrival_late[e.from.index()] + e.wire_delay);
                    ae = ae.min(self.arrival_early[e.from.index()] + e.wire_delay);
                }
                let d = self.gba_delay[i];
                self.arrival_late[i] = al + d * self.effective_derate(c);
                self.arrival_early[i] = ae + d * self.derate_early[i];
            }
        }

        let new = values(self);
        (
            old[..4] != new[..4],
            old[3..] != new[3..],
            old[2..] != new[2..],
        )
    }

    /// Recomputes one cell's late required time from its fanouts.
    /// Returns `true` if it changed bit for bit.
    fn evaluate_required(&mut self, c: CellId) -> bool {
        let role = self.netlist.cell(c).role;
        if role == CellRole::Output || self.graph.in_clock_network(c) {
            return false;
        }
        let req = self
            .graph
            .data_fanouts(&self.netlist, c)
            .map(|e| match self.netlist.cell(e.to).role {
                CellRole::Sequential | CellRole::Output => {
                    self.endpoint_required(e.to) - e.wire_delay
                }
                CellRole::Combinational => {
                    self.required_late[e.to.index()]
                        - self.gba_delay[e.to.index()] * self.effective_derate(e.to)
                        - e.wire_delay
                }
                _ => f64::INFINITY,
            })
            .fold(f64::INFINITY, f64::min);
        let old = std::mem::replace(&mut self.required_late[c.index()], req);
        old.to_bits() != req.to_bits()
    }

    /// Full timing update: characterize and derate every cell, then
    /// propagate arrivals forward and required times backward.
    pub fn full_update(&mut self) {
        let _span = obs::span("sta_full_update");
        for i in 0..self.netlist.num_cells() {
            let c = CellId::new(i);
            self.characterize(c);
            self.derate(c);
        }
        self.compute_clock_paths();
        self.dirty_fwd.mark_all(self.netlist.num_cells());
        self.dirty_bwd.mark_all(self.netlist.num_cells());
        self.sweep();
        self.last_touched.clear();
        self.last_changed.clear();
        self.stats.full_updates += 1;
        obs::counter_add("sta.update.full", 1);
    }

    fn compute_clock_paths(&mut self) {
        for i in 0..self.netlist.num_cells() {
            let c = CellId::new(i);
            if self.netlist.cell(c).role != CellRole::Sequential {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = self.graph.clock_fanin(&self.netlist, c).map(|e| e.from);
            while let Some(cc) = cur {
                chain.push(cc);
                cur = match self.netlist.cell(cc).role {
                    CellRole::ClockBuffer => self.graph.fanins(cc).first().map(|e| e.from),
                    _ => None,
                };
            }
            chain.reverse(); // source first
            self.clock_path[i] = chain;
        }
    }

    /// Runs [`Sta::sweep`] over the caller's marks and counts it as one
    /// incremental update.
    fn incremental_sweep(&mut self) {
        let evaluated = self.sweep();
        self.stats.incremental_updates += 1;
        self.stats.cells_propagated += evaluated;
        obs::counter_add("sta.update.incremental", 1);
        obs::counter_add("sta.update.cells_propagated", evaluated);
    }

    /// Re-evaluates the marked cells forward in topological order (see
    /// `evaluate` for what marks their fanouts and fanins), then their
    /// required times backward. Leaves the forward set, in topological
    /// order, in `last_touched`, and its cells whose path-timing values
    /// changed in `last_changed`; returns the number of evaluations.
    fn sweep(&mut self) -> u64 {
        self.last_touched.clear();
        self.last_changed.clear();
        while let Some(pos) = self.dirty_fwd.pop(false) {
            let c = self.graph.topo()[pos];
            self.last_touched.push(c);
            let (fanouts, fanins, changed) = self.evaluate(c);
            if changed {
                self.last_changed.push(c);
            }
            if fanouts {
                self.mark_fanouts(c);
            }
            if fanins {
                self.mark_fanins(c);
            }
        }
        let mut evaluated = self.last_touched.len() as u64;
        while let Some(pos) = self.dirty_bwd.pop(true) {
            let c = self.graph.topo()[pos];
            evaluated += 1;
            // Only a combinational cell's required time is read by its
            // fanins (a flip-flop's D driver reads its setup constraint).
            if self.evaluate_required(c) && self.netlist.cell(c).role == CellRole::Combinational {
                self.mark_fanins(c);
            }
        }
        evaluated
    }

    /// Marks forward the fanouts whose values read `c`. A flip-flop's `D`
    /// pin is an endpoint, not a dependency: its driver comes after it.
    fn mark_fanouts(&mut self, c: CellId) {
        for e in self.graph.fanouts(c) {
            if self.netlist.cell(e.to).role != CellRole::Sequential || e.pin == PinIndex::FF_CK {
                self.dirty_fwd.mark(self.graph.topo_pos(e.to));
            }
        }
    }

    /// Marks backward the fanins of `c`, whose required times read it.
    fn mark_fanins(&mut self, c: CellId) {
        for e in self.graph.fanins(c) {
            self.dirty_bwd.mark(self.graph.topo_pos(e.from));
        }
    }
}

impl std::fmt::Debug for Sta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sta")
            .field("design", &self.netlist.name())
            .field("cells", &self.netlist.num_cells())
            .field("clock_period", &self.sdc.clock_period)
            .field("wns", &self.wns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{DriveStrength, Function, GeneratorConfig, Library, NetlistBuilder, Point};

    fn engine(seed: u64, period: f64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        Sta::new(n, Sdc::with_period(period), DerateSet::standard()).unwrap()
    }

    /// Asserts that every cell's propagated timing in `a` equals `b`'s
    /// bit for bit.
    fn assert_bit_identical(a: &Sta, b: &Sta) {
        assert_eq!(a.netlist().num_cells(), b.netlist().num_cells());
        for (id, _) in a.netlist().cells() {
            let values = |s: &Sta| {
                [
                    s.gate_delay(id),
                    s.slew(id),
                    s.arrival_late(id),
                    s.arrival_early(id),
                    s.clock_arrival_late(id),
                    s.clock_arrival_early(id),
                    s.required_late(id),
                ]
                .map(f64::to_bits)
            };
            assert_eq!(values(a), values(b), "timing differs at {id}");
        }
    }

    #[test]
    fn arrivals_are_finite_and_ordered() {
        let sta = engine(41, 2000.0);
        for e in sta.netlist().endpoints() {
            let late = sta.endpoint_arrival(e);
            assert!(late.is_finite(), "endpoint must be reached");
            let early = sta.endpoint_arrival_early(e);
            assert!(early.is_finite());
            assert!(
                early <= late + 1e-9,
                "early {early} must not exceed late {late}"
            );
        }
    }

    #[test]
    fn slack_definition_matches_components() {
        let sta = engine(42, 1500.0);
        for e in sta.netlist().endpoints() {
            let s = sta.setup_slack(e);
            assert!((s - (sta.endpoint_required(e) - sta.endpoint_arrival(e))).abs() < 1e-9);
        }
    }

    #[test]
    fn wns_and_tns_consistent() {
        let sta = engine(43, 900.0);
        let wns = sta.wns();
        let tns = sta.tns();
        assert!(tns <= 0.0);
        if wns < 0.0 {
            assert!(tns <= wns, "TNS accumulates all violations");
            assert!(!sta.violating_endpoints().is_empty());
        }
        // The worst violating endpoint realizes WNS.
        if let Some(&worst) = sta.violating_endpoints().first() {
            assert!((sta.setup_slack(worst) - wns).abs() < 1e-9);
        }
    }

    #[test]
    fn longer_period_increases_slack() {
        let slow = engine(44, 3000.0);
        let fast = engine(44, 800.0);
        assert!((slow.wns() - fast.wns() - 2200.0).abs() < 1e-6);
    }

    #[test]
    fn derates_exceed_one_for_data_gates() {
        let sta = engine(45, 1000.0);
        for (id, cell) in sta.netlist().cells() {
            if cell.role == CellRole::Combinational {
                assert!(sta.gate_derate(id) >= 1.0);
                assert!(sta.gate_delay(id) > 0.0);
            }
        }
    }

    #[test]
    fn clock_arrivals_respect_tree_depth() {
        let sta = engine(46, 1000.0);
        for (id, cell) in sta.netlist().cells() {
            if cell.role == CellRole::Sequential {
                let l = sta.clock_arrival_late(id);
                let e = sta.clock_arrival_early(id);
                assert!(l.is_finite() && e.is_finite());
                assert!(l >= e, "late clock must not beat early clock");
                assert!(!sta.clock_path(id).is_empty());
            }
        }
    }

    #[test]
    fn crpr_credit_positive_for_shared_clock_prefix() {
        let sta = engine(47, 1000.0);
        let ffs: Vec<CellId> = sta
            .netlist()
            .cells()
            .filter(|(_, c)| c.role == CellRole::Sequential)
            .map(|(id, _)| id)
            .collect();
        // Any two FFs share at least the root clock buffer in this design.
        let credit = sta.crpr_credit(ffs[0], ffs[1]);
        assert!(credit > 0.0);
        // Identical FFs share the whole path.
        let self_credit = sta.crpr_credit(ffs[0], ffs[0]);
        assert!(self_credit >= credit);
    }

    #[test]
    fn weights_reduce_arrival() {
        let mut sta = engine(48, 1000.0);
        let wns_before = sta.wns();
        // Negative weights reduce derates → smaller delays → better slack.
        let w = vec![-0.05; sta.netlist().num_cells()];
        sta.set_weights(&w);
        assert!(sta.wns() > wns_before);
        sta.clear_weights();
        assert!((sta.wns() - wns_before).abs() < 1e-9);
    }

    #[test]
    fn effective_derate_clamps_at_zero() {
        let mut sta = engine(49, 1000.0);
        let w = vec![-10.0; sta.netlist().num_cells()];
        sta.set_weights(&w);
        for (id, cell) in sta.netlist().cells() {
            if cell.role == CellRole::Combinational {
                assert_eq!(sta.effective_derate(id), 0.0, "floor is zero delay");
            }
        }
    }

    #[test]
    fn resize_matches_full_recompute() {
        let mut sta = engine(50, 1000.0);
        // Pick a combinational cell and upsize it.
        let (victim, _) = sta
            .netlist()
            .cells()
            .find(|(_, c)| {
                c.role == CellRole::Combinational
                    && sta.netlist().library().upsized(c.lib_cell).is_some()
            })
            .expect("design has a resizable gate");
        let up = sta
            .netlist()
            .library()
            .upsized(sta.netlist().cell(victim).lib_cell)
            .unwrap();
        sta.resize_cell(victim, up).unwrap();

        // Reference: fresh engine over the mutated netlist.
        let fresh = Sta::new(
            sta.netlist().clone(),
            sta.sdc().clone(),
            sta.derates().clone(),
        )
        .unwrap();
        assert_bit_identical(&sta, &fresh);
        for e in sta.netlist().endpoints() {
            assert_eq!(
                sta.setup_slack(e).to_bits(),
                fresh.setup_slack(e).to_bits(),
                "incremental and full slack must agree at {}",
                sta.netlist().cell(e).name
            );
        }
        assert_eq!(sta.stats.incremental_updates, 1);
    }

    #[test]
    fn buffer_insert_matches_full_recompute() {
        let mut sta = engine(51, 1000.0);
        let (gate, _) = sta
            .netlist()
            .cells()
            .find(|(_, c)| c.role == CellRole::Combinational && c.output.is_some())
            .unwrap();
        let net = sta.netlist().cell(gate).output.unwrap();
        let buf_lib = sta
            .netlist()
            .library()
            .variant(Function::Buf, DriveStrength::X4)
            .unwrap();
        sta.insert_buffer(net, buf_lib, "test_buf", &[]).unwrap();
        let fresh = Sta::new(
            sta.netlist().clone(),
            sta.sdc().clone(),
            sta.derates().clone(),
        )
        .unwrap();
        assert_bit_identical(&sta, &fresh);
        for e in sta.netlist().endpoints() {
            assert_eq!(sta.setup_slack(e).to_bits(), fresh.setup_slack(e).to_bits());
        }
    }

    #[test]
    fn incremental_update_touches_a_small_cone() {
        // The whole point of incremental update: a single resize must
        // re-evaluate far fewer cells than a full sweep would.
        let mut sta = engine(55, 1000.0);
        let design_size = sta.netlist().num_cells() as u64;
        let (victim, _) = sta
            .netlist()
            .cells()
            .find(|(_, c)| {
                c.role == CellRole::Combinational
                    && sta.netlist().library().upsized(c.lib_cell).is_some()
            })
            .expect("resizable gate exists");
        let up = sta
            .netlist()
            .library()
            .upsized(sta.netlist().cell(victim).lib_cell)
            .unwrap();
        let before = sta.stats.cells_propagated;
        sta.resize_cell(victim, up).unwrap();
        let touched = sta.stats.cells_propagated - before;
        assert!(touched > 0);
        assert!(
            touched < 2 * design_size,
            "incremental work {touched} should not dwarf the design ({design_size})"
        );
        assert_eq!(sta.stats.incremental_updates, 1);
    }

    #[test]
    fn last_touched_covers_the_resize_cone_and_clears_on_full_update() {
        let mut sta = engine(55, 1000.0);
        assert!(
            sta.last_touched().is_empty(),
            "no incremental update has run yet"
        );
        let (victim, _) = sta
            .netlist()
            .cells()
            .find(|(_, c)| {
                c.role == CellRole::Combinational
                    && sta.netlist().library().upsized(c.lib_cell).is_some()
            })
            .expect("resizable gate exists");
        let up = sta
            .netlist()
            .library()
            .upsized(sta.netlist().cell(victim).lib_cell)
            .unwrap();

        // Reference engine over the mutated netlist: any cell whose
        // weight-independent timing quantities moved must be in the set.
        let mut reference = Sta::new(
            sta.netlist().clone(),
            sta.sdc().clone(),
            sta.derates().clone(),
        )
        .unwrap();
        reference.resize_cell(victim, up).unwrap();
        reference.full_update();

        sta.resize_cell(victim, up).unwrap();
        let touched = sta.last_touched().to_vec();
        assert!(touched.contains(&victim), "the seed itself is touched");
        // Canonical form: sorted by cell index, duplicate-free.
        let idx: Vec<usize> = touched.iter().map(|c| c.index()).collect();
        for w in idx.windows(2) {
            assert!(w[0] < w[1], "touched not canonical: {idx:?}");
        }
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        for (id, _) in sta.netlist().cells() {
            if touched.contains(&id) {
                continue;
            }
            assert!(
                same(sta.gate_delay(id), reference.gate_delay(id))
                    && same(sta.clock_arrival_late(id), reference.clock_arrival_late(id)),
                "untouched cell {id} must have kept its cached values"
            );
        }

        // A weight install clears the set, even one that changes nothing.
        sta.set_weights(&vec![0.0; sta.netlist().num_cells()]);
        assert!(sta.last_touched().is_empty());
    }

    /// A design over a hand-made library in which a resize can move a
    /// value path timing reads while leaving every delay and clock
    /// arrival alone: the input port `a` has a load-dependent slew (and
    /// no delay), and `DFF_X2` differs from `DFF_X1` only in its setup
    /// time. `a` drives `g1` and `g2`; `g2`'s worst
    /// input slew comes from the slower `s`, so `a`'s slew reaches `g2`
    /// only through PBA's path-specific slew. Returns the engine and the
    /// path `a → g2 → ff1`.
    fn recharacterization_only_design() -> (Sta, crate::Path) {
        use netlist::LibCell;
        let cell = |name: &str, function, drive, cap, intrinsic, slew, setup| LibCell {
            name: name.to_owned(),
            function,
            drive,
            area: 1.0,
            leakage: 1.0,
            input_cap: cap,
            intrinsic,
            drive_res: if function == Function::Input {
                0.0
            } else {
                4.0
            },
            slew_sens: 0.2,
            slew_intrinsic: slew,
            slew_res: 2.0,
            max_load: f64::INFINITY,
            setup,
            hold: 0.0,
        };
        let mut lib = Library::new("recharacterization");
        let (x1, x2) = (DriveStrength::X1, DriveStrength::X2);
        for c in [
            cell("IN_PORT", Function::Input, x1, 0.0, 0.0, 10.0, 0.0),
            cell("OUT_PORT", Function::Output, x1, 2.0, 0.0, 0.0, 0.0),
            cell("INV_X1", Function::Inv, x1, 1.0, 16.0, 10.0, 0.0),
            cell("INV_X2", Function::Inv, x2, 3.0, 14.0, 10.0, 0.0),
            cell("BUF_X1", Function::Buf, x1, 1.0, 28.0, 200.0, 0.0),
            cell("NAND2_X1", Function::Nand2, x1, 1.0, 22.0, 10.0, 0.0),
            cell("DFF_X1", Function::Dff, x1, 1.0, 95.0, 10.0, 30.0),
            cell("DFF_X2", Function::Dff, x2, 1.0, 95.0, 10.0, 45.0),
        ] {
            lib.add(c);
        }
        let mut b = NetlistBuilder::new("recharacterization", lib);
        let clk = b.add_clock_port("clk", Point::ORIGIN);
        let a = b.add_input("a", Point::ORIGIN);
        let bin = b.add_input("b", Point::ORIGIN);
        let g1 = b.add_gate("g1", "INV_X1", Point::ORIGIN, &[a]).unwrap();
        let s = b.add_gate("s", "BUF_X1", Point::ORIGIN, &[bin]).unwrap();
        let s_out = b.cell_output(s);
        let g2 = b
            .add_gate("g2", "NAND2_X1", Point::ORIGIN, &[a, s_out])
            .unwrap();
        for (name, d) in [("ff1", g2), ("ff2", g1)] {
            let ff = b.add_flip_flop(name, "DFF_X1", Point::ORIGIN, clk).unwrap();
            b.connect_flip_flop_d(ff, d).unwrap();
            let q = b.cell_output(ff);
            b.add_output(&format!("{name}_q"), Point::ORIGIN, q)
                .unwrap();
        }
        let n = b.build().unwrap();
        let sta = Sta::new(n, Sdc::with_period(1000.0), DerateSet::flat(1.1, 0.9)).unwrap();
        let nl = sta.netlist();
        let cells = ["a", "g2", "ff1"].map(|name| nl.find_cell(name).unwrap());
        let path = crate::paths::worst_paths_to_endpoint(&sta, cells[2], 4)
            .into_iter()
            .find(|p| p.cells == cells)
            .expect("a → g2 → ff1 is a path");
        (sta, path)
    }

    #[test]
    fn last_changed_holds_a_driver_whose_slew_alone_moved() {
        let (mut sta, path) = recharacterization_only_design();
        let (a, g2) = (path.cells[0], path.cells[1]);
        let g1 = sta.netlist().find_cell("g1").unwrap();
        let pba_before = crate::pba_timing(&sta, &path);
        let up = sta.netlist().library().find("INV_X2").unwrap();
        sta.resize_cell(g1, up).unwrap();
        // The fixture's point: only `a`'s slew moved on this path.
        assert_ne!(crate::pba_timing(&sta, &path).slack, pba_before.slack);
        assert!(
            !sta.last_changed().contains(&g2),
            "g2's delay kept its bits"
        );
        assert!(
            sta.last_changed().contains(&a),
            "a re-characterized driver whose slew moved is missing from last_changed"
        );
    }

    #[test]
    fn last_changed_holds_a_resized_flip_flop_whose_setup_alone_moved() {
        let (mut sta, path) = recharacterization_only_design();
        let ff1 = path.endpoint;
        let gba_before = crate::gba_path_timing(&sta, &path);
        let up = sta.netlist().library().find("DFF_X2").unwrap();
        sta.resize_cell(ff1, up).unwrap();
        // The fixture's point: the flip-flop's delay and clock arrivals
        // kept their bits, yet its setup time moved the path's slack.
        assert_ne!(crate::gba_path_timing(&sta, &path).slack, gba_before.slack);
        assert!(
            sta.last_changed().contains(&ff1),
            "the resized flip-flop is missing from last_changed"
        );
    }

    #[test]
    fn unchanged_weight_installs_evaluate_no_cell() {
        let mut sta = engine(57, 1000.0);
        let before = sta.stats;
        sta.clear_weights();
        sta.set_weights(&vec![0.0; sta.netlist().num_cells()]);
        assert_eq!(sta.stats, before, "clearing a zero-weight engine is free");

        let w: Vec<f64> = (0..sta.netlist().num_cells())
            .map(|i| if i % 7 == 0 { -0.05 } else { 0.0 })
            .collect();
        sta.set_weights(&w);
        assert_eq!(
            sta.stats.incremental_updates,
            before.incremental_updates + 1
        );
        assert!(sta.stats.cells_propagated > before.cells_propagated);
        let installed = sta.stats;
        sta.set_weights(&w);
        assert_eq!(
            sta.stats, installed,
            "re-installing the same weights is free"
        );
        assert_eq!(
            sta.stats.full_updates, 1,
            "only the build ran a full update"
        );
    }

    #[test]
    fn clock_paths_start_at_the_source() {
        let sta = engine(56, 1000.0);
        for (id, cell) in sta.netlist().cells() {
            if cell.role == CellRole::Sequential {
                let path = sta.clock_path(id);
                assert!(!path.is_empty());
                assert_eq!(
                    sta.netlist().cell(path[0]).role,
                    CellRole::ClockSource,
                    "clock path must start at the source"
                );
                for &c in &path[1..] {
                    assert_eq!(sta.netlist().cell(c).role, CellRole::ClockBuffer);
                }
            }
        }
    }

    #[test]
    fn hold_slack_exists_for_ffs_only() {
        let sta = engine(52, 1000.0);
        for e in sta.netlist().endpoints() {
            match sta.netlist().cell(e).role {
                CellRole::Sequential => assert!(sta.hold_slack(e).is_some()),
                _ => assert!(sta.hold_slack(e).is_none()),
            }
        }
    }

    #[test]
    fn required_less_weights_improves_with_weights() {
        // Required times at internal cells must also move when weights
        // shrink downstream delays.
        let mut sta = engine(53, 1000.0);
        let before: Vec<f64> = (0..sta.netlist().num_cells())
            .map(|i| sta.required_late(CellId::new(i)))
            .collect();
        sta.set_weights(&vec![-0.05; sta.netlist().num_cells()]);
        let mut improved = 0;
        for (i, b) in before.iter().enumerate() {
            let after = sta.required_late(CellId::new(i));
            if b.is_finite() && after.is_finite() && after > b + 1e-9 {
                improved += 1;
            }
        }
        assert!(improved > 0, "some required times must relax");
    }

    #[test]
    fn input_delay_shifts_arrivals() {
        let n = GeneratorConfig::small(54).generate();
        let mut sdc = Sdc::with_period(1500.0);
        sdc.input_delay_late = 200.0;
        let shifted = Sta::new(n.clone(), sdc, DerateSet::standard()).unwrap();
        let base = Sta::new(n, Sdc::with_period(1500.0), DerateSet::standard()).unwrap();
        // Primary-input-fed endpoints get later arrivals.
        let mut some_later = false;
        for e in base.netlist().endpoints() {
            if shifted.endpoint_arrival(e) > base.endpoint_arrival(e) + 1.0 {
                some_later = true;
            }
        }
        assert!(some_later);
    }

    #[test]
    fn marks_pop_lowest_or_highest_first() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        // A plain ordered set is the reference: forward pops take the
        // lowest mark, backward pops the highest, across word edges.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n in [1, 63, 64, 65, 200, 1000] {
            let mut marks = Marks::default();
            marks.mark_all(n);
            let mut want: BTreeSet<usize> = (0..n).collect();
            for step in 0..4 * n {
                if rng.random_bool(0.45) {
                    let pos = rng.random_range(0..n);
                    marks.mark(pos);
                    want.insert(pos);
                } else {
                    let last = step % 3 == 0;
                    let expect = if last {
                        want.pop_last()
                    } else {
                        want.pop_first()
                    };
                    assert_eq!(marks.pop(last), expect, "n {n} step {step}");
                }
            }
            while let Some(pos) = marks.pop(false) {
                assert_eq!(Some(pos), want.pop_first());
            }
            assert!(want.is_empty());
        }
    }

    #[test]
    fn hand_built_two_gate_delay_arithmetic() {
        // clk→ff0→inv→ff1 with known characterization: verify the exact
        // arrival arithmetic.
        let lib = Library::standard();
        let mut b = NetlistBuilder::new("arith", lib);
        let clk = b.add_clock_port("clk", Point::ORIGIN);
        let d = b.add_input("d", Point::ORIGIN);
        let ff0 = b
            .add_flip_flop("ff0", "DFF_X1", Point::ORIGIN, clk)
            .unwrap();
        b.connect_flip_flop_d_net(ff0, d);
        let inv = b
            .add_gate("inv", "INV_X1", Point::ORIGIN, &[b.cell_output(ff0)])
            .unwrap();
        let ff1 = b
            .add_flip_flop("ff1", "DFF_X1", Point::ORIGIN, clk)
            .unwrap();
        b.connect_flip_flop_d(ff1, inv).unwrap();
        let q = b.cell_output(ff1);
        b.add_output("y", Point::ORIGIN, q).unwrap();
        let n = b.build().unwrap();

        let derates = DerateSet::flat(1.2, 0.9);
        let sta = Sta::new(n, Sdc::with_period(1000.0), derates).unwrap();
        let nl = sta.netlist();
        let ff0 = nl.find_cell("ff0").unwrap();
        let inv = nl.find_cell("inv").unwrap();
        let ff1 = nl.find_cell("ff1").unwrap();

        // All cells co-located: zero wire delay. Launch = clk2q × 1.2
        // (clock late derate = flat 1.2 here).
        let launch = sta.gate_delay(ff0) * 1.2;
        assert!((sta.arrival_late(ff0) - launch).abs() < 1e-9);
        let inv_arr = launch + sta.gate_delay(inv) * 1.2;
        assert!((sta.arrival_late(inv) - inv_arr).abs() < 1e-9);
        assert!((sta.endpoint_arrival(ff1) - inv_arr).abs() < 1e-9);
        // Setup slack = T + clk_early(0) − setup − arrival.
        let setup = nl.library().cell(nl.cell(ff1).lib_cell).setup;
        let expect = 1000.0 - setup - inv_arr;
        assert!((sta.setup_slack(ff1) - expect).abs() < 1e-9);
    }
}
