//! Critical-path enumeration.
//!
//! GBA identifies candidate critical paths; PBA then re-times them
//! path-by-path. This module enumerates, for each endpoint, the `k` worst
//! paths by GBA arrival using a best-first backward search with an
//! admissible bound (the classic lazy k-longest-path scheme): a partial
//! suffix from some cell `c` to the endpoint has exact suffix delay `S`,
//! and `arrival_late(c) + S` is an upper bound on any completion, so a
//! max-heap pops complete paths in descending arrival order. That order
//! holds up to rounding only: the bound sums stage delays endpoint-first
//! while the propagated `arrival_late(c)` sums them start-first, so a
//! completion can exceed its suffix's bound by a few ulps.
//!
//! One private search serves every entry point. Its heap states are
//! `Copy` and name their suffix by an index into an arena of
//! `(cell, parent)` nodes, one node per expanded gate, so a push copies
//! no cells; a path's `cells` vector is built only when a complete path
//! pops. [`select_critical_paths`] and [`select_top_global_paths`] reuse
//! one heap and arena across all endpoints.
//!
//! When only violating paths are wanted, the search takes a cut of
//! `endpoint_required − margin` and never pushes a suffix whose bound is
//! at or below it: an endpoint with no violating fanin ends after one
//! fanin scan. The margin is a tiny constant that absorbs the rounding
//! above (and incremental propagation's convergence tolerance), so no
//! path with `gba_slack < 0` is ever cut; that exact filter still runs
//! on the paths the search returns. States above the cut pop in the same
//! relative order as without it, so the selection equals enumerating the
//! `k` worst paths and filtering them, up to the order of exactly tied
//! paths.

use crate::analysis::Sta;
use netlist::{CellId, CellRole};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A complete timing path from a startpoint to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Cells on the path: `cells[0]` is the launching flip-flop or input
    /// port, the middle cells are combinational gates, and the last cell
    /// is the capturing flip-flop or output port.
    pub cells: Vec<CellId>,
    /// The endpoint cell (same as `cells.last()`).
    pub endpoint: CellId,
    /// GBA late arrival at the endpoint pin along this path, under the
    /// engine's current effective derates, ps.
    pub gba_arrival: f64,
    /// GBA slack of this path (endpoint required − arrival), ps.
    pub gba_slack: f64,
}

impl Path {
    /// The launching cell.
    pub fn startpoint(&self) -> CellId {
        self.cells[0]
    }

    /// Number of combinational gates on the path (the PBA cell depth).
    pub fn num_gates(&self) -> usize {
        self.cells.len().saturating_sub(2)
    }
}

/// How far below an endpoint's required time the violating-only cut
/// sits, ps. It only absorbs rounding between the endpoint-first bound
/// and start-first arrivals (a few ulps per stage, about 1e-11 ps here)
/// and the 1e-9 ps incremental-propagation tolerance.
const CUT_MARGIN: f64 = 1e-6;

/// Parent index of the arena's root node (the endpoint).
const ROOT: u32 = u32::MAX;

/// One expanded cell of a suffix; `parent` is the arena index of the
/// next cell towards the endpoint.
#[derive(Clone, Copy)]
struct Node {
    cell: CellId,
    parent: u32,
}

/// Search state: a suffix of a path, from `cell`'s output to the endpoint.
#[derive(Clone, Copy)]
struct State {
    /// Upper bound on the arrival of any completion of this suffix.
    bound: f64,
    cell: CellId,
    /// Exact delay from `cell`'s output to the endpoint pin.
    suffix_delay: f64,
    /// Arena node of the cell after `cell`.
    next: u32,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// The k-worst search with its heap and arena, reusable across endpoints.
#[derive(Default)]
struct Search {
    heap: BinaryHeap<State>,
    arena: Vec<Node>,
}

impl Search {
    /// Appends to `out` the `k` worst paths ending at `endpoint` whose
    /// bounds stay above `cut`, in descending arrival order.
    fn run(
        &mut self,
        sta: &Sta,
        endpoint: CellId,
        k: usize,
        cut: Option<f64>,
        out: &mut Vec<Path>,
    ) {
        let netlist = sta.netlist();
        let graph = sta.graph();
        debug_assert!(
            matches!(
                netlist.cell(endpoint).role,
                CellRole::Sequential | CellRole::Output
            ),
            "paths end at endpoints"
        );
        let above_cut = |bound: f64| cut.is_none_or(|cut| bound > cut);
        let required = sta.endpoint_required(endpoint);
        self.heap.clear();
        self.arena.clear();
        self.arena.push(Node {
            cell: endpoint,
            parent: ROOT,
        });
        for e in graph.data_fanins(netlist, endpoint) {
            let bound = sta.arrival_late(e.from) + e.wire_delay;
            if above_cut(bound) {
                self.heap.push(State {
                    bound,
                    cell: e.from,
                    suffix_delay: e.wire_delay,
                    next: 0,
                });
            }
        }

        let start = out.len();
        while let Some(state) = self.heap.pop() {
            if out.len() - start >= k {
                break;
            }
            match netlist.cell(state.cell).role {
                CellRole::Input | CellRole::Sequential => {
                    let arrival = sta.arrival_late(state.cell) + state.suffix_delay;
                    if !arrival.is_finite() {
                        continue;
                    }
                    out.push(Path {
                        cells: self.cells(state),
                        endpoint,
                        gba_arrival: arrival,
                        gba_slack: required - arrival,
                    });
                }
                CellRole::Combinational => {
                    let contribution =
                        sta.gate_delay(state.cell) * sta.effective_derate(state.cell);
                    let next = u32::try_from(self.arena.len()).expect("arena indices fit u32");
                    self.arena.push(Node {
                        cell: state.cell,
                        parent: state.next,
                    });
                    for e in graph.data_fanins(netlist, state.cell) {
                        let suffix_delay = state.suffix_delay + contribution + e.wire_delay;
                        let bound = sta.arrival_late(e.from) + suffix_delay;
                        if bound.is_finite() && above_cut(bound) {
                            self.heap.push(State {
                                bound,
                                cell: e.from,
                                suffix_delay,
                                next,
                            });
                        }
                    }
                }
                // Clock cells never appear on data suffixes.
                _ => {}
            }
        }
    }

    /// The cells of the complete path `state` pops: its startpoint, then
    /// the arena chain up to the endpoint.
    fn cells(&self, state: State) -> Vec<CellId> {
        let mut cells = vec![state.cell];
        let mut node = state.next;
        while node != ROOT {
            let n = self.arena[node as usize];
            cells.push(n.cell);
            node = n.parent;
        }
        cells
    }
}

/// Enumerates the `k` worst (largest GBA arrival) paths ending at
/// `endpoint`, in descending arrival order.
///
/// Returns fewer than `k` paths if the endpoint's fanin cone contains
/// fewer distinct paths.
pub fn worst_paths_to_endpoint(sta: &Sta, endpoint: CellId, k: usize) -> Vec<Path> {
    let mut out = Vec::with_capacity(k);
    Search::default().run(sta, endpoint, k, None, &mut out);
    out
}

/// Per-endpoint critical path selection over the whole design: the
/// paper's §3.2 "second scheme". For every endpoint, takes the `k` worst
/// paths; optionally keeps only paths with negative GBA slack; caps the
/// total at `max_total` worst-first.
pub fn select_critical_paths(
    sta: &Sta,
    k_per_endpoint: usize,
    max_total: usize,
    only_violating: bool,
) -> Vec<Path> {
    let mut search = Search::default();
    let mut all = Vec::new();
    for &e in sta.endpoints() {
        let cut = only_violating.then(|| sta.endpoint_required(e) - CUT_MARGIN);
        search.run(sta, e, k_per_endpoint, cut, &mut all);
    }
    if only_violating {
        all.retain(|p| p.gba_slack < 0.0);
    }
    sort_worst_first(&mut all);
    all.truncate(max_total);
    all
}

/// Global top-`m` path selection (the paper's strawman "first scheme"):
/// sorts every enumerated path by GBA slack and keeps the worst `m`,
/// ignoring endpoint coverage. Exists to reproduce the §3.2 comparison.
pub fn select_top_global_paths(sta: &Sta, k_per_endpoint: usize, m: usize) -> Vec<Path> {
    let mut search = Search::default();
    let mut all = Vec::new();
    for &e in sta.endpoints() {
        search.run(sta, e, k_per_endpoint, None, &mut all);
    }
    sort_worst_first(&mut all);
    all.truncate(m);
    all
}

/// Stable sort by GBA slack, worst first.
fn sort_worst_first(paths: &mut [Path]) {
    paths.sort_by(|a, b| {
        a.gba_slack
            .partial_cmp(&b.gba_slack)
            .expect("slacks are finite")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aocv::DerateSet;
    use crate::constraints::Sdc;
    use netlist::GeneratorConfig;
    use std::collections::HashSet;

    fn engine(seed: u64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        Sta::new(n, Sdc::with_period(1200.0), DerateSet::standard()).unwrap()
    }

    #[test]
    fn worst_path_realizes_endpoint_arrival() {
        let sta = engine(61);
        for e in sta.netlist().endpoints() {
            let paths = worst_paths_to_endpoint(&sta, e, 1);
            if sta.endpoint_arrival(e).is_finite() {
                assert_eq!(paths.len(), 1);
                assert!(
                    (paths[0].gba_arrival - sta.endpoint_arrival(e)).abs() < 1e-6,
                    "worst path must realize the GBA endpoint arrival at {}",
                    sta.netlist().cell(e).name
                );
            }
        }
    }

    #[test]
    fn paths_are_sorted_and_distinct() {
        let sta = engine(62);
        let e = sta.netlist().endpoints()[0];
        let paths = worst_paths_to_endpoint(&sta, e, 10);
        for w in paths.windows(2) {
            assert!(w[0].gba_arrival >= w[1].gba_arrival - 1e-9);
        }
        let distinct: HashSet<Vec<CellId>> = paths.iter().map(|p| p.cells.clone()).collect();
        assert_eq!(distinct.len(), paths.len(), "no duplicate paths");
    }

    #[test]
    fn paths_start_and_end_correctly() {
        let sta = engine(63);
        for e in sta.netlist().endpoints().into_iter().take(5) {
            for p in worst_paths_to_endpoint(&sta, e, 5) {
                let start_role = sta.netlist().cell(p.startpoint()).role;
                assert!(matches!(start_role, CellRole::Input | CellRole::Sequential));
                assert_eq!(*p.cells.last().unwrap(), e);
                // Middle cells are combinational.
                for &c in &p.cells[1..p.cells.len() - 1] {
                    assert_eq!(sta.netlist().cell(c).role, CellRole::Combinational);
                }
                // Consecutive cells are actually connected.
                for w in p.cells.windows(2) {
                    let connected = sta
                        .graph()
                        .fanins(w[1])
                        .iter()
                        .any(|edge| edge.from == w[0]);
                    assert!(connected, "path cells must be wired in sequence");
                }
            }
        }
    }

    #[test]
    fn path_arrival_matches_manual_sum() {
        let sta = engine(64);
        let e = sta.netlist().endpoints()[0];
        for p in worst_paths_to_endpoint(&sta, e, 3) {
            let mut arr = sta.arrival_late(p.startpoint());
            for w in p.cells.windows(2) {
                let edge = sta
                    .graph()
                    .fanins(w[1])
                    .iter()
                    .find(|edge| edge.from == w[0])
                    .expect("consecutive path cells are connected");
                arr += edge.wire_delay;
                if sta.netlist().cell(w[1]).role == CellRole::Combinational {
                    arr += sta.gate_delay(w[1]) * sta.effective_derate(w[1]);
                }
            }
            assert!((arr - p.gba_arrival).abs() < 1e-6);
        }
    }

    #[test]
    fn per_endpoint_selection_covers_endpoints() {
        let sta = engine(65);
        let paths = select_critical_paths(&sta, 3, usize::MAX, false);
        let covered: HashSet<CellId> = paths.iter().map(|p| p.endpoint).collect();
        let reachable = sta
            .netlist()
            .endpoints()
            .into_iter()
            .filter(|&e| sta.endpoint_arrival(e).is_finite())
            .count();
        assert_eq!(covered.len(), reachable);
    }

    #[test]
    fn global_selection_truncates_worst_first() {
        let sta = engine(66);
        let global = select_top_global_paths(&sta, 5, 10);
        assert!(global.len() <= 10);
        for w in global.windows(2) {
            assert!(w[0].gba_slack <= w[1].gba_slack + 1e-9);
        }
    }

    #[test]
    fn violating_filter_drops_positive_slack() {
        let n = GeneratorConfig::small(67).generate();
        // Very long period: nothing violates.
        let sta = Sta::new(n, Sdc::with_period(100_000.0), DerateSet::standard()).unwrap();
        let v = select_critical_paths(&sta, 3, usize::MAX, true);
        assert!(v.is_empty());
    }

    /// Every data path to `endpoint` with a finite arrival, by DFS from
    /// the endpoint backwards. Stage delays are summed endpoint-first in
    /// the search's own order, so arrivals compare bit for bit.
    fn all_paths_to(sta: &Sta, endpoint: CellId) -> Vec<(Vec<CellId>, f64)> {
        fn dfs(
            sta: &Sta,
            cell: CellId,
            suffix_delay: f64,
            suffix: &mut Vec<CellId>,
            out: &mut Vec<(Vec<CellId>, f64)>,
        ) {
            match sta.netlist().cell(cell).role {
                CellRole::Input | CellRole::Sequential => {
                    let arrival = sta.arrival_late(cell) + suffix_delay;
                    if arrival.is_finite() {
                        let cells = std::iter::once(cell).chain(suffix.iter().rev().copied());
                        out.push((cells.collect(), arrival));
                    }
                }
                CellRole::Combinational => {
                    let contribution = sta.gate_delay(cell) * sta.effective_derate(cell);
                    suffix.push(cell);
                    for e in sta.graph().data_fanins(sta.netlist(), cell) {
                        dfs(
                            sta,
                            e.from,
                            suffix_delay + contribution + e.wire_delay,
                            suffix,
                            out,
                        );
                    }
                    suffix.pop();
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        let mut suffix = vec![endpoint];
        for e in sta.graph().data_fanins(sta.netlist(), endpoint) {
            dfs(sta, e.from, e.wire_delay, &mut suffix, &mut out);
        }
        out
    }

    #[test]
    fn search_returns_the_k_largest_brute_force_paths() {
        let mut compared = 0;
        for seed in [71, 72, 73, 74] {
            let sta = engine(seed);
            for e in sta.netlist().endpoints() {
                let mut oracle = all_paths_to(&sta, e);
                oracle.sort_by(|a, b| b.1.total_cmp(&a.1));
                for k in [1, 5, 20] {
                    let found = worst_paths_to_endpoint(&sta, e, k);
                    assert_eq!(found.len(), k.min(oracle.len()));
                    // Paths not yet matched. A gate driven twice by one
                    // cell yields two paths with the same cells, so each
                    // oracle path may be matched once only.
                    let mut unmatched: Vec<&(Vec<CellId>, f64)> = oracle.iter().collect();
                    for (i, p) in found.iter().enumerate() {
                        // The i-th largest arrival, bit for bit; which of
                        // several exactly tied paths fills the slot is free.
                        let want = oracle[i].1.to_bits();
                        assert_eq!(p.gba_arrival.to_bits(), want, "rank {i} at endpoint {e:?}");
                        let j = unmatched
                            .iter()
                            .position(|(cells, a)| a.to_bits() == want && *cells == p.cells)
                            .unwrap_or_else(|| {
                                panic!("rank {i} at endpoint {e:?} is not a path of that arrival")
                            });
                        unmatched.swap_remove(j);
                        assert_eq!(p.endpoint, e);
                        assert_eq!(p.gba_slack, sta.endpoint_required(e) - p.gba_arrival);
                    }
                    compared += found.len();
                }
            }
        }
        assert!(compared > 1000, "the oracle compared only {compared} paths");
    }

    #[test]
    fn violating_cut_equals_filtering_the_full_search() {
        let mut near = 0;
        for seed in [81, 82, 83] {
            let netlist = GeneratorConfig::small(seed).generate();
            let base = engine(seed);
            // Periods that put one path's slack at exactly zero (up to
            // rounding) or within ±1 ps of it, for paths across the
            // whole slack range.
            let mut slacks: Vec<f64> = select_critical_paths(&base, 5, usize::MAX, false)
                .iter()
                .map(|p| p.gba_slack)
                .collect();
            slacks.dedup();
            let step = (slacks.len() / 6).max(1);
            for &s in slacks.iter().step_by(step) {
                for offset in [-0.9, -1e-7, 0.0, 1e-7, 0.9] {
                    let period = base.sdc().clock_period - s + offset;
                    let sta = Sta::new(
                        netlist.clone(),
                        Sdc::with_period(period),
                        DerateSet::standard(),
                    )
                    .unwrap();
                    for k in [1, 5, 20] {
                        let mut all = select_critical_paths(&sta, k, usize::MAX, false);
                        near += all.iter().filter(|p| p.gba_slack.abs() < 1.0).count();
                        all.retain(|p| p.gba_slack < 0.0);
                        let cut = select_critical_paths(&sta, k, usize::MAX, true);
                        assert_eq!(cut, all, "seed {seed}, period {period}, k {k}");
                    }
                }
            }
        }
        assert!(near > 100, "only {near} paths within 1 ps of required");
    }

    #[test]
    fn num_gates_counts_middles() {
        let sta = engine(68);
        let e = sta.netlist().endpoints()[0];
        if let Some(p) = worst_paths_to_endpoint(&sta, e, 1).first() {
            assert_eq!(p.num_gates(), p.cells.len() - 2);
        }
    }
}
