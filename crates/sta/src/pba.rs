//! Path-based analysis (PBA) — the golden timing reference.
//!
//! For one concrete [`Path`], PBA removes all three GBA pessimism sources:
//!
//! 1. **Path-specific AOCV derate** — the derate is looked up once with the
//!    path's true cell depth and its own bounding box, instead of each
//!    gate's worst-case depth/distance.
//! 2. **Path-specific slew** — each gate's delay uses the transition of
//!    its actual predecessor on the path, not the worst transition over
//!    all fanins.
//! 3. **CRPR** — the launch and capture clock paths' common prefix cannot
//!    simultaneously be late and early; PBA credits the difference back.
//!
//! [`gba_path_timing`] evaluates the *same* path under GBA rules (per-gate
//! effective derates, worst slew, no CRPR), which is both the baseline for
//! pass-ratio comparisons and the row model of the mGBA least-squares
//! problem.

use crate::analysis::Sta;
use crate::paths::Path;
use netlist::point::BoundingBox;
use netlist::{CellId, CellRole};
use parallel::Parallelism;
use serde::{Deserialize, Serialize};

/// Timing of a single path under one analysis mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathTiming {
    /// Data arrival at the endpoint pin, ps.
    pub arrival: f64,
    /// Required time at the endpoint pin, ps.
    pub required: f64,
    /// Slack (`required − arrival`), ps.
    pub slack: f64,
    /// Cell depth used for the derate lookup.
    pub depth: usize,
    /// Bounding-box diagonal used for the derate lookup, µm.
    pub distance: f64,
    /// Derate applied (path derate for PBA; mean per-gate effective
    /// derate for GBA).
    pub derate: f64,
}

/// Finds the wire delay of the edge `from → to` on the timing graph.
fn wire_between(sta: &Sta, from: CellId, to: CellId) -> f64 {
    sta.graph()
        .fanins(to)
        .iter()
        .find(|e| e.from == from)
        .map(|e| e.wire_delay)
        .expect("consecutive path cells are connected")
}

/// Launch-point arrival in the engine's (possibly weighted) GBA view.
fn launch_arrival_gba(sta: &Sta, launch: CellId) -> f64 {
    match sta.netlist().cell(launch).role {
        // Single clock fanin / constant, so the graph arrival is exact.
        CellRole::Sequential | CellRole::Input => sta.arrival_late(launch),
        _ => panic!("paths launch from flip-flops or input ports"),
    }
}

/// Launch-point arrival in the golden PBA view: always the *unweighted*
/// clock-to-Q derate, independent of any installed mGBA weights.
fn launch_arrival_pba(sta: &Sta, launch: CellId) -> f64 {
    match sta.netlist().cell(launch).role {
        CellRole::Sequential => {
            sta.clock_arrival_late(launch) + sta.gate_delay(launch) * sta.derates().clock_late
        }
        CellRole::Input => sta.arrival_late(launch),
        _ => panic!("paths launch from flip-flops or input ports"),
    }
}

/// Required time at the endpoint, optionally with a CRPR credit.
fn endpoint_required(sta: &Sta, path: &Path, crpr: bool) -> f64 {
    let base = sta.endpoint_required(path.endpoint);
    if crpr {
        base + sta.crpr_credit(path.startpoint(), path.endpoint)
    } else {
        base
    }
}

/// The path's own AOCV coordinates: exact gate count and the bounding box
/// of the path's cells.
fn path_coordinates(sta: &Sta, path: &Path) -> (usize, f64) {
    let depth = path.num_gates();
    let bb: BoundingBox = path
        .cells
        .iter()
        .map(|&c| sta.netlist().cell(c).loc)
        .collect();
    (depth, bb.diagonal())
}

/// Evaluates `path` under **PBA** (golden) rules.
///
/// # Panics
///
/// Panics if `path` is not a well-formed path of `sta`'s netlist
/// (consecutive cells must be connected).
pub fn pba_timing(sta: &Sta, path: &Path) -> PathTiming {
    let (depth, distance) = path_coordinates(sta, path);
    if faultinject::fire("pba.retime").is_some() {
        // Both `error` and `nan` manifest as a corrupted (non-finite)
        // golden retime — PBA has no error channel, and the point of this
        // failpoint is proving the downstream solver guards catch bad
        // golden data instead of fitting to it.
        return PathTiming {
            arrival: f64::NAN,
            required: f64::NAN,
            slack: f64::NAN,
            depth,
            distance,
            derate: f64::NAN,
        };
    }
    let derate = sta.derates().data_late.lookup(depth as f64, distance);

    let launch = path.startpoint();
    let mut arrival = launch_arrival_pba(sta, launch);
    let mut prev = launch;
    for &g in &path.cells[1..path.cells.len() - 1] {
        arrival += wire_between(sta, prev, g);
        // Path-specific slew: the transition of the actual predecessor.
        let delay = sta.fixed_delay(g) + sta.slew_sensitivity(g) * sta.slew(prev);
        arrival += delay * derate;
        prev = g;
    }
    arrival += wire_between(sta, prev, path.endpoint);

    let required = endpoint_required(sta, path, true);
    PathTiming {
        arrival,
        required,
        slack: required - arrival,
        depth,
        distance,
        derate,
    }
}

/// Evaluates `path` under **GBA** rules with the engine's current
/// effective derates (per-gate worst-case derate, worst slew, no CRPR).
///
/// With all weights zero this is the original GBA path slack; with fitted
/// mGBA weights installed it is the corrected mGBA path slack.
///
/// # Panics
///
/// Panics if `path` is not a well-formed path of `sta`'s netlist.
pub fn gba_path_timing(sta: &Sta, path: &Path) -> PathTiming {
    let (depth, distance) = path_coordinates(sta, path);
    let launch = path.startpoint();
    let mut arrival = launch_arrival_gba(sta, launch);
    let mut prev = launch;
    let mut derate_sum = 0.0;
    let mut gates = 0usize;
    for &g in &path.cells[1..path.cells.len() - 1] {
        arrival += wire_between(sta, prev, g);
        let eff = sta.effective_derate(g);
        arrival += sta.gate_delay(g) * eff;
        derate_sum += eff;
        gates += 1;
        prev = g;
    }
    arrival += wire_between(sta, prev, path.endpoint);

    let required = endpoint_required(sta, path, false);
    PathTiming {
        arrival,
        required,
        slack: required - arrival,
        depth,
        distance,
        derate: if gates > 0 {
            derate_sum / gates as f64
        } else {
            1.0
        },
    }
}

/// Evaluates a batch of paths under **PBA** rules, fanning the per-path
/// retimes out over `par` threads.
///
/// Each path's timing is an independent function of `(sta, path)` and is
/// written to its own output slot, so the result is identical to mapping
/// [`pba_timing`] serially — element for element, bit for bit — for any
/// thread count.
///
/// # Panics
///
/// Panics if any path is not a well-formed path of `sta`'s netlist.
pub fn pba_timing_batch(sta: &Sta, paths: &[Path], par: Parallelism) -> Vec<PathTiming> {
    let _span = obs::span("pba_batch");
    obs::counter_add("sta.pba.paths_retimed", paths.len() as u64);
    parallel::par_map(par, paths, |p| pba_timing(sta, p))
}

/// Evaluates a batch of paths under **GBA** rules (see
/// [`gba_path_timing`]), fanning out over `par` threads with the same
/// order- and bit-exactness guarantee as [`pba_timing_batch`].
///
/// # Panics
///
/// Panics if any path is not a well-formed path of `sta`'s netlist.
pub fn gba_path_timing_batch(sta: &Sta, paths: &[Path], par: Parallelism) -> Vec<PathTiming> {
    let _span = obs::span("gba_batch");
    obs::counter_add("sta.gba.paths_retimed", paths.len() as u64);
    parallel::par_map(par, paths, |p| gba_path_timing(sta, p))
}

/// [`pba_timing_batch`] over `paths[r]` for each `r` in `rows`, in
/// `rows` order, without copying the paths.
///
/// # Panics
///
/// Panics if a row is out of range or names a malformed path.
pub fn pba_timing_rows(
    sta: &Sta,
    paths: &[Path],
    rows: &[usize],
    par: Parallelism,
) -> Vec<PathTiming> {
    let _span = obs::span("pba_batch");
    obs::counter_add("sta.pba.paths_retimed", rows.len() as u64);
    parallel::par_map(par, rows, |&r| pba_timing(sta, &paths[r]))
}

/// [`gba_path_timing_batch`] over `paths[r]` for each `r` in `rows`, in
/// `rows` order, without copying the paths.
///
/// # Panics
///
/// Panics if a row is out of range or names a malformed path.
pub fn gba_path_timing_rows(
    sta: &Sta,
    paths: &[Path],
    rows: &[usize],
    par: Parallelism,
) -> Vec<PathTiming> {
    let _span = obs::span("gba_batch");
    obs::counter_add("sta.gba.paths_retimed", rows.len() as u64);
    parallel::par_map(par, rows, |&r| gba_path_timing(sta, &paths[r]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aocv::DerateSet;
    use crate::constraints::Sdc;
    use crate::paths::{select_critical_paths, worst_paths_to_endpoint};
    use netlist::GeneratorConfig;

    fn engine(seed: u64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        Sta::new(n, Sdc::with_period(1200.0), DerateSet::standard()).unwrap()
    }

    #[test]
    fn pba_never_more_pessimistic_than_gba() {
        // The fundamental soundness property: for every path, the PBA
        // slack is at least the GBA slack (monotone tables + slew + CRPR).
        let sta = engine(71);
        let paths = select_critical_paths(&sta, 5, usize::MAX, false);
        assert!(!paths.is_empty());
        for p in &paths {
            let pba = pba_timing(&sta, p);
            let gba = gba_path_timing(&sta, p);
            assert!(
                pba.slack >= gba.slack - 1e-9,
                "PBA {:.3} must be ≥ GBA {:.3} on {:?}",
                pba.slack,
                gba.slack,
                p.cells
            );
        }
    }

    #[test]
    fn gba_path_timing_matches_enumerated_arrival() {
        let sta = engine(72);
        for e in sta.netlist().endpoints().into_iter().take(8) {
            for p in worst_paths_to_endpoint(&sta, e, 3) {
                let gba = gba_path_timing(&sta, &p);
                assert!(
                    (gba.arrival - p.gba_arrival).abs() < 1e-6,
                    "path eval must agree with enumeration"
                );
                assert!((gba.slack - p.gba_slack).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn pba_depth_is_exact_gate_count() {
        let sta = engine(73);
        let e = sta.netlist().endpoints()[0];
        let p = &worst_paths_to_endpoint(&sta, e, 1)[0];
        let t = pba_timing(&sta, p);
        assert_eq!(t.depth, p.num_gates());
        assert!(t.distance > 0.0);
        assert!(t.derate > 1.0);
    }

    #[test]
    fn pba_derate_leq_every_gate_derate() {
        // Path depth ≥ per-gate worst depth and path box ⊆ per-gate worst
        // box, so the path derate is the smallest in play.
        let sta = engine(74);
        let paths = select_critical_paths(&sta, 3, 200, false);
        for p in &paths {
            let t = pba_timing(&sta, p);
            for &g in &p.cells[1..p.cells.len() - 1] {
                assert!(
                    t.derate <= sta.gate_derate(g) + 1e-9,
                    "path derate must lower-bound gate derates"
                );
            }
        }
    }

    #[test]
    fn crpr_improves_pba_required_for_ff_pairs() {
        let sta = engine(75);
        let paths = select_critical_paths(&sta, 2, 100, false);
        let ff_path = paths.iter().find(|p| {
            sta.netlist().cell(p.startpoint()).role == CellRole::Sequential
                && sta.netlist().cell(p.endpoint).role == CellRole::Sequential
        });
        let p = ff_path.expect("design has FF-to-FF paths");
        let with = endpoint_required(&sta, p, true);
        let without = endpoint_required(&sta, p, false);
        assert!(with > without, "CRPR credit must relax the requirement");
    }

    #[test]
    fn negative_weights_close_the_gap() {
        // Installing uniform negative weights moves GBA path slack toward
        // PBA (less pessimism), never past the clamp.
        let mut sta = engine(76);
        // Pick a path with at least one gate (bank-0 flip-flops are fed
        // directly by ports, so their paths carry no derateable delay).
        let p = sta
            .netlist()
            .endpoints()
            .into_iter()
            .flat_map(|e| worst_paths_to_endpoint(&sta, e, 1))
            .find(|p| p.num_gates() > 0)
            .expect("design has multi-gate paths");
        let before = gba_path_timing(&sta, &p).slack;
        sta.set_weights(&vec![-0.04; sta.netlist().num_cells()]);
        let after = gba_path_timing(&sta, &p).slack;
        assert!(after > before);
    }

    #[test]
    fn batch_timing_is_bit_identical_to_serial_maps() {
        let sta = engine(78);
        let paths = select_critical_paths(&sta, 10, usize::MAX, false);
        assert!(paths.len() > 1);
        let pba_serial: Vec<PathTiming> = paths.iter().map(|p| pba_timing(&sta, p)).collect();
        let gba_serial: Vec<PathTiming> = paths.iter().map(|p| gba_path_timing(&sta, p)).collect();
        for threads in [1, 2, 4] {
            let par = Parallelism::new(threads);
            assert_eq!(pba_timing_batch(&sta, &paths, par), pba_serial);
            assert_eq!(gba_path_timing_batch(&sta, &paths, par), gba_serial);
        }
    }

    #[test]
    fn flat_tables_remove_depth_pessimism_gap() {
        // With a flat derate table and no skip connections the AOCV
        // component of the GBA/PBA delay gap vanishes; remaining gap comes
        // only from slew and CRPR. Verify the gap shrinks vs. AOCV tables.
        let n = GeneratorConfig::small(77).generate();
        let aocv = Sta::new(n.clone(), Sdc::with_period(1200.0), DerateSet::standard()).unwrap();
        // Flat data tables but identical clock derates, so the CRPR
        // contribution to the gap is held constant.
        let mut flat_set = DerateSet::standard();
        flat_set.data_late = crate::aocv::DeratingTable::flat(1.2);
        flat_set.data_early = crate::aocv::DeratingTable::flat(0.9);
        let flat = Sta::new(n, Sdc::with_period(1200.0), flat_set).unwrap();
        let gap = |sta: &Sta| -> f64 {
            let paths = select_critical_paths(sta, 3, 300, false);
            paths
                .iter()
                .map(|p| pba_timing(sta, p).slack - gba_path_timing(sta, p).slack)
                .sum::<f64>()
                / paths.len() as f64
        };
        let g_aocv = gap(&aocv);
        let g_flat = gap(&flat);
        assert!(g_aocv > 0.0);
        assert!(g_flat >= 0.0);
        assert!(
            g_aocv > g_flat,
            "AOCV gap {g_aocv:.3} should exceed flat gap {g_flat:.3}"
        );
    }
}
