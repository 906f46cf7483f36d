//! Property-based tests of the STA engine's analytical invariants.

use netlist::{CellId, CellRole, DesignSpec, DriveStrength, Function, GeneratorConfig, LibCellId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sta::{
    gba_path_timing, pba_timing, select_critical_paths, DerateSet, DeratingTable, Path, PathTiming,
    Sdc, Sta,
};

prop_compose! {
    /// A random valid derating table with monotone structure: derates
    /// decrease with depth and increase with distance (the AOCV law).
    fn monotone_table()(base in 1.05f64..1.5, depth_gain in 0.01f64..0.2,
                        dist_gain in 0.0f64..0.2, nd in 2usize..6, nk in 2usize..8)
                       -> DeratingTable {
        let depths: Vec<f64> = (0..nk).map(|i| (i as f64 + 1.0) * 3.0).collect();
        let distances: Vec<f64> = (0..nd).map(|i| (i as f64 + 1.0) * 250.0).collect();
        let mut values = Vec::new();
        for (di, _) in distances.iter().enumerate() {
            for (ki, _) in depths.iter().enumerate() {
                let v = base - depth_gain * ki as f64 / nk as f64
                    + dist_gain * di as f64 / nd as f64;
                values.push(v.max(1.001));
            }
        }
        DeratingTable::new(depths, distances, values).expect("constructed valid")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bilinear interpolation of a monotone table is monotone.
    #[test]
    fn lookup_is_monotone(table in monotone_table(),
                          d1 in 1.0f64..40.0, d2 in 1.0f64..40.0,
                          x1 in 0.0f64..2000.0, x2 in 0.0f64..2000.0) {
        let (dlo, dhi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let (xlo, xhi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        // Deeper → smaller derate at fixed distance.
        prop_assert!(table.lookup(dhi, xlo) <= table.lookup(dlo, xlo) + 1e-12);
        // Farther → larger derate at fixed depth.
        prop_assert!(table.lookup(dlo, xhi) >= table.lookup(dlo, xlo) - 1e-12);
    }

    /// Lookups are clamped to the table's value range.
    #[test]
    fn lookup_stays_in_range(table in monotone_table(),
                             depth in -5.0f64..200.0, dist in -5.0f64..5000.0) {
        let v = table.lookup(depth, dist);
        // The extreme corners bound every interpolated value.
        let min_corner = table.lookup(1e9, -1e9);
        let max_corner = table.lookup(-1e9, 1e9);
        prop_assert!(v >= min_corner - 1e-12);
        prop_assert!(v <= max_corner + 1e-12);
    }

    /// Setup slack shifts exactly 1:1 with the clock period.
    #[test]
    fn slack_is_period_equivariant(seed in 0u64..50, t0 in 800.0f64..2000.0,
                                   delta in 1.0f64..1000.0) {
        let n = GeneratorConfig::small(seed).generate();
        let a = Sta::new(n.clone(), Sdc::with_period(t0), DerateSet::standard())
            .expect("valid design");
        let b = Sta::new(n, Sdc::with_period(t0 + delta), DerateSet::standard())
            .expect("valid design");
        for e in a.netlist().endpoints().into_iter().take(8) {
            let sa = a.setup_slack(e);
            let sb = b.setup_slack(e);
            if sa.is_finite() && sb.is_finite() {
                prop_assert!((sb - sa - delta).abs() < 1e-9);
            }
        }
    }

    /// Uniformly more negative weights never increase any arrival.
    #[test]
    fn weights_are_monotone_in_arrivals(seed in 0u64..30,
                                        w1 in -0.10f64..0.0, w2 in -0.10f64..0.0) {
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let n = GeneratorConfig::small(seed).generate();
        let mut sta = Sta::new(n, Sdc::with_period(1500.0), DerateSet::standard())
            .expect("valid design");
        let cells = sta.netlist().num_cells();
        sta.set_weights(&vec![hi; cells]);
        let arr_hi: Vec<f64> = sta.netlist().endpoints().iter()
            .map(|&e| sta.endpoint_arrival(e)).collect();
        sta.set_weights(&vec![lo; cells]);
        for (e, &ah) in sta.netlist().endpoints().iter().zip(&arr_hi) {
            let al = sta.endpoint_arrival(*e);
            if al.is_finite() && ah.is_finite() {
                prop_assert!(al <= ah + 1e-9,
                    "more negative weights must not slow paths: {al} > {ah}");
            }
        }
    }

    /// Hold slack never depends on the clock period (same-cycle check).
    #[test]
    fn hold_is_period_independent(seed in 0u64..30, t0 in 800.0f64..1500.0,
                                  delta in 10.0f64..2000.0) {
        let n = GeneratorConfig::small(seed).generate();
        let a = Sta::new(n.clone(), Sdc::with_period(t0), DerateSet::standard())
            .expect("valid design");
        let b = Sta::new(n, Sdc::with_period(t0 + delta), DerateSet::standard())
            .expect("valid design");
        for e in a.netlist().endpoints().into_iter().take(8) {
            match (a.hold_slack(e), b.hold_slack(e)) {
                (Some(ha), Some(hb)) if ha.is_finite() && hb.is_finite() => {
                    prop_assert!((ha - hb).abs() < 1e-9);
                }
                _ => {}
            }
        }
    }
}

/// Every per-cell value the engine propagates, as bits.
fn timing_bits(sta: &Sta) -> Vec<[u64; 7]> {
    (0..sta.netlist().num_cells())
        .map(CellId::new)
        .map(|c| {
            [
                sta.gate_delay(c),
                sta.slew(c),
                sta.arrival_late(c),
                sta.arrival_early(c),
                sta.clock_arrival_late(c),
                sta.clock_arrival_early(c),
                sta.required_late(c),
            ]
            .map(f64::to_bits)
        })
        .collect()
}

/// Applies one random edit (resize, revert, buffer insertion, weight
/// install or clear, retarget) and names it.
fn random_step(
    sta: &mut Sta,
    rng: &mut StdRng,
    undo: &mut Vec<(CellId, LibCellId)>,
    buffers: &mut usize,
) -> String {
    let n = sta.netlist().num_cells();
    match rng.random_range(0..7u32) {
        kind @ (0 | 1) => {
            let lib = sta.netlist().library();
            let sized = |c: CellId| {
                let lc = sta.netlist().cell(c).lib_cell;
                if kind == 0 {
                    lib.upsized(lc)
                } else {
                    lib.downsized(lc)
                }
            };
            let candidates: Vec<CellId> = (0..n)
                .map(CellId::new)
                .filter(|&c| sized(c).is_some())
                .collect();
            if candidates.is_empty() {
                return "no resizable cell".into();
            }
            let c = candidates[rng.random_range(0..candidates.len())];
            let (old, new) = (sta.netlist().cell(c).lib_cell, sized(c).expect("filtered"));
            sta.resize_cell(c, new).expect("same function");
            undo.push((c, old));
            format!("resize {c} ({})", if kind == 0 { "up" } else { "down" })
        }
        2 => match undo.pop() {
            Some((c, old)) => {
                sta.resize_cell(c, old).expect("same function");
                format!("revert {c}")
            }
            None => "nothing to revert".into(),
        },
        3 => {
            let drivers: Vec<CellId> = sta
                .netlist()
                .cells()
                .filter(|(_, cell)| cell.role == CellRole::Combinational)
                .map(|(id, _)| id)
                .filter(|&id| !sta.graph().fanouts(id).is_empty())
                .collect();
            let gate = drivers[rng.random_range(0..drivers.len())];
            let net = sta.netlist().cell(gate).output.expect("has fanout");
            let sinks = &sta.netlist().net(net).sinks;
            // Move every sink, or only the first half.
            let moved: Vec<_> = if sinks.len() > 1 && rng.random_bool(0.5) {
                sinks[..sinks.len() / 2].to_vec()
            } else {
                Vec::new()
            };
            let buf = sta
                .netlist()
                .library()
                .variant(Function::Buf, DriveStrength::X2)
                .expect("standard library");
            *buffers += 1;
            let name = format!("prop_buf_{buffers}");
            sta.insert_buffer(net, buf, &name, &moved)
                .expect("legal insertion");
            format!("buffer {name} on {gate}")
        }
        4 => {
            // Sparse weights, sometimes edited in place; values below -1
            // hit the zero clamp of the effective derate.
            let mut w: Vec<f64> = if rng.random_bool(0.5) {
                (0..n).map(|i| sta.gate_weight(CellId::new(i))).collect()
            } else {
                vec![0.0; n]
            };
            for _ in 0..(n / 25).max(1) {
                w[rng.random_range(0..n)] = match rng.random_range(0..4u32) {
                    0 => rng.random_range(-3.0..-1.0),
                    1 => 0.0,
                    _ => rng.random_range(-0.4..0.4),
                };
            }
            sta.set_weights(&w);
            "set_weights".into()
        }
        5 => {
            let period = rng.random_range(500.0..3000.0);
            sta.set_period(period);
            format!("set_period {period}")
        }
        _ => {
            sta.clear_weights();
            "clear_weights".into()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every update (resize, revert, buffer insertion, weight install,
    /// weight clear, retarget) leaves each cell's delay, slew, arrivals,
    /// clock arrivals and required time bit-identical to a full update of
    /// the same netlist, weights and period.
    #[test]
    fn every_update_matches_a_full_update_bit_for_bit(
        d1_class in 0u32..2, seed in 0u64..1000, steps_seed in 0u64..1_000_000
    ) {
        let (netlist, period) = if d1_class == 1 {
            let mut config = DesignSpec::D1.config();
            config.seed = seed;
            (config.generate(), 2000.0)
        } else {
            (GeneratorConfig::small(seed).generate(), 1000.0)
        };
        let mut sta = Sta::new(netlist, Sdc::with_period(period), DerateSet::standard())
            .expect("valid design");
        let mut rng = StdRng::seed_from_u64(steps_seed);
        let (mut undo, mut buffers) = (Vec::new(), 0);
        for k in 0..16 {
            let step = random_step(&mut sta, &mut rng, &mut undo, &mut buffers);
            let mut full = sta.clone();
            full.full_update();
            let (got, want) = (timing_bits(&sta), timing_bits(&full));
            let first = (0..got.len()).find(|&i| got[i] != want[i]);
            prop_assert!(first.is_none(),
                "design seed {seed}, step {k} ({step}): cell {first:?} differs from a full update");
            if step.ends_with("weights") {
                prop_assert!(sta.last_touched().is_empty(), "installs clear last_touched");
            }
        }
    }
}

/// A seeded small or D1-class engine, with sparse random weights
/// installed when `weighted`, and the fixed path selection it monitors.
fn monitored_engine(d1: bool, seed: u64, weighted: bool, rng: &mut StdRng) -> (Sta, Vec<Path>) {
    let (netlist, period) = if d1 {
        let mut config = DesignSpec::D1.config();
        config.seed = seed;
        (config.generate(), 2000.0)
    } else {
        (GeneratorConfig::small(seed).generate(), 1000.0)
    };
    let mut sta =
        Sta::new(netlist, Sdc::with_period(period), DerateSet::standard()).expect("valid design");
    if weighted {
        let n = sta.netlist().num_cells();
        let w: Vec<f64> = (0..n)
            .map(|_| {
                if rng.random_bool(0.3) {
                    rng.random_range(-0.4..0.4)
                } else {
                    0.0
                }
            })
            .collect();
        sta.set_weights(&w);
    }
    let paths = select_critical_paths(&sta, 3, 300, false);
    (sta, paths)
}

/// Resizes a random combinational cell, flip-flop or clock buffer up or
/// down, and names the step; `None` if that class has no such drive.
fn random_resize(sta: &mut Sta, rng: &mut StdRng) -> Option<String> {
    let role = [
        CellRole::Combinational,
        CellRole::Sequential,
        CellRole::ClockBuffer,
    ][rng.random_range(0..3usize)];
    let up = rng.random_bool(0.5);
    let lib = sta.netlist().library();
    let sized = |c: CellId| {
        let lc = sta.netlist().cell(c).lib_cell;
        if up {
            lib.upsized(lc)
        } else {
            lib.downsized(lc)
        }
    };
    let candidates: Vec<(CellId, LibCellId)> = sta
        .netlist()
        .cells()
        .filter(|(_, cell)| cell.role == role)
        .filter_map(|(id, _)| sized(id).map(|to| (id, to)))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let (c, to) = candidates[rng.random_range(0..candidates.len())];
    sta.resize_cell(c, to).expect("same function");
    Some(format!("{role:?} {c} {}", if up { "up" } else { "down" }))
}

/// Whether any cell `path`'s timing reads (its own cells and its launch
/// and capture clock paths) is in `set`.
fn reads_any(sta: &Sta, path: &Path, set: &[CellId]) -> bool {
    path.cells
        .iter()
        .chain(sta.clock_path(path.startpoint()))
        .chain(sta.clock_path(path.endpoint))
        .any(|c| set.binary_search_by_key(&c.index(), |s| s.index()).is_ok())
}

/// A path timing's fields, as bits.
fn path_timing_bits(t: &PathTiming) -> [u64; 6] {
    [
        t.arrival.to_bits(),
        t.required.to_bits(),
        t.slack.to_bits(),
        t.depth as u64,
        t.distance.to_bits(),
        t.derate.to_bits(),
    ]
}

/// Runs 10 random resizes on a monitored engine and calls `check` with
/// the engine before and after each, the monitored paths and the step's
/// name.
fn resize_walk(
    d1: bool,
    seed: u64,
    weighted: bool,
    steps_seed: u64,
    mut check: impl FnMut(&Sta, &Sta, &[Path], &str),
) {
    let mut rng = StdRng::seed_from_u64(steps_seed);
    let (mut sta, paths) = monitored_engine(d1, seed, weighted, &mut rng);
    for k in 0..10 {
        let before = sta.clone();
        let Some(step) = random_resize(&mut sta, &mut rng) else {
            continue;
        };
        check(
            &before,
            &sta,
            &paths,
            &format!("design seed {seed}, step {k} ({step})"),
        );
    }
}

/// Asserts that every monitored path whose cells and clock paths miss
/// the step's [`Sta::last_changed`] kept its `timing` bit for bit.
fn assert_missed_paths_keep(
    timing: fn(&Sta, &Path) -> PathTiming,
    view: &'static str,
) -> impl FnMut(&Sta, &Sta, &[Path], &str) {
    move |before, after, paths, step| {
        for (i, p) in paths.iter().enumerate() {
            if reads_any(after, p, after.last_changed()) {
                continue;
            }
            assert_eq!(
                path_timing_bits(&timing(after, p)),
                path_timing_bits(&timing(before, p)),
                "{step}: path {i} misses last_changed but its {view} timing moved"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A path that reads no cell of `last_changed` keeps its GBA timing.
    #[test]
    fn paths_missing_last_changed_keep_their_gba_timing(
        d1_class in 0u32..2, weighted in 0u32..2, seed in 0u64..1000, steps_seed in 0u64..1_000_000
    ) {
        resize_walk(d1_class == 1, seed, weighted == 1, steps_seed,
            assert_missed_paths_keep(gba_path_timing, "GBA"));
    }

    /// A path that reads no cell of `last_changed` keeps its PBA timing.
    #[test]
    fn paths_missing_last_changed_keep_their_pba_timing(
        d1_class in 0u32..2, weighted in 0u32..2, seed in 0u64..1000, steps_seed in 0u64..1_000_000
    ) {
        resize_walk(d1_class == 1, seed, weighted == 1, steps_seed,
            assert_missed_paths_keep(pba_timing, "PBA"));
    }

    /// `last_changed` is sorted, duplicate-free and inside `last_touched`.
    #[test]
    fn last_changed_is_a_canonical_subset_of_last_touched(
        d1_class in 0u32..2, weighted in 0u32..2, seed in 0u64..1000, steps_seed in 0u64..1_000_000
    ) {
        resize_walk(d1_class == 1, seed, weighted == 1, steps_seed,
            |_, sta, _, step| {
                let (changed, touched) = (sta.last_changed(), sta.last_touched());
                prop_assert!(changed.windows(2).all(|w| w[0].index() < w[1].index()),
                    "{step}: last_changed is not sorted and duplicate-free");
                prop_assert!(changed.iter().all(|c| touched.contains(c)),
                    "{step}: last_changed has a cell outside last_touched");
            });
    }
}
