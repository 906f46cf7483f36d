//! The timing-closure optimization flow (the paper's Fig. 5).
//!
//! A violation-driven repair loop: each pass walks the violating
//! endpoints worst-first, repairs their worst paths with sizing/buffering
//! transforms, and relies on the engine's incremental timing update. The
//! timer the loop *believes* is pluggable:
//!
//! - [`TimerMode::Gba`] — original graph-based slacks (pessimistic);
//! - [`TimerMode::Mgba`] — mGBA-corrected slacks, refreshed every few
//!   passes by re-fitting the weights against golden PBA.
//!
//! Because mGBA removes pessimism, the mGBA-driven flow sees fewer
//! "violations" that were never real, applies fewer transforms, and exits
//! earlier — the source of the paper's Table 2 (area/leakage/buffer
//! savings) and Table 5 (runtime) improvements.

use crate::qor::Qor;
use crate::transforms::{repair_path, Transform, TransformCounts};
use mgba::{run_mgba, MgbaConfig, Solver};
use netlist::{CellId, CellRole};
use serde::{Deserialize, Serialize};
use sta::paths::worst_paths_to_endpoint;
use sta::Sta;
use std::time::{Duration, Instant};

/// Which timing view drives the optimization loop.
#[derive(Debug, Clone)]
pub enum TimerMode {
    /// Original GBA slacks.
    Gba,
    /// mGBA-corrected slacks.
    Mgba {
        /// Fitting configuration.
        config: MgbaConfig,
        /// Solver for the fit.
        solver: Solver,
        /// Re-fit the weights every this many passes (structural changes
        /// and sizing gradually stale the correction).
        refresh_every: usize,
    },
}

impl TimerMode {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            TimerMode::Gba => "GBA",
            TimerMode::Mgba { .. } => "mGBA",
        }
    }
}

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// The timing view driving repair decisions.
    pub timer: TimerMode,
    /// Maximum repair passes.
    pub max_passes: usize,
    /// Violating endpoints repaired per pass (worst first).
    pub endpoints_per_pass: usize,
    /// Acceptable number of violating endpoints at exit (the paper notes
    /// post-route flows tolerate a small number of waivable violations).
    pub target_violations: usize,
    /// Abort after this many passes without TNS improvement.
    pub stall_passes: usize,
    /// Run the area/leakage recovery phase after timing repair: downsize
    /// every gate whose slack margin (in the flow's own timing view)
    /// allows it. This is where timing pessimism directly costs silicon —
    /// a pessimistic timer sees less positive slack and recovers less.
    pub recovery: bool,
    /// Slack guard band (ps) for recovery: a downsize is accepted only if
    /// no additional endpoint drops below this margin in the flow's
    /// timing view. Absorbs the mGBA fit residual so recovery decisions
    /// made in the corrected view stay safe against golden PBA.
    pub recovery_guard: f64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            timer: TimerMode::Gba,
            max_passes: 80,
            endpoints_per_pass: 128,
            target_violations: 0,
            stall_passes: 4,
            recovery: true,
            recovery_guard: 150.0,
        }
    }
}

impl FlowConfig {
    /// A GBA-driven flow.
    pub fn gba() -> Self {
        Self::default()
    }

    /// An mGBA-driven flow with the given fit settings.
    pub fn mgba(config: MgbaConfig, solver: Solver) -> Self {
        Self {
            timer: TimerMode::Mgba {
                config,
                solver,
                refresh_every: 3,
            },
            ..Self::default()
        }
    }
}

/// One repair pass's snapshot, for convergence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PassTrace {
    /// Pass number (1-based).
    pub pass: usize,
    /// WNS in the flow's timing view after the pass, ps.
    pub wns: f64,
    /// TNS after the pass, ps.
    pub tns: f64,
    /// Violating endpoints after the pass.
    pub violating: usize,
    /// Cumulative transforms applied.
    pub transforms: u64,
}

/// Outcome of a flow run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowResult {
    /// Design name.
    pub design: String,
    /// Timer mode name (`"GBA"` / `"mGBA"`).
    pub timer: String,
    /// Repair passes executed.
    pub passes: usize,
    /// Transforms applied.
    pub counts: TransformCounts,
    /// Total wall time of the flow.
    pub elapsed: Duration,
    /// Portion spent inside mGBA fitting (zero for the GBA flow) — the
    /// paper's Table 5 "mGBA" column.
    pub mgba_time: Duration,
    /// QoR before optimization (original GBA view).
    pub qor_initial: Qor,
    /// QoR after optimization, measured in the **original GBA** view
    /// (weights cleared) so both flows are compared with one yardstick.
    pub qor_final: Qor,
    /// QoR after optimization in the flow's own timer view (what the exit
    /// decision saw).
    pub qor_final_timer_view: Qor,
    /// QoR after optimization with WNS/TNS measured by golden PBA — the
    /// common signoff yardstick for comparing flows.
    pub qor_final_pba: Qor,
    /// Whether the flow reached its violation target.
    pub closed: bool,
    /// Per-pass convergence snapshots (in the flow's own timing view).
    pub trace: Vec<PassTrace>,
}

/// Runs the timing-closure flow on `sta` (which must be freshly built,
/// i.e. with zero weights).
pub fn run_flow(sta: &mut Sta, config: &FlowConfig) -> FlowResult {
    let _span = obs::span("flow");
    let start = Instant::now();
    let mut mgba_time = Duration::ZERO;
    let qor_initial = Qor::capture(sta);
    let mut counts = TransformCounts::default();
    let mut buffer_seq = 0u64;
    let mut passes = 0usize;
    let mut stall = 0usize;
    let mut best_tns = f64::NEG_INFINITY;
    let mut trace: Vec<PassTrace> = Vec::new();
    let closed;

    loop {
        // Refresh the mGBA correction on schedule.
        if let TimerMode::Mgba {
            config: mgba_cfg,
            solver,
            refresh_every,
        } = &config.timer
        {
            if passes.is_multiple_of((*refresh_every).max(1)) {
                let _span = obs::span("refresh_fit");
                let t = Instant::now();
                let _report = run_mgba(sta, mgba_cfg, *solver);
                mgba_time += t.elapsed();
            }
        }

        let violating = sta.violating_endpoints();
        if violating.len() <= config.target_violations {
            closed = true;
            break;
        }
        if passes >= config.max_passes {
            closed = false;
            break;
        }

        let _repair_span = obs::span("repair");
        let mut applied = 0usize;
        for &endpoint in violating.iter().take(config.endpoints_per_pass) {
            // Earlier repairs this pass may have fixed this endpoint.
            if sta.setup_slack(endpoint) >= 0.0 {
                continue;
            }
            let Some(path) = worst_paths_to_endpoint(sta, endpoint, 1).into_iter().next() else {
                continue;
            };
            let t = repair_path(sta, &path, &mut buffer_seq);
            counts.record(t);
            if t != Transform::None {
                applied += 1;
            }
        }
        passes += 1;
        trace.push(PassTrace {
            pass: passes,
            wns: sta.wns(),
            tns: sta.tns(),
            violating: sta.violating_endpoints().len(),
            transforms: counts.total(),
        });
        if applied == 0 {
            // Nothing left to try: sizing exhausted and no bufferable
            // wires. Exit with whatever timing remains.
            closed = sta.violating_endpoints().len() <= config.target_violations;
            break;
        }
        let tns = sta.tns();
        if tns <= best_tns + 1e-9 {
            stall += 1;
            if stall >= config.stall_passes {
                closed = sta.violating_endpoints().len() <= config.target_violations;
                break;
            }
        } else {
            stall = 0;
            best_tns = tns;
        }
    }

    // Power/area recovery: greedily downsize gates (largest first) while
    // the flow's timing view stays clean. The timer's pessimism directly
    // limits how much can be reclaimed here.
    if config.recovery {
        let _span = obs::span("recovery");
        // Recovery probes *positive*-slack paths, which the repair-phase
        // fit (violating paths only) never constrained — so the recovery
        // correction must be fitted over every endpoint's near-critical
        // paths, and refreshed periodically as downsizing stales it.
        let recovery_fit = |sta: &mut Sta, mgba_time: &mut Duration| {
            if let TimerMode::Mgba {
                config: mgba_cfg,
                solver,
                ..
            } = &config.timer
            {
                let mut cfg = mgba_cfg.clone();
                cfg.only_violating = false;
                // Recovery only needs floors on each endpoint's worst few
                // paths; a slim fit keeps the overhead proportionate.
                cfg.paths_per_endpoint = 5;
                let t = Instant::now();
                let _ = run_mgba(sta, &cfg, *solver);
                *mgba_time += t.elapsed();
            }
        };
        recovery_fit(sta, &mut mgba_time);
        let mut floors = Floors::capture(sta, config.recovery_guard);
        let mut candidates: Vec<(f64, CellId)> = sta
            .netlist()
            .cells()
            .filter(|(_, c)| c.role == CellRole::Combinational)
            .map(|(id, c)| (sta.netlist().library().cell(c.lib_cell).area, id))
            .collect();
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("areas are finite"));
        let mut accepted_since_fit = 0usize;
        for (_, cell) in candidates {
            // Step the cell down the drive ladder until a floor breaks.
            loop {
                let lib = sta.netlist().cell(cell).lib_cell;
                let Some(down) = sta.netlist().library().downsized(lib) else {
                    break;
                };
                sta.resize_cell(cell, down)
                    .expect("downsizing preserves the function");
                if !floors.hold_after_resize(sta) {
                    sta.resize_cell(cell, lib)
                        .expect("reverting preserves the function");
                    break;
                }
                counts.downsizes += 1;
                accepted_since_fit += 1;
                if accepted_since_fit >= 2000 {
                    recovery_fit(sta, &mut mgba_time);
                    // Re-anchor on the refreshed view so fit noise cannot
                    // wedge the acceptance test.
                    floors = Floors::capture(sta, config.recovery_guard);
                    accepted_since_fit = 0;
                }
            }
        }
    }

    let qor_final_timer_view = Qor::capture(sta);
    // Common yardsticks: original GBA view and golden PBA.
    sta.clear_weights();
    let qor_final = Qor::capture(sta);
    let qor_final_pba = Qor::capture_pba(sta);

    obs::gauge_set("flow.passes", passes as f64);
    obs::gauge_set("flow.transforms", counts.total() as f64);
    obs::gauge_set("flow.qor.tns_final", qor_final.tns);
    obs::gauge_set("flow.qor.area_final", qor_final.area);
    obs::gauge_set(
        "flow.sta.incremental_updates",
        sta.stats.incremental_updates as f64,
    );
    obs::gauge_set(
        "flow.sta.cells_propagated",
        sta.stats.cells_propagated as f64,
    );
    FlowResult {
        design: sta.netlist().name().to_owned(),
        timer: config.timer.name().to_owned(),
        passes,
        counts,
        elapsed: start.elapsed(),
        mgba_time,
        qor_initial,
        qor_final,
        qor_final_timer_view,
        qor_final_pba,
        closed,
        trace,
    }
}

/// Recovery's per-endpoint slack floors: a downsize is accepted only if
/// every endpoint keeps `slack ≥ min(slack at capture, guard)` in the
/// flow's timing view. Endpoints already inside the guard band must not
/// degrade at all; comfortable endpoints may give up slack down to the
/// guard. (A count-based test would allow one endpoint to be traded for
/// a worse one.)
struct Floors {
    /// Each cell's floor; `−∞`, no floor, for a cell that is not an
    /// endpoint.
    by_cell: Vec<f64>,
    /// Whether every floor held at capture (a NaN slack breaks one).
    held: bool,
}

impl Floors {
    fn capture(sta: &Sta, guard: f64) -> Self {
        let mut by_cell = vec![f64::NEG_INFINITY; sta.netlist().num_cells()];
        for &e in sta.endpoints() {
            by_cell[e.index()] = sta.setup_slack(e).min(guard);
        }
        let mut floors = Self {
            by_cell,
            held: true,
        };
        floors.held = floors.hold_everywhere(sta);
        floors
    }

    fn holds_at(&self, sta: &Sta, cell: CellId) -> bool {
        let f = self.by_cell[cell.index()];
        !f.is_finite() || sta.setup_slack(cell) >= f - 1e-9
    }

    fn hold_everywhere(&self, sta: &Sta) -> bool {
        (0..self.by_cell.len()).all(|i| self.holds_at(sta, CellId::new(i)))
    }

    /// Whether every floor still holds after a resize, checking only the
    /// endpoints whose slack it can have moved. An endpoint's setup
    /// slack reads its data drivers' late arrivals, fixed wire delays,
    /// its own early clock arrival and its flip-flop's setup time, so an
    /// endpoint that is neither in [`Sta::last_touched`] nor fed by a
    /// cell in it kept its slack bit for bit. The floors all held before
    /// the resize: they held at capture, every accepted resize kept
    /// them, and a rejected one is reverted exactly.
    fn hold_after_resize(&self, sta: &Sta) -> bool {
        self.held
            && sta.last_touched().iter().all(|&c| {
                self.holds_at(sta, c)
                    && sta
                        .graph()
                        .data_fanouts(sta.netlist(), c)
                        .all(|e| self.holds_at(sta, e.to))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GeneratorConfig;
    use sta::{DerateSet, Sdc};

    /// Builds an engine whose clock period puts the worst endpoint at a
    /// violation of `frac` of the worst data arrival.
    fn tight_design(seed: u64, frac: f64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        mgba::build_engine_at_fraction(n, 10_000.0, frac).unwrap()
    }

    #[test]
    fn gba_flow_improves_timing() {
        let mut sta = tight_design(141, 0.08);
        let r = run_flow(&mut sta, &FlowConfig::gba());
        assert!(r.qor_initial.tns < 0.0, "start with violations");
        assert!(
            r.qor_final.tns > r.qor_initial.tns,
            "TNS must improve: {} → {}",
            r.qor_initial.tns,
            r.qor_final.tns
        );
        assert!(r.counts.total() > 0);
        assert!(r.passes > 0);
    }

    #[test]
    fn repair_only_flow_grows_area() {
        let mut sta = tight_design(142, 0.08);
        let mut cfg = FlowConfig::gba();
        cfg.recovery = false;
        let r = run_flow(&mut sta, &cfg);
        // Upsizing/buffering costs area and leakage.
        assert!(r.qor_final.area >= r.qor_initial.area);
        assert!(r.qor_final.leakage >= r.qor_initial.leakage);
    }

    #[test]
    fn recovery_reclaims_area() {
        let mut with = tight_design(142, 0.08);
        let r_with = run_flow(&mut with, &FlowConfig::gba());
        let mut without = tight_design(142, 0.08);
        let mut cfg = FlowConfig::gba();
        cfg.recovery = false;
        let r_without = run_flow(&mut without, &cfg);
        assert!(
            r_with.qor_final.area < r_without.qor_final.area,
            "recovery must reclaim area: {} !< {}",
            r_with.qor_final.area,
            r_without.qor_final.area
        );
        assert!(r_with.counts.downsizes > 0);
        // Recovery never re-breaks the flow's timing view.
        assert!(r_with.qor_final_timer_view.violating_endpoints == 0 || !r_with.closed);
    }

    #[test]
    fn mgba_flow_applies_fewer_transforms() {
        // The central QoR claim (Table 2): the mGBA-driven flow does less
        // work because it does not chase phantom violations.
        let mut gba_sta = tight_design(143, 0.06);
        let gba = run_flow(&mut gba_sta, &FlowConfig::gba());
        let mut mgba_sta = tight_design(143, 0.06);
        let mgba = run_flow(
            &mut mgba_sta,
            &FlowConfig::mgba(MgbaConfig::default(), Solver::ScgRs),
        );
        assert!(
            mgba.counts.total() <= gba.counts.total(),
            "mGBA {} transforms must not exceed GBA {}",
            mgba.counts.total(),
            gba.counts.total()
        );
        assert!(mgba.qor_final.area <= gba.qor_final.area + 1e-9);
        assert!(mgba.mgba_time > Duration::ZERO);
        assert_eq!(mgba.timer, "mGBA");
    }

    #[test]
    fn trace_records_every_pass() {
        let mut sta = tight_design(147, 0.08);
        let r = run_flow(&mut sta, &FlowConfig::gba());
        assert_eq!(r.trace.len(), r.passes);
        for (i, t) in r.trace.iter().enumerate() {
            assert_eq!(t.pass, i + 1);
        }
        if let (Some(first), Some(last)) = (r.trace.first(), r.trace.last()) {
            assert!(last.tns >= first.tns - 1e-9, "TNS must trend upward");
            assert!(last.transforms >= first.transforms);
        }
    }

    #[test]
    fn flow_closes_easy_design() {
        let mut sta = tight_design(144, 0.01);
        let r = run_flow(&mut sta, &FlowConfig::gba());
        assert!(r.closed, "a barely-violating design must close");
        assert_eq!(r.qor_final_timer_view.violating_endpoints, 0);
    }

    #[test]
    fn no_violations_needs_no_repair() {
        let n = GeneratorConfig::small(145).generate();
        let mut sta = Sta::new(n, Sdc::with_period(100_000.0), DerateSet::standard()).unwrap();
        let mut cfg = FlowConfig::gba();
        cfg.recovery = false;
        let r = run_flow(&mut sta, &cfg);
        assert!(r.closed);
        assert_eq!(r.counts.total(), 0);
        assert_eq!(r.passes, 0);
        assert_eq!(r.qor_initial.area, r.qor_final.area);
    }

    #[test]
    fn target_violations_allows_early_exit() {
        let mut strict = tight_design(146, 0.10);
        let all = sta_violations(&strict);
        assert!(all > 2);
        let mut cfg = FlowConfig::gba();
        cfg.recovery = false;
        cfg.target_violations = all; // already satisfied
        let r = run_flow(&mut strict, &cfg);
        assert!(r.closed);
        assert_eq!(r.counts.total(), 0);
    }

    #[test]
    fn touched_endpoint_check_matches_the_all_endpoint_check() {
        for seed in [141, 143] {
            for mgba in [false, true] {
                // A repaired design, in the GBA view or under a recovery
                // fit's weights, then every recovery trial.
                let mut sta = tight_design(seed, 0.08);
                let mut repair = FlowConfig::gba();
                repair.recovery = false;
                run_flow(&mut sta, &repair);
                if mgba {
                    let cfg = MgbaConfig {
                        only_violating: false,
                        paths_per_endpoint: 5,
                        ..MgbaConfig::default()
                    };
                    run_mgba(&mut sta, &cfg, Solver::ScgRs);
                }
                let floors = Floors::capture(&sta, FlowConfig::default().recovery_guard);
                assert!(floors.held);
                let mut cells: Vec<(f64, CellId)> = sta
                    .netlist()
                    .cells()
                    .filter(|(_, c)| c.role == CellRole::Combinational)
                    .map(|(id, c)| (sta.netlist().library().cell(c.lib_cell).area, id))
                    .collect();
                cells.sort_by(|a, b| b.0.total_cmp(&a.0));
                let (mut accepted, mut rejected) = (0, 0);
                for (_, cell) in cells {
                    loop {
                        let lib = sta.netlist().cell(cell).lib_cell;
                        let Some(down) = sta.netlist().library().downsized(lib) else {
                            break;
                        };
                        sta.resize_cell(cell, down).unwrap();
                        let held = floors.hold_after_resize(&sta);
                        assert_eq!(
                            held,
                            floors.hold_everywhere(&sta),
                            "seed {seed} mgba {mgba}: trial {}",
                            accepted + rejected
                        );
                        if !held {
                            sta.resize_cell(cell, lib).unwrap();
                            rejected += 1;
                            break;
                        }
                        accepted += 1;
                    }
                }
                assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
            }
        }
    }

    fn sta_violations(sta: &Sta) -> usize {
        sta.violating_endpoints().len()
    }
}
