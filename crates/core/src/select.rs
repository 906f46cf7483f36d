//! Critical-path selection schemes (§3.2 of the paper).
//!
//! The fitting problem cannot include every timing path, so a selection
//! scheme chooses which paths constrain the weights. The paper compares:
//!
//! - **Global top-m′** — sort all paths by GBA slack, keep the worst m′.
//!   Concentrates on critical gates and leaves much of the design
//!   uncovered (their small case: 47% gate coverage, error 72.4%).
//! - **Per-endpoint top-k′** — for every endpoint keep its k′ worst
//!   paths. Covers far more gates (95% / error 5.1% in the paper) and is
//!   also cheaper: only per-endpoint sorts are needed.

use serde::{Deserialize, Serialize};
use sta::{paths, Path, Sta};
use std::collections::HashSet;

/// Which selection scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionScheme {
    /// Worst `m` paths globally, regardless of endpoint (the paper's
    /// strawman first scheme). Paths are drawn from per-endpoint
    /// enumeration with `k_enum` candidates each before the global sort.
    TopGlobal {
        /// Candidate paths enumerated per endpoint before sorting.
        k_enum: usize,
        /// Paths kept after the global sort.
        m: usize,
    },
    /// The paper's second scheme: `k` worst paths per endpoint, capped at
    /// `max_total` overall.
    PerEndpoint {
        /// Paths kept per endpoint (`k'`).
        k: usize,
        /// Global cap (`m'`).
        max_total: usize,
    },
}

/// Outcome of a selection run.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The selected paths.
    pub paths: Vec<Path>,
    /// Distinct combinational gates appearing on selected paths.
    pub covered_gates: usize,
    /// Total combinational gates in the design.
    pub total_gates: usize,
}

impl Selection {
    /// Gate coverage in `[0, 1]` — the paper's §3.2 coverage statistic.
    pub fn coverage(&self) -> f64 {
        if self.total_gates == 0 {
            0.0
        } else {
            self.covered_gates as f64 / self.total_gates as f64
        }
    }
}

/// Runs `scheme` on `sta`, optionally keeping only violating paths.
pub fn select_paths(sta: &Sta, scheme: SelectionScheme, only_violating: bool) -> Selection {
    let mut selected = match scheme {
        SelectionScheme::TopGlobal { k_enum, m } => {
            let mut all = paths::select_top_global_paths(sta, k_enum, usize::MAX);
            if only_violating {
                all.retain(|p| p.gba_slack < 0.0);
            }
            all.truncate(m);
            all
        }
        SelectionScheme::PerEndpoint { k, max_total } => {
            paths::select_critical_paths(sta, k, max_total, only_violating)
        }
    };
    // Stable order: worst slack first (already sorted by the selectors for
    // the global scheme; enforce for both).
    selected.sort_by(|a, b| {
        a.gba_slack
            .partial_cmp(&b.gba_slack)
            .expect("slacks are finite")
    });

    let mut gates: HashSet<netlist::CellId> = HashSet::new();
    for p in &selected {
        for &c in &p.cells[1..p.cells.len().saturating_sub(1)] {
            gates.insert(c);
        }
    }
    let total_gates = sta
        .netlist()
        .cells()
        .filter(|(_, c)| c.role == netlist::CellRole::Combinational)
        .count();
    Selection {
        covered_gates: gates.len(),
        total_gates,
        paths: selected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GeneratorConfig;

    fn tight_engine(seed: u64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        crate::build_engine_at_fraction(n, 10_000.0, 0.15).unwrap()
    }

    #[test]
    fn per_endpoint_covers_more_gates_than_global() {
        // The load-bearing claim of §3.2: for a comparable path budget,
        // the per-endpoint scheme covers more gates.
        let sta = tight_engine(81);
        let per = select_paths(
            &sta,
            SelectionScheme::PerEndpoint {
                k: 5,
                max_total: usize::MAX,
            },
            false,
        );
        let budget = per.paths.len();
        let global = select_paths(
            &sta,
            SelectionScheme::TopGlobal {
                k_enum: 20,
                m: budget,
            },
            false,
        );
        assert!(
            per.coverage() > global.coverage(),
            "per-endpoint {:.2} must beat global {:.2} at equal budget {budget}",
            per.coverage(),
            global.coverage()
        );
    }

    #[test]
    fn violating_filter_restricts() {
        let sta = tight_engine(82);
        let all = select_paths(
            &sta,
            SelectionScheme::PerEndpoint {
                k: 5,
                max_total: usize::MAX,
            },
            false,
        );
        let viol = select_paths(
            &sta,
            SelectionScheme::PerEndpoint {
                k: 5,
                max_total: usize::MAX,
            },
            true,
        );
        assert!(viol.paths.len() <= all.paths.len());
        assert!(viol.paths.iter().all(|p| p.gba_slack < 0.0));
        assert!(!viol.paths.is_empty(), "tight period must violate");
    }

    #[test]
    fn selection_sorted_worst_first() {
        let sta = tight_engine(83);
        let sel = select_paths(
            &sta,
            SelectionScheme::PerEndpoint {
                k: 4,
                max_total: 100,
            },
            false,
        );
        for w in sel.paths.windows(2) {
            assert!(w[0].gba_slack <= w[1].gba_slack + 1e-9);
        }
        assert!(sel.covered_gates <= sel.total_gates);
        assert!(sel.coverage() > 0.0);
    }

    #[test]
    fn max_total_caps_selection() {
        let sta = tight_engine(84);
        let sel = select_paths(
            &sta,
            SelectionScheme::PerEndpoint {
                k: 10,
                max_total: 7,
            },
            false,
        );
        assert_eq!(sel.paths.len(), 7);
    }
}
