//! Local timing-repair transforms: gate sizing and buffer insertion.
//!
//! These are the "millions of various modifications" of the paper's Fig. 5
//! optimization loop, at the granularity the flow applies them: given a
//! violating endpoint's worst path, improve the most promising spot and
//! let the engine's incremental update refresh timing.

use netlist::{CellId, CellRole, Function, PinIndex};
use serde::{Deserialize, Serialize};
use sta::{Path, Sta};

/// What a repair attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transform {
    /// A gate was swapped to a stronger drive.
    Upsize(CellId),
    /// A buffer was inserted to isolate a long wire.
    Buffer(CellId),
    /// Nothing on the path could be improved.
    None,
}

/// Statistics of applied transforms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformCounts {
    /// Gates upsized.
    pub upsizes: u64,
    /// Buffers inserted.
    pub buffers: u64,
    /// Gates downsized during power/area recovery.
    pub downsizes: u64,
}

impl TransformCounts {
    /// Total transforms applied.
    pub fn total(&self) -> u64 {
        self.upsizes + self.buffers + self.downsizes
    }

    /// Records a transform.
    pub fn record(&mut self, t: Transform) {
        match t {
            Transform::Upsize(_) => self.upsizes += 1,
            Transform::Buffer(_) => self.buffers += 1,
            Transform::None => {}
        }
    }
}

/// Minimum wire delay (ps) on an edge before buffering is considered.
const BUFFER_WIRE_THRESHOLD: f64 = 8.0;

/// Tries to repair the worst path of a violating endpoint.
///
/// Strategy (one transform per call, worst-first): find both the path
/// gate with the largest derated delay contribution that still has
/// sizing headroom, and the path edge with the largest wire delay. Apply
/// whichever dominates — **buffer** the wire when its delay exceeds the
/// worst gate contribution (the quadratic distributed-RC term makes
/// splitting profitable), otherwise **upsize** the gate.
///
/// Returns what was done. The engine's timing is updated incrementally
/// (sizing) or rebuilt (buffering) before returning.
pub fn repair_path(sta: &mut Sta, path: &Path, buffer_seq: &mut u64) -> Transform {
    // Candidate 1: worst derated gate contribution with headroom.
    let mut best: Option<(f64, CellId)> = None;
    for &g in &path.cells[1..path.cells.len().saturating_sub(1)] {
        if sta.netlist().cell(g).role != CellRole::Combinational {
            continue;
        }
        let lib = sta.netlist().cell(g).lib_cell;
        if sta.netlist().library().cell(lib).function == Function::ClkBuf {
            continue;
        }
        if sta.netlist().library().upsized(lib).is_none() {
            continue;
        }
        let contribution = sta.gate_delay(g) * sta.effective_derate(g);
        if best.map(|(c, _)| contribution > c).unwrap_or(true) {
            best = Some((contribution, g));
        }
    }

    // Candidate 2: longest wire edge worth buffering.
    let mut worst_edge: Option<(f64, CellId, CellId, PinIndex)> = None;
    for w in path.cells.windows(2) {
        let (from, to) = (w[0], w[1]);
        let Some(edge) = sta
            .graph()
            .fanins(to)
            .iter()
            .find(|e| e.from == from)
            .copied()
        else {
            continue;
        };
        if edge.wire_delay > BUFFER_WIRE_THRESHOLD
            && worst_edge
                .map(|(d, ..)| edge.wire_delay > d)
                .unwrap_or(true)
        {
            worst_edge = Some((edge.wire_delay, from, to, edge.pin));
        }
    }

    let gate_first = match (&best, &worst_edge) {
        (Some((c, _)), Some((w, ..))) => c >= w,
        (Some(_), None) => true,
        _ => false,
    };
    if gate_first {
        let (_, g) = best.expect("gate_first implies a gate candidate");
        let up = sta
            .netlist()
            .library()
            .upsized(sta.netlist().cell(g).lib_cell)
            .expect("candidate has sizing headroom");
        sta.resize_cell(g, up)
            .expect("upsizing preserves the function");
        return Transform::Upsize(g);
    }
    if let Some((_, from, to, pin)) = worst_edge {
        let Some(net) = sta.netlist().cell(from).output else {
            return Transform::None;
        };
        let buf_lib = sta
            .netlist()
            .library()
            .find("BUF_X4")
            .expect("standard library has BUF_X4");
        *buffer_seq += 1;
        let name = format!("rbuf_{buffer_seq}");
        match sta.insert_buffer(net, buf_lib, &name, &[(to, pin)]) {
            Ok(buf) => Transform::Buffer(buf),
            Err(_) => Transform::None,
        }
    } else {
        Transform::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GeneratorConfig;
    use sta::paths::worst_paths_to_endpoint;

    fn tight_engine(seed: u64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        mgba::build_engine_at_fraction(n, 10_000.0, 0.1).unwrap()
    }

    #[test]
    fn repair_improves_the_repaired_path_slack() {
        let mut sta = tight_engine(131);
        let worst = sta.violating_endpoints()[0];
        let path = worst_paths_to_endpoint(&sta, worst, 1)[0].clone();
        let before = sta.setup_slack(worst);
        let mut seq = 0;
        let t = repair_path(&mut sta, &path, &mut seq);
        assert_ne!(t, Transform::None, "a violating path must be repairable");
        let after = sta.setup_slack(worst);
        assert!(
            after > before - 1e-9,
            "repair must not worsen the endpoint: {before} → {after}"
        );
    }

    #[test]
    fn repair_picks_the_dominant_candidate() {
        let mut sta = tight_engine(132);
        let worst = sta.violating_endpoints()[0];
        let path = worst_paths_to_endpoint(&sta, worst, 1)[0].clone();
        // Compute the candidates the same way repair does.
        let worst_gate = path.cells[1..path.cells.len() - 1]
            .iter()
            .filter(|&&g| sta.netlist().cell(g).role == CellRole::Combinational)
            .map(|&g| sta.gate_delay(g) * sta.effective_derate(g))
            .fold(0.0, f64::max);
        let worst_wire = path
            .cells
            .windows(2)
            .filter_map(|w| {
                sta.graph()
                    .fanins(w[1])
                    .iter()
                    .find(|e| e.from == w[0])
                    .map(|e| e.wire_delay)
            })
            .fold(0.0, f64::max);
        let mut seq = 0;
        match repair_path(&mut sta, &path, &mut seq) {
            Transform::Upsize(_) => assert!(worst_gate >= worst_wire),
            Transform::Buffer(_) => assert!(worst_wire > worst_gate),
            Transform::None => panic!("violating path must be repairable"),
        }
    }

    #[test]
    fn exhausted_sizing_falls_back_to_buffering() {
        let mut sta = tight_engine(133);
        // Max out every gate first.
        let cells: Vec<CellId> = sta
            .netlist()
            .cells()
            .filter(|(_, c)| {
                c.role == CellRole::Combinational
                    && sta.netlist().library().cell(c.lib_cell).function != Function::ClkBuf
            })
            .map(|(id, _)| id)
            .collect();
        for c in cells {
            while let Some(up) = sta
                .netlist()
                .library()
                .upsized(sta.netlist().cell(c).lib_cell)
            {
                sta.resize_cell(c, up).unwrap();
            }
        }
        let violating = sta.violating_endpoints();
        if violating.is_empty() {
            return; // sizing alone closed this seed; nothing to assert
        }
        let path = worst_paths_to_endpoint(&sta, violating[0], 1)[0].clone();
        let mut seq = 0;
        match repair_path(&mut sta, &path, &mut seq) {
            Transform::Buffer(_) => {
                assert_eq!(sta.netlist().buffer_count(), 1);
            }
            Transform::None => {} // no long-enough wire on this path
            Transform::Upsize(_) => panic!("sizing was exhausted"),
        }
    }

    #[test]
    fn counts_accumulate() {
        let mut c = TransformCounts::default();
        c.record(Transform::Upsize(CellId::new(0)));
        c.record(Transform::Buffer(CellId::new(1)));
        c.record(Transform::None);
        assert_eq!(c.upsizes, 1);
        assert_eq!(c.buffers, 1);
        assert_eq!(c.total(), 2);
    }
}
