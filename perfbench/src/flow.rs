//! `closure_flow`: the mGBA-driven timing-closure flow of Tables 2 and 5,
//! run from a clone of one pristine engine per op.

use crate::design;
use crate::layers::{Layers, Metric};
use crate::Workload;
use mgba::{MgbaConfig, Solver};
use netlist::DesignSpec;
use optim::{run_flow, FlowConfig, FlowResult};
use sta::Sta;

/// The design class the flow runs on.
const SPEC: DesignSpec = DesignSpec::D1;

/// The flow's outcome that every op must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QorSignature {
    /// Final WNS, TNS, area and leakage (GBA view), as bit patterns.
    qor_bits: [u64; 4],
    violating: usize,
    buffers: usize,
    closed: bool,
    passes: usize,
    transforms: [u64; 3],
}

impl QorSignature {
    fn new(r: &FlowResult) -> Self {
        let q = &r.qor_final;
        Self {
            qor_bits: [q.wns, q.tns, q.area, q.leakage].map(f64::to_bits),
            violating: q.violating_endpoints,
            buffers: q.buffers,
            closed: r.closed,
            passes: r.passes,
            transforms: [r.counts.upsizes, r.counts.buffers, r.counts.downsizes],
        }
    }
}

/// The closure-flow workload.
pub struct ClosureFlow {
    pristine: Sta,
    config: FlowConfig,
    reference: QorSignature,
    area_ratio: f64,
    leakage_ratio: f64,
}

impl ClosureFlow {
    /// Builds the pristine engine at the flow period and runs the
    /// warm-up flow, whose QoR every op must reproduce.
    pub fn setup(seed: u64, layers: &mut Layers) -> Result<Self, String> {
        let netlist = design::generate(SPEC, seed, layers);
        let period =
            design::period_at_fraction(&netlist, bench::flow_violation_fraction(SPEC), layers)?;
        let pristine = design::build(netlist, period, layers)?;
        let config = FlowConfig::mgba(MgbaConfig::default(), Solver::ScgRs);
        let first = run_flow(&mut pristine.clone(), &config);
        let initial = &first.qor_initial;
        Ok(Self {
            area_ratio: first.qor_final.area / initial.area,
            leakage_ratio: first.qor_final.leakage / initial.leakage,
            reference: QorSignature::new(&first),
            pristine,
            config,
        })
    }

    fn check(&self, r: &FlowResult) -> Result<(), String> {
        let sig = QorSignature::new(r);
        if sig != self.reference {
            return Err(format!(
                "flow QoR {sig:?} differs from the first flow's {:?}",
                self.reference
            ));
        }
        Ok(())
    }
}

impl Workload for ClosureFlow {
    fn op(&mut self) -> Result<(), String> {
        let r = run_flow(&mut self.pristine.clone(), &self.config);
        self.check(&r)
    }

    fn traced_op(&mut self, layers: &mut Layers) -> Result<(), String> {
        let mut sta = layers.time("sta.clone_ms", || self.pristine.clone());
        let r = layers.time("optim.flow_ms", || run_flow(&mut sta, &self.config));
        layers.value("optim.fit_ms", r.mgba_time.as_secs_f64() * 1e3, "ms");
        layers.value("optim.passes", r.passes as f64, "count");
        layers.value("optim.upsizes", r.counts.upsizes as f64, "count");
        layers.value("optim.buffers", r.counts.buffers as f64, "count");
        layers.value("optim.downsizes", r.counts.downsizes as f64, "count");
        let (before, after) = (self.pristine.stats, sta.stats);
        let updates = after.incremental_updates - before.incremental_updates;
        let cells = after.cells_propagated - before.cells_propagated;
        layers.value("sta.incremental_updates", updates as f64, "count");
        layers.value("sta.cells_propagated", cells as f64, "count");
        self.check(&r)
    }

    fn finish(self: Box<Self>) -> Result<Vec<Metric>, String> {
        let closed = if self.reference.closed { 1.0 } else { 0.0 };
        Ok(vec![
            Metric::new("area_ratio", self.area_ratio, "ratio"),
            Metric::new("leakage_ratio", self.leakage_ratio, "ratio"),
            Metric::new("closed_ratio", closed, "ratio"),
        ])
    }
}
