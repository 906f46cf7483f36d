//! Seeded inputs: a named design class with its generator seed replaced
//! by one derived from the benchmark's `--seed`, and the clock periods
//! the workloads run at.

use crate::layers::Layers;
use netlist::{DesignSpec, Netlist};
use sta::{DerateSet, Sdc, Sta};

/// Generates `spec`'s design class with generator seed `seed`.
pub fn generate(spec: DesignSpec, seed: u64, layers: &mut Layers) -> Netlist {
    let mut config = spec.config();
    config.seed = seed;
    layers.time("netlist.generate_ms", || config.generate())
}

/// The clock period at which the worst endpoint violates by `fraction`
/// of the worst data arrival: the rule `bench::build_engine` applies to
/// the fixed-seed designs, applied here to a seeded one.
pub fn period_at_fraction(
    netlist: &Netlist,
    fraction: f64,
    layers: &mut Layers,
) -> Result<f64, String> {
    const RELAXED: f64 = 100_000.0;
    layers.time("sta.probe_period_ms", || {
        let probe = Sta::new(
            netlist.clone(),
            Sdc::with_period(RELAXED),
            DerateSet::standard(),
        )
        .map_err(|e| format!("probe engine: {e}"))?;
        let max_arrival = netlist
            .endpoints()
            .iter()
            .map(|&e| probe.endpoint_arrival(e))
            .filter(|a| a.is_finite())
            .fold(0.0, f64::max);
        Ok(RELAXED - probe.wns() - fraction * max_arrival)
    })
}

/// Builds the timing engine at `period` (the standard derate set).
pub fn build(netlist: Netlist, period: f64, layers: &mut Layers) -> Result<Sta, String> {
    layers
        .time("sta.build_ms", || mgba::build_engine(netlist, period))
        .map_err(|e| format!("engine build: {e}"))
}
