//! Timing constraints (the SDC of this reproduction).

use serde::{Deserialize, Serialize};

/// Design timing constraints: a single clock domain plus boundary delays.
///
/// ```
/// use sta::Sdc;
/// let sdc = Sdc::with_period(1200.0);
/// assert_eq!(sdc.clock_period, 1200.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sdc {
    /// Clock period in ps.
    pub clock_period: f64,
    /// Latest arrival of primary inputs relative to the clock edge, ps.
    pub input_delay_late: f64,
    /// Earliest arrival of primary inputs relative to the clock edge, ps.
    pub input_delay_early: f64,
    /// Required margin at primary outputs before the next edge, ps
    /// (external setup time of the receiving device).
    pub output_delay: f64,
}

impl Sdc {
    /// Constraints with the given clock period and zero boundary delays.
    pub fn with_period(clock_period: f64) -> Self {
        Self {
            clock_period,
            input_delay_late: 0.0,
            input_delay_early: 0.0,
            output_delay: 0.0,
        }
    }
}

impl Default for Sdc {
    fn default() -> Self {
        Self::with_period(1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let sdc = Sdc::with_period(800.0);
        assert_eq!(sdc.input_delay_late, 0.0);
        assert_eq!(Sdc::default().clock_period, 1000.0);
    }
}
