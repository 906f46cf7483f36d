//! Advanced On-Chip Variation (AOCV) derating tables.
//!
//! AOCV replaces the single flat OCV derate (e.g. "multiply every delay by
//! 1.2") with a table indexed by **cell depth** (number of logic stages on
//! the path — deeper paths enjoy statistical variation cancellation, so
//! they need less margin) and **distance** (the bounding-box size of the
//! path — far-apart logic sees more systematic variation, so it needs more
//! margin). This is Table 1 of the paper.
//!
//! A [`DeratingTable`] is a dense grid over sorted depth and distance axes,
//! looked up with bilinear interpolation and clamped at the edges.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors constructing a [`DeratingTable`].
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// An axis is empty or not strictly increasing.
    BadAxis(&'static str),
    /// `values` length is not `depths × distances`.
    BadShape {
        /// Expected number of values.
        expected: usize,
        /// Provided number of values.
        got: usize,
    },
    /// A derate value is non-positive or non-finite.
    BadValue(f64),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::BadAxis(axis) => {
                write!(f, "{axis} axis must be non-empty and strictly increasing")
            }
            TableError::BadShape { expected, got } => {
                write!(f, "expected {expected} derate values, got {got}")
            }
            TableError::BadValue(v) => {
                write!(f, "derate value {v} is not a positive finite number")
            }
        }
    }
}

impl Error for TableError {}

/// A depth × distance derating table with bilinear interpolation.
///
/// ```
/// use sta::aocv::DeratingTable;
/// let t = DeratingTable::paper_table1();
/// // Exact grid point: depth 5, distance 1000 nm → 1.23.
/// assert!((t.lookup(5.0, 1.0) - 1.23).abs() < 1e-12);
/// // Clamped below the shallowest depth.
/// assert!((t.lookup(1.0, 0.5) - 1.30).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeratingTable {
    /// Strictly increasing cell-depth axis.
    depths: Vec<f64>,
    /// Strictly increasing distance axis in µm.
    distances: Vec<f64>,
    /// Row-major values: `values[di * depths.len() + ki]` for distance
    /// index `di` and depth index `ki`.
    values: Vec<f64>,
}

fn check_axis(axis: &[f64], name: &'static str) -> Result<(), TableError> {
    if axis.is_empty() || axis.windows(2).any(|w| w[0] >= w[1]) {
        return Err(TableError::BadAxis(name));
    }
    Ok(())
}

/// Finds the bracketing segment of `x` on `axis` and the interpolation
/// fraction within it; clamps outside the axis range.
fn bracket(axis: &[f64], x: f64) -> (usize, f64) {
    if x <= axis[0] || axis.len() == 1 {
        return (0, 0.0);
    }
    let last = axis.len() - 1;
    if x >= axis[last] {
        return (last - 1, 1.0);
    }
    // Axes are tiny (≤ tens of entries); linear scan beats binary search.
    let mut i = 0;
    while axis[i + 1] < x {
        i += 1;
    }
    let t = (x - axis[i]) / (axis[i + 1] - axis[i]);
    (i, t)
}

impl DeratingTable {
    /// Builds a table from axes and row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`TableError`] if an axis is not strictly increasing, the
    /// value count does not match, or any value is non-positive/non-finite.
    pub fn new(
        depths: Vec<f64>,
        distances: Vec<f64>,
        values: Vec<f64>,
    ) -> Result<Self, TableError> {
        check_axis(&depths, "depth")?;
        check_axis(&distances, "distance")?;
        let expected = depths.len() * distances.len();
        if values.len() != expected {
            return Err(TableError::BadShape {
                expected,
                got: values.len(),
            });
        }
        if let Some(&bad) = values.iter().find(|v| !v.is_finite() || **v <= 0.0) {
            return Err(TableError::BadValue(bad));
        }
        Ok(Self {
            depths,
            distances,
            values,
        })
    }

    /// A constant (depth- and distance-independent) derate — the
    /// conventional flat OCV penalty factor the paper's introduction
    /// describes.
    pub fn flat(derate: f64) -> Self {
        Self::new(vec![1.0], vec![1.0], vec![derate]).expect("flat table is always valid")
    }

    /// The exact example lookup table of the paper's Table 1
    /// (distances in µm: the paper's "500 nm" row is read as 500 µm-scale
    /// bounding boxes in our µm-based geometry; only the shape matters).
    pub fn paper_table1() -> Self {
        Self::new(
            vec![3.0, 4.0, 5.0, 6.0],
            vec![0.5, 1.0, 1.5],
            vec![
                1.30, 1.25, 1.20, 1.15, // 0.5
                1.32, 1.27, 1.23, 1.18, // 1.0
                1.35, 1.31, 1.28, 1.25, // 1.5
            ],
        )
        .expect("paper table is valid")
    }

    /// The default *late* (max-delay) derate table used by the benchmark
    /// designs: depths 1–64, distances 0–2000 µm, derates decaying with
    /// depth as `1 + a(dist)/sqrt(depth)` — the statistical cancellation
    /// law AOCV tables encode.
    pub fn standard_late() -> Self {
        let depths: Vec<f64> = [
            1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
        ]
        .to_vec();
        let distances: Vec<f64> = vec![50.0, 200.0, 500.0, 1000.0, 2000.0];
        let mut values = Vec::with_capacity(depths.len() * distances.len());
        for &dist in &distances {
            // Margin grows mildly with distance: 18% at 50 µm → 30% at 2 mm.
            let a = 0.18 + 0.12 * (dist / 2000.0);
            for &depth in &depths {
                values.push(1.0 + a / depth.sqrt());
            }
        }
        Self::new(depths, distances, values).expect("standard table is valid")
    }

    /// The default *early* (min-delay) derate table: symmetric speed-up
    /// margin below 1.0, used for hold analysis and capture-clock paths.
    pub fn standard_early() -> Self {
        let late = Self::standard_late();
        let values = late.values.iter().map(|v| 2.0 - v).collect();
        Self::new(late.depths.clone(), late.distances.clone(), values)
            .expect("mirrored table is valid")
    }

    /// Looks up the derate for a path (or gate) of `depth` stages whose
    /// bounding box measures `distance` µm, with bilinear interpolation and
    /// edge clamping.
    pub fn lookup(&self, depth: f64, distance: f64) -> f64 {
        let nd = self.depths.len();
        let (ki, kt) = bracket(&self.depths, depth);
        let (di, dt) = bracket(&self.distances, distance);
        let at = |d: usize, k: usize| self.values[d * nd + k];
        if nd == 1 && self.distances.len() == 1 {
            return at(0, 0);
        }
        if nd == 1 {
            return at(di, 0) * (1.0 - dt) + at(di + 1, 0) * dt;
        }
        if self.distances.len() == 1 {
            return at(0, ki) * (1.0 - kt) + at(0, ki + 1) * kt;
        }
        let lo = at(di, ki) * (1.0 - kt) + at(di, ki + 1) * kt;
        let hi = at(di + 1, ki) * (1.0 - kt) + at(di + 1, ki + 1) * kt;
        lo * (1.0 - dt) + hi * dt
    }
}

/// The complete derate configuration of an analysis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DerateSet {
    /// Late (max-delay) AOCV table applied to data-path cells.
    pub data_late: DeratingTable,
    /// Early (min-delay) AOCV table applied to data-path cells (hold).
    pub data_early: DeratingTable,
    /// Flat late derate on clock-network cells (launch view).
    pub clock_late: f64,
    /// Flat early derate on clock-network cells (capture view).
    pub clock_early: f64,
}

impl DerateSet {
    /// The standard benchmark derate set.
    pub fn standard() -> Self {
        Self {
            data_late: DeratingTable::standard_late(),
            data_early: DeratingTable::standard_early(),
            clock_late: 1.01,
            clock_early: 0.99,
        }
    }

    /// A flat-OCV derate set (no depth/distance dependence) for ablations.
    pub fn flat(late: f64, early: f64) -> Self {
        Self {
            data_late: DeratingTable::flat(late),
            data_early: DeratingTable::flat(early),
            clock_late: late,
            clock_early: early,
        }
    }
}

impl Default for DerateSet {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_exact_corners() {
        let t = DeratingTable::paper_table1();
        assert_eq!(t.lookup(3.0, 0.5), 1.30);
        assert_eq!(t.lookup(6.0, 0.5), 1.15);
        assert_eq!(t.lookup(3.0, 1.5), 1.35);
        assert_eq!(t.lookup(6.0, 1.5), 1.25);
    }

    #[test]
    fn interpolation_between_grid_points() {
        let t = DeratingTable::paper_table1();
        // Midway between depth 3 (1.30) and depth 4 (1.25) at distance 0.5.
        let v = t.lookup(3.5, 0.5);
        assert!((v - 1.275).abs() < 1e-12);
        // Midway in both axes.
        let v = t.lookup(3.5, 0.75);
        let expect = (1.275 + (1.32 + 1.27) / 2.0) / 2.0;
        assert!((v - expect).abs() < 1e-12);
    }

    #[test]
    fn clamping_outside_range() {
        let t = DeratingTable::paper_table1();
        assert_eq!(t.lookup(0.0, 0.5), 1.30);
        assert_eq!(t.lookup(100.0, 0.5), 1.15);
        assert_eq!(t.lookup(3.0, 0.0), 1.30);
        assert_eq!(t.lookup(3.0, 99.0), 1.35);
    }

    #[test]
    fn derate_monotone_in_depth_and_distance() {
        let t = DeratingTable::standard_late();
        let mut prev = f64::INFINITY;
        for depth in 1..=64 {
            let v = t.lookup(depth as f64, 300.0);
            assert!(v <= prev + 1e-12, "derate must fall with depth");
            assert!(v > 1.0);
            prev = v;
        }
        assert!(t.lookup(8.0, 1500.0) > t.lookup(8.0, 100.0));
    }

    #[test]
    fn early_table_mirrors_late() {
        let late = DeratingTable::standard_late();
        let early = DeratingTable::standard_early();
        let l = late.lookup(6.0, 400.0);
        let e = early.lookup(6.0, 400.0);
        assert!((l + e - 2.0).abs() < 1e-12);
        assert!(e < 1.0);
    }

    #[test]
    fn flat_table_ignores_inputs() {
        let t = DeratingTable::flat(1.2);
        assert_eq!(t.lookup(1.0, 1.0), 1.2);
        assert_eq!(t.lookup(64.0, 2000.0), 1.2);
    }

    #[test]
    fn bad_axis_rejected() {
        assert!(matches!(
            DeratingTable::new(vec![], vec![1.0], vec![]),
            Err(TableError::BadAxis("depth"))
        ));
        assert!(matches!(
            DeratingTable::new(vec![2.0, 1.0], vec![1.0], vec![1.1, 1.2]),
            Err(TableError::BadAxis("depth"))
        ));
    }

    #[test]
    fn bad_shape_and_values_rejected() {
        assert!(matches!(
            DeratingTable::new(vec![1.0, 2.0], vec![1.0], vec![1.1]),
            Err(TableError::BadShape {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            DeratingTable::new(vec![1.0], vec![1.0], vec![-0.5]),
            Err(TableError::BadValue(_))
        ));
        assert!(matches!(
            DeratingTable::new(vec![1.0], vec![1.0], vec![f64::NAN]),
            Err(TableError::BadValue(_))
        ));
    }

    #[test]
    fn derate_set_defaults() {
        let d = DerateSet::default();
        assert!(d.clock_late > 1.0);
        assert!(d.clock_early < 1.0);
        let f = DerateSet::flat(1.2, 0.9);
        assert_eq!(f.data_late.lookup(10.0, 10.0), 1.2);
    }

    #[test]
    fn error_display() {
        assert!(TableError::BadAxis("depth").to_string().contains("depth"));
        assert!(TableError::BadValue(0.0).to_string().contains('0'));
    }
}
