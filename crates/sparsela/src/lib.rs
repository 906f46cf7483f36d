//! Sparse linear-algebra kernels for the mGBA optimization solver.
//!
//! The mGBA fitting problem is a least-squares system `A·x ≈ b` where `A`
//! is the (paths × gates) incidence matrix of Eq. (9) in the paper — each
//! row holds the derated delays of the gates on one path, so it is
//! extremely sparse (a path visits tens of gates out of thousands). This
//! crate provides exactly the kernels the solvers in [`mgba`] need:
//!
//! - [`CsrMatrix`] — compressed sparse row storage with `A·x`, `Aᵀ·y`,
//!   row slicing, and row-norm queries;
//! - [`sampling`] — uniform row sampling (Algorithm 1 of the paper) and
//!   norm-proportional row sampling (the randomized-Kaczmarz distribution
//!   of Eq. (11));
//! - [`vecops`] — the handful of dense vector operations used everywhere.
//!
//! [`mgba`]: https://docs.rs/mgba

pub mod csr;
pub mod sampling;
pub mod vecops;

pub use csr::{CsrBuilder, CsrMatrix};
pub use sampling::{NormSampler, UniformSampler};
