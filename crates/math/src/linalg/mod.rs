//! Small dense and banded linear algebra.
//!
//! The pricing engines need three kinds of solver, on matrices whose
//! dimension is the number of assets (≤ ~20) or regression basis size
//! (≤ ~50), plus tridiagonal systems of grid size for the PDE engines:
//!
//! * [`Cholesky`] — correlation-matrix factorisation for correlated
//!   Gaussian sampling (every Monte Carlo path starts here), and the
//!   solver of the Longstaff–Schwartz regression's normal equations.
//! * [`symmetric_eigen`] — Jacobi eigendecomposition, used to repair an
//!   indefinite correlation matrix ([`nearest_correlation`]).
//! * [`tridiag`] — Thomas and parallel cyclic-reduction tridiagonal
//!   solvers for Crank–Nicolson/ADI time stepping.
//!
//! Sizes are small, so the implementations favour clarity and numerical
//! robustness over blocking/SIMD; the hot loops of the engines are in path
//! generation and lattice sweeps, not here.

mod cholesky;
mod eigen;
mod matrix;
pub mod tridiag;

pub use cholesky::Cholesky;
pub use eigen::{nearest_correlation, symmetric_eigen, SymmetricEigen};
pub use matrix::Matrix;
pub use tridiag::{factored_theta_system, theta_system, FactoredTridiag, ThomasScratch, Tridiag};
