//! Fused panel payoff evaluation over the batched SoA kernel.
//!
//! [`eval_panel`] walks one panel of paths ([`crate::path::SoaPanel`])
//! through the stepper and evaluates the payoff for every lane —
//! terminal, average and extremes families, with an optional geometric
//! control variate — producing the **identical per-path values, bit for
//! bit,** as the scalar `walk_path_with_normals` + per-path evaluation:
//!
//! * the panel correlate performs the same per-element operations in the
//!   same order as the scalar stepper (see
//!   [`crate::path::GbmStepper::step_panel`]);
//! * the average accumulates the basket sum over assets ascending from
//!   0.0, exactly like the scalar `s.iter().sum::<f64>() / d`;
//! * terminal payoffs go through [`Payoff::eval_rows`] over the panel's
//!   spot rows (log rows for the geometric family), which folds the
//!   assets of each lane exactly as `Payoff::eval` folds a gathered
//!   spot vector.
//!
//! The batched form wins time by (a) vectorizing the correlate, the
//! drift/diffusion update and the payoff over contiguous lanes, (b)
//! skipping the per-step `exp` of values no payoff reads (terminal
//! payoffs use only the final spots; extremes use only asset 0), and (c)
//! amortising the per-path dispatch into one per-panel pass.

use crate::path::{walk_panel, GbmStepper, SoaPanel};
use mdp_model::{PathDependence, Payoff};

/// Geometric control-variate description for [`eval_panel`].
#[derive(Debug, Clone, Copy)]
pub struct CvSpec<'a> {
    /// Weights of the control's geometric payoff.
    pub weights: &'a [f64],
    /// Control strike.
    pub strike: f64,
    /// Call (true) or put (false) control.
    pub is_call: bool,
}

/// Per-lane state buffers reused across panels.
#[derive(Debug, Clone)]
pub struct PanelScratch {
    /// Undiscounted payoff per lane.
    pub ys: Vec<f64>,
    /// Undiscounted control payoff per lane (zeros without a CV).
    pub xs: Vec<f64>,
    /// `ln` of the walked panel's spot rows, in the panel's row layout:
    /// what geometric payoffs read in [`eval_terminal_walked`].
    pub(crate) logs: Vec<f64>,
    avg: Vec<f64>,
    pmax: Vec<f64>,
    pmin: Vec<f64>,
    acc: Vec<f64>,
    term: Vec<f64>,
}

impl PanelScratch {
    /// Scratch for `lanes`-wide panels in dimension `dim`.
    pub fn new(dim: usize, lanes: usize) -> Self {
        PanelScratch {
            ys: vec![0.0; lanes],
            xs: vec![0.0; lanes],
            logs: vec![0.0; dim * lanes],
            avg: vec![0.0; lanes],
            pmax: vec![0.0; lanes],
            pmin: vec![0.0; lanes],
            acc: vec![0.0; lanes],
            term: vec![0.0; dim],
        }
    }

    /// Store `ln` of every spot row's first `n` lanes: the input
    /// [`eval_terminal_walked`] gives geometric payoffs.
    pub fn fill_logs(&mut self, panel: &SoaPanel, n: usize) {
        for i in 0..self.logs.len() / panel.lanes() {
            self.fill_log_row(panel, i, n);
        }
    }

    /// [`PanelScratch::fill_logs`] for asset `i`'s row only.
    pub(crate) fn fill_log_row(&mut self, panel: &SoaPanel, i: usize, n: usize) {
        let lanes = panel.lanes();
        for (l, &s) in self.logs[i * lanes..i * lanes + n]
            .iter_mut()
            .zip(&panel.spot_row(i)[..n])
        {
            *l = s.ln();
        }
    }
}

/// Walk the panel's first `n` lanes to maturity for terminal-only
/// payoffs (normals already in place): the path walk plus the final
/// `exp`, with no per-step work. One walk serves any number of
/// terminal payoff evaluations via [`eval_terminal_walked`] — the
/// shared-path fusion the portfolio batch API builds on.
pub fn walk_panel_terminal(stepper: &GbmStepper, log0: &[f64], panel: &mut SoaPanel, n: usize) {
    walk_panel(stepper, log0, panel, n, |_, _| {});
    panel.exp_all(n);
}

/// Evaluate one terminal (non-path-dependent) payoff on a panel already
/// walked by [`walk_panel_terminal`], into `scratch.ys` (undiscounted).
/// A geometric payoff reads the logs [`PanelScratch::fill_logs`] stored
/// for this walk's spot rows. Per lane this performs exactly the
/// arithmetic [`eval_panel`] performs for the same payoff, so
/// evaluating k payoffs over one shared walk is bitwise-identical to k
/// separate walks.
pub fn eval_terminal_walked(
    payoff: &Payoff,
    panel: &SoaPanel,
    scratch: &mut PanelScratch,
    n: usize,
) {
    debug_assert_eq!(payoff.path_dependence(), PathDependence::None);
    let PanelScratch { ys, logs, acc, .. } = scratch;
    let rows = if payoff.is_geometric() {
        &logs[..]
    } else {
        panel.spot_rows()
    };
    payoff.eval_rows(&[], rows, panel.lanes(), acc, &mut ys[..n], |_, y| y);
}

/// Walk the panel's first `n` lanes (normals already in place) and
/// evaluate the payoff per lane into `scratch.ys` (and `scratch.xs` when
/// `cv` is given). Values are **undiscounted**; callers apply the
/// discount exactly where the scalar engine does.
#[allow(clippy::too_many_arguments)] // hot kernel entry: flat args over a one-off bundle struct
pub fn eval_panel(
    stepper: &GbmStepper,
    log0: &[f64],
    payoff: &Payoff,
    s0_first: f64,
    cv: Option<&CvSpec<'_>>,
    panel: &mut SoaPanel,
    scratch: &mut PanelScratch,
    n: usize,
) {
    let d = stepper.dim;
    let steps = stepper.steps;
    let dep = payoff.path_dependence();
    // The engine only pairs the geometric CV with arithmetic basket
    // payoffs, which are terminal-only.
    debug_assert!(cv.is_none() || dep == PathDependence::None);
    match dep {
        PathDependence::None => {
            // Terminal payoff: no intermediate exp needed at all.
            walk_panel_terminal(stepper, log0, panel, n);
            if payoff.is_geometric() {
                scratch.fill_logs(panel, n);
            }
            eval_terminal_walked(payoff, panel, scratch, n);
            if let Some(cv) = cv {
                for lane in 0..n {
                    panel.gather_spots(lane, &mut scratch.term);
                    let g: f64 = cv
                        .weights
                        .iter()
                        .zip(scratch.term.iter())
                        .map(|(w, si)| w * si.ln())
                        .sum::<f64>()
                        .exp();
                    scratch.xs[lane] = if cv.is_call {
                        (g - cv.strike).max(0.0)
                    } else {
                        (cv.strike - g).max(0.0)
                    };
                }
            }
        }
        PathDependence::Average => {
            scratch.avg[..n].fill(0.0);
            let (avg, basket) = (&mut scratch.avg, &mut scratch.acc);
            walk_panel(stepper, log0, panel, n, |_, p| {
                p.exp_all(n);
                // basket[lane] = Σᵢ spotᵢ — assets ascending from 0.0,
                // matching the scalar `s.iter().sum::<f64>()`.
                basket[..n].fill(0.0);
                for i in 0..d {
                    let row = &p.spot_row(i)[..n];
                    for (b, &s) in basket[..n].iter_mut().zip(row) {
                        *b += s;
                    }
                }
                for (a, &b) in avg[..n].iter_mut().zip(basket[..n].iter()) {
                    *a += b / d as f64;
                }
            });
            for lane in 0..n {
                scratch.ys[lane] = payoff.eval_average(scratch.avg[lane] / steps as f64);
            }
        }
        PathDependence::Extremes => {
            scratch.pmax[..n].fill(s0_first);
            scratch.pmin[..n].fill(s0_first);
            let (pmax, pmin) = (&mut scratch.pmax, &mut scratch.pmin);
            walk_panel(stepper, log0, panel, n, |_, p| {
                // Extremes payoffs read only asset 0.
                p.exp_row(0, n);
                let row = &p.spot_row(0)[..n];
                for (m, &s) in pmax[..n].iter_mut().zip(row) {
                    *m = m.max(s);
                }
                for (m, &s) in pmin[..n].iter_mut().zip(row) {
                    *m = m.min(s);
                }
            });
            let row = panel.spot_row(0);
            for (lane, y) in scratch.ys[..n].iter_mut().enumerate() {
                *y = payoff.eval_extremes(row[lane], scratch.pmax[lane], scratch.pmin[lane]);
            }
        }
    }
}
