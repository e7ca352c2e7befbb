//! Multidimensional derivative products and their payoffs.

use crate::{GbmMarket, ModelError};

/// Exercise style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExerciseStyle {
    /// Exercisable only at maturity.
    European,
    /// Exercisable at every monitoring date up to maturity
    /// (Bermudan on the engine's time grid, the standard discretisation).
    American,
}

/// A terminal (or average-based) payoff on `d` underlying assets.
///
/// The variants cover the product families of the early-2000s
/// multi-asset parallel pricing literature. Everything except the Asian
/// payoffs depends only on the terminal asset vector; the Asians depend
/// on the running arithmetic average of the (equally weighted) basket and
/// are flagged path-dependent so lattice/PDE engines can reject them.
#[derive(Debug, Clone, PartialEq)]
pub enum Payoff {
    /// `(Σ wᵢ Sᵢ − K)⁺`
    BasketCall { weights: Vec<f64>, strike: f64 },
    /// `(K − Σ wᵢ Sᵢ)⁺`
    BasketPut { weights: Vec<f64>, strike: f64 },
    /// `((Π Sᵢ)^{1/d} − K)⁺` — lognormal, hence analytically priceable.
    GeometricCall { strike: f64 },
    /// `(K − (Π Sᵢ)^{1/d})⁺`
    GeometricPut { strike: f64 },
    /// `(max_i Sᵢ − K)⁺` — best-of rainbow call.
    MaxCall { strike: f64 },
    /// `(min_i Sᵢ − K)⁺` — worst-of rainbow call.
    MinCall { strike: f64 },
    /// `(K − max_i Sᵢ)⁺`
    MaxPut { strike: f64 },
    /// `(K − min_i Sᵢ)⁺`
    MinPut { strike: f64 },
    /// `(S₁ − S₂)⁺` — Margrabe exchange (exactly two assets).
    Exchange,
    /// `(S₁ − S₂ − K)⁺` — spread option (exactly two assets).
    SpreadCall { strike: f64 },
    /// Cash-or-nothing: pays `cash` when `Σ wᵢ Sᵢ ≥ K`.
    DigitalBasketCall {
        weights: Vec<f64>,
        strike: f64,
        cash: f64,
    },
    /// `(Ā − K)⁺` where Ā is the time-average of the equally weighted
    /// basket over the monitoring dates. Path-dependent.
    AsianCall { strike: f64 },
    /// `(K − Ā)⁺`. Path-dependent.
    AsianPut { strike: f64 },
    /// Up-and-out call (single asset): `(S(T) − K)⁺` unless the path ever
    /// reached `barrier` (monitored at the engine's dates; the PDE engine
    /// treats the barrier as continuous). Requires `barrier > strike`.
    UpOutCall { strike: f64, barrier: f64 },
    /// Down-and-out put (single asset): `(K − S(T))⁺` unless the path
    /// ever fell to `barrier`. Requires `barrier < strike`.
    DownOutPut { strike: f64, barrier: f64 },
    /// Floating-strike lookback call (single asset): `S(T) − min S`.
    LookbackCallFloating,
    /// Floating-strike lookback put (single asset): `max S − S(T)`.
    LookbackPutFloating,
}

/// What path information a payoff needs beyond the terminal vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathDependence {
    /// Terminal only.
    None,
    /// Time-average of the basket value.
    Average,
    /// Running extreme of the (single) underlying.
    Extremes,
}

impl Payoff {
    /// Number of assets the payoff requires, or `None` when it works for
    /// any dimension.
    pub fn required_dim(&self) -> Option<usize> {
        match self {
            Payoff::BasketCall { weights, .. }
            | Payoff::BasketPut { weights, .. }
            | Payoff::DigitalBasketCall { weights, .. } => Some(weights.len()),
            Payoff::Exchange | Payoff::SpreadCall { .. } => Some(2),
            Payoff::UpOutCall { .. }
            | Payoff::DownOutPut { .. }
            | Payoff::LookbackCallFloating
            | Payoff::LookbackPutFloating => Some(1),
            _ => None,
        }
    }

    /// True when the payoff depends on the whole path, not just the
    /// terminal asset vector.
    pub fn is_path_dependent(&self) -> bool {
        self.path_dependence() != PathDependence::None
    }

    /// The kind of path information the payoff needs.
    pub fn path_dependence(&self) -> PathDependence {
        match self {
            Payoff::AsianCall { .. } | Payoff::AsianPut { .. } => PathDependence::Average,
            Payoff::UpOutCall { .. }
            | Payoff::DownOutPut { .. }
            | Payoff::LookbackCallFloating
            | Payoff::LookbackPutFloating => PathDependence::Extremes,
            _ => PathDependence::None,
        }
    }

    /// Evaluate a barrier payoff given the terminal spot and the path's
    /// running maximum/minimum of the underlying.
    ///
    /// # Panics
    /// Panics for non-barrier payoffs.
    pub fn eval_extremes(&self, terminal: f64, path_max: f64, path_min: f64) -> f64 {
        match self {
            Payoff::UpOutCall { strike, barrier } => {
                if path_max >= *barrier {
                    0.0
                } else {
                    (terminal - strike).max(0.0)
                }
            }
            Payoff::DownOutPut { strike, barrier } => {
                if path_min <= *barrier {
                    0.0
                } else {
                    (strike - terminal).max(0.0)
                }
            }
            // The floating strike is never above the terminal (the
            // extreme includes the endpoint), so no max(…, 0) is needed —
            // but keep it for robustness against caller-supplied extremes.
            Payoff::LookbackCallFloating => (terminal - path_min).max(0.0),
            Payoff::LookbackPutFloating => (path_max - terminal).max(0.0),
            _ => panic!("eval_extremes only applies to barrier payoffs"),
        }
    }

    /// Evaluate at a terminal asset vector.
    ///
    /// # Panics
    /// Panics for path-dependent payoffs (use [`Payoff::eval_average`])
    /// or on dimension mismatch.
    pub fn eval(&self, spots: &[f64]) -> f64 {
        if let Some(d) = self.required_dim() {
            assert_eq!(spots.len(), d, "payoff needs {d} assets");
        }
        assert!(!spots.is_empty());
        match self {
            Payoff::BasketCall { weights, strike } => (basket(weights, spots) - strike).max(0.0),
            Payoff::BasketPut { weights, strike } => (strike - basket(weights, spots)).max(0.0),
            Payoff::GeometricCall { strike } => (geometric_mean(spots) - strike).max(0.0),
            Payoff::GeometricPut { strike } => (strike - geometric_mean(spots)).max(0.0),
            Payoff::MaxCall { strike } => (max_of(spots) - strike).max(0.0),
            Payoff::MinCall { strike } => (min_of(spots) - strike).max(0.0),
            Payoff::MaxPut { strike } => (strike - max_of(spots)).max(0.0),
            Payoff::MinPut { strike } => (strike - min_of(spots)).max(0.0),
            Payoff::Exchange => (spots[0] - spots[1]).max(0.0),
            Payoff::SpreadCall { strike } => (spots[0] - spots[1] - strike).max(0.0),
            Payoff::DigitalBasketCall {
                weights,
                strike,
                cash,
            } => {
                if basket(weights, spots) >= *strike {
                    *cash
                } else {
                    0.0
                }
            }
            Payoff::AsianCall { .. } | Payoff::AsianPut { .. } => {
                panic!("path-dependent payoff: use eval_average")
            }
            Payoff::UpOutCall { .. }
            | Payoff::DownOutPut { .. }
            | Payoff::LookbackCallFloating
            | Payoff::LookbackPutFloating => {
                panic!("path-dependent payoff: use eval_extremes")
            }
        }
    }

    /// Evaluate an Asian payoff at the time-averaged basket value.
    ///
    /// # Panics
    /// Panics for non-path-dependent payoffs.
    pub fn eval_average(&self, average: f64) -> f64 {
        match self {
            Payoff::AsianCall { strike } => (average - strike).max(0.0),
            Payoff::AsianPut { strike } => (strike - average).max(0.0),
            _ => panic!("eval_average only applies to Asian payoffs"),
        }
    }

    /// True for the geometric family, whose [`Payoff::eval_rows`] reads
    /// `ln Sᵢ` instead of `Sᵢ` (callers cache the logs across payoffs).
    pub fn is_geometric(&self) -> bool {
        matches!(
            self,
            Payoff::GeometricCall { .. } | Payoff::GeometricPut { .. }
        )
    }

    /// Evaluate a terminal payoff over a row of `n = out.len()` asset
    /// vectors, writing `out[l] = combine(out[l], payoff(vector l))`.
    ///
    /// Assets `0..prefix.len()` take the `prefix` values on every lane
    /// (the fixed outer axes of a lattice run; empty for a Monte Carlo
    /// panel). The remaining assets vary along the row: asset
    /// `prefix.len() + r` of lane `l` is `rows[r·stride + l]`, with
    /// `rows.len()` a multiple of `stride ≥ n`. For the geometric family
    /// ([`Payoff::is_geometric`]) both carry `ln Sᵢ`.
    ///
    /// Per lane the result is bitwise [`Payoff::eval`] of the gathered
    /// vector: assets fold in ascending order from the same seed
    /// (`−0.0`, the neutral element `f64: Sum` folds from, or `∓∞` for
    /// the max/min), so the loops only reorder work across lanes. The
    /// exchange and spread payoffs fold `S₁·1 + S₂·(−1)`, which is
    /// exactly `S₁ − S₂`. `acc` is scratch of at least `n` values.
    ///
    /// # Panics
    /// Panics for path-dependent payoffs or on dimension mismatch.
    pub fn eval_rows(
        &self,
        prefix: &[f64],
        rows: &[f64],
        stride: usize,
        acc: &mut [f64],
        out: &mut [f64],
        combine: impl Fn(f64, f64) -> f64,
    ) {
        let n = out.len();
        assert!(0 < stride && n <= stride && rows.len() % stride == 0 && !rows.is_empty());
        let dim = prefix.len() + rows.len() / stride;
        if let Some(d) = self.required_dim() {
            assert_eq!(dim, d, "payoff needs {d} assets");
        }
        let (fold, map) = self.row_form();
        // The prefix folds once, as a one-lane row, then seeds every lane.
        let mut head = [fold.seed()];
        for (i, &s) in prefix.iter().enumerate() {
            fold.apply_row(&mut head, i, &[s]);
        }
        let acc = &mut acc[..n];
        acc.fill(head[0]);
        for (r, row) in rows.chunks_exact(stride).enumerate() {
            fold.apply_row(acc, prefix.len() + r, &row[..n]);
        }
        if let RowFold::LogSum = fold {
            let d = dim as f64;
            for a in acc.iter_mut() {
                *a = (*a / d).exp();
            }
        }
        map.apply_row(acc, out, combine);
    }

    /// The fold over assets and the map from the folded value to the
    /// payoff that [`Payoff::eval`] computes, as row operations.
    fn row_form(&self) -> (RowFold<'_>, RowMap) {
        static EXCHANGE: [f64; 2] = [1.0, -1.0];
        match self {
            Payoff::BasketCall { weights, strike } => {
                (RowFold::Linear(weights), RowMap::Call(*strike))
            }
            Payoff::BasketPut { weights, strike } => {
                (RowFold::Linear(weights), RowMap::Put(*strike))
            }
            Payoff::GeometricCall { strike } => (RowFold::LogSum, RowMap::Call(*strike)),
            Payoff::GeometricPut { strike } => (RowFold::LogSum, RowMap::Put(*strike)),
            Payoff::MaxCall { strike } => (RowFold::Max, RowMap::Call(*strike)),
            Payoff::MinCall { strike } => (RowFold::Min, RowMap::Call(*strike)),
            Payoff::MaxPut { strike } => (RowFold::Max, RowMap::Put(*strike)),
            Payoff::MinPut { strike } => (RowFold::Min, RowMap::Put(*strike)),
            Payoff::Exchange => (RowFold::Linear(&EXCHANGE), RowMap::Positive),
            Payoff::SpreadCall { strike } => (RowFold::Linear(&EXCHANGE), RowMap::Call(*strike)),
            Payoff::DigitalBasketCall {
                weights,
                strike,
                cash,
            } => (
                RowFold::Linear(weights),
                RowMap::Digital {
                    strike: *strike,
                    cash: *cash,
                },
            ),
            Payoff::AsianCall { .. }
            | Payoff::AsianPut { .. }
            | Payoff::UpOutCall { .. }
            | Payoff::DownOutPut { .. }
            | Payoff::LookbackCallFloating
            | Payoff::LookbackPutFloating => {
                panic!("path-dependent payoff has no terminal row form")
            }
        }
    }

    /// Validate weights/strikes.
    pub fn validate(&self) -> Result<(), ModelError> {
        let check_strike = |k: f64| {
            if k.is_finite() && k >= 0.0 {
                Ok(())
            } else {
                Err(ModelError::InvalidParameter {
                    what: "strike",
                    value: k,
                })
            }
        };
        match self {
            Payoff::BasketCall { weights, strike } | Payoff::BasketPut { weights, strike } => {
                check_strike(*strike)?;
                validate_weights(weights)
            }
            Payoff::DigitalBasketCall {
                weights,
                strike,
                cash,
            } => {
                check_strike(*strike)?;
                if !cash.is_finite() {
                    return Err(ModelError::InvalidParameter {
                        what: "cash",
                        value: *cash,
                    });
                }
                validate_weights(weights)
            }
            Payoff::UpOutCall { strike, barrier } => {
                check_strike(*strike)?;
                if !(barrier.is_finite() && *barrier > *strike) {
                    return Err(ModelError::InvalidParameter {
                        what: "barrier (must exceed strike for up-and-out call)",
                        value: *barrier,
                    });
                }
                Ok(())
            }
            Payoff::DownOutPut { strike, barrier } => {
                check_strike(*strike)?;
                if !(barrier.is_finite() && *barrier >= 0.0 && *barrier < *strike) {
                    return Err(ModelError::InvalidParameter {
                        what: "barrier (must sit below strike for down-and-out put)",
                        value: *barrier,
                    });
                }
                Ok(())
            }
            Payoff::GeometricCall { strike }
            | Payoff::GeometricPut { strike }
            | Payoff::MaxCall { strike }
            | Payoff::MinCall { strike }
            | Payoff::MaxPut { strike }
            | Payoff::MinPut { strike }
            | Payoff::SpreadCall { strike }
            | Payoff::AsianCall { strike }
            | Payoff::AsianPut { strike } => check_strike(*strike),
            Payoff::Exchange | Payoff::LookbackCallFloating | Payoff::LookbackPutFloating => Ok(()),
        }
    }
}

fn validate_weights(weights: &[f64]) -> Result<(), ModelError> {
    if weights.is_empty() {
        return Err(ModelError::InvalidParameter {
            what: "weights (empty)",
            value: 0.0,
        });
    }
    for &w in weights {
        if !w.is_finite() {
            return Err(ModelError::InvalidParameter {
                what: "weight",
                value: w,
            });
        }
    }
    Ok(())
}

/// How [`Payoff::eval_rows`] folds the assets of one vector.
#[derive(Clone, Copy)]
enum RowFold<'a> {
    /// `Σ wᵢ·Sᵢ`.
    Linear(&'a [f64]),
    Max,
    Min,
    /// `Σ ln Sᵢ` over log inputs.
    LogSum,
}

impl RowFold<'_> {
    fn seed(self) -> f64 {
        match self {
            RowFold::Linear(_) | RowFold::LogSum => -0.0,
            RowFold::Max => f64::NEG_INFINITY,
            RowFold::Min => f64::INFINITY,
        }
    }

    /// Fold asset `i`'s row into the per-lane accumulators, with the
    /// family dispatch outside the lane loop.
    fn apply_row(self, acc: &mut [f64], i: usize, row: &[f64]) {
        match self {
            RowFold::Linear(w) => {
                let w = w[i];
                for (a, &s) in acc.iter_mut().zip(row) {
                    *a += w * s;
                }
            }
            RowFold::Max => {
                for (a, &s) in acc.iter_mut().zip(row) {
                    *a = a.max(s);
                }
            }
            RowFold::Min => {
                for (a, &s) in acc.iter_mut().zip(row) {
                    *a = a.min(s);
                }
            }
            RowFold::LogSum => {
                for (a, &s) in acc.iter_mut().zip(row) {
                    *a += s;
                }
            }
        }
    }
}

/// How [`Payoff::eval_rows`] maps a folded value to the payoff.
#[derive(Clone, Copy)]
enum RowMap {
    Call(f64),
    Put(f64),
    /// `x⁺` (the exchange payoff).
    Positive,
    Digital {
        strike: f64,
        cash: f64,
    },
}

impl RowMap {
    fn apply_row(self, acc: &[f64], out: &mut [f64], combine: impl Fn(f64, f64) -> f64) {
        let lanes = out.iter_mut().zip(acc);
        match self {
            RowMap::Call(k) => lanes.for_each(|(o, &x)| *o = combine(*o, (x - k).max(0.0))),
            RowMap::Put(k) => lanes.for_each(|(o, &x)| *o = combine(*o, (k - x).max(0.0))),
            RowMap::Positive => lanes.for_each(|(o, &x)| *o = combine(*o, x.max(0.0))),
            RowMap::Digital { strike, cash } => lanes.for_each(|(o, &x)| {
                *o = combine(*o, if x >= strike { cash } else { 0.0 });
            }),
        }
    }
}

#[inline]
fn basket(weights: &[f64], spots: &[f64]) -> f64 {
    weights.iter().zip(spots).map(|(w, s)| w * s).sum()
}

#[inline]
fn geometric_mean(spots: &[f64]) -> f64 {
    let d = spots.len() as f64;
    (spots.iter().map(|s| s.ln()).sum::<f64>() / d).exp()
}

#[inline]
fn max_of(spots: &[f64]) -> f64 {
    spots.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
}

#[inline]
fn min_of(spots: &[f64]) -> f64 {
    spots.iter().fold(f64::INFINITY, |a, &b| a.min(b))
}

/// A tradeable product: payoff + maturity + exercise style.
#[derive(Debug, Clone, PartialEq)]
pub struct Product {
    /// The payoff function.
    pub payoff: Payoff,
    /// Maturity in years.
    pub maturity: f64,
    /// European or American.
    pub exercise: ExerciseStyle,
}

impl Product {
    /// European product.
    pub fn european(payoff: Payoff, maturity: f64) -> Self {
        Product {
            payoff,
            maturity,
            exercise: ExerciseStyle::European,
        }
    }

    /// American product.
    pub fn american(payoff: Payoff, maturity: f64) -> Self {
        Product {
            payoff,
            maturity,
            exercise: ExerciseStyle::American,
        }
    }

    /// Equal weights `1/d` for basket payoffs.
    pub fn equal_weights(d: usize) -> Vec<f64> {
        vec![1.0 / d as f64; d]
    }

    /// Validate internal consistency and compatibility with a market.
    pub fn validate_for(&self, market: &GbmMarket) -> Result<(), ModelError> {
        if !(self.maturity > 0.0 && self.maturity.is_finite()) {
            return Err(ModelError::InvalidParameter {
                what: "maturity",
                value: self.maturity,
            });
        }
        self.payoff.validate()?;
        if let Some(d) = self.payoff.required_dim() {
            if d != market.dim() {
                return Err(ModelError::DimensionMismatch {
                    product: d,
                    market: market.dim(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basket_call_and_put() {
        let w = vec![0.5, 0.5];
        let call = Payoff::BasketCall {
            weights: w.clone(),
            strike: 100.0,
        };
        let put = Payoff::BasketPut {
            weights: w,
            strike: 100.0,
        };
        assert_eq!(call.eval(&[120.0, 100.0]), 10.0);
        assert_eq!(call.eval(&[80.0, 100.0]), 0.0);
        assert_eq!(put.eval(&[80.0, 100.0]), 10.0);
        assert_eq!(put.eval(&[120.0, 100.0]), 0.0);
    }

    #[test]
    fn rainbow_payoffs() {
        let s = [90.0, 110.0, 100.0];
        assert_eq!(Payoff::MaxCall { strike: 100.0 }.eval(&s), 10.0);
        assert_eq!(Payoff::MinCall { strike: 100.0 }.eval(&s), 0.0);
        assert_eq!(Payoff::MaxPut { strike: 100.0 }.eval(&s), 0.0);
        assert_eq!(Payoff::MinPut { strike: 100.0 }.eval(&s), 10.0);
    }

    #[test]
    fn geometric_mean_payoff() {
        let c = Payoff::GeometricCall { strike: 10.0 };
        // gm(4, 25) = 10 → at the money.
        assert_eq!(c.eval(&[4.0, 25.0]), 0.0);
        assert!((c.eval(&[9.0, 16.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exchange_and_spread() {
        assert_eq!(Payoff::Exchange.eval(&[105.0, 95.0]), 10.0);
        assert_eq!(Payoff::Exchange.eval(&[95.0, 105.0]), 0.0);
        assert_eq!(Payoff::SpreadCall { strike: 5.0 }.eval(&[105.0, 95.0]), 5.0);
    }

    #[test]
    fn digital_pays_cash() {
        let d = Payoff::DigitalBasketCall {
            weights: vec![1.0],
            strike: 100.0,
            cash: 7.0,
        };
        assert_eq!(d.eval(&[100.0]), 7.0);
        assert_eq!(d.eval(&[99.9]), 0.0);
    }

    #[test]
    fn asian_flags_and_average_eval() {
        let a = Payoff::AsianCall { strike: 100.0 };
        assert!(a.is_path_dependent());
        assert!(!Payoff::Exchange.is_path_dependent());
        assert_eq!(a.eval_average(110.0), 10.0);
        assert_eq!(Payoff::AsianPut { strike: 100.0 }.eval_average(90.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "path-dependent")]
    fn asian_terminal_eval_panics() {
        let _ = Payoff::AsianCall { strike: 1.0 }.eval(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "eval_average")]
    fn average_eval_on_terminal_payoff_panics() {
        let _ = Payoff::Exchange.eval_average(1.0);
    }

    #[test]
    fn required_dims() {
        assert_eq!(Payoff::Exchange.required_dim(), Some(2));
        assert_eq!(
            Payoff::BasketCall {
                weights: vec![0.25; 4],
                strike: 1.0
            }
            .required_dim(),
            Some(4)
        );
        assert_eq!(Payoff::MaxCall { strike: 1.0 }.required_dim(), None);
    }

    #[test]
    fn product_validation() {
        let m = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).unwrap();
        let good = Product::european(Payoff::Exchange, 1.0);
        assert!(good.validate_for(&m).is_ok());
        let bad_dim = Product::european(
            Payoff::BasketCall {
                weights: vec![1.0 / 3.0; 3],
                strike: 100.0,
            },
            1.0,
        );
        assert!(matches!(
            bad_dim.validate_for(&m),
            Err(ModelError::DimensionMismatch { .. })
        ));
        let bad_mat = Product::european(Payoff::Exchange, -1.0);
        assert!(bad_mat.validate_for(&m).is_err());
        let bad_strike = Product::european(Payoff::MaxCall { strike: f64::NAN }, 1.0);
        assert!(bad_strike.validate_for(&m).is_err());
    }

    #[test]
    fn equal_weights_sum_to_one() {
        let w = Product::equal_weights(8);
        assert_eq!(w.len(), 8);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn payoffs_are_nonnegative() {
        let spots = [55.0, 210.0, 3.0];
        let payoffs = [
            Payoff::GeometricCall { strike: 50.0 },
            Payoff::GeometricPut { strike: 50.0 },
            Payoff::MaxCall { strike: 50.0 },
            Payoff::MinPut { strike: 50.0 },
        ];
        for p in &payoffs {
            assert!(p.eval(&spots) >= 0.0, "{p:?}");
        }
    }
    #[test]
    fn eval_rows_bitwise_equals_eval_for_every_terminal_family() {
        // Lanes hold vectors near the money; the weights are unequal,
        // one negative and one −0.0, so every fold seed and sign shows.
        let lanes = 9;
        let spot = |i: usize, l: usize| 80.0 + 5.0 * l as f64 + 7.3 * i as f64 - (i * l % 4) as f64;
        for d in 1..=4usize {
            let w: Vec<f64> = [0.5, -0.25, -0.0, 1.5][..d].to_vec();
            let mut payoffs = vec![
                Payoff::BasketCall {
                    weights: w.clone(),
                    strike: 40.0,
                },
                Payoff::BasketPut {
                    weights: w.clone(),
                    strike: 90.0,
                },
                Payoff::DigitalBasketCall {
                    weights: w,
                    strike: 60.0,
                    cash: 3.0,
                },
                Payoff::GeometricCall { strike: 95.0 },
                Payoff::GeometricPut { strike: 100.0 },
                Payoff::MaxCall { strike: 100.0 },
                Payoff::MaxPut { strike: 110.0 },
                Payoff::MinCall { strike: 85.0 },
                Payoff::MinPut { strike: 100.0 },
            ];
            if d == 2 {
                payoffs.push(Payoff::Exchange);
                payoffs.push(Payoff::SpreadCall { strike: 2.0 });
            }
            for payoff in &payoffs {
                let input = |s: f64| if payoff.is_geometric() { s.ln() } else { s };
                // Every split of the assets into a fixed prefix and rows.
                for p in 0..d {
                    let stride = lanes + 3;
                    let prefix: Vec<f64> = (0..p).map(|i| input(spot(i, 0))).collect();
                    let mut rows = vec![0.0; (d - p) * stride];
                    for i in p..d {
                        for l in 0..lanes {
                            rows[(i - p) * stride + l] = input(spot(i, l));
                        }
                    }
                    let mut acc = vec![0.0; lanes];
                    let mut out = vec![1.0; lanes];
                    payoff.eval_rows(&prefix, &rows, stride, &mut acc, &mut out, |o, y| o + y);
                    for (l, o) in out.iter().enumerate() {
                        let v: Vec<f64> =
                            (0..d).map(|i| spot(i, if i < p { 0 } else { l })).collect();
                        let want = 1.0 + payoff.eval(&v);
                        assert_eq!(
                            o.to_bits(),
                            want.to_bits(),
                            "{payoff:?} d={d} prefix={p} lane {l}"
                        );
                    }
                }
            }
        }
    }
}
