//! Wall-clock measurement helpers.
//!
//! Host-time measurements complement the virtual-time model: sequential
//! engine costs (tables T1/T3) are real wall-clock numbers measured
//! here, with best-of-k repetition to screen out scheduler noise.

use std::time::Instant;

/// Measure one call: `(result, seconds)`.
pub fn measure<T, F: FnOnce() -> T>(f: F) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Best (minimum) wall-clock seconds of `reps` calls. Scheduler and
/// frequency noise only ever *add* time, so for a deterministic kernel
/// the minimum is the most robust estimator of its true cost.
pub fn measure_best<T, F: FnMut() -> T>(mut f: F, reps: usize) -> (T, f64) {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let (out, t) = measure(&mut f);
        best = best.min(t);
        last = Some(out);
    }
    (last.unwrap(), best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_result_and_positive_time() {
        let (v, t) = measure(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(t >= 0.0);
    }

    #[test]
    fn best_of_reps() {
        let mut count = 0;
        let (_, t) = measure_best(
            || {
                count += 1;
            },
            4,
        );
        assert_eq!(count, 4);
        assert!(t >= 0.0);
    }
}
