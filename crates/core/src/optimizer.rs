//! Nelder–Mead simplex minimizer.
//!
//! The paper learns correlation parameters with Matlab's `fminunc`
//! (Appendix A.1), a quasi-Newton solver used *without* explicit gradients.
//! This derivative-free simplex method fills the same role offline: it
//! minimizes the negative log marginal likelihood over log-lengthscales.
//! Like `fminunc` on a non-convex objective it only finds local optima;
//! callers run multiple starts (Appendix A.1 discusses exactly this
//! strategy).

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// Argument of the best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Iterations consumed.
    pub iterations: usize,
}

/// Minimizes `f` starting from `x0` using the Nelder–Mead simplex with
/// standard coefficients (reflection 1, expansion 2, contraction ½,
/// shrink ½). Stops after `max_iters` iterations or when the simplex's
/// value spread falls below `tol`.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    initial_step: f64,
    max_iters: usize,
    tol: f64,
) -> OptimizationResult {
    let dim = x0.len();
    assert!(dim > 0, "cannot optimize a zero-dimensional function");

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(dim + 1);
    simplex.push(x0.to_vec());
    for i in 0..dim {
        let mut v = x0.to_vec();
        v[i] += initial_step;
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| f(v)).collect();

    let mut iterations = 0;
    while iterations < max_iters {
        iterations += 1;

        // Order the simplex by objective value.
        let mut order: Vec<usize> = (0..=dim).collect();
        order.sort_by(|&a, &b| {
            values[a]
                .partial_cmp(&values[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let best = order[0];
        let worst = order[dim];
        let second_worst = order[dim - 1];

        if (values[worst] - values[best]).abs() < tol {
            break;
        }

        // Centroid of all points except the worst.
        let mut centroid = vec![0.0; dim];
        for (i, v) in simplex.iter().enumerate() {
            if i == worst {
                continue;
            }
            for (c, x) in centroid.iter_mut().zip(v.iter()) {
                *c += x;
            }
        }
        for c in centroid.iter_mut() {
            *c /= dim as f64;
        }

        let reflect = |coef: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(simplex[worst].iter())
                .map(|(c, w)| c + coef * (c - w))
                .collect()
        };

        // Reflection.
        let xr = reflect(1.0);
        let fr = f(&xr);
        if fr < values[best] {
            // Expansion.
            let xe = reflect(2.0);
            let fe = f(&xe);
            if fe < fr {
                simplex[worst] = xe;
                values[worst] = fe;
            } else {
                simplex[worst] = xr;
                values[worst] = fr;
            }
            continue;
        }
        if fr < values[second_worst] {
            simplex[worst] = xr;
            values[worst] = fr;
            continue;
        }
        // Contraction.
        let xc = reflect(-0.5);
        let fc = f(&xc);
        if fc < values[worst] {
            simplex[worst] = xc;
            values[worst] = fc;
            continue;
        }
        // Shrink toward the best point.
        let best_point = simplex[best].clone();
        for (i, v) in simplex.iter_mut().enumerate() {
            if i == best {
                continue;
            }
            for (x, b) in v.iter_mut().zip(best_point.iter()) {
                *x = b + 0.5 * (*x - b);
            }
            values[i] = f(v);
        }
    }

    let (best_idx, _) = values
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        .expect("simplex non-empty");
    OptimizationResult {
        x: simplex[best_idx].clone(),
        value: values[best_idx],
        iterations,
    }
}

/// Runs [`nelder_mead`] from several starting points and returns the best
/// result (the multi-start strategy of Appendix A.1).
pub fn multi_start(
    f: impl Fn(&[f64]) -> f64 + Copy,
    starts: &[Vec<f64>],
    initial_step: f64,
    max_iters: usize,
    tol: f64,
) -> OptimizationResult {
    assert!(!starts.is_empty(), "need at least one start");
    starts
        .iter()
        .map(|x0| nelder_mead(f, x0, initial_step, max_iters, tol))
        .min_by(|a, b| {
            a.value
                .partial_cmp(&b.value)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one start")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_1d() {
        let r = nelder_mead(|x| (x[0] - 3.0).powi(2), &[0.0], 1.0, 500, 1e-12);
        assert!((r.x[0] - 3.0).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn minimizes_quadratic_3d() {
        let target = [1.0, -2.0, 0.5];
        let f = |x: &[f64]| -> f64 {
            x.iter()
                .zip(target.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        let r = nelder_mead(f, &[0.0, 0.0, 0.0], 0.5, 2000, 1e-14);
        for (got, want) in r.x.iter().zip(target.iter()) {
            assert!((got - want).abs() < 1e-3, "{:?}", r.x);
        }
    }

    #[test]
    fn minimizes_rosenbrock() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = nelder_mead(f, &[-1.2, 1.0], 0.5, 5000, 1e-14);
        assert!(r.value < 1e-6, "value {}", r.value);
    }

    #[test]
    fn multi_start_escapes_local_minimum() {
        // f has a local min near x=4 (value 1) and global min at x=0 (value 0).
        let f = |x: &[f64]| {
            let a = x[0] * x[0];
            let b = (x[0] - 4.0) * (x[0] - 4.0) + 1.0;
            a.min(b)
        };
        let r = multi_start(f, &[vec![4.5], vec![1.0]], 0.25, 500, 1e-12);
        assert!(r.value < 1e-6);
        assert!(r.x[0].abs() < 1e-2);
    }

    #[test]
    fn respects_iteration_cap() {
        let r = nelder_mead(|x| x[0].powi(2), &[100.0], 1.0, 3, 0.0);
        assert!(r.iterations <= 3);
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dim_panics() {
        nelder_mead(|_| 0.0, &[], 1.0, 10, 1e-6);
    }
}
