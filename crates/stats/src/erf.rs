//! Error function, complementary error function and the inverse error
//! function.
//!
//! The normal CDF — the quantity the EB metric evaluates for every queued
//! message — reduces to `erf`. The standard library does not provide it, so
//! we implement the high-accuracy rational approximation of W. J. Cody
//! (as popularised by Numerical Recipes' `erfc` routine), giving roughly
//! 1e-12 relative accuracy over the whole real line, far tighter than the
//! model noise of the simulation.

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Uses a Chebyshev-fitted rational approximation on `t = 2/(2+|x|)`
/// (Numerical Recipes, `erfcc`), then exploits the symmetry
/// `erfc(−x) = 2 − erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;

    // Chebyshev coefficients for erfc, from Numerical Recipes (3rd edition).
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];

    let mut d = 0.0f64;
    let mut dd = 0.0f64;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The inverse error function: `inverse_erf(erf(x)) == x` for `x` in (−1, 1).
///
/// Uses the initial approximation of Giles (2012) refined by two steps of
/// Newton's method on `erf`, which brings the result to full double
/// precision for arguments away from ±1.
pub fn inverse_erf(p: f64) -> f64 {
    if p.is_nan() {
        return f64::NAN;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    if p <= -1.0 {
        return f64::NEG_INFINITY;
    }
    if p == 0.0 {
        return 0.0;
    }

    // Initial guess: Winitzki's approximation.
    let a = 0.147f64;
    let ln_term = (1.0 - p * p).ln();
    let first = 2.0 / (std::f64::consts::PI * a) + ln_term / 2.0;
    let mut x = (p.signum()) * ((first * first - ln_term / a).sqrt() - first).sqrt();

    // Two Newton refinement steps: f(x) = erf(x) - p, f'(x) = 2/sqrt(pi) e^{-x^2}.
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    for _ in 0..2 {
        let err = erf(x) - p;
        let deriv = two_over_sqrt_pi * (-x * x).exp();
        if deriv.abs() < f64::MIN_POSITIVE {
            break;
        }
        x -= err / deriv;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath (50 digits).
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182849),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
        (-0.5, -0.5204998778130465),
        (-2.0, -0.9953222650189527),
    ];

    #[test]
    fn erf_matches_reference_values() {
        for &(x, expected) in ERF_TABLE {
            let got = erf(x);
            assert!(
                (got - expected).abs() < 1e-10,
                "erf({x}) = {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn erfc_is_complement() {
        for x in [-3.0, -1.0, -0.2, 0.0, 0.4, 1.3, 2.7] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn erfc_symmetry() {
        for x in [0.3, 1.1, 2.5] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_tails() {
        assert!(erfc(10.0) < 1e-40);
        assert!(erfc(10.0) > 0.0);
        assert!((erfc(-10.0) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn inverse_erf_round_trips() {
        for p in [-0.999, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.999] {
            let x = inverse_erf(p);
            assert!((erf(x) - p).abs() < 1e-10, "p = {p}, x = {x}");
        }
    }

    #[test]
    fn inverse_erf_edge_cases() {
        assert_eq!(inverse_erf(1.0), f64::INFINITY);
        assert_eq!(inverse_erf(-1.0), f64::NEG_INFINITY);
        assert_eq!(inverse_erf(0.0), 0.0);
        assert!(erf(f64::NAN).is_nan());
        assert!(inverse_erf(f64::NAN).is_nan());
    }

    #[test]
    fn erf_is_monotone() {
        let xs: Vec<f64> = (-40..=40).map(|i| i as f64 * 0.1).collect();
        for w in xs.windows(2) {
            assert!(erf(w[0]) <= erf(w[1]));
        }
    }
}
