//! The complementary error function.
//!
//! The normal CDF — the quantity the EB metric evaluates for every queued
//! message — reduces to `erfc`. The standard library does not provide it, so
//! we implement the high-accuracy rational approximation of W. J. Cody
//! (as popularised by Numerical Recipes' `erfc` routine), giving roughly
//! 1e-12 relative accuracy over the whole real line, far tighter than the
//! model noise of the simulation.

/// The complementary error function `erfc(x) = 1 − erf(x)`, where
/// `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Uses a Chebyshev-fitted rational approximation on `t = 2/(2+|x|)`
/// (Numerical Recipes, `erfcc`), then exploits the symmetry
/// `erfc(−x) = 2 − erfc(x)`. A NaN argument gives NaN.
pub(crate) fn erfc(x: f64) -> f64 {
    erfc_lanes([x])[0]
}

/// [`erfc`] of `N` arguments at once, each lane bit-identical to its own
/// scalar call.
///
/// The Clenshaw recurrence is one long dependency chain, so a lone
/// evaluation waits on every multiply-add in turn. Stepping `N` chains in
/// lockstep fills those waits with the other lanes' work; every lane still
/// performs the same IEEE operations in the same order as `erfc`, which is
/// the `N = 1` instance of this kernel.
pub(crate) fn erfc_lanes<const N: usize>(x: [f64; N]) -> [f64; N] {
    let z = x.map(f64::abs);
    let t = z.map(|z| 2.0 / (2.0 + z));
    let ty = t.map(|t| 4.0 * t - 2.0);

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

    let mut d = [0.0f64; N];
    let mut dd = [0.0f64; N];
    for &c in COF.iter().rev().take(COF.len() - 1) {
        for l in 0..N {
            let tmp = d[l];
            d[l] = ty[l] * d[l] - dd[l] + c;
            dd[l] = tmp;
        }
    }
    std::array::from_fn(|l| {
        let ans = t[l] * (-z[l] * z[l] + 0.5 * (COF[0] + ty[l] * d[l]) - dd[l]).exp();
        if x[l] >= 0.0 {
            ans
        } else {
            2.0 - ans
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Reference values of `erf`, computed with mpmath (50 digits).
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
    fn erfc_matches_reference_values() {
        for &(x, expected) in ERF_TABLE {
            let got = 1.0 - erfc(x);
            assert!(
                (got - expected).abs() < 1e-10,
                "erf({x}) = {got}, expected {expected}"
            );
        }
    }

    /// Four interleaved lanes are four scalar calls, to the bit: seeded
    /// arguments of both signs across the whole useful range (and past the
    /// point where the tail underflows), plus the reference table's points,
    /// each tried in every lane position.
    #[test]
    fn erfc_lanes_match_scalar_erfc_bit_for_bit() {
        let mut rng = SimRng::seed_from(0xE4FC);
        let mut xs: Vec<f64> = (0..4_000)
            .map(|i| match i % 3 {
                0 => rng.uniform_range(-6.5, 6.5),
                1 => rng.uniform_range(-1.0, 1.0),
                _ => rng.uniform_range(-40.0, 40.0),
            })
            .collect();
        xs.extend(ERF_TABLE.iter().map(|&(x, _)| x));
        xs.extend([-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE]);
        for shift in 0..4 {
            xs.rotate_left(shift);
            for chunk in xs.chunks_exact(4) {
                let lanes = erfc_lanes::<4>([chunk[0], chunk[1], chunk[2], chunk[3]]);
                for (x, got) in chunk.iter().zip(lanes) {
                    assert_eq!(got.to_bits(), erfc(*x).to_bits(), "erfc({x})");
                }
            }
        }
        assert!(erfc_lanes([f64::NAN, 1.0])[0].is_nan());
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
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erfc_is_monotone() {
        let xs: Vec<f64> = (-40..=40).map(|i| i as f64 * 0.1).collect();
        for w in xs.windows(2) {
            assert!(erfc(w[0]) >= erfc(w[1]));
        }
    }
}
