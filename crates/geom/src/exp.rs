//! A batched `exp` built from IEEE add, sub, mul and div only.
//!
//! The particle engine exponentiates a few thousand log-kernels per node
//! update, and one libm `exp` call per term dominated its profile. This
//! kernel is fdlibm's `exp` (Cody–Waite reduction `x = k·ln2 + r`, then
//! the degree-5 rational remainder `exp(r) = 1 + 2r/(2 − c)`), written
//! branch-free so the compiler vectorizes the loop at the build's baseline
//! feature level. It uses no intrinsics and no runtime CPU dispatch, and
//! Rust never contracts `a * b + c` into a fused multiply-add, so every
//! host computes the same bits.
//!
//! # Contract
//!
//! [`exp_in_place`] replaces each element `x` with `exp(x)`:
//!
//! - where `exp(x)` is a normal number, the result is within 2 ulp of
//!   [`f64::exp`] (fdlibm's own bound is below 1 ulp of the true value);
//! - results below [`f64::MIN_POSITIVE`] may flush to zero;
//! - `exp(x)` beyond [`f64::MAX`], including `x = +∞`, gives `+∞`;
//! - `x = −∞` gives `0` and NaN gives NaN.

/// `ln 2`, split so that `k · LN2_HI` is exact for every `|k| < 2¹¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// The rest of `ln 2` beyond [`LN2_HI`].
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1 / ln 2`.
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);

/// fdlibm's remainder coefficients: `c = r − r²·(P1 + r²·(P2 + …))`.
const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);

/// `1.5·2⁵²`: adding it rounds a value of magnitude below `2⁵¹` to the
/// nearest integer, which then sits in the low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// Inputs are clamped to `[CLAMP_LO, CLAMP_HI]` before the reduction:
/// `exp(CLAMP_LO)` rounds to 0 and `exp(CLAMP_HI)` overflows, so the
/// clamp changes no result, and it keeps `k` in `[−1076, 1024]`, where
/// `2^k` splits into two normal factors.
const CLAMP_LO: f64 = -746.0;
const CLAMP_HI: f64 = 710.0;

/// Replaces every element `x` of `xs` with `exp(x)`, under the module's
/// contract.
pub fn exp_in_place(xs: &mut [f64]) {
    for x in xs {
        *x = exp(*x);
    }
}

#[inline(always)]
fn exp(x: f64) -> f64 {
    // NaN fails both comparisons and flows through to the result.
    let x = if x > CLAMP_HI { CLAMP_HI } else { x };
    let x = if x < CLAMP_LO { CLAMP_LO } else { x };
    let t = x * INV_LN2 + ROUND;
    let kf = t - ROUND;
    // Exact: `kf · LN2_HI` needs at most 43 significant bits, and `x`
    // lies within a factor of two of it whenever `kf ≠ 0`.
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // `2^k = 2^k1 · 2^k2` with both factors normal: `kb = k + 2048`,
    // `k1 = kb/2 − 1024`, `k2 = k − k1`; each biased exponent is
    // `k_i + 1023`. Wrapping arithmetic keeps NaN's garbage `k` harmless.
    let kb = t.to_bits().wrapping_sub(ROUND.to_bits()).wrapping_add(2048);
    let k1b = kb >> 1;
    let s1 = f64::from_bits(k1b.wrapping_sub(1) << 52);
    let s2 = f64::from_bits(kb.wrapping_sub(k1b).wrapping_sub(1) << 52);
    y * s1 * s2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn batched(x: f64) -> f64 {
        let mut v = [x];
        exp_in_place(&mut v);
        v[0]
    }

    /// Distance in units in the last place between two positive finite
    /// doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    fn assert_close(x: f64) {
        let want = x.exp();
        let got = batched(x);
        if want < f64::MIN_POSITIVE {
            assert!(
                got < f64::MIN_POSITIVE,
                "exp({x:e}) = {got:e}, want {want:e}"
            );
        } else if want.is_infinite() {
            assert_eq!(got, f64::INFINITY, "exp({x:e})");
        } else {
            assert!(ulps(got, want) <= 2, "exp({x:e}) = {got:e}, want {want:e}");
        }
    }

    #[test]
    fn within_two_ulp_across_the_domain() {
        let mut rng = Xoshiro256pp::seed_from(0xe4f);
        // Uniform over the whole finite range of results…
        for _ in 0..200_000 {
            assert_close(rng.range(-750.0, 712.0));
        }
        // …and dense where the particle kernels live.
        for _ in 0..200_000 {
            assert_close(rng.range(-60.0, 1.0));
        }
        for _ in 0..10_000 {
            assert_close(rng.range(-1e-6, 1e-6));
        }
    }

    #[test]
    fn edges_of_the_domain() {
        let ln_max = f64::MAX.ln();
        let ln_min = f64::MIN_POSITIVE.ln();
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            std::f64::consts::LN_2,
            0.5 * std::f64::consts::LN_2,
            -0.5 * std::f64::consts::LN_2,
            ln_max,
            ln_max - 1e-12,
            ln_min,
            ln_min + 1e-12,
            -745.0,
            -745.2,
            709.0,
            709.79,
            1e300,
            -1e300,
        ] {
            assert_close(x);
        }
        assert_eq!(batched(0.0), 1.0);
        assert_eq!(batched(f64::NEG_INFINITY), 0.0);
        assert_eq!(batched(-1e300), 0.0);
        assert_eq!(batched(f64::INFINITY), f64::INFINITY);
        assert_eq!(batched(709.79), f64::INFINITY);
        assert!(batched(f64::NAN).is_nan());
        assert!(batched(-f64::NAN).is_nan());
    }

    #[test]
    fn every_element_of_a_batch_is_replaced() {
        let xs: Vec<f64> = (0..37).map(|i| -0.25 * i as f64).collect();
        let mut ys = xs.clone();
        exp_in_place(&mut ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!(ulps(y, x.exp()) <= 2, "exp({x}) = {y}");
        }
        exp_in_place(&mut []);
    }
}
