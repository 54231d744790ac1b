//! The grid backend's innermost loop: the fused scaled accumulate
//! `out[i] += a · k[i]` that every stencil scatter row reduces to.
//!
//! [`axpy`] dispatches at runtime to an AVX2+FMA kernel when the CPU has
//! it and otherwise falls back to a chunked portable loop the compiler
//! can autovectorize at the build's baseline feature level.

/// `out[i] += a · k[i]` over equal-length slices — the stencil
/// scatter's inner loop.
pub(crate) fn axpy(out: &mut [f64], a: f64, k: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2_fma() {
        // SAFETY: guarded by runtime AVX2+FMA detection.
        unsafe { x86::axpy_f64(out, a, k) };
        return;
    }
    axpy_portable(out, a, k);
}

/// Portable `out[i] += a · k[i]`: fixed-width chunks of exact `zip`s so
/// the inner loop carries no bounds checks and autovectorizes at the
/// build's baseline feature level (SSE2 on x86-64 by default).
fn axpy_portable(out: &mut [f64], a: f64, k: &[f64]) {
    let n = out.len().min(k.len());
    debug_assert_eq!(out.len(), k.len());
    let (out, k) = (&mut out[..n], &k[..n]);
    for (oc, kc) in out.chunks_exact_mut(8).zip(k.chunks_exact(8)) {
        for (t, &kv) in oc.iter_mut().zip(kc) {
            *t += a * kv;
        }
    }
    let tail = n - n % 8;
    for (t, &kv) in out[tail..].iter_mut().zip(&k[tail..]) {
        *t += a * kv;
    }
}

/// Runtime-dispatched AVX2+FMA kernel. The crate builds at the default
/// x86-64 baseline (SSE2), so this path is selected per process via
/// `is_x86_feature_detected!` and reached only through that guard.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this CPU supports the AVX2+FMA kernel (detected once).
    pub(super) fn have_avx2_fma() -> bool {
        static FLAG: OnceLock<bool> = OnceLock::new();
        *FLAG.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// `out[i] += a · k[i]` with 4-wide f64 FMA.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and FMA (gate with
    /// [`have_avx2_fma`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_f64(out: &mut [f64], a: f64, k: &[f64]) {
        debug_assert_eq!(out.len(), k.len());
        let n = out.len().min(k.len());
        let va = _mm256_set1_pd(a);
        let op = out.as_mut_ptr();
        let kp = k.as_ptr();
        let mut i = 0usize;
        // SAFETY: every unaligned load/store covers `[i, i + 4)` (or the
        // second lane `[i + 4, i + 8)`) with the loop condition keeping
        // the upper bound ≤ n ≤ both slice lengths.
        unsafe {
            while i + 8 <= n {
                let o0 = _mm256_loadu_pd(op.add(i));
                let o1 = _mm256_loadu_pd(op.add(i + 4));
                let k0 = _mm256_loadu_pd(kp.add(i));
                let k1 = _mm256_loadu_pd(kp.add(i + 4));
                _mm256_storeu_pd(op.add(i), _mm256_fmadd_pd(va, k0, o0));
                _mm256_storeu_pd(op.add(i + 4), _mm256_fmadd_pd(va, k1, o1));
                i += 8;
            }
            while i + 4 <= n {
                let o0 = _mm256_loadu_pd(op.add(i));
                let k0 = _mm256_loadu_pd(kp.add(i));
                _mm256_storeu_pd(op.add(i), _mm256_fmadd_pd(va, k0, o0));
                i += 4;
            }
        }
        // Scalar FMA tail: same fused rounding as the vector body.
        for j in i..n {
            out[j] = a.mul_add(k[j], out[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_axpy(out: &mut [f64], a: f64, k: &[f64]) {
        for (t, &kv) in out.iter_mut().zip(k) {
            *t += a * kv;
        }
    }

    #[test]
    fn axpy_matches_reference_at_all_lengths() {
        // Cover every tail-length case around the 4/8-lane boundaries,
        // for the dispatched kernel and the portable fallback alike.
        type Kernel = fn(&mut [f64], f64, &[f64]);
        for kernel in [axpy as Kernel, axpy_portable] {
            for n in 0..40 {
                let k: Vec<f64> = (0..n).map(|i| 0.1 + i as f64 * 0.37).collect();
                let mut out: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
                let mut expect = out.clone();
                kernel(&mut out, 0.625, &k);
                reference_axpy(&mut expect, 0.625, &k);
                for (i, (a, b)) in out.iter().zip(&expect).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-15 * b.abs().max(1.0),
                        "n={n} i={i}: {a} vs {b}"
                    );
                }
            }
        }
    }
}
