//! The Box–Muller noise kernel behind [`super::standard_normal`] and the
//! block noise generators.
//!
//! A draw is `sqrt(−2·ln u1) · cos(τ·u2)` in f32, with `u1 ∈ [2^-24, 1]`
//! and `u2 ∈ [0, 1)` each taking exactly 2^24 values. The logarithm and
//! the cosine are evaluated by a libm-free replica of glibc's `logf` and
//! `cosf` (the optimized-routines algorithms glibc has shipped since
//! 2.28): an f64 table-plus-polynomial evaluation rounded once to f32.
//! The replica uses plain multiplies and adds, never FMA. On both 2^24
//! domains it equals glibc's results bit for bit, whether glibc's own
//! build contracts to FMA or not, so the replica *is* the definition of
//! every seeded noise stream: streams depend neither on the libm version
//! nor on the CPU's ISA.
//!
//! There are two bodies: a scalar reference and an AVX2 body that runs
//! four f64 lanes per step with exactly the scalar operations. The AVX2
//! body is picked at run time ([`Kernel::detect`]); exhaustive tests
//! below check it against the scalar body on both full domains, and the
//! scalar body against the platform libm where that libm is glibc.

/// `(invc, logc)` per table entry: `invc ≈ 1/c` and `logc ≈ ln c` for
/// the 16 subintervals `c` of `[0x3f330000, 0x3fb30000)` (glibc
/// `__logf_data`).
const LOG_INVC: [f64; 16] = [
    f64::from_bits(0x3ff6_61ec_79f8_f3be),
    f64::from_bits(0x3ff5_71ed_4aaf_883d),
    f64::from_bits(0x3ff4_9539_f0f0_10b0),
    f64::from_bits(0x3ff3_c995_b0b8_0385),
    f64::from_bits(0x3ff3_0d19_0c88_64a5),
    f64::from_bits(0x3ff2_5e22_7b0b_8ea0),
    f64::from_bits(0x3ff1_bb4a_4a1a_343f),
    f64::from_bits(0x3ff1_2358_f08a_e5ba),
    f64::from_bits(0x3ff0_953f_4199_00a7),
    f64::from_bits(0x3ff0_0000_0000_0000),
    f64::from_bits(0x3fee_608c_fd9a_47ac),
    f64::from_bits(0x3fec_a4b3_1f02_6aa0),
    f64::from_bits(0x3feb_2036_576a_fce6),
    f64::from_bits(0x3fe9_c2d1_63a1_aa2d),
    f64::from_bits(0x3fe8_86e6_0378_41ed),
    f64::from_bits(0x3fe7_67dc_f553_4862),
];
const LOG_LOGC: [f64; 16] = [
    f64::from_bits(0xbfd5_7bf7_808c_aade),
    f64::from_bits(0xbfd2_bef0_a7c0_6ddb),
    f64::from_bits(0xbfd0_1eae_7f51_3a67),
    f64::from_bits(0xbfcb_31d8_a682_24e9),
    f64::from_bits(0xbfc6_574f_0ac0_7758),
    f64::from_bits(0xbfc1_aa2b_c79c_8100),
    f64::from_bits(0xbfba_4e76_ce8c_0e5e),
    f64::from_bits(0xbfb1_973c_5a61_1ccc),
    f64::from_bits(0xbfa2_52f4_38e1_0c1e),
    0.0,
    f64::from_bits(0x3faa_a5aa_5df2_5984),
    f64::from_bits(0x3fbc_5e53_aa36_2eb4),
    f64::from_bits(0x3fc5_26e5_7720_db08),
    f64::from_bits(0x3fcb_c286_0d22_4770),
    f64::from_bits(0x3fd1_058b_c8a0_7ee1),
    f64::from_bits(0x3fd4_0430_57b6_ee09),
];
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// `log1p(r) ≈ r + A2·r² + A1·r³ + A0·r⁴` on the reduced interval.
const LOG_A0: f64 = f64::from_bits(0xbfd0_0ea3_48b8_8334);
const LOG_A1: f64 = f64::from_bits(0x3fd5_575b_0be0_0b6a);
const LOG_A2: f64 = f64::from_bits(0xbfdf_fffe_f20a_4123);
/// Offset that centres the 16 subintervals on 1.0.
const LOG_OFF: u32 = 0x3f33_0000;

/// `2/π · 2^24`: the reduction multiplier, scaled so that rounding to the
/// nearest quadrant is an add and an arithmetic shift.
const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
/// `π/2`.
const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// `cos r ≈ C0 + C1·r² + C2·r⁴ + C3·r⁶ + C4·r⁸` (glibc `__sincosf_table`).
const COS_C: [f64; 5] = [
    1.0,
    f64::from_bits(0xbfdf_ffff_fd0c_621c),
    f64::from_bits(0x3fa5_5553_e106_8f19),
    f64::from_bits(0xbf56_c087_e89a_359d),
    f64::from_bits(0x3ef9_9343_027b_f8c3),
];
/// `sin r ≈ r + S1·r³ + S2·r⁵ + S3·r⁷`.
const SIN_S: [f64; 3] = [
    f64::from_bits(0xbfc5_5554_5995_a603),
    f64::from_bits(0x3f81_1076_0523_0bc4),
    f64::from_bits(0xbf29_94eb_3774_cf24),
];
/// Bit pattern of `2^-12`: `cosf` returns exactly 1 below it.
const COS_TINY_BITS: u32 = 0x3980_0000;

/// `ln x` for `x ∈ [2^-24, 1]`, bitwise equal to glibc's `logf`.
#[inline]
pub(super) fn ln(x: f32) -> f32 {
    let ix = x.to_bits();
    if ix == 0x3f80_0000 {
        return 0.0;
    }
    // `x = 2^k · z` with `z` in the subinterval `c` of table entry `i`.
    let tmp = ix.wrapping_sub(LOG_OFF);
    let i = ((tmp >> 19) & 15) as usize;
    let k = (tmp as i32) >> 23;
    let iz = ix.wrapping_sub(tmp & 0xff80_0000);
    // ln x = log1p(z/c − 1) + ln c + k·ln 2.
    let r = f64::from(f32::from_bits(iz)) * LOG_INVC[i] - 1.0;
    let y0 = LOG_LOGC[i] + f64::from(k) * LN2;
    let r2 = r * r;
    let y = LOG_A1 * r + LOG_A2;
    let y = LOG_A0 * r2 + y;
    let y = y * r2 + (y0 + r);
    y as f32
}

/// `cos(τ·u)` for `u ∈ [0, 1)`, the product rounded to f32 first:
/// bitwise equal to glibc's `cosf((τ * u) as f32)`.
#[inline]
pub(super) fn cos_tau(u: f32) -> f32 {
    let y = std::f32::consts::TAU * u;
    if y.to_bits() < COS_TINY_BITS {
        return 1.0;
    }
    let x = f64::from(y);
    // Nearest quadrant `n` (0 below π/4, which reproduces glibc's
    // small-argument branch: there `x − 0·π/2 = x`) and `x − n·π/2`.
    let n = (((x * HPI_INV) as i32) + 0x80_0000) >> 24;
    let xr = x - f64::from(n) * HPI;
    let x2 = xr * xr;
    // cos x = ±sin xr for odd n, ±cos xr for even n, negative in
    // quadrants 1 and 2. glibc negates the sine's argument and the
    // cosine's coefficients there; negating the result instead gives
    // the same bits, because rounding is symmetric and no sum inside
    // either polynomial is exactly zero on this domain (`|xr| ≤ π/4`,
    // `xr ≠ 0` for odd `n`, the cosine stays above 0.7).
    let y = if n & 1 == 1 {
        let x3 = xr * x2;
        let s1 = SIN_S[1] + x2 * SIN_S[2];
        let x7 = x3 * x2;
        (xr + x3 * SIN_S[0]) + x7 * s1
    } else {
        let x4 = x2 * x2;
        let c2 = COS_C[3] + x2 * COS_C[4];
        let c1 = COS_C[0] + x2 * COS_C[1];
        let x6 = x4 * x2;
        (c1 + x4 * COS_C[2]) + x6 * c2
    };
    let y = y as f32;
    if (n ^ (n >> 1)) & 1 == 1 {
        -y
    } else {
        y
    }
}

/// The body that evaluates a block of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kernel {
    /// One sample at a time: the reference.
    Scalar,
    /// Four f64 lanes per AVX2 register, the scalar operations lane by
    /// lane; a tail shorter than four runs the scalar body.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The widest body this CPU runs, checked at run time.
    #[inline]
    pub(super) fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Scalar
    }

    /// `out[i] = ln(u1[i])` for every `u1[i] ∈ [2^-24, 1]`.
    pub(super) fn ln(self, u1: &[f32], out: &mut [f32]) {
        assert_eq!(u1.len(), out.len());
        match self {
            Kernel::Scalar => ln_scalar(u1, out),
            // SAFETY: `Kernel::Avx2` is only produced after a run-time
            // AVX2 check.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { ln_avx2(u1, out) },
        }
    }

    /// `out[i] = cos_tau(u2[i])` for every `u2[i] ∈ [0, 1)`.
    pub(super) fn cos_tau(self, u2: &[f32], out: &mut [f32]) {
        assert_eq!(u2.len(), out.len());
        match self {
            Kernel::Scalar => cos_tau_scalar(u2, out),
            // SAFETY: as in `Kernel::ln`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { cos_tau_avx2(u2, out) },
        }
    }
}

fn ln_scalar(u1: &[f32], out: &mut [f32]) {
    for (o, &u) in out.iter_mut().zip(u1) {
        *o = ln(u);
    }
}

fn cos_tau_scalar(u2: &[f32], out: &mut [f32]) {
    for (o, &u) in out.iter_mut().zip(u2) {
        *o = cos_tau(u);
    }
}

/// AVX2 body of [`ln_scalar`].
///
/// The one special case of [`ln`] needs no lane select: at `x = 1` the
/// table entry is `(1, 0)` with `k = 0`, so `r = 0`, `y0 = 0` and the
/// polynomial ends in `A2·0 + (0 + 0) = −0 + 0 = +0`, the same zero.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ln_avx2(u1: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut lanes = u1.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    let off = _mm_set1_epi32(LOG_OFF as i32);
    let exp_mask = _mm_set1_epi32(0xff80_0000_u32 as i32);
    let idx_mask = _mm_set1_epi32(15);
    let one = _mm256_set1_pd(1.0);
    let ln2 = _mm256_set1_pd(LN2);
    let (a0, a1, a2) = (
        _mm256_set1_pd(LOG_A0),
        _mm256_set1_pd(LOG_A1),
        _mm256_set1_pd(LOG_A2),
    );
    for (x, o) in (&mut lanes).zip(&mut outs) {
        // SAFETY: `x` and `o` are chunks of exactly four f32; the gather
        // indices are masked to `0..16`, inside both tables.
        unsafe {
            let ix = _mm_loadu_si128(x.as_ptr().cast());
            let tmp = _mm_sub_epi32(ix, off);
            let i = _mm_and_si128(_mm_srli_epi32::<19>(tmp), idx_mask);
            let k = _mm_srai_epi32::<23>(tmp);
            let iz = _mm_sub_epi32(ix, _mm_and_si128(tmp, exp_mask));
            let z = _mm256_cvtps_pd(_mm_castsi128_ps(iz));
            let invc = _mm256_i32gather_pd::<8>(LOG_INVC.as_ptr(), i);
            let logc = _mm256_i32gather_pd::<8>(LOG_LOGC.as_ptr(), i);
            let r = _mm256_sub_pd(_mm256_mul_pd(z, invc), one);
            let y0 = _mm256_add_pd(logc, _mm256_mul_pd(_mm256_cvtepi32_pd(k), ln2));
            let r2 = _mm256_mul_pd(r, r);
            let y = _mm256_add_pd(_mm256_mul_pd(a1, r), a2);
            let y = _mm256_add_pd(_mm256_mul_pd(a0, r2), y);
            let y = _mm256_add_pd(_mm256_mul_pd(y, r2), _mm256_add_pd(y0, r));
            _mm_storeu_ps(o.as_mut_ptr(), _mm256_cvtpd_ps(y));
        }
    }
    ln_scalar(lanes.remainder(), outs.into_remainder());
}

/// AVX2 body of [`cos_tau_scalar`]: both polynomials run on every lane
/// and the quadrant parity picks one.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn cos_tau_avx2(u2: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut lanes = u2.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    let tau = _mm_set1_ps(std::f32::consts::TAU);
    let tiny = _mm_castsi128_ps(_mm_set1_epi32(COS_TINY_BITS as i32));
    let round = _mm_set1_epi32(0x80_0000);
    let (hpi_inv, hpi) = (_mm256_set1_pd(HPI_INV), _mm256_set1_pd(HPI));
    let c = COS_C.map(|c| _mm256_set1_pd(c));
    let s = SIN_S.map(|s| _mm256_set1_pd(s));
    for (u, o) in (&mut lanes).zip(&mut outs) {
        // SAFETY: `u` is a chunk of exactly four f32.
        let y = _mm_mul_ps(tau, unsafe { _mm_loadu_ps(u.as_ptr()) });
        let x = _mm256_cvtps_pd(y);
        let n = _mm_srai_epi32::<24>(_mm_add_epi32(
            _mm256_cvttpd_epi32(_mm256_mul_pd(x, hpi_inv)),
            round,
        ));
        let xr = _mm256_sub_pd(x, _mm256_mul_pd(_mm256_cvtepi32_pd(n), hpi));
        let x2 = _mm256_mul_pd(xr, xr);

        let x3 = _mm256_mul_pd(xr, x2);
        let s1 = _mm256_add_pd(s[1], _mm256_mul_pd(x2, s[2]));
        let x7 = _mm256_mul_pd(x3, x2);
        let sin = _mm256_add_pd(
            _mm256_add_pd(xr, _mm256_mul_pd(x3, s[0])),
            _mm256_mul_pd(x7, s1),
        );

        let x4 = _mm256_mul_pd(x2, x2);
        let c2 = _mm256_add_pd(c[3], _mm256_mul_pd(x2, c[4]));
        let c1 = _mm256_add_pd(c[0], _mm256_mul_pd(x2, c[1]));
        let x6 = _mm256_mul_pd(x4, x2);
        let cos = _mm256_add_pd(
            _mm256_add_pd(c1, _mm256_mul_pd(x4, c[2])),
            _mm256_mul_pd(x6, c2),
        );

        // Odd `n` (its low bit moved to the 64-bit sign) takes the sine;
        // quadrants 1 and 2 (`n ^ n >> 1` odd) flip the sign.
        let odd = _mm256_castsi256_pd(_mm256_slli_epi64::<63>(_mm256_cvtepi32_epi64(n)));
        let neg = _mm_slli_epi32::<31>(_mm_xor_si128(n, _mm_srai_epi32::<1>(n)));
        let v = _mm256_cvtpd_ps(_mm256_blendv_pd(cos, sin, odd));
        let v = _mm_xor_ps(v, _mm_castsi128_ps(neg));
        let v = _mm_blendv_ps(v, _mm_set1_ps(1.0), _mm_cmplt_ps(y, tiny));
        // SAFETY: `o` is a chunk of exactly four f32.
        unsafe { _mm_storeu_ps(o.as_mut_ptr(), v) };
    }
    cos_tau_scalar(lanes.remainder(), outs.into_remainder());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `u1 = 1 − m·2^-24` and every `u2 = m·2^-24`, `m ∈ 0..2^24`:
    /// the two full input domains of the kernel.
    fn u1_domain() -> Vec<f32> {
        (0..1u32 << 24)
            .map(|m| 1.0 - m as f32 * (1.0 / (1u32 << 24) as f32))
            .collect()
    }

    fn u2_domain() -> Vec<f32> {
        (0..1u32 << 24)
            .map(|m| m as f32 * (1.0 / (1u32 << 24) as f32))
            .collect()
    }

    fn first_mismatch(got: &[f32], want: &[f32], input: &[f32]) -> Option<(f32, f32, f32)> {
        got.iter()
            .zip(want)
            .zip(input)
            .find(|((g, w), _)| g.to_bits() != w.to_bits())
            .map(|((&g, &w), &x)| (x, g, w))
    }

    #[test]
    fn simd_ln_equals_scalar_on_the_whole_domain() {
        // On CPUs without AVX2 `detect` is the scalar body and this
        // repeats the scalar half.
        let u1 = u1_domain();
        let (mut got, mut want) = (vec![0.0; u1.len()], vec![0.0; u1.len()]);
        Kernel::detect().ln(&u1, &mut got);
        Kernel::Scalar.ln(&u1, &mut want);
        assert_eq!(first_mismatch(&got, &want, &u1), None, "(u1, simd, scalar)");
    }

    #[test]
    fn simd_cos_equals_scalar_on_the_whole_domain() {
        let u2 = u2_domain();
        let (mut got, mut want) = (vec![0.0; u2.len()], vec![0.0; u2.len()]);
        Kernel::detect().cos_tau(&u2, &mut got);
        Kernel::Scalar.cos_tau(&u2, &mut want);
        assert_eq!(first_mismatch(&got, &want, &u2), None, "(u2, simd, scalar)");
    }

    #[test]
    fn simd_tails_run_the_scalar_body() {
        let u1: Vec<f32> = u1_domain().into_iter().step_by(999_983).collect();
        let u2: Vec<f32> = u2_domain().into_iter().step_by(999_983).collect();
        for len in 0..u1.len() {
            let (mut got, mut want) = (vec![0.0; len], vec![0.0; len]);
            Kernel::detect().ln(&u1[..len], &mut got);
            Kernel::Scalar.ln(&u1[..len], &mut want);
            assert_eq!(first_mismatch(&got, &want, &u1), None, "ln, len {len}");
            Kernel::detect().cos_tau(&u2[..len], &mut got);
            Kernel::Scalar.cos_tau(&u2[..len], &mut want);
            assert_eq!(first_mismatch(&got, &want, &u2), None, "cos, len {len}");
        }
    }

    /// The replica against the platform libm, which is glibc here. Any
    /// edit to the kernel that fails this moves every seeded stream.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    fn scalar_ln_equals_glibc_logf_on_the_whole_domain() {
        let u1 = u1_domain();
        let got: Vec<f32> = u1.iter().map(|&u| ln(u)).collect();
        let want: Vec<f32> = u1.iter().map(|&u| u.ln()).collect();
        assert_eq!(
            first_mismatch(&got, &want, &u1),
            None,
            "(u1, replica, libm)"
        );
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    fn scalar_cos_equals_glibc_cosf_on_the_whole_domain() {
        let u2 = u2_domain();
        let got: Vec<f32> = u2.iter().map(|&u| cos_tau(u)).collect();
        let want: Vec<f32> = u2
            .iter()
            .map(|&u| (std::f32::consts::TAU * u).cos())
            .collect();
        assert_eq!(
            first_mismatch(&got, &want, &u2),
            None,
            "(u2, replica, libm)"
        );
    }
}
