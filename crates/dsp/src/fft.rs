//! Planned radix-2 fast Fourier transforms.
//!
//! The transform layer is built around [`FftPlan`]: the bit-reversal
//! permutation and per-stage twiddle tables for one size are computed once
//! (directly, via `sin`/`cos` per entry — not the error-accumulating
//! `w *= wlen` recurrence) and reused for every transform of that size.
//! [`with_plan`] hands out plans from a thread-local cache so the hot
//! paths — [`fft_padded`], [`magnitude_spectrum`], the STFT, correlation,
//! frequency-domain filtering — never rebuild tables or allocate plan
//! state per call.
//!
//! Real signals take a packed fast path: an `N`-point real transform is
//! computed as an `N/2`-point complex FFT of the even/odd-interleaved
//! samples plus an `O(N)` unpacking step, roughly halving the work of
//! every spectrum, filter and correlation in the workspace.
//!
//! Lengths must be powers of two; [`next_pow2`] and [`fft_padded`] help
//! with arbitrary input lengths.

use crate::complex::Complex;
use crate::error::DspError;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Returns the smallest power of two that is `>= n` (and at least 1).
///
/// # Example
///
/// ```
/// assert_eq!(thrubarrier_dsp::fft::next_pow2(500), 512);
/// assert_eq!(thrubarrier_dsp::fft::next_pow2(512), 512);
/// assert_eq!(thrubarrier_dsp::fft::next_pow2(0), 1);
/// ```
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// A precomputed plan for FFTs of one power-of-two size.
///
/// Holds the forward twiddle factors of every butterfly stage
/// (concatenated, `n - 1` entries total) and the unpacking twiddles used
/// when this plan serves as the half-size kernel of a `2n`-point real
/// transform. Each twiddle is evaluated directly from its angle, so
/// plans are accurate to f32 rounding even at large sizes where the old
/// multiply-recurrence visibly drifted. The bit-reversal permutation
/// needs no table: it is computed tile by tile.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Forward stage twiddles: for each stage `len = 2, 4, .., n`, the
    /// `len/2` factors `exp(-i·2πk/len)`, concatenated in stage order.
    twiddles: Vec<Complex>,
    /// `exp(-i·πk/n)` for `k = 0..=n`: the split twiddles that unpack an
    /// `n`-point complex FFT into a `2n`-point real spectrum.
    real_twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for size `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::FftLengthNotPowerOfTwo`] if `n` is not a power
    /// of two.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if !n.is_power_of_two() {
            return Err(DspError::FftLengthNotPowerOfTwo(n));
        }
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            let step = std::f64::consts::TAU / len as f64;
            for k in 0..len / 2 {
                let ang = -(k as f64) * step;
                twiddles.push(Complex::new(ang.cos() as f32, ang.sin() as f32));
            }
            len <<= 1;
        }
        let real_twiddles = (0..=n)
            .map(|k| {
                let ang = -std::f64::consts::PI * k as f64 / n.max(1) as f64;
                Complex::new(ang.cos() as f32, ang.sin() as f32)
            })
            .collect();
        Ok(FftPlan {
            n,
            twiddles,
            real_twiddles,
        })
    }

    /// The transform size this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether this is the degenerate size-0 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan size.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.process::<false>(buf, Kernel::detect());
    }

    /// In-place inverse FFT of `buf`, including the `1/N` normalization.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan size.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.process::<true>(buf, Kernel::detect());
        let scale = 1.0 / self.n as f32;
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// Bit-reversal permutation followed by the radix-2 stages, each
    /// stage run by `kernel`'s butterfly body. Every kernel performs the
    /// same IEEE operations per butterfly, so the result does not depend
    /// on which one runs. The AVX2 kernel runs the stages two at a time
    /// ([`stage_pair_avx2`]); the butterflies and their operands are the
    /// same as one stage at a time, only their order changes.
    fn process<const INVERSE: bool>(&self, buf: &mut [Complex], kernel: Kernel) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan size");
        if self.n <= 1 {
            return;
        }
        bit_reverse_permute(buf);
        let mut twiddles = self.twiddles.as_slice();
        let mut half = 1usize;
        while half < self.n {
            match kernel {
                #[cfg(target_arch = "x86_64")]
                Kernel::Avx2 if half >= 4 && 4 * half <= self.n => {
                    // Stage `2·half`'s twiddles follow stage `half`'s.
                    let (pair, rest) = twiddles.split_at(3 * half);
                    twiddles = rest;
                    let (tw_h, tw_2h) = pair.split_at(half);
                    // SAFETY: `Kernel::Avx2` is only produced after a
                    // successful run-time AVX2 check.
                    unsafe { stage_pair_avx2::<INVERSE>(buf, tw_h, tw_2h) };
                    half <<= 2;
                }
                _ => {
                    let (stage, rest) = twiddles.split_at(half);
                    twiddles = rest;
                    match kernel {
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: as above.
                        Kernel::Avx2 if half >= 4 => unsafe { stage_avx2::<INVERSE>(buf, stage) },
                        _ => stage_scalar::<INVERSE>(buf, stage),
                    }
                    half <<= 1;
                }
            }
        }
    }
}

/// log2 of the tile side of [`bit_reverse_permute`]: a tile row of
/// `2^3` complex values is one 64-byte cache line.
const TILE_BITS: u32 = 3;
/// Side of a bit-reversal tile.
const TILE: usize = 1 << TILE_BITS;
/// `REV_TILE[d]` is `d` with its [`TILE_BITS`] bits reversed.
const REV_TILE: [usize; TILE] = [0, 4, 2, 6, 1, 5, 3, 7];
/// `REV_SMALL[i]` is `i` with its `2·TILE_BITS` bits reversed: the swap
/// loop's index table for the sizes below the tile threshold (a table
/// load is cheaper than `reverse_bits`, which x86-64 has no instruction
/// for).
const REV_SMALL: [u8; TILE * TILE] = {
    let mut table = [0u8; TILE * TILE];
    let mut i = 0;
    while i < TILE * TILE {
        table[i] = (i as u8).reverse_bits() >> (u8::BITS - 2 * TILE_BITS);
        i += 1;
    }
    table
};

/// `i` with its low `bits` bits reversed (`bits >= 1`).
#[inline]
fn reverse_low_bits(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

/// In-place bit-reversal permutation of a power-of-two-length buffer:
/// afterwards `buf[i]` holds what was at `reverse_low_bits(i, log2 n)`.
///
/// A plain swap loop touches a new cache line on nearly every swap once
/// the buffer outgrows the cache. This walks the buffer in tiles
/// instead (the COBRA scheme): an index splits into
/// `(top | middle | low)` with [`TILE_BITS`] bits at each end, and
/// reversal maps the 8×8 tile of middle bits `c` onto the tile of
/// `reverse(c)`, transposing it with both axes bit-reversed. Each tile
/// is eight cache-line rows; it is copied whole into a stack buffer and
/// its partner's rows are overwritten whole, so every line is read and
/// written once. Sizes below `2^(2·TILE_BITS + 1)` have no middle bits
/// and keep the swap loop. Only values move, so the result is bitwise
/// the swap loop's.
fn bit_reverse_permute(buf: &mut [Complex]) {
    let n = buf.len();
    debug_assert!(n.is_power_of_two());
    if n <= 2 {
        return;
    }
    let bits = n.trailing_zeros();
    if bits <= 2 * TILE_BITS {
        let shift = 2 * TILE_BITS - bits;
        for (i, &j) in REV_SMALL[..n].iter().enumerate() {
            let j = usize::from(j >> shift);
            if j > i {
                buf.swap(i, j);
            }
        }
        return;
    }
    let mid_bits = bits - 2 * TILE_BITS;
    // Row `r` of tile `c` is `buf[r·stride + c·TILE..][..TILE]`.
    let stride = n >> TILE_BITS;
    let mut tile = [Complex::ZERO; TILE * TILE];
    let mut partner = [Complex::ZERO; TILE * TILE];
    for c in 0..1usize << mid_bits {
        let c_rev = reverse_low_bits(c, mid_bits);
        if c_rev < c {
            continue;
        }
        load_tile(buf, stride, c * TILE, &mut tile);
        if c_rev != c {
            load_tile(buf, stride, c_rev * TILE, &mut partner);
            store_tile_reversed(buf, stride, c * TILE, &partner);
        }
        store_tile_reversed(buf, stride, c_rev * TILE, &tile);
    }
}

/// Copies the `TILE` rows at column `offset` of `buf` (rows `stride`
/// apart) into `tile`, row-major.
#[inline]
fn load_tile(buf: &[Complex], stride: usize, offset: usize, tile: &mut [Complex; TILE * TILE]) {
    for (row, src) in tile.chunks_exact_mut(TILE).zip(buf.chunks_exact(stride)) {
        row.copy_from_slice(&src[offset..offset + TILE]);
    }
}

/// Writes `tile` back at column `offset` transposed with both axes
/// bit-reversed: row `r`, column `d` receives `tile[rev(d)][rev(r)]`.
#[inline]
fn store_tile_reversed(
    buf: &mut [Complex],
    stride: usize,
    offset: usize,
    tile: &[Complex; TILE * TILE],
) {
    for (&r_rev, dst) in REV_TILE.iter().zip(buf.chunks_exact_mut(stride)) {
        for (&d_rev, v) in REV_TILE.iter().zip(&mut dst[offset..offset + TILE]) {
            *v = tile[d_rev * TILE + r_rev];
        }
    }
}

/// The butterfly body that runs the stages of a transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Portable scalar butterflies: the fallback and the reference.
    Scalar,
    /// Four complex lanes per AVX2 register for stages with `half >= 4`;
    /// the two narrower stages stay scalar.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The widest kernel this CPU runs, checked at run time.
    #[inline]
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Scalar
    }
}

/// One radix-2 stage with `tw.len()` butterflies per block: for every
/// block `[lo | hi]` of `2·half` bins, `lo[k] ± hi[k]·w_k`.
#[inline]
fn stage_scalar<const INVERSE: bool>(buf: &mut [Complex], tw: &[Complex]) {
    let half = tw.len();
    for block in buf.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        for ((a, b), &t) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let w = if INVERSE { t.conj() } else { t };
            let x = *a;
            let y = *b * w;
            *a = x + y;
            *b = x - y;
        }
    }
}

/// AVX2 body of [`stage_scalar`], four butterflies per register.
///
/// Bitwise identical to the scalar body: see [`butterfly_avx2`]. The
/// inverse conjugates twiddles by flipping their imaginary sign bits,
/// which is what `Complex::conj` does; the trivial `(1, -0)` twiddle is
/// multiplied like any other. `tw.len()` must be a multiple of 4, which
/// every stage with `half >= 4` is.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_avx2<const INVERSE: bool>(buf: &mut [Complex], tw: &[Complex]) {
    use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
    let half = tw.len();
    debug_assert_eq!(half % 4, 0);
    for block in buf.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        for ((a, b), t) in lo
            .chunks_exact_mut(4)
            .zip(hi.chunks_exact_mut(4))
            .zip(tw.chunks_exact(4))
        {
            // `Complex` is `repr(C)`, so four of them are eight packed
            // f32 lanes `[re, im, re, im, ..]`.
            let (pa, pb) = (a.as_mut_ptr().cast::<f32>(), b.as_mut_ptr().cast::<f32>());
            // SAFETY: `a`, `b` and `t` are chunks of exactly four
            // `Complex`, i.e. eight in-bounds f32 lanes each.
            unsafe {
                let w = twiddles_avx2::<INVERSE>(_mm256_loadu_ps(t.as_ptr().cast::<f32>()));
                let (sum, diff) = butterfly_avx2(_mm256_loadu_ps(pa), _mm256_loadu_ps(pb), w);
                _mm256_storeu_ps(pa, sum);
                _mm256_storeu_ps(pb, diff);
            }
        }
    }
}

/// Two consecutive AVX2 stages, `half` and `2·half`, in one sweep.
///
/// In a block of `4·half` bins with quarters `q0..q3`, stage `half`
/// pairs `q0[k]`/`q1[k]` and `q2[k]`/`q3[k]` under `tw_h[k]`; stage
/// `2·half` then pairs `q0[k]`/`q2[k]` under `tw_2h[k]` and
/// `q1[k]`/`q3[k]` under `tw_2h[half + k]`. The four bins at offset `k`
/// depend on nothing else, so running both stages on them while they sit
/// in registers performs exactly the butterflies of two [`stage_avx2`]
/// calls on the same operands: the output is bitwise the same, and the
/// buffer is swept once instead of twice.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_pair_avx2<const INVERSE: bool>(
    buf: &mut [Complex],
    tw_h: &[Complex],
    tw_2h: &[Complex],
) {
    use std::arch::x86_64::{_mm256_loadu_ps, _mm256_storeu_ps};
    let half = tw_h.len();
    // The unsafe loads below rely on these two; checked once per pass.
    assert!(half.is_multiple_of(4) && tw_2h.len() == 2 * half);
    debug_assert_eq!(buf.len() % (4 * half), 0);
    let (tw_lo, tw_hi) = tw_2h.split_at(half);
    for block in buf.chunks_exact_mut(4 * half) {
        debug_assert_eq!(block.len(), 4 * half);
        let p = block.as_mut_ptr().cast::<f32>();
        for k in (0..half).step_by(4) {
            // SAFETY: `k + 4 <= half`, so each quarter's four bins
            // `q·half + k .. q·half + k + 4` (`q < 4`) lie inside the
            // `4·half`-bin block, and each twiddle read `k .. k + 4` lies
            // inside `tw_h`, `tw_lo` and `tw_hi` (`half` entries each).
            // A `Complex` is two packed f32 lanes (`repr(C)`).
            unsafe {
                let q0 = p.add(2 * k);
                let q1 = q0.add(2 * half);
                let q2 = q1.add(2 * half);
                let q3 = q2.add(2 * half);
                let tw = |t: &[Complex]| {
                    twiddles_avx2::<INVERSE>(_mm256_loadu_ps(t.as_ptr().add(k).cast::<f32>()))
                };
                let w = tw(tw_h);
                let (a0, a1) = butterfly_avx2(_mm256_loadu_ps(q0), _mm256_loadu_ps(q1), w);
                let (a2, a3) = butterfly_avx2(_mm256_loadu_ps(q2), _mm256_loadu_ps(q3), w);
                let (b0, b2) = butterfly_avx2(a0, a2, tw(tw_lo));
                let (b1, b3) = butterfly_avx2(a1, a3, tw(tw_hi));
                _mm256_storeu_ps(q0, b0);
                _mm256_storeu_ps(q1, b1);
                _mm256_storeu_ps(q2, b2);
                _mm256_storeu_ps(q3, b3);
            }
        }
    }
}

/// Four twiddles as loaded, conjugated for the inverse transform by
/// flipping the imaginary sign bits (what `Complex::conj` does).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn twiddles_avx2<const INVERSE: bool>(w: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::{_mm256_setr_ps, _mm256_xor_ps};
    if INVERSE {
        let conj = _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
        _mm256_xor_ps(w, conj)
    } else {
        w
    }
}

/// Four radix-2 butterflies: `(x + v·w, x − v·w)` per complex lane.
///
/// Bitwise identical to the scalar butterfly: the complex product is two
/// per-lane multiplies (`v·w_re`, `swap(v)·w_im`) joined by `addsub`,
/// which yields `v.re·w.re − v.im·w.im` in the real lane and
/// `v.im·w.re + v.re·w.im` in the imaginary lane — the scalar sum with
/// its two (commutative) addends swapped. No FMA is used, so every
/// product is rounded before the add exactly as in scalar code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn butterfly_avx2(
    x: std::arch::x86_64::__m256,
    v: std::arch::x86_64::__m256,
    w: std::arch::x86_64::__m256,
) -> (std::arch::x86_64::__m256, std::arch::x86_64::__m256) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_addsub_ps, _mm256_movehdup_ps, _mm256_moveldup_ps, _mm256_mul_ps,
        _mm256_permute_ps, _mm256_sub_ps,
    };
    let re_part = _mm256_mul_ps(v, _mm256_moveldup_ps(w));
    let im_part = _mm256_mul_ps(_mm256_permute_ps(v, 0b1011_0001), _mm256_movehdup_ps(w));
    let y = _mm256_addsub_ps(re_part, im_part);
    (_mm256_add_ps(x, y), _mm256_sub_ps(x, y))
}

thread_local! {
    static PLANS: RefCell<HashMap<usize, Rc<FftPlan>>> = RefCell::new(HashMap::new());
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    static ROOTS: RefCell<HashMap<usize, Rc<Vec<Complex>>>> = RefCell::new(HashMap::new());
}

/// The `n` complex unit roots `exp(-i·2π·m/n)` for `m = 0..n`, from a
/// per-thread cache keyed by `n`.
///
/// This is the exact-phase lookup table for frequency-domain delays: a
/// time shift by `d` samples multiplies bin `k` of an `n`-point FFT by
/// `exp(-i·2πkd/n)`, which is entry `(k·d) mod n` of this table. Fused
/// pipelines that fold delays into a combined transfer function (the
/// acoustics scene engine's propagation delay and reverb taps) index
/// the table instead of evaluating a sine/cosine pair per bin per tap —
/// and unlike a `w *= w₁` recurrence the table is computed directly
/// from each angle in `f64`, so phases are accurate to f32 rounding at
/// any `n`.
///
/// # Panics
///
/// Panics if `n` is zero (any positive `n` is accepted; the table is
/// not tied to power-of-two transform sizes).
pub fn unit_roots(n: usize) -> Rc<Vec<Complex>> {
    assert!(n > 0, "unit_roots(0) has no roots");
    ROOTS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(r) = cache.get(&n) {
            return Rc::clone(r);
        }
        let table: Vec<Complex> = (0..n)
            .map(|m| {
                let ang = -std::f64::consts::TAU * m as f64 / n as f64;
                Complex::new(ang.cos() as f32, ang.sin() as f32)
            })
            .collect();
        let r = Rc::new(table);
        cache.insert(n, Rc::clone(&r));
        r
    })
}

/// Reused per-thread buffers so the hot paths are allocation-free once
/// warmed up.
#[derive(Default)]
struct Scratch {
    a: Vec<Complex>,
    b: Vec<Complex>,
    gains: Vec<f32>,
}

/// Runs `f` with the cached plan for power-of-two size `n`, building and
/// caching the plan on first use. Reentrant: `f` may itself call
/// [`with_plan`] (the real-input path does, for the half-size kernel).
///
/// # Panics
///
/// Panics if `n` is not a power of two; use [`FftPlan::new`] directly for
/// fallible construction. Callers with arbitrary work sizes must round
/// up via [`next_pow2`] *before* reaching this function — every
/// workspace hot path (the STFT, the correlation engine, the
/// frequency-domain filters) does exactly that, so the panic is a
/// programming-error guard, not a reachable input condition.
pub fn with_plan<R>(n: usize, f: impl FnOnce(&FftPlan) -> R) -> R {
    debug_assert!(
        n.is_power_of_two(),
        "with_plan({n}): size must be rounded up via next_pow2 by the caller"
    );
    let plan = PLANS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(p) = cache.get(&n) {
            thrubarrier_obs::counter!("dsp.fft_plan.hit").incr();
            Rc::clone(p)
        } else {
            thrubarrier_obs::counter!("dsp.fft_plan.miss").incr();
            let p = Rc::new(FftPlan::new(n).expect("with_plan size must be a power of two"));
            cache.insert(n, Rc::clone(&p));
            p
        }
    });
    f(&plan)
}

/// In-place forward FFT (plan-cached).
///
/// # Errors
///
/// Returns [`DspError::FftLengthNotPowerOfTwo`] if `buf.len()` is not a
/// power of two.
pub fn fft_in_place(buf: &mut [Complex]) -> Result<(), DspError> {
    if !buf.len().is_power_of_two() {
        return Err(DspError::FftLengthNotPowerOfTwo(buf.len()));
    }
    with_plan(buf.len(), |p| p.forward(buf));
    Ok(())
}

/// In-place inverse FFT (plan-cached, includes the `1/N` normalization).
///
/// # Errors
///
/// Returns [`DspError::FftLengthNotPowerOfTwo`] if `buf.len()` is not a
/// power of two.
pub fn ifft_in_place(buf: &mut [Complex]) -> Result<(), DspError> {
    if !buf.len().is_power_of_two() {
        return Err(DspError::FftLengthNotPowerOfTwo(buf.len()));
    }
    with_plan(buf.len(), |p| p.inverse(buf));
    Ok(())
}

/// Writes the non-negative-frequency spectrum (`n/2 + 1` bins) of `signal`
/// zero-padded to power-of-two length `n` into `out`, using the packed
/// real-input fast path (an `n/2`-point complex FFT plus `O(n)` unpacking).
///
/// # Panics
///
/// Panics if `n` is not a power of two or `signal.len() > n`.
pub fn half_spectrum_into(signal: &[f32], n: usize, out: &mut Vec<Complex>) {
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    assert!(signal.len() <= n, "signal longer than fft length");
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        half_spectrum_with(&mut scratch.a, signal, n, out);
    });
}

/// Core of [`half_spectrum_into`] with an explicit packing buffer, so
/// callers inside this module can run it while holding the scratch pool.
fn half_spectrum_with(z: &mut Vec<Complex>, signal: &[f32], n: usize, out: &mut Vec<Complex>) {
    out.clear();
    if n == 1 {
        out.push(Complex::from_real(signal.first().copied().unwrap_or(0.0)));
        return;
    }
    let half = n / 2;
    z.clear();
    let pairs = signal.chunks_exact(2);
    let tail = pairs.remainder();
    z.extend(pairs.map(|p| Complex::new(p[0], p[1])));
    z.extend(tail.iter().map(|&re| Complex::from_real(re)));
    z.resize(half, Complex::ZERO);
    with_plan(half, |p| {
        p.forward(z);
        let unpack = |zk: Complex, zmk: Complex, tw: Complex| {
            let zmk = zmk.conj();
            let even = (zk + zmk).scale(0.5);
            let odd = (zk - zmk) * Complex::new(0.0, -0.5);
            even + tw * odd
        };
        // Bin k pairs z_k with z_{half-k}; DC and Nyquist both pair z_0
        // with itself.
        out.reserve(half + 1);
        out.push(unpack(z[0], z[0], p.real_twiddles[0]));
        out.extend(
            z[1..]
                .iter()
                .zip(z[1..].iter().rev())
                .zip(&p.real_twiddles[1..half])
                .map(|((&zk, &zmk), &tw)| unpack(zk, zmk, tw)),
        );
        out.push(unpack(z[0], z[0], p.real_twiddles[half]));
    });
}

/// Inverse of [`half_spectrum_into`]: reconstructs the length-`n` real
/// signal whose non-negative-frequency spectrum is `spec` (`n/2 + 1`
/// bins, conjugate symmetry implied), appending it to `out`.
///
/// Public so multi-stage spectral pipelines (e.g. the vibration
/// crate's fused conversion engine) can run one forward transform,
/// apply several gain curves to the same spectrum, and come back to the
/// time domain per stage — without paying a forward FFT per stage.
///
/// # Panics
///
/// Panics in debug builds if `spec.len() != n / 2 + 1`.
pub fn real_inverse_into(spec: &[Complex], n: usize, out: &mut Vec<f32>) {
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        real_inverse_with(&mut scratch.a, spec, n, out);
    });
}

/// Core of [`real_inverse_into`] with an explicit unpacking buffer.
fn real_inverse_with(z: &mut Vec<Complex>, spec: &[Complex], n: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(spec.len(), n / 2 + 1);
    if n == 1 {
        out.push(spec[0].re);
        return;
    }
    let half = n / 2;
    z.clear();
    with_plan(half, |p| {
        // Bin k pairs with bin half-k: spec[..half] against spec[1..=half]
        // reversed.
        z.extend(
            spec[..half]
                .iter()
                .zip(spec[1..=half].iter().rev())
                .zip(&p.real_twiddles[..half])
                .map(|((&xk, &xmk), &tw)| {
                    let xmk = xmk.conj();
                    let even = (xk + xmk).scale(0.5);
                    let odd = tw.conj() * (xk - xmk).scale(0.5);
                    // z_k = even + i * odd
                    even + odd * Complex::I
                }),
        );
        p.process::<true>(z, Kernel::detect());
    });
    // `FftPlan::inverse`'s `1/half` scale, folded into the interleave:
    // the same `re·s`, `im·s` products, one pass fewer.
    let scale = 1.0 / half as f32;
    out.reserve(n);
    out.extend(z.iter().flat_map(|v| [v.re * scale, v.im * scale]));
}

/// Forward FFT of a real signal, zero-padded to the next power of two (or
/// to `min_len`, whichever is larger). Returns the full complex spectrum,
/// reconstructed from the packed real-input fast path via conjugate
/// symmetry.
///
/// # Example
///
/// ```
/// let sig = vec![1.0_f32; 300];
/// let spec = thrubarrier_dsp::fft::fft_padded(&sig, 0);
/// assert_eq!(spec.len(), 512);
/// ```
pub fn fft_padded(signal: &[f32], min_len: usize) -> Vec<Complex> {
    let n = next_pow2(signal.len().max(min_len));
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let spec = &mut scratch.b;
        half_spectrum_with(&mut scratch.a, signal, n, spec);
        let mut full = Vec::with_capacity(n);
        full.extend_from_slice(spec);
        for k in (1..n.div_ceil(2)).rev() {
            full.push(spec[k].conj());
        }
        full
    })
}

/// Magnitude spectrum (first `N/2 + 1` bins) of a real signal, zero-padded
/// to a power of two. Computed with the packed real-input fast path.
///
/// Bin `k` corresponds to frequency `k * sample_rate / N` where `N` is the
/// padded length; use [`bin_frequencies`] to recover the axis.
pub fn magnitude_spectrum(signal: &[f32], min_len: usize) -> Vec<f32> {
    let n = next_pow2(signal.len().max(min_len));
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let spec = &mut scratch.b;
        half_spectrum_with(&mut scratch.a, signal, n, spec);
        spec.iter().map(|c| c.norm()).collect()
    })
}

/// Frequencies (Hz) of the bins returned by [`magnitude_spectrum`] for a
/// padded FFT length `n_fft` at `sample_rate`.
pub fn bin_frequencies(n_fft: usize, sample_rate: u32) -> Vec<f32> {
    let half = n_fft / 2 + 1;
    (0..half)
        .map(|k| k as f32 * sample_rate as f32 / n_fft as f32)
        .collect()
}

/// Filters a real signal by per-bin gains over its padded spectrum:
/// forward real FFT to `n = next_pow2(len)`, multiply bin `k` by
/// `gains[k]` (`n/2 + 1` entries; the negative half follows from
/// conjugate symmetry, keeping the output real), inverse real FFT,
/// truncate to the input length.
///
/// This is the allocation-free core shared by [`apply_frequency_response`]
/// and `ResponseCurve::filter`: plans and scratch come from thread-local
/// caches, so steady state allocates nothing but the returned vector.
pub(crate) fn filter_by_gains(signal: &[f32], n: usize, gains: &[f32]) -> Vec<f32> {
    debug_assert_eq!(gains.len(), n / 2 + 1);
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let spec = &mut scratch.b;
        half_spectrum_with(&mut scratch.a, signal, n, spec);
        for (v, &g) in spec.iter_mut().zip(gains) {
            *v = v.scale(g);
        }
        let mut out = Vec::new();
        real_inverse_with(&mut scratch.a, spec, n, &mut out);
        out.truncate(signal.len());
        out
    })
}

/// Applies a frequency-domain gain curve to a real signal and returns the
/// filtered real signal (same length as the input).
///
/// `gain` is sampled at the non-negative FFT bin frequencies via the
/// provided closure (argument: frequency in Hz); the negative half is
/// mirrored implicitly to keep the output real. This is how barrier
/// transmission and transducer responses are applied throughout the
/// workspace — device hot paths go through
/// [`crate::response::filter_cached`], which additionally caches the
/// sampled gain table per device so the closure is not re-evaluated on
/// every call.
///
/// # Example
///
/// ```
/// use thrubarrier_dsp::{fft, gen};
///
/// let sig = gen::sine(3_000.0, 0.1, 16_000, 1.0);
/// // Brick-wall low-pass at 1 kHz should annihilate a 3 kHz tone.
/// let out = fft::apply_frequency_response(&sig, 16_000, |f| if f < 1_000.0 { 1.0 } else { 0.0 });
/// let rms_out = thrubarrier_dsp::stats::rms(&out);
/// assert!(rms_out < 0.05);
/// ```
pub fn apply_frequency_response<F>(signal: &[f32], sample_rate: u32, gain: F) -> Vec<f32>
where
    F: Fn(f32) -> f32,
{
    if signal.is_empty() {
        return Vec::new();
    }
    let n = next_pow2(signal.len());
    let bin_hz = sample_rate as f32 / n as f32;
    let gains = SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let gains = &mut scratch.gains;
        gains.clear();
        gains.extend((0..=n / 2).map(|k| gain(k as f32 * bin_hz)));
        std::mem::take(gains)
    });
    let out = filter_by_gains(signal, n, &gains);
    SCRATCH.with(|s| s.borrow_mut().gains = gains);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn rejects_non_power_of_two() {
        let mut buf = vec![Complex::ZERO; 3];
        assert_eq!(
            fft_in_place(&mut buf),
            Err(DspError::FftLengthNotPowerOfTwo(3))
        );
        assert!(FftPlan::new(12).is_err());
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::ZERO; 8];
        buf[0] = Complex::ONE;
        fft_in_place(&mut buf).unwrap();
        for v in &buf {
            assert!((v.re - 1.0).abs() < 1e-5 && v.im.abs() < 1e-5);
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let sig: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
        let mut buf: Vec<Complex> = sig.iter().map(|&x| Complex::from_real(x)).collect();
        fft_in_place(&mut buf).unwrap();
        ifft_in_place(&mut buf).unwrap();
        for (orig, got) in sig.iter().zip(&buf) {
            assert!((orig - got.re).abs() < 1e-3);
            assert!(got.im.abs() < 1e-3);
        }
    }

    /// Naive O(N²) reference DFT.
    fn naive_dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc_re = 0.0f64;
                let mut acc_im = 0.0f64;
                for (j, x) in input.iter().enumerate() {
                    let ang = -std::f64::consts::TAU * (k as f64) * (j as f64) / n as f64;
                    let (s, c) = ang.sin_cos();
                    acc_re += x.re as f64 * c - x.im as f64 * s;
                    acc_im += x.re as f64 * s + x.im as f64 * c;
                }
                Complex::new(acc_re as f32, acc_im as f32)
            })
            .collect()
    }

    #[test]
    fn planned_fft_matches_naive_dft_with_tight_tolerance() {
        // The old per-stage `w *= wlen` recurrence drifted at large N;
        // the plan's direct twiddle tables must track a float64 DFT to
        // within 1e-4 relative error even at N = 4096.
        for n in [8usize, 64, 1024, 4096] {
            let sig: Vec<Complex> = (0..n)
                .map(|i| {
                    let x = i as f32;
                    Complex::new((x * 0.37).sin() + 0.25 * (x * 0.11).cos(), 0.0)
                })
                .collect();
            let reference = naive_dft(&sig);
            let mut fast = sig.clone();
            fft_in_place(&mut fast).unwrap();
            let scale: f32 = reference.iter().map(|c| c.norm()).fold(0.0, f32::max);
            for (k, (f, r)) in fast.iter().zip(&reference).enumerate() {
                let err = (*f - *r).norm() / scale;
                assert!(err < 1e-4, "N={n} bin {k}: error {err}");
            }
        }
    }

    #[test]
    fn half_spectrum_matches_full_transform() {
        let sig: Vec<f32> = (0..100).map(|i| ((i * 13) % 17) as f32 - 8.0).collect();
        for n in [128usize, 256] {
            let mut full: Vec<Complex> = sig.iter().map(|&x| Complex::from_real(x)).collect();
            full.resize(n, Complex::ZERO);
            fft_in_place(&mut full).unwrap();
            let mut half = Vec::new();
            half_spectrum_into(&sig, n, &mut half);
            assert_eq!(half.len(), n / 2 + 1);
            for (k, h) in half.iter().enumerate() {
                assert!(
                    (*h - full[k]).norm() < 1e-3,
                    "bin {k}: {h:?} vs {:?}",
                    full[k]
                );
            }
        }
    }

    #[test]
    fn half_spectrum_tiny_sizes() {
        let mut out = Vec::new();
        half_spectrum_into(&[3.0], 1, &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].re - 3.0).abs() < 1e-6);

        half_spectrum_into(&[1.0, 2.0], 2, &mut out);
        assert_eq!(out.len(), 2);
        assert!((out[0].re - 3.0).abs() < 1e-6, "dc {:?}", out[0]);
        assert!((out[1].re - (-1.0)).abs() < 1e-6, "nyquist {:?}", out[1]);
    }

    #[test]
    fn sine_peaks_at_expected_bin() {
        let fs = 16_000u32;
        let sig = gen::sine(1_000.0, 1.0, fs, 0.128); // 2048 samples
        let mags = magnitude_spectrum(&sig, 0);
        let n_fft = 2048;
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let peak_hz = peak as f32 * fs as f32 / n_fft as f32;
        assert!((peak_hz - 1_000.0).abs() < 10.0, "peak at {peak_hz} Hz");
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let sig: Vec<f32> = (0..128).map(|i| (i as f32 * 0.37).sin()).collect();
        let time_energy: f32 = sig.iter().map(|x| x * x).sum();
        let spec = fft_padded(&sig, 0);
        let freq_energy: f32 = spec.iter().map(|c| c.norm_sq()).sum::<f32>() / spec.len() as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-3);
    }

    #[test]
    fn frequency_response_passes_in_band_tone() {
        let sig = gen::sine(400.0, 0.1, 16_000, 1.0);
        let out = apply_frequency_response(&sig, 16_000, |f| if f < 1_000.0 { 1.0 } else { 0.0 });
        let in_rms = crate::stats::rms(&sig);
        let out_rms = crate::stats::rms(&out);
        assert!((in_rms - out_rms).abs() / in_rms < 0.05);
    }

    #[test]
    fn frequency_response_output_matches_input_length() {
        let sig = vec![0.5_f32; 777];
        let out = apply_frequency_response(&sig, 8_000, |_| 1.0);
        assert_eq!(out.len(), 777);
    }

    #[test]
    fn frequency_response_identity_recovers_signal() {
        let sig: Vec<f32> = (0..333)
            .map(|i| ((i * 29) % 23) as f32 * 0.04 - 0.4)
            .collect();
        let out = apply_frequency_response(&sig, 8_000, |_| 1.0);
        for (a, b) in sig.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn frequency_response_empty_input() {
        let out = apply_frequency_response(&[], 8_000, |_| 1.0);
        assert!(out.is_empty());
    }

    fn bits(buf: &[Complex]) -> Vec<(u32, u32)> {
        buf.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    /// Edge-case inputs for the kernel parity checks: ordinary random
    /// values, random signed zeros, random-sign subnormals, and values
    /// near 1e30 whose products overflow to infinity (and whose
    /// butterflies then produce NaN).
    fn parity_inputs(n: usize, seed: u64) -> Vec<Vec<Complex>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |f: &mut dyn FnMut(&mut StdRng) -> f32| -> Vec<Complex> {
            (0..n)
                .map(|_| Complex::new(f(&mut rng), f(&mut rng)))
                .collect()
        };
        let sign = |rng: &mut StdRng| if rng.gen::<bool>() { -1.0f32 } else { 1.0 };
        vec![
            draw(&mut |r| r.gen_range(-1.0f32..1.0)),
            draw(&mut |r| sign(r) * 0.0),
            draw(&mut |r| sign(r) * f32::from_bits(r.gen_range(1u32..0x0080_0000))),
            draw(&mut |r| sign(r) * r.gen_range(0.5f32..2.0) * 1e30),
        ]
    }

    /// Bit-reversed index table, as the plans stored it before the tiled
    /// permutation.
    fn rev_table(n: usize) -> Vec<usize> {
        let bits = n.trailing_zeros();
        (0..n)
            .map(|i| if n <= 1 { 0 } else { reverse_low_bits(i, bits) })
            .collect()
    }

    /// `FftPlan::process` as it was before the tiled permutation and the
    /// paired AVX2 stages: the `rev`-table swap loop, then one
    /// `stage_scalar` sweep per stage.
    fn process_frozen<const INVERSE: bool>(plan: &FftPlan, buf: &mut [Complex]) {
        if plan.n <= 1 {
            return;
        }
        for (i, j) in rev_table(plan.n).into_iter().enumerate() {
            if j > i {
                buf.swap(i, j);
            }
        }
        let mut twiddles = plan.twiddles.as_slice();
        let mut half = 1usize;
        while half < plan.n {
            let (stage, rest) = twiddles.split_at(half);
            twiddles = rest;
            stage_scalar::<INVERSE>(buf, stage);
            half <<= 1;
        }
    }

    #[test]
    fn transforms_match_frozen_reference_bitwise() {
        // `Kernel::detect()` is the scalar kernel on CPUs without AVX2,
        // where its half of this check repeats the scalar half.
        for log2 in 1..=17 {
            let n = 1usize << log2;
            let plan = FftPlan::new(n).unwrap();
            for (case, input) in parity_inputs(n, log2 as u64).into_iter().enumerate() {
                let mut want = input.clone();
                process_frozen::<false>(&plan, &mut want);
                let mut want_inv = input.clone();
                process_frozen::<true>(&plan, &mut want_inv);
                for kernel in [Kernel::detect(), Kernel::Scalar] {
                    let mut got = input.clone();
                    plan.process::<false>(&mut got, kernel);
                    assert!(
                        bits(&got) == bits(&want),
                        "forward n={n} case {case} {kernel:?}"
                    );
                    let mut got = input.clone();
                    plan.process::<true>(&mut got, kernel);
                    assert!(
                        bits(&got) == bits(&want_inv),
                        "inverse n={n} case {case} {kernel:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_bit_reversal_matches_table_order() {
        // Sizes below the tile threshold (n < 128) take the swap loop.
        for log2 in 0..=17 {
            let n = 1usize << log2;
            let mut buf: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f32, -(i as f32)))
                .collect();
            bit_reverse_permute(&mut buf);
            for (i, (v, j)) in buf.iter().zip(rev_table(n)).enumerate() {
                assert_eq!(*v, Complex::new(j as f32, -(j as f32)), "n={n} index {i}");
            }
        }
    }

    /// The packing step of the real-input transform as it was written
    /// before the iterator rewrite: `signal.get` for the zero padding,
    /// `%` for the wrap-around bins.
    fn half_spectrum_indexed(signal: &[f32], n: usize) -> Vec<Complex> {
        if n == 1 {
            return vec![Complex::from_real(signal.first().copied().unwrap_or(0.0))];
        }
        let half = n / 2;
        let mut z = vec![Complex::ZERO; half];
        for (m, slot) in z.iter_mut().enumerate() {
            let re = signal.get(2 * m).copied().unwrap_or(0.0);
            let im = signal.get(2 * m + 1).copied().unwrap_or(0.0);
            *slot = Complex::new(re, im);
        }
        let mut out = Vec::new();
        with_plan(half, |p| {
            p.forward(&mut z);
            for k in 0..=half {
                let zk = z[k % half];
                let zmk = z[(half - k) % half].conj();
                let even = (zk + zmk).scale(0.5);
                let odd = (zk - zmk) * Complex::new(0.0, -0.5);
                out.push(even + p.real_twiddles[k] * odd);
            }
        });
        out
    }

    /// The unpacking step of the real inverse as it was written before
    /// the iterator rewrite, with the `1/half` scale still applied by
    /// `FftPlan::inverse` rather than folded into the interleave.
    fn real_inverse_indexed(spec: &[Complex], n: usize) -> Vec<f32> {
        if n == 1 {
            return vec![spec[0].re];
        }
        let half = n / 2;
        let mut z = Vec::with_capacity(half);
        with_plan(half, |p| {
            for k in 0..half {
                let xk = spec[k];
                let xmk = spec[half - k].conj();
                let even = (xk + xmk).scale(0.5);
                let odd = p.real_twiddles[k].conj() * (xk - xmk).scale(0.5);
                z.push(even + odd * Complex::I);
            }
            p.inverse(&mut z);
        });
        z.iter().flat_map(|v| [v.re, v.im]).collect()
    }

    #[test]
    fn real_transforms_match_indexed_pack_and_unpack_bitwise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFF7);
        for log2 in 0..=17 {
            let n = 1usize << log2;
            // Empty, odd-length (a lone trailing sample), and full
            // signals exercise every branch of the packing.
            for len in [0, n / 2 + (n > 1) as usize, n] {
                let signal: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let mut got = Vec::new();
                half_spectrum_into(&signal, n, &mut got);
                let want = half_spectrum_indexed(&signal, n);
                assert!(bits(&got) == bits(&want), "forward n={n} len={len}");
            }
            // Random, signed-zero, subnormal and near-overflow spectra:
            // the folded scale must round the same products, Inf and NaN
            // included.
            for (case, spec) in parity_inputs(n / 2 + 1, log2 as u64)
                .into_iter()
                .enumerate()
            {
                let mut got = Vec::new();
                real_inverse_into(&spec, n, &mut got);
                let want = real_inverse_indexed(&spec, n);
                let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(to_bits(&got) == to_bits(&want), "inverse n={n} case {case}");
            }
        }
    }

    #[test]
    fn bin_frequencies_span_zero_to_nyquist() {
        let f = bin_frequencies(64, 200);
        assert_eq!(f.len(), 33);
        assert_eq!(f[0], 0.0);
        assert!((f[32] - 100.0).abs() < 1e-4);
    }
}
