//! LSTM and bidirectional LSTM layers with backpropagation through time.
//!
//! Gate layout follows the common stacked convention `[i, f, g, o]`
//! (input, forget, cell-candidate, output). The bidirectional wrapper
//! *sums* the forward and backward hidden states, matching the paper's
//! `h_t = h→_t + h←_t` (Sec. V-B, Eq. 4).
//!
//! # Packed-batch engine
//!
//! The four per-gate weight matrices live concatenated in single fused
//! `4H x I` (input) and `4H x H` (recurrent) row-major matrices, so one
//! product serves all gates. Every pass runs over a packed minibatch
//! (see [`crate::batch`]); a single sequence is a batch of one.
//!
//! 1. **Input projections** — `W·x + b` for every packed row in one
//!    [`Matrix::matmul_nt_to`] GEMM per pass, into the workspace.
//! 2. **Forward** — one step loop per direction for training and
//!    inference alike: per step, one `Z += H·Uᵀ` GEMM over the active
//!    rows, then the gate sweep, with hidden states written into the
//!    flat packed buffer of [`GemmScratch`]. A training forward
//!    ([`BiLstm::forward_batch`], `train_step`) also records gate
//!    activations and pre-step states for the backward pass; inference
//!    (`predict_batch`) records nothing.
//! 3. **Backward** ([`BiLstm::backward_batch`]) — a fused gate-gradient
//!    sweep per row, one fused `Uᵀ·dZ` GEMM per step over a cached
//!    transpose, and register-tiled `dW += dZᵀ·X` / `dU += dZᵀ·H_prev`
//!    accumulations. No input gradients: the classifier's inputs are
//!    data.
//!
//! Every GEMM runs on the one fused-FMA kernel family of
//! [`crate::matrix`], and inference runs the training forward's own
//! loop, so the two agree bitwise. The forward is bitwise batch-size
//! invariant: a sequence gets the same bits alone or inside any pack.

use crate::act::{lstm_gates_backward_fused, sigmoid_slice, tanh_slice};
use crate::batch::{reset, BatchWorkspace, DirCache, PackedBatch};
use crate::matrix::{GemmScratch, Matrix};
use crate::param::Param;
use rand::Rng;

/// A single-direction LSTM layer.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// Input weights, fused `4H x D` (`[i, f, g, o]` gate blocks stacked).
    pub w: Param,
    /// Recurrent weights, fused `4H x H`.
    pub u: Param,
    /// Bias, fused `4H x 1`.
    pub b: Param,
    input_size: usize,
    hidden_size: usize,
}

/// Applies one LSTM cell update. `gates` holds the fused
/// pre-activations on entry and the activated `[i, f, g, o]` blocks on
/// exit, `tanh_c` receives `tanh(c)`, and `c`/`h` are updated in place
/// (their pre-step values must already be stashed). The activations
/// run block-wise through the slice kernels in [`crate::act`], which
/// are SIMD on capable machines (the cell is otherwise bound by the
/// rational kernel's division throughput); the remaining state
/// arithmetic is plain element-wise code the compiler vectorizes on its
/// own.
#[inline]
fn lstm_cell(gates: &mut [f32], c: &mut [f32], h: &mut [f32], tanh_c: &mut [f32]) {
    let hl = h.len();
    sigmoid_slice(&mut gates[..2 * hl]);
    tanh_slice(&mut gates[2 * hl..3 * hl]);
    sigmoid_slice(&mut gates[3 * hl..]);
    let (gi, rest) = gates.split_at(hl);
    let (gf, rest) = rest.split_at(hl);
    let (gg, go) = rest.split_at(hl);
    for k in 0..hl {
        c[k] = gf[k] * c[k] + gi[k] * gg[k];
    }
    tanh_c.copy_from_slice(c);
    tanh_slice(tanh_c);
    for k in 0..hl {
        h[k] = go[k] * tanh_c[k];
    }
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights. The forget-gate
    /// bias is initialized to `1.0` (standard practice to ease gradient
    /// flow early in training).
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        let w = Matrix::xavier(4 * hidden_size, input_size, rng);
        let u = Matrix::xavier(4 * hidden_size, hidden_size, rng);
        let mut b = Matrix::zeros(4 * hidden_size, 1);
        for h in 0..hidden_size {
            b.set(hidden_size + h, 0, 1.0); // forget gate bias
        }
        Lstm {
            w: Param::new(w),
            u: Param::new(u),
            b: Param::new(b),
            input_size,
            hidden_size,
        }
    }

    /// Reconstructs an LSTM from explicit fused weight matrices (e.g.
    /// loaded from disk).
    ///
    /// # Errors
    ///
    /// Returns a message when the shapes are inconsistent.
    pub fn from_weights(w: Matrix, u: Matrix, b: Matrix) -> Result<Self, String> {
        let four_h = w.rows();
        if four_h == 0 || !four_h.is_multiple_of(4) {
            return Err(format!("gate dimension {four_h} is not 4*H"));
        }
        let hidden_size = four_h / 4;
        let input_size = w.cols();
        if u.rows() != four_h || u.cols() != hidden_size {
            return Err(format!(
                "recurrent weights {}x{} do not match hidden size {hidden_size}",
                u.rows(),
                u.cols()
            ));
        }
        if b.rows() != four_h || b.cols() != 1 {
            return Err(format!("bias {}x{} does not match", b.rows(), b.cols()));
        }
        Ok(Lstm {
            w: Param::new(w),
            u: Param::new(u),
            b: Param::new(b),
            input_size,
            hidden_size,
        })
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Fills one direction's projections: `dir.proj` row `r` becomes
    /// `W·x_r + b`. The bias is folded in here once so every step
    /// starts from a plain row copy instead of an elementwise add; the
    /// cell computes `(W·x + b) + U·h` in that association order either
    /// way.
    fn fill_proj(&self, pack: &PackedBatch, dir: &mut DirCache, reversed: bool) {
        let gr = 4 * self.hidden_size;
        let total = pack.total_rows();
        reset(&mut dir.proj, total * gr);
        self.w
            .value
            .matmul_nt_to(pack.x(reversed), total, &mut dir.proj, false);
        let bias = self.b.value.data();
        for row in dir.proj.chunks_exact_mut(gr) {
            for (p, &bv) in row.iter_mut().zip(bias) {
                *p += bv;
            }
        }
    }

    /// The one per-direction step loop, shared by the training forward
    /// and inference, over a packed minibatch (see [`crate::batch`]).
    /// Each step runs the recurrent half as one `4H×H × H×nb` GEMM over
    /// the step's active rows on top of the input projections of
    /// [`Lstm::fill_proj`], then [`lstm_cell`] per row. Hidden states go
    /// to `flat` through [`PackedBatch::store_step`] (the forward
    /// direction writes, the reversed one adds).
    ///
    /// With `record`, the pre-step states, gate activations and
    /// `tanh(c)` of every row are cached in `dir` for
    /// [`Lstm::backward_batch_dir_fused`]; without it the gates are
    /// activated in place in the step's pre-activation rows, `tanh(c)`
    /// goes to one reused scratch row, and `dir` keeps only its
    /// projections. A GEMM row does not depend on the rest of the batch, so every
    /// sequence's states are bitwise the same alone or packed.
    pub(crate) fn forward_dir(
        &self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        scratch: &mut GemmScratch,
        record: bool,
    ) {
        let hl = self.hidden_size;
        let gr = 4 * hl;
        assert_eq!(pack.width(), self.input_size, "input dimension mismatch");
        let total = pack.total_rows();
        self.fill_proj(pack, dir, reversed);
        let GemmScratch {
            bh,
            bc,
            bz,
            row,
            flat,
            ..
        } = scratch;
        let DirCache {
            proj,
            h_prev,
            c_prev,
            gates,
            aux,
            ..
        } = dir;
        assert_eq!(flat.len(), total * hl, "flat output length");
        let aux = if record {
            reset(h_prev, total * hl);
            reset(c_prev, total * hl);
            reset(gates, total * gr);
            reset(aux, total * hl);
            aux
        } else {
            reset(row, hl);
            row
        };
        let nb0 = pack.max_active();
        reset(bh, nb0 * hl);
        reset(bc, nb0 * hl);
        reset(bz, nb0 * gr);
        for t in 0..pack.max_len() {
            // Active sequences are a shrinking prefix of the sorted
            // batch, so rows 0..nb of bh/bc carry exactly the states of
            // the sequences still running.
            let nb = pack.active(t);
            let off = pack.offset(t);
            if record {
                h_prev[off * hl..(off + nb) * hl].copy_from_slice(&bh[..nb * hl]);
                c_prev[off * hl..(off + nb) * hl].copy_from_slice(&bc[..nb * hl]);
            }
            bz[..nb * gr].copy_from_slice(&proj[off * gr..(off + nb) * gr]);
            self.u
                .value
                .matmul_nt_to(&bh[..nb * hl], nb, &mut bz[..nb * gr], true);
            for b in 0..nb {
                // The cell activates its gate row in place: the cache
                // row when recording, else the step's own `bz` row.
                let z = &mut bz[b * gr..(b + 1) * gr];
                let (g, tanh_c) = if record {
                    let r = off + b;
                    gates[r * gr..(r + 1) * gr].copy_from_slice(z);
                    (
                        &mut gates[r * gr..(r + 1) * gr],
                        &mut aux[r * hl..(r + 1) * hl],
                    )
                } else {
                    (z, &mut aux[..])
                };
                lstm_cell(
                    g,
                    &mut bc[b * hl..(b + 1) * hl],
                    &mut bh[b * hl..(b + 1) * hl],
                    tanh_c,
                );
            }
            pack.store_step(t, reversed, bh, flat, hl);
        }
    }

    /// Batched BPTT over a packed minibatch. `dhs[i]` is caller
    /// sequence `i`'s flat output gradient, `len_i x H` row-major in
    /// natural time order. Parameter gradients are accumulated into
    /// `self.{w,u,b}.grad`; no input gradients are computed (the
    /// classifier's inputs are data, so the input-side `dX = dZ·W` GEMM
    /// is skipped entirely).
    ///
    /// The reverse traversal runs three fused stages:
    ///
    /// 1. one 4H-wide [`lstm_gates_backward_fused`] gate-gradient sweep
    ///    per active row (bitwise identical to the textbook per-gate
    ///    formulas on every instruction set);
    /// 2. the per-step `dh_next = Uᵀ·dZ` transpose-multiply as one
    ///    [`Matrix::matmul_nt_to`] GEMM over a `Uᵀ` view served by the
    ///    direction's version-keyed [`crate::matrix::TransposedCache`]
    ///    (rebuilt only when the optimizer stepped `U`);
    /// 3. the final `dW += dZᵀ·X` / `dU += dZᵀ·H_prev` accumulations on
    ///    the register-tiled [`Matrix::add_tn_product`], which
    ///    streams the gradient matrices through cache once instead of
    ///    once per packed row.
    ///
    /// Numerics: stages (2) and (3) run on fused multiply-adds with each
    /// element's summation order fixed, so gradients are deterministic
    /// and bitwise lane-invariant; the test suite checks them against
    /// finite differences.
    pub(crate) fn backward_batch_dir_fused(
        &mut self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        dhs: &[&[f32]],
        scratch: &mut GemmScratch,
    ) {
        let hl = self.hidden_size;
        let gr = 4 * hl;
        let total = pack.total_rows();
        let nb0 = pack.max_active();
        let DirCache {
            ut,
            gates,
            aux,
            c_prev,
            h_prev,
            ..
        } = dir;
        let GemmScratch { dz, bh, bc, .. } = scratch;
        reset(dz, total * gr);
        // bh/bc hold dh_next/dc_next rows. A sequence joins the reverse
        // traversal at its own final step, where its rows have never
        // been written — the zero boundary condition comes for free.
        reset(bh, nb0 * hl);
        reset(bc, nb0 * hl);
        if nb0 > 0 {
            let ut = ut.get(&self.u.value, self.u.version());
            for t in (0..pack.max_len()).rev() {
                let nb = pack.active(t);
                let off = pack.offset(t);
                for b in 0..nb {
                    let r = off + b;
                    let pos = if reversed { pack.lens()[b] - 1 - t } else { t };
                    let dh_seq = &dhs[pack.order()[b]][pos * hl..(pos + 1) * hl];
                    // Pre-sum the sequence gradient onto dh_next
                    // (`dh_seq + dh_next`; IEEE addition commutes), then
                    // run the whole-row gate sweep off the summed value.
                    for (slot, &d) in bh[b * hl..(b + 1) * hl].iter_mut().zip(dh_seq) {
                        *slot += d;
                    }
                    lstm_gates_backward_fused(
                        &gates[r * gr..(r + 1) * gr],
                        &aux[r * hl..(r + 1) * hl],
                        &c_prev[r * hl..(r + 1) * hl],
                        &bh[b * hl..(b + 1) * hl],
                        &mut bc[b * hl..(b + 1) * hl],
                        &mut dz[r * gr..(r + 1) * gr],
                        hl,
                    );
                }
                // dh_next for step t-1, all active rows in one fused
                // GEMM over the cached transpose (overwrite: rows past
                // `nb` stay at their zero boundary values).
                ut.matmul_nt_to(
                    &dz[off * gr..(off + nb) * gr],
                    nb,
                    &mut bh[..nb * hl],
                    false,
                );
            }
        }
        self.w.grad.add_tn_product(dz, pack.x(reversed), total);
        self.u.grad.add_tn_product(dz, h_prev, total);
        let bg = self.b.grad.data_mut();
        for row in dz.chunks_exact(gr) {
            for (slot, &d) in bg.iter_mut().zip(row) {
                *slot += d;
            }
        }
    }

    /// The layer's trainable parameters.
    pub fn params_mut(&mut self) -> [&mut Param; 3] {
        [&mut self.w, &mut self.u, &mut self.b]
    }
}

/// Bidirectional LSTM: a forward-direction and a backward-direction LSTM
/// whose hidden states are summed per timestep.
#[derive(Debug, Clone)]
pub struct BiLstm {
    /// Forward-direction layer.
    pub fwd: Lstm,
    /// Backward-direction layer.
    pub bwd: Lstm,
}

impl BiLstm {
    /// Creates a bidirectional LSTM (both directions sized
    /// `input_size -> hidden_size`).
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        BiLstm {
            fwd: Lstm::new(input_size, hidden_size, rng),
            bwd: Lstm::new(input_size, hidden_size, rng),
        }
    }

    /// Hidden dimension of the summed output.
    pub fn hidden_size(&self) -> usize {
        self.fwd.hidden_size()
    }

    /// Packs `seqs` into `ws` and runs both directions'
    /// [`Lstm::forward_dir`] into the flat packed buffer `scratch.flat`,
    /// recording the backward-pass caches when `record`.
    pub(crate) fn forward_packed(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
        record: bool,
    ) {
        let BatchWorkspace { pack, fwd, bwd } = ws;
        pack.prepare(seqs, self.fwd.input_size());
        reset(&mut scratch.flat, pack.total_rows() * self.hidden_size());
        self.fwd.forward_dir(pack, fwd, false, scratch, record);
        self.bwd.forward_dir(pack, bwd, true, scratch, record);
    }

    /// Batched training forward over a minibatch of sequences: the
    /// summed hidden states per sequence in *caller order*, a re-nested
    /// view of the packed pass. The forward-pass caches for
    /// [`BiLstm::backward_batch`] live in `ws`. Every sequence gets the
    /// same bits alone or inside any pack.
    pub fn forward_batch(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<Vec<f32>>> {
        self.forward_packed(seqs, ws, scratch, true);
        ws.pack.nested(&scratch.flat, seqs, self.hidden_size())
    }

    /// Batched BPTT through both directions. `dhs[i]` is caller
    /// sequence `i`'s flat output gradient (`len_i x H` row-major).
    /// Must follow a [`BiLstm::forward_batch`] on the same workspace.
    /// Accumulates parameter gradients only (no input gradients), on
    /// the fused engine.
    pub fn backward_batch(
        &mut self,
        ws: &mut BatchWorkspace,
        dhs: &[&[f32]],
        scratch: &mut GemmScratch,
    ) {
        let BatchWorkspace { pack, fwd, bwd, .. } = ws;
        self.fwd
            .backward_batch_dir_fused(pack, fwd, false, dhs, scratch);
        self.bwd
            .backward_batch_dir_fused(pack, bwd, true, dhs, scratch);
    }

    /// All trainable parameters of both directions.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let (f, b) = (&mut self.fwd, &mut self.bwd);
        vec![&mut f.w, &mut f.u, &mut f.b, &mut b.w, &mut b.u, &mut b.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_inputs(t_len: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..t_len)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    /// Runs one direction's recording forward over `xs` as a batch of
    /// one into `ws` and `scratch.flat`.
    fn dir_run(lstm: &Lstm, xs: &[Vec<f32>], ws: &mut BatchWorkspace, scratch: &mut GemmScratch) {
        ws.pack.prepare(&[xs], lstm.input_size());
        reset(&mut scratch.flat, xs.len() * lstm.hidden_size());
        lstm.forward_dir(&ws.pack, &mut ws.fwd, false, scratch, true);
    }

    /// One direction's training forward over `xs` as a batch of one.
    fn dir_forward(lstm: &Lstm, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let (mut ws, mut scratch) = (BatchWorkspace::new(), GemmScratch::new());
        dir_run(lstm, xs, &mut ws, &mut scratch);
        ws.pack
            .nested(&scratch.flat, &[xs], lstm.hidden_size())
            .pop()
            .unwrap()
    }

    /// Accumulates one direction's parameter gradients for output
    /// gradient `dh` (`len x H`, flat) through a batch of one.
    fn dir_backward(lstm: &mut Lstm, xs: &[Vec<f32>], dh: &[f32]) {
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        dir_run(lstm, xs, &mut ws, &mut scratch);
        let BatchWorkspace { pack, fwd, .. } = &mut ws;
        lstm.backward_batch_dir_fused(pack, fwd, false, &[dh], &mut scratch);
    }

    fn bi_forward(bi: &BiLstm, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        bi.forward_batch(&[xs], &mut BatchWorkspace::new(), &mut GemmScratch::new())
            .pop()
            .unwrap()
    }

    #[test]
    fn forward_output_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(3, 5, &mut rng);
        let xs = toy_inputs(7, 3, 2);
        let hs = dir_forward(&lstm, &xs);
        assert_eq!(hs.len(), 7);
        assert!(hs.iter().all(|h| h.len() == 5));
    }

    #[test]
    fn hidden_states_are_bounded_by_one() {
        // h = o * tanh(c), both factors in (-1, 1).
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(4, 8, &mut rng);
        let xs = toy_inputs(20, 4, 4);
        for h in &dir_forward(&lstm, &xs) {
            for &v in h {
                assert!(v.abs() < 1.0);
            }
        }
    }

    #[test]
    fn empty_sequence_is_ok() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bi = BiLstm::new(3, 5, &mut rng);
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let empty: Vec<Vec<f32>> = Vec::new();
        let out = bi.forward_batch(&[&empty], &mut ws, &mut scratch);
        assert!(out[0].is_empty());
        bi.backward_batch(&mut ws, &[&[]], &mut scratch);
        for p in bi.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        // One scratch serves layers of different sizes back to back.
        let mut rng = StdRng::seed_from_u64(17);
        let small = BiLstm::new(2, 3, &mut rng);
        let large = BiLstm::new(5, 8, &mut rng);
        let (xs_small, xs_large) = (toy_inputs(4, 2, 18), toy_inputs(9, 5, 19));
        let mut scratch = GemmScratch::new();
        let mut ws = BatchWorkspace::new();
        let a1 = small.forward_batch(&[&xs_small], &mut ws, &mut scratch);
        let mut ws = BatchWorkspace::new();
        let b1 = large.forward_batch(&[&xs_large], &mut ws, &mut scratch);
        assert_eq!(a1[0], bi_forward(&small, &xs_small));
        assert_eq!(b1[0], bi_forward(&large, &xs_large));
    }

    /// Finite-difference gradient check for one LSTM direction through
    /// the packed engine (a batch of one).
    #[test]
    fn lstm_gradients_match_finite_differences() {
        let (d, h, t_len) = (3usize, 4usize, 5usize);
        let mut rng = StdRng::seed_from_u64(42);
        let mut lstm = Lstm::new(d, h, &mut rng);
        let xs = toy_inputs(t_len, d, 43);
        // Loss = sum of all hidden activations (gradient of 1 everywhere).
        let loss = |l: &Lstm| -> f32 { dir_forward(l, &xs).iter().flatten().sum() };
        dir_backward(&mut lstm, &xs, &vec![1.0f32; t_len * h]);

        let eps = 1e-3f32;
        // Check a sample of weight entries in each parameter.
        for (pname, pidx) in [("w", 0usize), ("u", 1), ("b", 2)] {
            for k in [0usize, 1, 5] {
                let mut l2 = lstm.clone();
                let analytic = {
                    let p = match pidx {
                        0 => &lstm.w,
                        1 => &lstm.u,
                        _ => &lstm.b,
                    };
                    if k >= p.grad.data().len() {
                        continue;
                    }
                    p.grad.data()[k]
                };
                {
                    let p = match pidx {
                        0 => &mut l2.w,
                        1 => &mut l2.u,
                        _ => &mut l2.b,
                    };
                    p.value.data_mut()[k] += eps;
                }
                let up = loss(&l2);
                {
                    let p = match pidx {
                        0 => &mut l2.w,
                        1 => &mut l2.u,
                        _ => &mut l2.b,
                    };
                    p.value.data_mut()[k] -= 2.0 * eps;
                }
                let down = loss(&l2);
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 2e-2 * analytic.abs().max(1.0),
                    "{pname}[{k}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn bilstm_output_is_sum_of_directions() {
        let mut rng = StdRng::seed_from_u64(9);
        let bi = BiLstm::new(3, 4, &mut rng);
        let xs = toy_inputs(6, 3, 10);
        let out = bi_forward(&bi, &xs);
        let hf = dir_forward(&bi.fwd, &xs);
        let rev: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
        let hb = dir_forward(&bi.bwd, &rev);
        for t in 0..6 {
            for k in 0..4 {
                assert!((out[t][k] - (hf[t][k] + hb[5 - t][k])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bilstm_sees_future_context() {
        // Construct two sequences identical up to t=2 but differing later;
        // a bidirectional network's early outputs must differ, a forward
        // LSTM's must not.
        let mut rng = StdRng::seed_from_u64(21);
        let bi = BiLstm::new(2, 4, &mut rng);
        let a = vec![vec![0.1, 0.2]; 6];
        let mut b = a.clone();
        b[5] = vec![0.9, -0.9];
        let (ha, hb) = (bi_forward(&bi, &a), bi_forward(&bi, &b));
        let d0: f32 = ha[0].iter().zip(&hb[0]).map(|(x, y)| (x - y).abs()).sum();
        assert!(d0 > 1e-4, "bidirectional output at t=0 ignored the future");
        let (fa, fb) = (dir_forward(&bi.fwd, &a), dir_forward(&bi.fwd, &b));
        let df: f32 = fa[0].iter().zip(&fb[0]).map(|(x, y)| (x - y).abs()).sum();
        assert!(df < 1e-7, "forward LSTM at t=0 cannot depend on the future");
    }

    #[test]
    fn batched_forward_matches_batches_of_one_at_wide_hidden_sizes() {
        // H = 33 stays on the wide GEMM path (>= 32 recurrent columns)
        // while exercising the dot kernel's tail; mixed lengths exercise
        // the shrinking active prefix. GEMM rows do not depend on the
        // rest of the pack, so each sequence must get the bits of its
        // batch of one. (`model::tests::inference_records_no_backward_state`
        // checks that inference leaves the same bits.)
        let mut rng = StdRng::seed_from_u64(31);
        let bi = BiLstm::new(3, 33, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [5usize, 2, 7, 1]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, 3, 100 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let batched = bi.forward_batch(&refs, &mut ws, &mut scratch);
        for (i, seq) in seqs.iter().enumerate() {
            let alone = bi_forward(&bi, seq);
            assert_eq!(batched[i], alone, "seq {i}");
        }
    }

    #[test]
    fn batched_backward_matches_sum_of_batches_of_one() {
        // Packing must route every row's gradient to the right sequence
        // and step: the gradients of one mixed-length pack equal the
        // summed gradients of each sequence as a batch of one, within
        // the fma rounding of the reordered accumulation. Cases:
        // (input, hidden, model seed, input seed, lengths, output
        // gradient at (seq, k)) — a small all-ones case, and a
        // training-like shape with a length-1 sequence and structured
        // non-constant gradients.
        type DhAt = fn(usize, usize) -> f32;
        type Case = (usize, usize, u64, u64, &'static [usize], DhAt);
        let cases: [Case; 2] = [
            (3, 4, 33, 200, &[4, 6, 2], |_, _| 1.0),
            (5, 16, 39, 500, &[7, 4, 1, 5], |i, k| {
                ((i * 31 + k) as f32 * 0.37).sin()
            }),
        ];
        for (d, h, seed, input_seed, lens, dh_at) in cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let bi = BiLstm::new(d, h, &mut rng);
            let seqs: Vec<Vec<Vec<f32>>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| toy_inputs(len, d, input_seed + i as u64))
                .collect();
            let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
            let flat: Vec<Vec<f32>> = seqs
                .iter()
                .enumerate()
                .map(|(i, s)| (0..s.len() * h).map(|k| dh_at(i, k)).collect())
                .collect();
            let mut scratch = GemmScratch::new();

            let mut solo_model = bi.clone();
            for (seq, dh) in seqs.iter().zip(&flat) {
                let mut ws = BatchWorkspace::new();
                solo_model.forward_batch(&[seq], &mut ws, &mut scratch);
                solo_model.backward_batch(&mut ws, &[dh], &mut scratch);
            }

            let mut bat_model = bi.clone();
            let mut ws = BatchWorkspace::new();
            bat_model.forward_batch(&refs, &mut ws, &mut scratch);
            let dhs: Vec<&[f32]> = flat.iter().map(|v| v.as_slice()).collect();
            bat_model.backward_batch(&mut ws, &dhs, &mut scratch);

            for (pi, (ps, pb)) in [
                (&solo_model.fwd.w, &bat_model.fwd.w),
                (&solo_model.fwd.u, &bat_model.fwd.u),
                (&solo_model.fwd.b, &bat_model.fwd.b),
                (&solo_model.bwd.w, &bat_model.bwd.w),
                (&solo_model.bwd.u, &bat_model.bwd.u),
                (&solo_model.bwd.b, &bat_model.bwd.b),
            ]
            .into_iter()
            .enumerate()
            {
                for (a, b) in ps.grad.data().iter().zip(pb.grad.data()) {
                    assert!(
                        (a - b).abs() < 1e-4 * a.abs().max(1.0),
                        "h {h} param {pi}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_paths_handle_empty_batches_and_sequences() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut bi = BiLstm::new(2, 3, &mut rng);
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let refs: Vec<&[Vec<f32>]> = vec![];
        assert!(bi.forward_batch(&refs, &mut ws, &mut scratch).is_empty());
        bi.backward_batch(&mut ws, &[], &mut scratch);
        let empty: Vec<Vec<f32>> = vec![];
        let one = toy_inputs(2, 2, 400);
        let refs: Vec<&[Vec<f32>]> = vec![&empty, &one];
        let out = bi.forward_batch(&refs, &mut ws, &mut scratch);
        assert!(out[0].is_empty());
        assert_eq!(out[1].len(), 2);
    }
}
