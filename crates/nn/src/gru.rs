//! GRU and bidirectional GRU layers with backpropagation through time.
//!
//! The paper's reference [Shewalkar et al., JAISCR'19] compares RNN,
//! LSTM and GRU for speech tasks; this module lets the workspace run the
//! same architecture comparison for the phoneme detector (the
//! `architectures` experiment trains both cells through the same
//! classifier). Gate layout is `[z, r, n]` (update, reset, candidate).
//!
//! The packed-batch engine mirrors [`crate::lstm`]: fused `3H x D` /
//! `3H x H` weight matrices, one input-projection GEMM `W·X` over every
//! packed row, one `U·H` GEMM per step in the one step loop that
//! training and inference share (only training records the flat
//! activation caches), and a fused backward. The GRU keeps *two* flat
//! gradient buffers
//! because the candidate gate's recurrent gradient is scaled by the
//! reset gate, so the `U`-side gate matrix differs from the `W`-side
//! one.

use crate::act::{gru_gates_backward_fused, sigmoid_slice, tanh_slice};
use crate::batch::{reset, BatchWorkspace, DirCache, PackedBatch};
use crate::matrix::{GemmScratch, Matrix};
use crate::param::Param;
use rand::Rng;

/// A single-direction GRU layer.
#[derive(Debug, Clone)]
pub struct Gru {
    /// Input weights, fused `3H x D` (`[z, r, n]` gate blocks stacked).
    pub w: Param,
    /// Recurrent weights, fused `3H x H`.
    pub u: Param,
    /// Bias, fused `3H x 1`.
    pub b: Param,
    input_size: usize,
    hidden_size: usize,
}

/// Applies one GRU cell update. `wx`, `uh` and `bias` hold the fused
/// `[z, r, n]` input projection, recurrent product and bias; `gates`
/// receives the activated blocks, `un_h` the candidate's `U·h` block,
/// and `h` is updated in place. Pre-activations add `wx + uh + bias` in
/// that association order, and the slice kernels of [`crate::act`]
/// activate them bitwise like the scalar functions.
#[inline]
fn gru_cell(
    wx: &[f32],
    uh: &[f32],
    bias: &[f32],
    gates: &mut [f32],
    un_h: &mut [f32],
    h: &mut [f32],
) {
    let hl = h.len();
    for k in 0..2 * hl {
        gates[k] = wx[k] + uh[k] + bias[k];
    }
    sigmoid_slice(&mut gates[..2 * hl]);
    un_h.copy_from_slice(&uh[2 * hl..]);
    for k in 0..hl {
        gates[2 * hl + k] = wx[2 * hl + k] + gates[hl + k] * un_h[k] + bias[2 * hl + k];
    }
    tanh_slice(&mut gates[2 * hl..]);
    for k in 0..hl {
        h[k] = (1.0 - gates[k]) * gates[2 * hl + k] + gates[k] * h[k];
    }
}

impl Gru {
    /// Creates a GRU with Xavier-initialized weights.
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        Gru {
            w: Param::new(Matrix::xavier(3 * hidden_size, input_size, rng)),
            u: Param::new(Matrix::xavier(3 * hidden_size, hidden_size, rng)),
            b: Param::new(Matrix::zeros(3 * hidden_size, 1)),
            input_size,
            hidden_size,
        }
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Fills `dir.proj` with the pack's input projections. Unlike the
    /// LSTM, `proj` stays bare `W·x`: the GRU cell adds
    /// `wx + uh + bias` in that association order, so folding the bias
    /// in here would change the sums bitwise.
    fn fill_proj(&self, pack: &PackedBatch, dir: &mut DirCache, reversed: bool) {
        let total = pack.total_rows();
        reset(&mut dir.proj, total * 3 * self.hidden_size);
        self.w
            .value
            .matmul_nt_to(pack.x(reversed), total, &mut dir.proj, false);
    }

    /// The one per-direction step loop, mirroring
    /// [`crate::lstm::Lstm::forward_dir`]: the recurrent `U·h` of every
    /// active sequence runs as one `3H×H × H×nb` GEMM per step, the
    /// input projections come from `dir.proj` ([`Gru::fill_proj`]),
    /// [`gru_cell`] updates each row, and hidden states go to
    /// `flat` through [`PackedBatch::store_step`]. With `record`,
    /// activations are cached in `dir` for
    /// [`Gru::backward_batch_dir_fused`]; without it the cell writes into
    /// one reused scratch row.
    pub(crate) fn forward_dir(
        &self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        scratch: &mut GemmScratch,
        record: bool,
    ) {
        let hl = self.hidden_size;
        let gr = 3 * hl;
        assert_eq!(pack.width(), self.input_size, "input dimension mismatch");
        let total = pack.total_rows();
        self.fill_proj(pack, dir, reversed);
        let GemmScratch {
            bh, bt, row, flat, ..
        } = scratch;
        let DirCache {
            proj,
            h_prev,
            gates,
            aux,
            ..
        } = dir;
        assert_eq!(flat.len(), total * hl, "flat output length");
        let (gates, aux) = if record {
            reset(h_prev, total * hl);
            reset(gates, total * gr);
            reset(aux, total * hl);
            (gates.as_mut_slice(), aux.as_mut_slice())
        } else {
            reset(row, gr + hl);
            row.split_at_mut(gr)
        };
        let nb0 = pack.max_active();
        reset(bh, nb0 * hl);
        reset(bt, nb0 * gr);
        let bias = self.b.value.data();
        for t in 0..pack.max_len() {
            let nb = pack.active(t);
            let off = pack.offset(t);
            if record {
                h_prev[off * hl..(off + nb) * hl].copy_from_slice(&bh[..nb * hl]);
            }
            // uh = U·h_{t-1} for all active rows; the n-block stays
            // separate from the input projection because it is gated by
            // r before entering tanh.
            self.u
                .value
                .matmul_nt_to(&bh[..nb * hl], nb, &mut bt[..nb * gr], false);
            for b in 0..nb {
                let r = if record { off + b } else { 0 };
                gru_cell(
                    &proj[(off + b) * gr..(off + b + 1) * gr],
                    &bt[b * gr..(b + 1) * gr],
                    bias,
                    &mut gates[r * gr..(r + 1) * gr],
                    &mut aux[r * hl..(r + 1) * hl],
                    &mut bh[b * hl..(b + 1) * hl],
                );
            }
            pack.store_step(t, reversed, bh, flat, hl);
        }
    }

    /// Batched BPTT over a packed minibatch; `dhs[i]` is caller
    /// sequence `i`'s flat output gradient (`len_i x H` row-major,
    /// natural time order). Accumulates parameter gradients only —
    /// input gradients are skipped as in
    /// [`crate::lstm::Lstm::backward_batch_dir_fused`], which also tells
    /// the staging story. Per reverse step it runs one 3H-wide
    /// [`gru_gates_backward_fused`] sweep per active row — writing the
    /// *direct* `dh·z` half of `dh_next` in place — then accumulates
    /// the recurrent `Uᵀ·dZᵤ` half on top with a single fused GEMM over
    /// the direction's version-keyed cached transpose. The final
    /// `dW += dZᵀ·X` / `dU += dZᵤᵀ·H_prev` accumulations stream through
    /// the register-tiled [`Matrix::add_tn_product`]. The gate
    /// sweep is bitwise equal to the textbook per-gate formulas; the
    /// GEMMs run on fused multiply-adds.
    pub(crate) fn backward_batch_dir_fused(
        &mut self,
        pack: &PackedBatch,
        dir: &mut DirCache,
        reversed: bool,
        dhs: &[&[f32]],
        scratch: &mut GemmScratch,
    ) {
        let hl = self.hidden_size;
        let gr = 3 * hl;
        let total = pack.total_rows();
        let nb0 = pack.max_active();
        let DirCache {
            ut,
            gates,
            aux,
            h_prev,
            ..
        } = dir;
        let GemmScratch { dz, dz_u, bh, .. } = scratch;
        reset(dz, total * gr);
        reset(dz_u, total * gr);
        // bh holds dh_next rows; a sequence joins the reverse traversal
        // at its own final step with its row still at the zero boundary.
        reset(bh, nb0 * hl);
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
                    // (`dh_seq + dh_next`; IEEE addition commutes); the
                    // sweep then overwrites the row with the direct
                    // `dh·z` half.
                    for (slot, &d) in bh[b * hl..(b + 1) * hl].iter_mut().zip(dh_seq) {
                        *slot += d;
                    }
                    gru_gates_backward_fused(
                        &gates[r * gr..(r + 1) * gr],
                        &aux[r * hl..(r + 1) * hl],
                        &h_prev[r * hl..(r + 1) * hl],
                        &mut bh[b * hl..(b + 1) * hl],
                        &mut dz[r * gr..(r + 1) * gr],
                        &mut dz_u[r * gr..(r + 1) * gr],
                        hl,
                    );
                }
                // Recurrent half of dh_next for step t-1, all active
                // rows in one fused GEMM over the cached transpose,
                // *added* onto the direct half already in place (rows
                // past `nb` keep their zero boundary values).
                ut.matmul_nt_to(
                    &dz_u[off * gr..(off + nb) * gr],
                    nb,
                    &mut bh[..nb * hl],
                    true,
                );
            }
        }
        self.w.grad.add_tn_product(dz, pack.x(reversed), total);
        self.u.grad.add_tn_product(dz_u, h_prev, total);
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

/// Bidirectional GRU: forward and backward hidden states are summed,
/// mirroring [`crate::lstm::BiLstm`].
#[derive(Debug, Clone)]
pub struct BiGru {
    /// Forward-direction layer.
    pub fwd: Gru,
    /// Backward-direction layer.
    pub bwd: Gru,
}

impl BiGru {
    /// Creates a bidirectional GRU.
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        BiGru {
            fwd: Gru::new(input_size, hidden_size, rng),
            bwd: Gru::new(input_size, hidden_size, rng),
        }
    }

    /// Hidden dimension of the summed output.
    pub fn hidden_size(&self) -> usize {
        self.fwd.hidden_size()
    }

    /// Packs `seqs` into `ws` and runs both directions'
    /// [`Gru::forward_dir`] into the flat packed buffer `scratch.flat` — the
    /// GRU mirror of [`crate::lstm::BiLstm`]'s packed pass.
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

    /// Batched training forward (see
    /// [`crate::lstm::BiLstm::forward_batch`]): summed hidden states per
    /// sequence in caller order, with the activations for
    /// [`BiGru::backward_batch`] cached in `ws`.
    pub fn forward_batch(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<Vec<f32>>> {
        self.forward_packed(seqs, ws, scratch, true);
        ws.pack.nested(&scratch.flat, seqs, self.hidden_size())
    }

    /// Batched BPTT through both directions; `dhs[i]` is caller
    /// sequence `i`'s flat output gradient (`len_i x H` row-major).
    /// Must follow a [`BiGru::forward_batch`] on the same workspace.
    /// Accumulates parameter gradients only, on the fused engine.
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
    fn dir_run(gru: &Gru, xs: &[Vec<f32>], ws: &mut BatchWorkspace, scratch: &mut GemmScratch) {
        ws.pack.prepare(&[xs], gru.input_size());
        reset(&mut scratch.flat, xs.len() * gru.hidden_size());
        gru.forward_dir(&ws.pack, &mut ws.fwd, false, scratch, true);
    }

    /// One direction's training forward over `xs` as a batch of one.
    fn dir_forward(gru: &Gru, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let (mut ws, mut scratch) = (BatchWorkspace::new(), GemmScratch::new());
        dir_run(gru, xs, &mut ws, &mut scratch);
        ws.pack
            .nested(&scratch.flat, &[xs], gru.hidden_size())
            .pop()
            .unwrap()
    }

    fn bi_forward(bi: &BiGru, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        bi.forward_batch(&[xs], &mut BatchWorkspace::new(), &mut GemmScratch::new())
            .pop()
            .unwrap()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let gru = Gru::new(3, 5, &mut rng);
        let xs = toy_inputs(7, 3, 2);
        let hs = dir_forward(&gru, &xs);
        assert_eq!(hs.len(), 7);
        for h in &hs {
            assert_eq!(h.len(), 5);
            for &v in h {
                assert!(v.abs() <= 1.0);
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        let mut rng = StdRng::seed_from_u64(31);
        let bi = BiGru::new(3, 5, &mut rng);
        let xs = toy_inputs(7, 3, 32);
        let mut scratch = GemmScratch::new();
        let a = bi.forward_batch(&[&xs], &mut BatchWorkspace::new(), &mut scratch);
        let b = bi.forward_batch(&[&xs], &mut BatchWorkspace::new(), &mut scratch);
        assert_eq!(a, b);
        assert_eq!(a[0], bi_forward(&bi, &xs));
    }

    #[test]
    fn gru_gradients_match_finite_differences() {
        // One GRU direction through the packed engine (a batch of one).
        let (d, h, t_len) = (3usize, 4usize, 5usize);
        let mut rng = StdRng::seed_from_u64(42);
        let mut gru = Gru::new(d, h, &mut rng);
        let xs = toy_inputs(t_len, d, 43);
        let loss = |g: &Gru| -> f32 { dir_forward(g, &xs).iter().flatten().sum() };
        {
            let mut ws = BatchWorkspace::new();
            let mut scratch = GemmScratch::new();
            dir_run(&gru, &xs, &mut ws, &mut scratch);
            let BatchWorkspace { pack, fwd, .. } = &mut ws;
            let dh = vec![1.0f32; t_len * h];
            gru.backward_batch_dir_fused(pack, fwd, false, &[&dh], &mut scratch);
        }

        let eps = 1e-3f32;
        for (pidx, k) in [(0usize, 0usize), (0, 7), (1, 3), (1, 11), (2, 2), (2, 9)] {
            let analytic = match pidx {
                0 => gru.w.grad.data()[k],
                1 => gru.u.grad.data()[k],
                _ => gru.b.grad.data()[k],
            };
            let mut g2 = gru.clone();
            {
                let p = match pidx {
                    0 => &mut g2.w,
                    1 => &mut g2.u,
                    _ => &mut g2.b,
                };
                p.value.data_mut()[k] += eps;
            }
            let up = loss(&g2);
            {
                let p = match pidx {
                    0 => &mut g2.w,
                    1 => &mut g2.u,
                    _ => &mut g2.b,
                };
                p.value.data_mut()[k] -= 2.0 * eps;
            }
            let down = loss(&g2);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                "param {pidx}[{k}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn bigru_sees_future_context() {
        let mut rng = StdRng::seed_from_u64(21);
        let bi = BiGru::new(2, 4, &mut rng);
        let a = vec![vec![0.1, 0.2]; 6];
        let mut b = a.clone();
        b[5] = vec![0.9, -0.9];
        let (ha, hb) = (bi_forward(&bi, &a), bi_forward(&bi, &b));
        let d0: f32 = ha[0].iter().zip(&hb[0]).map(|(x, y)| (x - y).abs()).sum();
        assert!(d0 > 1e-4);
    }

    #[test]
    fn empty_sequence_is_ok() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bi = BiGru::new(3, 5, &mut rng);
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
    fn batched_forward_is_bitwise_identical_at_wide_hidden_sizes() {
        // H = 34 keeps the recurrent GEMM on the wide path; mixed
        // lengths exercise the shrinking active prefix. Each sequence
        // must get the bits of its batch of one.
        let mut rng = StdRng::seed_from_u64(51);
        let bi = BiGru::new(3, 34, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [6usize, 1, 4, 4]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, 3, 500 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let batched = bi.forward_batch(&refs, &mut ws, &mut scratch);
        for (i, seq) in seqs.iter().enumerate() {
            assert_eq!(batched[i], bi_forward(&bi, seq), "seq {i}");
        }
    }

    #[test]
    fn batched_forward_is_bitwise_batch_size_invariant() {
        // A sequence's states must not depend on what else is in the
        // batch.
        let mut rng = StdRng::seed_from_u64(57);
        let bi = BiGru::new(3, 34, &mut rng);
        let seqs: Vec<Vec<Vec<f32>>> = [5usize, 2, 7]
            .iter()
            .enumerate()
            .map(|(i, &len)| toy_inputs(len, 3, 800 + i as u64))
            .collect();
        let refs: Vec<&[Vec<f32>]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let together = bi.forward_batch(&refs, &mut ws, &mut scratch);
        for (i, seq) in seqs.iter().enumerate() {
            let mut solo_ws = BatchWorkspace::new();
            let alone = bi.forward_batch(&[seq.as_slice()], &mut solo_ws, &mut scratch);
            assert_eq!(together[i], alone[0], "seq {i}");
        }
    }

    #[test]
    fn batched_backward_matches_sum_of_batches_of_one() {
        // The gradients of one mixed-length pack must equal the summed
        // gradients of each sequence as a batch of one, within the fma
        // rounding of the reordered accumulation. Cases: (input, hidden,
        // model seed, input seed, lengths, output gradient at (seq, k))
        // — a small all-ones case, and a training-like shape with a
        // length-1 sequence and non-constant gradients.
        type DhAt = fn(usize, usize) -> f32;
        type Case = (usize, usize, u64, u64, &'static [usize], DhAt);
        let cases: [Case; 2] = [
            (3, 4, 53, 600, &[3, 5, 2], |_, _| 1.0),
            (5, 16, 61, 700, &[7, 4, 1, 5], |_, k| (0.3 * k as f32).sin()),
        ];
        for (d, h, seed, input_seed, lens, dh_at) in cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let bi = BiGru::new(d, h, &mut rng);
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

            for (name, (ps, pb)) in ["fwd.w", "fwd.u", "fwd.b", "bwd.w", "bwd.u", "bwd.b"]
                .iter()
                .zip([
                    (&solo_model.fwd.w, &bat_model.fwd.w),
                    (&solo_model.fwd.u, &bat_model.fwd.u),
                    (&solo_model.fwd.b, &bat_model.fwd.b),
                    (&solo_model.bwd.w, &bat_model.bwd.w),
                    (&solo_model.bwd.u, &bat_model.bwd.u),
                    (&solo_model.bwd.b, &bat_model.bwd.b),
                ])
            {
                for (a, b) in ps.grad.data().iter().zip(pb.grad.data()) {
                    assert!(
                        (a - b).abs() < 1e-4 * a.abs().max(1.0),
                        "h {h} {name}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_paths_handle_empty_batches_and_sequences() {
        let mut rng = StdRng::seed_from_u64(62);
        let mut bi = BiGru::new(3, 8, &mut rng);
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let out = bi.forward_batch(&[], &mut ws, &mut scratch);
        assert!(out.is_empty());
        bi.backward_batch(&mut ws, &[], &mut scratch);
        for p in bi.params_mut() {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        }
    }
}
