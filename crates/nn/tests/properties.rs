//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thrubarrier_nn::gru::{BiGru, Gru};
use thrubarrier_nn::loss;
use thrubarrier_nn::lstm::{BiLstm, Lstm};
use thrubarrier_nn::model::TrainConfig;
use thrubarrier_nn::{BatchWorkspace, BrnnClassifier, GemmScratch, Matrix};

fn sequence_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 3), 1..12)
}

/// A minibatch at the issue's pinned sizes (B ∈ {1, 2, 5, 8}) with
/// independently drawn, usually unequal, sequence lengths. Implemented
/// as a hand-rolled [`Strategy`] because the vendored proptest has no
/// `prop_flat_map`/`sample::select` combinators.
struct BatchStrategy;

impl Strategy for BatchStrategy {
    type Value = Vec<Vec<Vec<f32>>>;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        const SIZES: [usize; 4] = [1, 2, 5, 8];
        let b = SIZES[rng.gen_range(0..SIZES.len())];
        (0..b).map(|_| sequence_strategy().generate(rng)).collect()
    }
}

fn batch_strategy() -> impl Strategy<Value = Vec<Vec<Vec<f32>>>> {
    BatchStrategy
}

/// The training forward of `net` over `xs` as a batch of one.
fn bilstm_forward(net: &BiLstm, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let mut ws = BatchWorkspace::new();
    net.forward_batch(&[xs], &mut ws, &mut GemmScratch::new())
        .pop()
        .unwrap()
}

/// A bidirectional layer whose backward direction has all-zero weights
/// and therefore outputs exactly zero (`c` stays 0, so `h = o·tanh(0)`):
/// its batched forward is `lstm` alone, run through the public engine.
fn forward_only(lstm: &Lstm) -> BiLstm {
    let (d, h) = (lstm.input_size(), lstm.hidden_size());
    let zeros = Lstm::from_weights(
        Matrix::zeros(4 * h, d),
        Matrix::zeros(4 * h, h),
        Matrix::zeros(4 * h, 1),
    )
    .unwrap();
    BiLstm {
        fwd: lstm.clone(),
        bwd: zeros,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lstm_hidden_states_are_bounded(xs in sequence_strategy(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lstm = Lstm::new(3, 5, &mut rng);
        let hs = bilstm_forward(&forward_only(&lstm), &xs);
        prop_assert_eq!(hs.len(), xs.len());
        for h in &hs {
            for &v in h {
                prop_assert!(v.abs() < 1.0, "hidden state {v} out of (-1, 1)");
            }
        }
    }

    #[test]
    fn lstm_forward_is_deterministic(xs in sequence_strategy(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = BiLstm::new(3, 4, &mut rng);
        prop_assert_eq!(bilstm_forward(&net, &xs), bilstm_forward(&net, &xs));
    }

    #[test]
    fn lstm_is_causal(xs in sequence_strategy(), seed in 0u64..50) {
        // Changing the last frame must not affect earlier outputs.
        if xs.len() < 2 {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let net = forward_only(&Lstm::new(3, 4, &mut rng));
        let a = bilstm_forward(&net, &xs);
        let mut ys = xs.clone();
        let last = ys.len() - 1;
        ys[last] = vec![0.9, -0.9, 0.9];
        let b = bilstm_forward(&net, &ys);
        for t in 0..last {
            prop_assert_eq!(&a[t], &b[t], "output at {} changed", t);
        }
    }

    #[test]
    fn bilstm_reversal_symmetry(xs in sequence_strategy(), seed in 0u64..50) {
        // Swapping the two directions' weights and reversing the input
        // reverses the output sequence.
        let mut rng = StdRng::seed_from_u64(seed);
        let bi = BiLstm::new(3, 4, &mut rng);
        let out = bilstm_forward(&bi, &xs);
        let rev_in: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
        let swapped = BiLstm {
            fwd: bi.bwd.clone(),
            bwd: bi.fwd.clone(),
        };
        let rev_out = bilstm_forward(&swapped, &rev_in);
        for (a, b) in out.iter().zip(rev_out.iter().rev()) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-20.0f32..20.0, 1..10)) {
        let p = loss::softmax(&logits);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn cross_entropy_is_nonnegative(
        logits in prop::collection::vec(-10.0f32..10.0, 2..6),
        target_raw in 0usize..6,
    ) {
        let target = target_raw % logits.len();
        let (l, dl) = loss::softmax_cross_entropy(&logits, target);
        prop_assert!(l >= 0.0);
        // Gradient components sum to ~0 (softmax minus one-hot).
        prop_assert!(dl.iter().sum::<f32>().abs() < 1e-4);
    }

    #[test]
    fn fused_forward_matches_legacy_both_directions(
        xs in sequence_strategy(),
        seed in 0u64..100,
    ) {
        // The fused packed engine, run on a batch of one, must agree
        // with the per-gate reference in both directions of a
        // bidirectional layer.
        let mut rng = StdRng::seed_from_u64(seed);
        let bi = BiLstm::new(3, 4, &mut rng);
        let expected = legacy_bilstm(&bi, &xs);
        let fused = bilstm_forward(&bi, &xs);
        for t in 0..xs.len() {
            for k in 0..4 {
                prop_assert!(rel_close(fused[t][k], expected[t][k]),
                    "train-path fused {} vs legacy {} at [{t}][{k}]", fused[t][k], expected[t][k]);
            }
        }
    }

    #[test]
    fn fused_backward_matches_legacy_gate_gradients(
        xs in sequence_strategy(),
        seed in 0u64..100,
    ) {
        // A batch of one through the packed backward accumulates, per
        // direction, the per-gate reference's parameter gradients (the
        // backward direction sees the reversed sequence and reversed
        // output gradients).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bi = BiLstm::new(3, 4, &mut rng);
        let legacy_f = LegacyLstm::from_fused(&bi.fwd);
        let legacy_b = LegacyLstm::from_fused(&bi.bwd);
        let dhs: Vec<Vec<f32>> = (0..xs.len())
            .map(|t| (0..4).map(|k| ((t + k) as f32 * 0.37).sin()).collect())
            .collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        bi.forward_batch(&[&xs], &mut ws, &mut scratch);
        bi.backward_batch(&mut ws, &[&dhs.concat()], &mut scratch);
        let rev_xs: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
        let rev_dhs: Vec<Vec<f32>> = dhs.iter().rev().cloned().collect();
        for (dir, legacy, xs, dhs) in [
            (&bi.fwd, &legacy_f, &xs, &dhs),
            (&bi.bwd, &legacy_b, &rev_xs, &rev_dhs),
        ] {
            let (_, steps) = legacy.forward(xs);
            let (dw, du, db) = legacy.backward(&steps, dhs);
            let fused_dw = gate_blocks::<4>(&dir.w.grad, 4);
            let fused_du = gate_blocks::<4>(&dir.u.grad, 4);
            for g in 0..4 {
                for (a, b) in fused_dw[g].data().iter().zip(dw[g].data()) {
                    prop_assert!(rel_close(*a, *b), "dW gate {g}: {a} vs {b}");
                }
                for (a, b) in fused_du[g].data().iter().zip(du[g].data()) {
                    prop_assert!(rel_close(*a, *b), "dU gate {g}: {a} vs {b}");
                }
                for (k, &legacy_db) in db[g].iter().enumerate() {
                    let fused_db = dir.b.grad.get(g * 4 + k, 0);
                    prop_assert!(rel_close(fused_db, legacy_db), "db gate {g}[{k}]");
                }
            }
        }
    }

    #[test]
    fn old_layout_checkpoint_runs_identically_on_fused_engine(
        xs in sequence_strategy(),
        seed in 0u64..100,
    ) {
        // The V1 container has always stored the fused matrices, so a
        // checkpoint written before the engine rework must load and
        // classify bit-identically.
        let mut rng = StdRng::seed_from_u64(seed);
        let model = BrnnClassifier::new(3, 4, 2, &mut rng);
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();
        let loaded = BrnnClassifier::load(bytes.as_slice()).unwrap();
        prop_assert_eq!(model.predict_proba(&xs), loaded.predict_proba(&xs));
        prop_assert_eq!(model.predict(&xs), loaded.predict(&xs));
    }

    /// Column counts reach past the narrow/wide switch at 32, so both
    /// the column-streaming fold and the sixteen-lane fused dot bodies
    /// are covered; inputs stay in [-1, 1] so the absolute tolerance
    /// means the same at every width.
    #[test]
    fn matmul_nt_distributes_over_addition(
        rows in 1usize..10,
        cols in 1usize..40,
        seed in 0u64..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::xavier(rows, cols, &mut rng);
        let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.3 - 0.5).sin()).collect();
        let y: Vec<f32> = (0..cols).map(|i| (0.7 - i as f32 * 0.2).cos()).collect();
        let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let (mut lhs, mut mx, mut my) = (vec![0.0; rows], vec![0.0; rows], vec![0.0; rows]);
        m.matmul_nt_to(&sum, 1, &mut lhs, false);
        m.matmul_nt_to(&x, 1, &mut mx, false);
        m.matmul_nt_to(&y, 1, &mut my, false);
        for (l, (a, b)) in lhs.iter().zip(mx.iter().zip(&my)) {
            prop_assert!((l - (a + b)).abs() < 1e-4);
        }
    }
}

/// Relative closeness at the issue's 1e-5 tolerance.
fn rel_close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0)
}

/// Extracts the `N` per-gate `h x *` blocks (LSTM `[i, f, g, o]`, GRU
/// `[z, r, n]`) from a fused `N·h x *` matrix.
fn gate_blocks<const N: usize>(m: &Matrix, h: usize) -> [Matrix; N] {
    std::array::from_fn(|g| {
        let rows: Vec<&[f32]> = (g * h..(g + 1) * h).map(|r| m.row(r)).collect();
        Matrix::from_rows(&rows)
    })
}

/// `m · x` as a plain left-to-right fold per row.
fn mat_vec(m: &Matrix, x: &[f32]) -> Vec<f32> {
    (0..m.rows())
        .map(|r| {
            let mut s = 0.0f32;
            for (c, &xc) in x.iter().enumerate() {
                s += m.get(r, c) * xc;
            }
            s
        })
        .collect()
}

/// `mᵀ · x` as a plain left-to-right fold over the rows of `m`.
fn mat_t_vec(m: &Matrix, x: &[f32]) -> Vec<f32> {
    (0..m.cols())
        .map(|c| {
            let mut s = 0.0f32;
            for (r, &xr) in x.iter().enumerate() {
                s += m.get(r, c) * xr;
            }
            s
        })
        .collect()
}

/// `acc += a ⊗ b` (rank-1 update) with plain loops.
fn add_rank1(acc: &mut Matrix, a: &[f32], b: &[f32]) {
    for (r, &ar) in a.iter().enumerate() {
        for (c, &bc) in b.iter().enumerate() {
            let v = acc.get(r, c) + ar * bc;
            acc.set(r, c, v);
        }
    }
}

// The legacy references use the engine's own activation kernels so the
// comparison isolates the *fused-gate packed restructuring* (one fused
// GEMM per step over a packed batch and flat caches versus per-gate
// products), not the activation approximation, which `act`'s unit tests
// pin against libm separately. Every product is a plain loop above, so
// the references share no matrix kernel with the code under test.
use thrubarrier_nn::act::{sigmoid, tanh};

/// Per-step activations recorded by [`LegacyLstm::forward`].
struct LegacyStep {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// The per-gate reference LSTM: four separate weight matrices, four
/// input and four recurrent products per timestep, and rank-1 gradient
/// updates per gate per step. Kept in the test suite as the ground
/// truth the packed engine is checked against.
struct LegacyLstm {
    w: [Matrix; 4],
    u: [Matrix; 4],
    b: [Vec<f32>; 4],
    hidden: usize,
}

impl LegacyLstm {
    fn from_fused(l: &Lstm) -> Self {
        let h = l.hidden_size();
        let b_full: [Matrix; 4] = gate_blocks(&l.b.value, h);
        LegacyLstm {
            w: gate_blocks(&l.w.value, h),
            u: gate_blocks(&l.u.value, h),
            b: std::array::from_fn(|g| b_full[g].data().to_vec()),
            hidden: h,
        }
    }

    fn forward(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, Vec<LegacyStep>) {
        let hl = self.hidden;
        let mut h = vec![0.0f32; hl];
        let mut c = vec![0.0f32; hl];
        let mut outputs = Vec::new();
        let mut steps = Vec::new();
        for x in xs {
            let wx: [Vec<f32>; 4] = std::array::from_fn(|g| mat_vec(&self.w[g], x));
            let uh: [Vec<f32>; 4] = std::array::from_fn(|g| mat_vec(&self.u[g], &h));
            let mut step = LegacyStep {
                x: x.clone(),
                h_prev: h.clone(),
                c_prev: c.clone(),
                i: vec![0.0; hl],
                f: vec![0.0; hl],
                g: vec![0.0; hl],
                o: vec![0.0; hl],
                tanh_c: vec![0.0; hl],
            };
            for k in 0..hl {
                step.i[k] = sigmoid(wx[0][k] + uh[0][k] + self.b[0][k]);
                step.f[k] = sigmoid(wx[1][k] + uh[1][k] + self.b[1][k]);
                step.g[k] = tanh(wx[2][k] + uh[2][k] + self.b[2][k]);
                step.o[k] = sigmoid(wx[3][k] + uh[3][k] + self.b[3][k]);
                c[k] = step.f[k] * c[k] + step.i[k] * step.g[k];
                step.tanh_c[k] = tanh(c[k]);
                h[k] = step.o[k] * step.tanh_c[k];
            }
            outputs.push(h.clone());
            steps.push(step);
        }
        (outputs, steps)
    }

    /// Parameter gradients `(dW, dU, db)` per gate for output
    /// gradients `dhs`.
    fn backward(
        &self,
        steps: &[LegacyStep],
        dhs: &[Vec<f32>],
    ) -> ([Matrix; 4], [Matrix; 4], [Vec<f32>; 4]) {
        let hl = self.hidden;
        let input = self.w[0].cols();
        let mut dw: [Matrix; 4] = std::array::from_fn(|_| Matrix::zeros(hl, input));
        let mut du: [Matrix; 4] = std::array::from_fn(|_| Matrix::zeros(hl, hl));
        let mut db: [Vec<f32>; 4] = std::array::from_fn(|_| vec![0.0; hl]);
        let mut dh_next = vec![0.0f32; hl];
        let mut dc_next = vec![0.0f32; hl];
        for t in (0..steps.len()).rev() {
            let s = &steps[t];
            let mut dz: [Vec<f32>; 4] = std::array::from_fn(|_| vec![0.0; hl]);
            for k in 0..hl {
                let dh = dhs[t][k] + dh_next[k];
                let dc = dc_next[k] + dh * s.o[k] * (1.0 - s.tanh_c[k] * s.tanh_c[k]);
                dz[0][k] = dc * s.g[k] * s.i[k] * (1.0 - s.i[k]);
                dz[1][k] = dc * s.c_prev[k] * s.f[k] * (1.0 - s.f[k]);
                dz[2][k] = dc * s.i[k] * (1.0 - s.g[k] * s.g[k]);
                dz[3][k] = dh * s.tanh_c[k] * s.o[k] * (1.0 - s.o[k]);
                dc_next[k] = dc * s.f[k];
            }
            dh_next.iter_mut().for_each(|v| *v = 0.0);
            for g in 0..4 {
                add_rank1(&mut dw[g], &dz[g], &s.x);
                add_rank1(&mut du[g], &dz[g], &s.h_prev);
                for k in 0..hl {
                    db[g][k] += dz[g][k];
                }
                for (a, b) in dh_next.iter_mut().zip(mat_t_vec(&self.u[g], &dz[g])) {
                    *a += b;
                }
            }
        }
        (dw, du, db)
    }
}

/// The per-gate reference GRU forward: separate `[z, r, n]` weight
/// blocks and plain-loop products per timestep, with the candidate's
/// recurrent product gated by `r` before `tanh`.
struct LegacyGru {
    w: [Matrix; 3],
    u: [Matrix; 3],
    b: [Vec<f32>; 3],
    hidden: usize,
}

impl LegacyGru {
    fn from_fused(l: &Gru) -> Self {
        let h = l.hidden_size();
        let b_full: [Matrix; 3] = gate_blocks(&l.b.value, h);
        LegacyGru {
            w: gate_blocks(&l.w.value, h),
            u: gate_blocks(&l.u.value, h),
            b: std::array::from_fn(|g| b_full[g].data().to_vec()),
            hidden: h,
        }
    }

    fn forward(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let hl = self.hidden;
        let mut h = vec![0.0f32; hl];
        let mut outputs = Vec::new();
        for x in xs {
            let wx: [Vec<f32>; 3] = std::array::from_fn(|g| mat_vec(&self.w[g], x));
            let uh: [Vec<f32>; 3] = std::array::from_fn(|g| mat_vec(&self.u[g], &h));
            for k in 0..hl {
                let z = sigmoid(wx[0][k] + uh[0][k] + self.b[0][k]);
                let r = sigmoid(wx[1][k] + uh[1][k] + self.b[1][k]);
                let n = tanh(wx[2][k] + r * uh[2][k] + self.b[2][k]);
                h[k] = (1.0 - z) * n + z * h[k];
            }
            outputs.push(h.clone());
        }
        outputs
    }
}

/// Sums a forward-direction output with a backward-direction output
/// computed over the reversed sequence.
fn sum_directions(hf: &[Vec<f32>], hb: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let t_len = hf.len();
    (0..t_len)
        .map(|t| {
            hf[t]
                .iter()
                .zip(&hb[t_len - 1 - t])
                .map(|(a, b)| a + b)
                .collect()
        })
        .collect()
}

/// The per-gate reference output of a bidirectional LSTM.
fn legacy_bilstm(bi: &BiLstm, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let rev: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
    let (hf, _) = LegacyLstm::from_fused(&bi.fwd).forward(xs);
    let (hb, _) = LegacyLstm::from_fused(&bi.bwd).forward(&rev);
    sum_directions(&hf, &hb)
}

/// The per-gate reference output of a bidirectional GRU.
fn legacy_bigru(bi: &BiGru, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let rev: Vec<Vec<f32>> = xs.iter().rev().cloned().collect();
    let hf = LegacyGru::from_fused(&bi.fwd).forward(xs);
    let hb = LegacyGru::from_fused(&bi.bwd).forward(&rev);
    sum_directions(&hf, &hb)
}

/// Reads a V1 checkpoint (`"TBNN"`, version, count, then `rows`, `cols`
/// and row-major data per matrix) into its matrices.
fn read_v1(bytes: &[u8]) -> Vec<Matrix> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 12;
    (0..word(8))
        .map(|_| {
            let (rows, cols) = (word(at), word(at + 4));
            at += 8;
            let mut m = Matrix::zeros(rows, cols);
            for v in m.data_mut() {
                *v = f32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                at += 4;
            }
            m
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packed-batch BiLSTM engine (`forward_batch`) reproduces the
    /// per-gate reference within 1e-5 at every frame, for minibatch
    /// sizes B ∈ {1, 2, 5, 8} with independently drawn (mixed) sequence
    /// lengths.
    #[test]
    fn batched_bilstm_forward_matches_legacy(
        batch in batch_strategy(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = BiLstm::new(3, 6, &mut rng);
        let mut scratch = GemmScratch::new();
        let mut ws = BatchWorkspace::new();
        let seqs: Vec<&[Vec<f32>]> = batch.iter().map(|s| s.as_slice()).collect();
        let trained = net.forward_batch(&seqs, &mut ws, &mut scratch);
        for (i, xs) in batch.iter().enumerate() {
            let expect = legacy_bilstm(&net, xs);
            prop_assert_eq!(trained[i].len(), expect.len());
            for (t, row) in expect.iter().enumerate() {
                for (k, &e) in row.iter().enumerate() {
                    prop_assert!(
                        rel_close(trained[i][t][k], e),
                        "seq {} frame {} unit {}: {} vs {}",
                        i, t, k, trained[i][t][k], e
                    );
                }
            }
        }
    }

    /// The same property for the packed-batch BiGRU engine against the
    /// per-gate GRU reference.
    #[test]
    fn batched_bigru_forward_matches_legacy(
        batch in batch_strategy(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = BiGru::new(3, 6, &mut rng);
        let mut scratch = GemmScratch::new();
        let mut ws = BatchWorkspace::new();
        let seqs: Vec<&[Vec<f32>]> = batch.iter().map(|s| s.as_slice()).collect();
        let batched = net.forward_batch(&seqs, &mut ws, &mut scratch);
        for (i, xs) in batch.iter().enumerate() {
            let expect = legacy_bigru(&net, xs);
            prop_assert_eq!(batched[i].len(), expect.len());
            for (t, row) in expect.iter().enumerate() {
                for (k, &e) in row.iter().enumerate() {
                    prop_assert!(
                        rel_close(batched[i][t][k], e),
                        "seq {} frame {} unit {}: {} vs {}",
                        i, t, k, batched[i][t][k], e
                    );
                }
            }
        }
    }

    /// The training forward over N sequences gives every sequence the
    /// bits it gets as a batch of one, for both cells: GEMM rows do not
    /// depend on the rest of the pack.
    #[test]
    fn forward_batch_equals_batches_of_one_bitwise(
        batch in batch_strategy(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lstm = BiLstm::new(3, 6, &mut rng);
        let gru = BiGru::new(3, 6, &mut rng);
        let seqs: Vec<&[Vec<f32>]> = batch.iter().map(|s| s.as_slice()).collect();
        let mut scratch = GemmScratch::new();
        let bits = |v: &[Vec<f32>]| -> Vec<u32> { v.iter().flatten().map(|x| x.to_bits()).collect() };
        let lstm_all = lstm.forward_batch(&seqs, &mut BatchWorkspace::new(), &mut scratch);
        let gru_all = gru.forward_batch(&seqs, &mut BatchWorkspace::new(), &mut scratch);
        for (i, xs) in seqs.iter().enumerate() {
            let lstm_one = lstm.forward_batch(&[xs], &mut BatchWorkspace::new(), &mut scratch);
            let gru_one = gru.forward_batch(&[xs], &mut BatchWorkspace::new(), &mut scratch);
            prop_assert_eq!(bits(&lstm_all[i]), bits(&lstm_one[0]), "BiLSTM seq {}", i);
            prop_assert_eq!(bits(&gru_all[i]), bits(&gru_one[0]), "BiGRU seq {}", i);
        }
    }

    /// One batched `train_step` reports the loss of the per-gate
    /// reference: the model's saved weights through `LegacyLstm` in both
    /// directions, a plain-loop head and per-frame softmax
    /// cross-entropy, averaged per sequence and then over the batch.
    #[test]
    fn batched_train_step_loss_matches_legacy_reference(
        batch in batch_strategy(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = BrnnClassifier::new(3, 5, 2, &mut rng);
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();
        let mats = read_v1(&bytes);
        let fused_lstm = |w: &Matrix, u: &Matrix, b: &Matrix| {
            Lstm::from_weights(w.clone(), u.clone(), b.clone()).unwrap()
        };
        let reference = BiLstm {
            fwd: fused_lstm(&mats[0], &mats[1], &mats[2]),
            bwd: fused_lstm(&mats[3], &mats[4], &mats[5]),
        };
        let (head_w, head_b) = (&mats[6], &mats[7]);
        let labels: Vec<Vec<usize>> = batch
            .iter()
            .map(|s| (0..s.len()).map(|t| t % 2).collect())
            .collect();
        let mut expected = 0.0f32;
        for (xs, ys) in batch.iter().zip(&labels) {
            let hs = legacy_bilstm(&reference, xs);
            let mut seq_total = 0.0f32;
            for (h, &y) in hs.iter().zip(ys) {
                let logits: Vec<f32> = mat_vec(head_w, h)
                    .iter()
                    .zip(head_b.data())
                    .map(|(v, b)| v + b)
                    .collect();
                seq_total += loss::softmax_cross_entropy(&logits, y).0;
            }
            expected += seq_total / xs.len() as f32;
        }
        expected /= batch.len() as f32;
        let pairs: Vec<(&[Vec<f32>], &[usize])> = batch
            .iter()
            .zip(&labels)
            .map(|(s, y)| (s.as_slice(), y.as_slice()))
            .collect();
        let got = model.train_step(&pairs, &TrainConfig::default());
        prop_assert!(
            rel_close(got, expected),
            "reference {} vs batched {}",
            expected, got
        );
    }
}

// ---------------------------------------------------------------------
// Finite-difference gradient checks for the fused batched backward
// engine. These run under `--release` only
// (`cargo test --release -p thrubarrier-nn`): central differences need
// hundreds of batched forward passes per case, which is too slow for
// the tier-1 debug test pass, so the debug build marks them `ignore`.

use thrubarrier_nn::param::Param;

/// Deterministic weighting of output unit `k` at frame `t` of sequence
/// `i`, used both as the loss weight and as the analytic `dL/dh` seed.
fn loss_coef(i: usize, t: usize, k: usize) -> f32 {
    ((i * 131 + t * 17 + k) as f32 * 0.37).sin()
}

/// `L = Σ coef·h` over every frame of every sequence, summed in f64 so
/// the finite-difference numerator isn't dominated by summation noise.
fn weighted_loss(out: &[Vec<Vec<f32>>]) -> f64 {
    let mut l = 0.0f64;
    for (i, seq) in out.iter().enumerate() {
        for (t, row) in seq.iter().enumerate() {
            for (k, &v) in row.iter().enumerate() {
                l += loss_coef(i, t, k) as f64 * v as f64;
            }
        }
    }
    l
}

/// A deterministic mixed-length batch (`lens[j]` frames of width `d`).
fn gradcheck_batch(lens: &[usize], d: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    lens.iter()
        .map(|&len| {
            (0..len)
                .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect()
        })
        .collect()
}

/// Strided sample of parameter indices (first, last, and interior).
fn sample_indices(len: usize) -> Vec<usize> {
    const N: usize = 6;
    (0..N.min(len))
        .map(|j| (j * len.saturating_sub(1)) / (N - 1).max(1))
        .collect()
}

/// Central-difference slope of `loss_of` along parameter entry `idx` of
/// `param_of(net, pi)`, evaluated on clones so `net` stays pristine.
fn fd_slope<M: Clone>(
    param_of: fn(&mut M, usize) -> &mut Param,
    loss_of: impl Fn(&M) -> f64,
    net: &M,
    pi: usize,
    idx: usize,
) -> f64 {
    const EPS: f32 = 5e-3;
    let mut plus = net.clone();
    param_of(&mut plus, pi).value.data_mut()[idx] += EPS;
    let lp = loss_of(&plus);
    let mut minus = net.clone();
    param_of(&mut minus, pi).value.data_mut()[idx] -= EPS;
    let lm = loss_of(&minus);
    (lp - lm) / (2.0 * EPS as f64)
}

fn bilstm_param(m: &mut BiLstm, pi: usize) -> &mut Param {
    match pi {
        0 => &mut m.fwd.w,
        1 => &mut m.fwd.u,
        2 => &mut m.fwd.b,
        3 => &mut m.bwd.w,
        4 => &mut m.bwd.u,
        _ => &mut m.bwd.b,
    }
}

fn bigru_param(m: &mut BiGru, pi: usize) -> &mut Param {
    match pi {
        0 => &mut m.fwd.w,
        1 => &mut m.fwd.u,
        2 => &mut m.fwd.b,
        3 => &mut m.bwd.w,
        4 => &mut m.bwd.u,
        _ => &mut m.bwd.b,
    }
}

/// Gradient-check tolerance: the fused engine is f32 and the loss is a
/// first-order probe, so allow 2% relative with a small absolute floor
/// covering central-difference truncation and forward rounding.
fn fd_close(analytic: f64, fd: f64) -> bool {
    (analytic - fd).abs() <= 2e-2 * analytic.abs().max(fd.abs()) + 2e-3
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fused batched backward engine's BiLSTM parameter gradients
    /// agree with central finite differences of a weighted-sum loss
    /// over the batched forward outputs, on a mixed-length minibatch
    /// that always includes a length-1 sequence (release-only; see the
    /// module comment above).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn fused_bilstm_backward_matches_finite_differences(
        l1 in 2usize..8,
        l2 in 3usize..9,
        seed in 0u64..1000,
    ) {
        let (d, h) = (3usize, 5usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = BiLstm::new(d, h, &mut rng);
        let batch = gradcheck_batch(&[l1, 1, l2], d, seed);
        let seqs: Vec<&[Vec<f32>]> = batch.iter().map(|s| s.as_slice()).collect();

        // Analytic gradients off the fused batched engine.
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        net.forward_batch(&seqs, &mut ws, &mut scratch);
        let flat: Vec<Vec<f32>> = batch
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (0..s.len() * h).map(|j| loss_coef(i, j / h, j % h)).collect()
            })
            .collect();
        let dhs: Vec<&[f32]> = flat.iter().map(|v| v.as_slice()).collect();
        net.backward_batch(&mut ws, &dhs, &mut scratch);

        for pi in 0..6 {
            let grads = bilstm_param(&mut net, pi).grad.data().to_vec();
            for idx in sample_indices(grads.len()) {
                let fd = fd_slope(
                    bilstm_param,
                    |m: &BiLstm| {
                        let mut ws = BatchWorkspace::new();
                        let mut sc = GemmScratch::new();
                        weighted_loss(&m.forward_batch(&seqs, &mut ws, &mut sc))
                    },
                    &net,
                    pi,
                    idx,
                );
                let a = grads[idx] as f64;
                prop_assert!(
                    fd_close(a, fd),
                    "param {} index {}: analytic {} vs finite-difference {}",
                    pi, idx, a, fd
                );
            }
        }
    }

    /// The same finite-difference gradient check for the fused batched
    /// BiGRU backward engine (release-only; see the BiLSTM twin).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn fused_bigru_backward_matches_finite_differences(
        l1 in 2usize..8,
        l2 in 3usize..9,
        seed in 0u64..1000,
    ) {
        let (d, h) = (3usize, 5usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = BiGru::new(d, h, &mut rng);
        let batch = gradcheck_batch(&[l1, 1, l2], d, seed ^ 0x9e37);
        let seqs: Vec<&[Vec<f32>]> = batch.iter().map(|s| s.as_slice()).collect();

        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        net.forward_batch(&seqs, &mut ws, &mut scratch);
        let flat: Vec<Vec<f32>> = batch
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (0..s.len() * h).map(|j| loss_coef(i, j / h, j % h)).collect()
            })
            .collect();
        let dhs: Vec<&[f32]> = flat.iter().map(|v| v.as_slice()).collect();
        net.backward_batch(&mut ws, &dhs, &mut scratch);

        for pi in 0..6 {
            let grads = bigru_param(&mut net, pi).grad.data().to_vec();
            for idx in sample_indices(grads.len()) {
                let fd = fd_slope(
                    bigru_param,
                    |m: &BiGru| {
                        let mut ws = BatchWorkspace::new();
                        let mut sc = GemmScratch::new();
                        weighted_loss(&m.forward_batch(&seqs, &mut ws, &mut sc))
                    },
                    &net,
                    pi,
                    idx,
                );
                let a = grads[idx] as f64;
                prop_assert!(
                    fd_close(a, fd),
                    "param {} index {}: analytic {} vs finite-difference {}",
                    pi, idx, a, fd
                );
            }
        }
    }
}

/// An empty minibatch must leave every fused-path gradient untouched —
/// the degenerate end of the mixed-length gradient checks above, cheap
/// enough to run in every build.
#[test]
fn fused_backward_accumulates_nothing_on_empty_batch() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut lstm = BiLstm::new(3, 5, &mut rng);
    let mut gru = BiGru::new(3, 5, &mut rng);
    let mut ws = BatchWorkspace::new();
    let mut scratch = GemmScratch::new();
    lstm.forward_batch(&[], &mut ws, &mut scratch);
    lstm.backward_batch(&mut ws, &[], &mut scratch);
    gru.forward_batch(&[], &mut ws, &mut scratch);
    gru.backward_batch(&mut ws, &[], &mut scratch);
    for pi in 0..6 {
        assert!(bilstm_param(&mut lstm, pi)
            .grad
            .data()
            .iter()
            .all(|&g| g == 0.0));
        assert!(bigru_param(&mut gru, pi)
            .grad
            .data()
            .iter()
            .all(|&g| g == 0.0));
    }
}
