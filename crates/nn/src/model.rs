//! The assembled BRNN classifier: BiLSTM → dense → softmax.
//!
//! This is the architecture of the paper's barrier-effect-sensitive
//! phoneme detector (Sec. V-B): a bidirectional LSTM (64 units per
//! direction in the paper), a dense layer with one neuron per class, and
//! softmax cross-entropy trained with ADAM.
//!
//! The classifier is generic over its recurrent layer so the paper's
//! LSTM-versus-GRU design check trains both cells through the same
//! loop; `BrnnClassifier` without a parameter is the paper's BiLSTM
//! detector, and only that one is serialized.
//!
//! Training and inference run the cell's one packed forward into the
//! scratch's flat hidden-state buffer. `train_step` asks it to record
//! the backward caches and gathers the buffer into caller order for the
//! head; `predict_batch` records nothing and runs the head straight over
//! the packed rows.

use crate::batch::BatchWorkspace;
use crate::dense::Dense;
use crate::gru::BiGru;
use crate::loss;
use crate::lstm::{BiLstm, Lstm};
use crate::matrix::{GemmScratch, Matrix, TransposedCache};
use crate::param::{AdamConfig, Param};
use rand::Rng;

/// Training hyper-parameters for [`BrnnClassifier::train_step`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainConfig {
    /// ADAM optimizer settings.
    pub adam: AdamConfig,
}

/// A bidirectional recurrent layer [`BrnnClassifier`] can train and
/// run: [`BiLstm`] (the paper's detector) or [`BiGru`]. Sealed — the
/// packed-engine entry points it stands for are internal to this crate.
pub trait RecurrentCell: sealed::Engine {}

impl RecurrentCell for BiLstm {}
impl RecurrentCell for BiGru {}

mod sealed {
    use super::*;

    /// The packed-engine surface the classifier drives.
    pub trait Engine: Clone + std::fmt::Debug {
        fn input_size(&self) -> usize;
        fn hidden_size(&self) -> usize;
        fn params_mut(&mut self) -> Vec<&mut Param>;
        /// The packed forward into `scratch.flat`; `record` keeps the caches
        /// `backward_batch` replays.
        fn forward_packed(
            &self,
            seqs: &[&[Vec<f32>]],
            ws: &mut BatchWorkspace,
            scratch: &mut GemmScratch,
            record: bool,
        );
        fn backward_batch(
            &mut self,
            ws: &mut BatchWorkspace,
            dhs: &[&[f32]],
            scratch: &mut GemmScratch,
        );
    }

    macro_rules! engine {
        ($cell:ty) => {
            impl Engine for $cell {
                fn input_size(&self) -> usize {
                    self.fwd.input_size()
                }
                fn hidden_size(&self) -> usize {
                    <$cell>::hidden_size(self)
                }
                fn params_mut(&mut self) -> Vec<&mut Param> {
                    <$cell>::params_mut(self)
                }
                fn forward_packed(
                    &self,
                    seqs: &[&[Vec<f32>]],
                    ws: &mut BatchWorkspace,
                    scratch: &mut GemmScratch,
                    record: bool,
                ) {
                    <$cell>::forward_packed(self, seqs, ws, scratch, record)
                }
                fn backward_batch(
                    &mut self,
                    ws: &mut BatchWorkspace,
                    dhs: &[&[f32]],
                    scratch: &mut GemmScratch,
                ) {
                    <$cell>::backward_batch(self, ws, dhs, scratch)
                }
            }
        };
    }

    engine!(BiLstm);
    engine!(BiGru);
}

/// Per-frame sequence classifier: a bidirectional recurrent layer
/// (BiLSTM unless stated otherwise) followed by a dense softmax layer.
#[derive(Debug, Clone)]
pub struct BrnnClassifier<C = BiLstm> {
    rnn: C,
    head: Dense,
    step: u64,
    /// The one training workspace: every `train_step` re-packs its
    /// minibatch into it, so its buffers stay sized to the largest
    /// minibatch trained on until
    /// [`BrnnClassifier::release_training_buffers`] frees them.
    train_ws: BatchWorkspace,
    scratch: GemmScratch,
    /// Cached `Wᵀ` of the head for the fused input-gradient GEMM,
    /// keyed by the head weight's version ticket.
    head_wt: TransposedCache,
}

impl BrnnClassifier<BiLstm> {
    /// Creates the paper's detector: `input_size` features per frame,
    /// `hidden_size` LSTM units per direction and `n_classes` outputs.
    pub fn new<R: Rng + ?Sized>(
        input_size: usize,
        hidden_size: usize,
        n_classes: usize,
        rng: &mut R,
    ) -> Self {
        let rnn = BiLstm::new(input_size, hidden_size, rng);
        BrnnClassifier::with_cell(rnn, n_classes, rng)
    }

    /// The eight parameter matrices in serialization order:
    /// forward LSTM (W, U, b), backward LSTM (W, U, b), head (W, b).
    pub(crate) fn parameter_matrices(&self) -> Vec<&Matrix> {
        vec![
            &self.rnn.fwd.w.value,
            &self.rnn.fwd.u.value,
            &self.rnn.fwd.b.value,
            &self.rnn.bwd.w.value,
            &self.rnn.bwd.u.value,
            &self.rnn.bwd.b.value,
            &self.head.w.value,
            &self.head.b.value,
        ]
    }

    /// Rebuilds a classifier from matrices in serialization order.
    pub(crate) fn from_parameter_matrices(mats: Vec<Matrix>) -> Result<Self, String> {
        let [fw, fu, fb, bw, bu, bb, hw, hb]: [Matrix; 8] = mats
            .try_into()
            .map_err(|_| "expected exactly 8 matrices".to_string())?;
        let fwd = Lstm::from_weights(fw, fu, fb)?;
        let bwd = Lstm::from_weights(bw, bu, bb)?;
        if fwd.hidden_size() != bwd.hidden_size() || fwd.input_size() != bwd.input_size() {
            return Err("forward/backward direction shapes disagree".into());
        }
        let head = Dense::from_weights(hw, hb)?;
        if head.input_size() != fwd.hidden_size() {
            return Err("head input does not match hidden size".into());
        }
        if head.output_size() == 0 {
            return Err("head has no classes".into());
        }
        Ok(BrnnClassifier::from_parts(BiLstm { fwd, bwd }, head))
    }
}

impl<C: RecurrentCell> BrnnClassifier<C> {
    /// Creates a classifier over an already-initialised recurrent layer
    /// `rnn`, with a fresh Xavier-initialised head of `n_classes`
    /// outputs drawn from `rng`.
    pub fn with_cell<R: Rng + ?Sized>(rnn: C, n_classes: usize, rng: &mut R) -> Self {
        let head = Dense::new(rnn.hidden_size(), n_classes, rng);
        BrnnClassifier::from_parts(rnn, head)
    }

    fn from_parts(rnn: C, head: Dense) -> Self {
        BrnnClassifier {
            rnn,
            head,
            step: 0,
            train_ws: BatchWorkspace::new(),
            scratch: GemmScratch::new(),
            head_wt: TransposedCache::new(),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.head.output_size()
    }

    /// Number of optimizer steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Frees the buffers only `train_step` uses: the training
    /// workspace's packed inputs, projections and replay caches, the
    /// GEMM scratch and the head's transpose cache. Inference never
    /// reads them, so a trained model calls this once training ends.
    /// A later `train_step` grows them again; every step re-packs its
    /// minibatch and rebuilds the transposes it needs, so its result
    /// does not depend on whether they were released.
    pub fn release_training_buffers(&mut self) {
        self.train_ws = BatchWorkspace::new();
        self.scratch = GemmScratch::new();
        self.head_wt = TransposedCache::new();
    }

    /// Per-frame logits for a sequence: the packed inference engine of
    /// [`BrnnClassifier::predict_batch`] run as a batch of one.
    pub fn logits(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut logits = Vec::new();
        self.logits_flat(
            &[xs],
            &mut BatchWorkspace::new(),
            &mut GemmScratch::new(),
            &mut logits,
        );
        // One sequence packs its frames in time order, so row `t` of the
        // flat output is frame `t`.
        logits
            .chunks_exact(self.n_classes())
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Per-frame class probabilities.
    pub fn predict_proba(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.logits(xs).iter().map(|l| loss::softmax(l)).collect()
    }

    /// Per-frame argmax class predictions: [`BrnnClassifier::predict_batch`]
    /// on a batch of one.
    pub fn predict(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        self.predict_batch(&[xs], &mut BatchWorkspace::new(), &mut GemmScratch::new())
            .pop()
            .unwrap_or_default()
    }

    /// One optimizer step over a mini-batch of `(sequence, labels)`
    /// pairs, run through the packed-batch GEMM engine: all sequences
    /// advance together so the recurrent products carry the batch
    /// dimension, the head runs as one flat GEMM over every frame, and
    /// BPTT is batched the same way. Returns the mean loss over the
    /// batch.
    ///
    /// Every step re-packs its minibatch into the classifier's one
    /// training workspace, reusing its allocations (or growing them
    /// anew after [`BrnnClassifier::release_training_buffers`]).
    ///
    /// # Panics
    ///
    /// Panics if any sequence and its labels differ in length.
    pub fn train_step(&mut self, batch: &[(&[Vec<f32>], &[usize])], cfg: &TrainConfig) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let _span = thrubarrier_obs::span!("nn.train_step");
        for (xs, ys) in batch {
            assert_eq!(xs.len(), ys.len(), "sequence/label length mismatch");
        }
        for p in self.rnn.params_mut() {
            p.zero_grad();
        }
        for p in self.head.params_mut() {
            p.zero_grad();
        }
        let scale = 1.0 / batch.len() as f32;
        let seqs: Vec<&[Vec<f32>]> = batch.iter().map(|(xs, _)| *xs).collect();
        let total = {
            let BrnnClassifier {
                rnn,
                head,
                train_ws: ws,
                scratch,
                head_wt,
                ..
            } = self;
            rnn.forward_packed(&seqs, ws, scratch, true);
            let hl = rnn.hidden_size();
            let nc = head.output_size();
            // The head trains on caller-order rows, so its gradient sums
            // keep the order of the per-sequence data.
            let n_frames = ws.pack.total_rows();
            let mut hs_flat = Vec::with_capacity(n_frames * hl);
            for r in ws.pack.caller_rows() {
                hs_flat.extend_from_slice(&scratch.flat[r * hl..(r + 1) * hl]);
            }
            let mut logits = Vec::new();
            head.forward_flat(&hs_flat, n_frames, &mut logits);
            // Per-frame loss: each frame's gradient is divided by its
            // sequence length, then scaled by 1/B; per-sequence mean
            // losses are summed in batch order.
            let mut total = 0.0f32;
            let mut dl_flat = vec![0.0f32; n_frames * nc];
            let mut row = 0usize;
            for (xs, ys) in batch {
                if xs.is_empty() {
                    continue;
                }
                let n = xs.len() as f32;
                let mut seq_total = 0.0f32;
                for &y in ys.iter() {
                    let (l, dl) = loss::softmax_cross_entropy(&logits[row * nc..(row + 1) * nc], y);
                    seq_total += l;
                    for (slot, d) in dl_flat[row * nc..(row + 1) * nc].iter_mut().zip(dl) {
                        *slot = (d / n) * scale;
                    }
                    row += 1;
                }
                total += seq_total / n;
            }
            let mut dh_flat = Vec::new();
            {
                let _bspan = thrubarrier_obs::span!("nn.train.backward");
                head.backward_flat_fused(&hs_flat, &dl_flat, n_frames, &mut dh_flat, head_wt);
                let mut dhs: Vec<&[f32]> = Vec::with_capacity(batch.len());
                let mut off = 0usize;
                for (xs, _) in batch {
                    dhs.push(&dh_flat[off * hl..(off + xs.len()) * hl]);
                    off += xs.len();
                }
                rnn.backward_batch(ws, &dhs, scratch);
            }
            total
        };
        self.step += 1;
        let step = self.step;
        for p in self.rnn.params_mut() {
            p.adam_step(&cfg.adam, step);
        }
        for p in self.head.params_mut() {
            p.adam_step(&cfg.adam, step);
        }
        total * scale
    }

    /// Per-frame argmax predictions for a whole batch of sequences
    /// through the packed-batch inference engine: the recurrent steps
    /// run as fused-FMA cross-utterance GEMMs into the scratch's flat
    /// packed hidden-state buffer, the head runs one flat GEMM straight
    /// over that buffer (no per-frame vectors are materialized
    /// anywhere), and the argmax labels are scattered back to caller
    /// order. This is the classifier's only inference engine; the fused
    /// kernels are bitwise batch-size invariant, so a sequence gets the
    /// same labels here as from [`BrnnClassifier::predict`] alone.
    ///
    /// Non-finite features (e.g. MFCCs of audio loud enough to overflow
    /// `f32`) do not panic and give finite logits, because the gate
    /// activations clamp NaN and infinite pre-activations; should a
    /// logit still be NaN, its frame gets class 0.
    pub fn predict_batch(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
    ) -> Vec<Vec<usize>> {
        let mut logits = Vec::new();
        self.logits_flat(seqs, ws, scratch, &mut logits);
        let nc = self.n_classes();
        let pack = &ws.pack;
        let mut out: Vec<Vec<usize>> = seqs.iter().map(|s| Vec::with_capacity(s.len())).collect();
        for (b, (&i, &len)) in pack.order().iter().zip(pack.lens()).enumerate() {
            out[i].extend((0..len).map(|t| {
                let row = pack.offset(t) + b;
                argmax(&logits[row * nc..(row + 1) * nc])
            }));
        }
        out
    }

    /// The inference engine: packs `seqs` into `ws`, runs the recurrent
    /// layer's forward into the flat packed hidden-state buffer without
    /// recording backward-pass state, and the head as one flat GEMM over
    /// it. `logits` receives `total_rows x n_classes` values in
    /// packed-row order (see [`crate::batch`]).
    fn logits_flat(
        &self,
        seqs: &[&[Vec<f32>]],
        ws: &mut BatchWorkspace,
        scratch: &mut GemmScratch,
        logits: &mut Vec<f32>,
    ) {
        let _span = thrubarrier_obs::span!("nn.predict_batch");
        self.rnn.forward_packed(seqs, ws, scratch, false);
        self.head
            .forward_flat(&scratch.flat, ws.pack.total_rows(), logits);
    }

    /// Frame-level accuracy over a labelled set of sequences, each
    /// scored as a batch of one through one reused workspace.
    pub fn accuracy(&self, data: &[(Vec<Vec<f32>>, Vec<usize>)]) -> f32 {
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        for (xs, ys) in data {
            let preds = self.predict_batch(&[xs], &mut ws, &mut scratch);
            correct += preds[0].iter().zip(ys).filter(|(p, y)| p == y).count();
            total += ys.len();
        }
        if total == 0 {
            0.0
        } else {
            correct as f32 / total as f32
        }
    }
}

/// Index of the largest value, the last one on ties; 0 for a row that
/// holds a NaN, which has no largest value.
fn argmax(row: &[f32]) -> usize {
    if row.iter().any(|v| v.is_nan()) {
        return 0;
    }
    let mut best = 0;
    for (c, &v) in row.iter().enumerate() {
        if v >= row[best] {
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Sequences where the label of each frame is decided by feature 0 of
    /// that frame — learnable without temporal context.
    fn framewise_dataset(n: usize, t_len: usize, seed: u64) -> Vec<(Vec<Vec<f32>>, Vec<usize>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut xs = Vec::with_capacity(t_len);
                let mut ys = Vec::with_capacity(t_len);
                for _ in 0..t_len {
                    let cls = rng.gen_bool(0.5) as usize;
                    let base = if cls == 1 { 0.8 } else { -0.8 };
                    xs.push(vec![
                        base + rng.gen_range(-0.2..0.2),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ]);
                    ys.push(cls);
                }
                (xs, ys)
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(100);
        let mut model = BrnnClassifier::new(3, 8, 2, &mut rng);
        let data = framewise_dataset(16, 10, 101);
        let cfg = TrainConfig {
            adam: crate::param::AdamConfig {
                lr: 0.01,
                ..Default::default()
            },
        };
        let batch: Vec<(&[Vec<f32>], &[usize])> = data
            .iter()
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        let first = model.train_step(&batch, &cfg);
        let mut last = first;
        for _ in 0..80 {
            last = model.train_step(&batch, &cfg);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        let test = framewise_dataset(8, 10, 202);
        assert!(model.accuracy(&test) > 0.9, "acc {}", model.accuracy(&test));
    }

    #[test]
    fn learns_temporal_pattern_requiring_context() {
        // Label of every frame = whether the *sequence* contains a spike
        // anywhere; only a bidirectional/recurrent model can label early
        // frames correctly.
        let mut rng = StdRng::seed_from_u64(7);
        let mut data: Vec<(Vec<Vec<f32>>, Vec<usize>)> = Vec::new();
        for i in 0..24 {
            let spike = i % 2 == 0;
            let t_len = 8;
            let mut xs = vec![vec![0.0f32, 0.1]; t_len];
            if spike {
                xs[t_len - 2][0] = 1.0; // late spike
            }
            let ys = vec![spike as usize; t_len];
            data.push((xs, ys));
        }
        let mut model = BrnnClassifier::new(2, 8, 2, &mut rng);
        let cfg = TrainConfig {
            adam: crate::param::AdamConfig {
                lr: 0.02,
                ..Default::default()
            },
        };
        let batch: Vec<(&[Vec<f32>], &[usize])> = data
            .iter()
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        for _ in 0..150 {
            model.train_step(&batch, &cfg);
        }
        // Accuracy must be high *including the early frames*, which
        // requires propagating the late spike backwards.
        assert!(
            model.accuracy(&data) > 0.95,
            "acc {}",
            model.accuracy(&data)
        );
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = BrnnClassifier::new(2, 4, 2, &mut rng);
        assert_eq!(model.train_step(&[], &TrainConfig::default()), 0.0);
        assert_eq!(model.steps_taken(), 0);
    }

    #[test]
    fn predictions_have_sequence_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = BrnnClassifier::new(2, 4, 3, &mut rng);
        let xs = vec![vec![0.0, 0.0]; 5];
        assert_eq!(model.predict(&xs).len(), 5);
        let probs = model.predict_proba(&xs);
        assert!(probs
            .iter()
            .all(|p| (p.iter().sum::<f32>() - 1.0).abs() < 1e-5));
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = BrnnClassifier::new(2, 4, 2, &mut rng);
        assert_eq!(model.accuracy(&[]), 0.0);
    }

    #[test]
    fn train_step_loss_matches_per_sequence_reference() {
        // The loss `train_step` reports is computed before its backward
        // pass runs, so it must equal, bit for bit, the loss rebuilt from
        // each sequence's training forward as a batch of one (GEMM rows
        // do not depend on the rest of the pack), the head
        // and per-frame softmax cross-entropy. Later steps see weights
        // updated through the fused gradients: the same batch presented
        // in reverse order reorders their accumulations, and the two
        // loss trajectories must agree within the documented fma-rounding
        // tolerance of 1e-4 relative per step.
        let mut rng = StdRng::seed_from_u64(301);
        let base = BrnnClassifier::new(3, 32, 2, &mut rng);
        let data = framewise_dataset(6, 7, 302);
        let batch: Vec<(&[Vec<f32>], &[usize])> = data
            .iter()
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        let reversed: Vec<(&[Vec<f32>], &[usize])> = batch.iter().rev().copied().collect();
        let cfg = TrainConfig::default();

        let mut reference = 0.0f32;
        for (xs, ys) in &batch {
            let mut ws = BatchWorkspace::new();
            let hs = base
                .rnn
                .forward_batch(&[xs], &mut ws, &mut GemmScratch::new());
            let mut logits = Vec::new();
            base.head
                .forward_flat(&hs[0].concat(), xs.len(), &mut logits);
            let mut seq_total = 0.0f32;
            for (frame, &y) in logits.chunks_exact(2).zip(ys.iter()) {
                seq_total += loss::softmax_cross_entropy(frame, y).0;
            }
            reference += seq_total / xs.len() as f32;
        }
        reference *= 1.0 / batch.len() as f32;

        let mut fwd_model = base.clone();
        let mut rev_model = base.clone();
        let first = fwd_model.train_step(&batch, &cfg);
        assert_eq!(first.to_bits(), reference.to_bits());
        rev_model.train_step(&reversed, &cfg);
        for step in 0..8 {
            let lf = fwd_model.train_step(&batch, &cfg);
            let lr = rev_model.train_step(&reversed, &cfg);
            assert!(
                (lf - lr).abs() < 1e-4 * lf.abs().max(1.0),
                "step {step}: batch order {lf} vs reversed {lr}"
            );
        }
        // Both runs must actually be learning, not just agreeing.
        let late = fwd_model.train_step(&batch, &cfg);
        assert!(late < first, "loss {first} -> {late}");
    }

    #[test]
    fn batched_training_handles_mixed_lengths_and_reaches_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(310);
        let mut model = BrnnClassifier::new(3, 8, 2, &mut rng);
        let mut data = framewise_dataset(8, 10, 311);
        data.extend(framewise_dataset(4, 4, 312));
        data.extend(framewise_dataset(4, 7, 313));
        let cfg = TrainConfig {
            adam: crate::param::AdamConfig {
                lr: 0.01,
                ..Default::default()
            },
        };
        let batch: Vec<(&[Vec<f32>], &[usize])> = data
            .iter()
            .map(|(x, y)| (x.as_slice(), y.as_slice()))
            .collect();
        let first = model.train_step(&batch, &cfg);
        let mut last = first;
        for _ in 0..80 {
            last = model.train_step(&batch, &cfg);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        let test = framewise_dataset(8, 10, 404);
        assert!(model.accuracy(&test) > 0.9, "acc {}", model.accuracy(&test));
    }

    #[test]
    fn predict_batch_matches_per_sequence_predict() {
        // Single-recording inference (`logits`, `predict`) is the packed
        // engine on a batch of one. The fused kernels are batch-size
        // invariant, so every sequence's per-frame logits must equal its
        // rows inside a wide mixed-length pack bit for bit — which pins
        // single-recording and batched masks to the same labels.
        let mut rng = StdRng::seed_from_u64(320);
        let model = BrnnClassifier::new(3, 32, 2, &mut rng);
        let mut data = framewise_dataset(3, 9, 321);
        data.extend(framewise_dataset(2, 4, 322));
        for (i, len) in [1usize, 12, 7, 3, 12, 5]
            .into_iter()
            .cycle()
            .take(36)
            .enumerate()
        {
            data.extend(framewise_dataset(1, len, 323 + i as u64));
        }
        let seqs: Vec<&[Vec<f32>]> = data.iter().map(|(x, _)| x.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut scratch = GemmScratch::new();
        let batched = model.predict_batch(&seqs, &mut ws, &mut scratch);
        let mut packed = Vec::new();
        model.logits_flat(&seqs, &mut ws, &mut scratch, &mut packed);
        let nc = model.n_classes();
        let pack = &ws.pack;
        for (b, &i) in pack.order().iter().enumerate() {
            let alone = model.logits(seqs[i]);
            assert_eq!(alone.len(), pack.lens()[b], "seq {i}");
            for (t, frame) in alone.iter().enumerate() {
                let row = pack.offset(t) + b;
                let in_pack = &packed[row * nc..(row + 1) * nc];
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(frame), bits(in_pack), "seq {i} frame {t}");
            }
            assert_eq!(batched[i], model.predict(seqs[i]), "seq {i}");
        }
    }

    #[test]
    fn inference_records_no_backward_state() {
        // `predict_batch` runs the training step loop without recording:
        // on a fresh workspace the replay caches stay empty, and the
        // hidden states it leaves in `scratch.flat` are the recording pass's
        // bits, for both cells.
        fn check<C: RecurrentCell>(model: &BrnnClassifier<C>, seqs: &[&[Vec<f32>]]) {
            let mut scratch = GemmScratch::new();
            let mut ws = BatchWorkspace::new();
            model.predict_batch(seqs, &mut ws, &mut scratch);
            for dir in [&ws.fwd, &ws.bwd] {
                assert!(dir.gates.is_empty() && dir.h_prev.is_empty());
                assert!(dir.c_prev.is_empty() && dir.aux.is_empty());
            }
            let inferred = std::mem::take(&mut scratch.flat);
            let mut train_ws = BatchWorkspace::new();
            model
                .rnn
                .forward_packed(seqs, &mut train_ws, &mut scratch, true);
            assert!(!train_ws.fwd.gates.is_empty() && !train_ws.bwd.h_prev.is_empty());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&inferred), bits(&scratch.flat));
        }
        let mut data = framewise_dataset(3, 9, 340);
        data.extend(framewise_dataset(2, 4, 341));
        let seqs: Vec<&[Vec<f32>]> = data.iter().map(|(x, _)| x.as_slice()).collect();
        let mut rng = StdRng::seed_from_u64(342);
        check(&BrnnClassifier::new(3, 33, 2, &mut rng), &seqs);
        let gru = BiGru::new(3, 33, &mut rng);
        check(&BrnnClassifier::with_cell(gru, 2, &mut rng), &seqs);
    }

    #[test]
    fn predict_batch_survives_non_finite_features() {
        // Audio loud enough to overflow f32 yields NaN or infinite MFCC
        // rows; scoring them must label every frame, not panic, and a
        // finite sequence packed beside them keeps its own labels.
        let mut rng = StdRng::seed_from_u64(350);
        let model = BrnnClassifier::new(3, 33, 2, &mut rng);
        let clean = framewise_dataset(1, 6, 351).remove(0).0;
        let mut nan = clean.clone();
        nan[2][0] = f32::NAN;
        let inf = vec![vec![f32::INFINITY, f32::NEG_INFINITY, 1.0]; 4];
        let seqs: Vec<&[Vec<f32>]> = vec![&nan, &clean, &inf];
        let mut ws = BatchWorkspace::new();
        let labels = model.predict_batch(&seqs, &mut ws, &mut GemmScratch::new());
        assert_eq!(labels[0].len(), nan.len());
        assert_eq!(labels[1], model.predict(&clean));
        assert_eq!(labels[2].len(), inf.len());
        assert_eq!(model.predict(&nan), labels[0]);
        assert_eq!(argmax(&[f32::NAN, 1.0]), 0);
        assert_eq!(argmax(&[1.0, f32::NAN, 2.0]), 0);
        assert_eq!(argmax(&[0.5, 0.5]), 1, "ties go to the last index");
    }

    #[test]
    fn non_finite_features_give_finite_logits_at_every_width() {
        // NaN and infinite features reach the gates as NaN or infinite
        // pre-activations. Every activation body clamps them alike, so
        // the logits stay finite whether a unit's lane runs in the
        // eight-wide body (8 units) or in the scalar remainder (9, 33).
        let seq = vec![
            vec![f32::NAN, 0.5, -0.5],
            vec![f32::INFINITY, f32::NEG_INFINITY, 1.0],
            vec![0.2, f32::NAN, f32::NEG_INFINITY],
            vec![0.1, -0.3, 0.7],
        ];
        let mut rng = StdRng::seed_from_u64(370);
        for hidden in [8, 9, 33] {
            let model = BrnnClassifier::new(3, hidden, 2, &mut rng);
            let logits = model.logits(&seq);
            assert!(
                logits.iter().flatten().all(|v| v.is_finite()),
                "{hidden} units: {logits:?}"
            );
            let seqs: Vec<&[Vec<f32>]> = vec![&seq, &seq[1..3]];
            let labels =
                model.predict_batch(&seqs, &mut BatchWorkspace::new(), &mut GemmScratch::new());
            assert_eq!(labels[0], model.predict(&seq), "{hidden} units");
            assert_eq!(labels[1].len(), 2);
        }
    }

    #[test]
    fn one_workspace_serves_every_batch_shape_bitwise() {
        // A workspace and scratch reused across long -> short -> long
        // batches must leave no stale row behind: hidden states and
        // every parameter gradient equal a fresh workspace's bit for
        // bit, for both cells.
        fn check<C: RecurrentCell>(cell: &C, batches: &[Vec<&[Vec<f32>]>]) {
            let hl = cell.hidden_size();
            let run = |seqs: &[&[Vec<f32>]], ws: &mut BatchWorkspace, scratch: &mut GemmScratch| {
                let mut rnn = cell.clone();
                for p in rnn.params_mut() {
                    p.zero_grad();
                }
                rnn.forward_packed(seqs, ws, scratch, true);
                let mut bits: Vec<u32> = scratch.flat.iter().map(|v| v.to_bits()).collect();
                let dh: Vec<Vec<f32>> = seqs
                    .iter()
                    .map(|s| (0..s.len() * hl).map(|j| (0.37 * j as f32).sin()).collect())
                    .collect();
                let dhs: Vec<&[f32]> = dh.iter().map(Vec::as_slice).collect();
                rnn.backward_batch(ws, &dhs, scratch);
                for p in rnn.params_mut() {
                    bits.extend(p.grad.data().iter().map(|g| g.to_bits()));
                }
                bits
            };
            let mut ws = BatchWorkspace::new();
            let mut scratch = GemmScratch::new();
            for (k, seqs) in batches.iter().enumerate() {
                let fresh = run(seqs, &mut BatchWorkspace::new(), &mut GemmScratch::new());
                assert_eq!(run(seqs, &mut ws, &mut scratch), fresh, "batch {k}");
            }
        }
        let long_a = framewise_dataset(3, 12, 360);
        let short = framewise_dataset(2, 3, 361);
        let long_b = framewise_dataset(4, 11, 362);
        fn refs(d: &[(Vec<Vec<f32>>, Vec<usize>)]) -> Vec<&[Vec<f32>]> {
            d.iter().map(|(x, _)| x.as_slice()).collect()
        }
        let mut mixed = refs(&long_b);
        mixed.push(&short[0].0[..1]);
        let batches = vec![refs(&long_a), refs(&short), mixed, refs(&long_a)];
        let mut rng = StdRng::seed_from_u64(363);
        check(&BiLstm::new(3, 33, &mut rng), &batches);
        check(&BiGru::new(3, 33, &mut rng), &batches);
    }

    /// Trains a copy of `base` for three steps on mixed-length batches
    /// of `data`, then returns it.
    fn trained<C: RecurrentCell>(
        base: &BrnnClassifier<C>,
        data: &[(Vec<Vec<f32>>, Vec<usize>)],
    ) -> BrnnClassifier<C> {
        let mut model = base.clone();
        for k in 0..3 {
            let batch: Vec<(&[Vec<f32>], &[usize])> = data[k..]
                .iter()
                .map(|(x, y)| (x.as_slice(), y.as_slice()))
                .collect();
            model.train_step(&batch, &TrainConfig::default());
        }
        model
    }

    #[test]
    fn released_model_holds_no_training_buffers() {
        let mut data = framewise_dataset(3, 9, 380);
        data.extend(framewise_dataset(3, 5, 381));
        let mut rng = StdRng::seed_from_u64(382);
        let mut model = trained(&BrnnClassifier::new(3, 33, 2, &mut rng), &data);
        assert!(model.train_ws.retained_bytes() > 0 && model.scratch.retained_bytes() > 0);
        let before = model.predict(&data[0].0);
        model.release_training_buffers();
        assert_eq!(model.train_ws.retained_bytes(), 0);
        assert_eq!(model.scratch.retained_bytes(), 0);
        assert_eq!(model.predict(&data[0].0), before);
    }

    #[test]
    fn training_after_release_is_bitwise_unchanged() {
        // Every step re-packs its minibatch, so a model whose buffers
        // were released and regrown trains to the same bits as one that
        // kept them, for both cells.
        fn check<C: RecurrentCell>(base: &BrnnClassifier<C>, data: &[(Vec<Vec<f32>>, Vec<usize>)]) {
            let mut kept = trained(base, data);
            let mut released = kept.clone();
            released.release_training_buffers();
            let batch: Vec<(&[Vec<f32>], &[usize])> = data
                .iter()
                .map(|(x, y)| (x.as_slice(), y.as_slice()))
                .collect();
            for step in 0..2 {
                let (a, b) = (
                    kept.train_step(&batch, &TrainConfig::default()),
                    released.train_step(&batch, &TrainConfig::default()),
                );
                assert_eq!(a.to_bits(), b.to_bits(), "loss at step {step}");
            }
            let bits = |m: &mut BrnnClassifier<C>| {
                let mut out: Vec<u32> = Vec::new();
                for p in m.rnn.params_mut().into_iter().chain(m.head.params_mut()) {
                    out.extend(p.value.data().iter().map(|v| v.to_bits()));
                }
                out
            };
            assert_eq!(bits(&mut kept), bits(&mut released));
        }
        let mut data = framewise_dataset(3, 9, 390);
        data.extend(framewise_dataset(3, 5, 391));
        let mut rng = StdRng::seed_from_u64(392);
        check(&BrnnClassifier::new(3, 33, 2, &mut rng), &data);
        let gru = BiGru::new(3, 33, &mut rng);
        check(&BrnnClassifier::with_cell(gru, 2, &mut rng), &data);
    }

    #[test]
    fn training_workspace_is_sized_by_the_largest_batch() {
        // `train_step` re-packs every minibatch into one workspace.
        // After 67 distinct batches its per-frame buffers must hold no
        // more than training on the largest of them alone, which
        // dominates every other batch in sequence count, length and
        // frames.
        let mut rng = StdRng::seed_from_u64(330);
        let base = BrnnClassifier::new(2, 4, 2, &mut rng);
        let largest = 40;
        type Batch = Vec<(Vec<Vec<f32>>, Vec<usize>)>;
        let batches: Vec<Batch> = (0..67)
            .map(|i| {
                let (n, len) = if i == largest {
                    (4, 8)
                } else {
                    (1 + i % 3, 1 + i % 6)
                };
                (0..n)
                    .map(|k| (vec![vec![i as f32, k as f32]; len], vec![i % 2; len]))
                    .collect()
            })
            .collect();
        let step = |model: &mut BrnnClassifier, b: &Batch| {
            let batch: Vec<(&[Vec<f32>], &[usize])> = b
                .iter()
                .map(|(x, y)| (x.as_slice(), y.as_slice()))
                .collect();
            model.train_step(&batch, &TrainConfig::default());
        };
        let mut model = base.clone();
        for b in &batches {
            step(&mut model, b);
        }
        let mut alone = base.clone();
        step(&mut alone, &batches[largest]);
        let (held, needed) = (
            model.train_ws.retained_bytes(),
            alone.train_ws.retained_bytes(),
        );
        assert!(needed > 0);
        assert!(
            held <= needed,
            "retained {held} B, largest batch needs {needed} B"
        );
    }
}
