//! Packed minibatch layout for the fused-gate recurrent engines.
//!
//! Run one sequence at a time, the recurrent step `U·h` is a mat-vec,
//! which is memory-bound: the `4H×H` weight panel streams from cache
//! once per timestep per sequence. Packing `B` sequences into one
//! batch turns that step into a `4H×H × H×B` GEMM — the panel streams
//! once per *timestep*, amortized over the whole batch — and fuses the
//! `B` input projections into a single `4H×I × I×(B·T)` GEMM per
//! direction.
//!
//! Sequences have unequal lengths, so the layout follows cuDNN-style
//! packed sequences: sort by length descending, then store timestep `t`
//! of every still-active sequence contiguously. Because of the sort,
//! the set of sequences active at step `t` is always a *prefix* of the
//! batch, so each step works on a dense leading block of rows and no
//! masking is needed anywhere in the math.
//!
//! [`BatchWorkspace`] owns the packed layout plus the per-direction
//! projections and backward-pass rows. Every pass re-packs its batch
//! and recomputes the `W·X` projections into the same allocations, so
//! one workspace serves batches of any shape and its buffers stay
//! sized to the largest batch it has seen.

use crate::matrix::TransposedCache;

/// Length-sorted packed layout of a minibatch of sequences.
///
/// For the packing order see the module docs. Row-major storage:
/// timestep `t` occupies rows `offset(t) .. offset(t) + active(t)`,
/// where row `j` within the step belongs to sorted slot `j` (original
/// sequence `order()[j]`).
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedBatch {
    /// `order[j]` = index into the caller's slice of the sequence in
    /// sorted slot `j` (lengths descending, ties in caller order).
    order: Vec<usize>,
    /// Sequence lengths in sorted-slot order (non-increasing).
    lens: Vec<usize>,
    /// `active[t]` = number of sequences with length > `t`.
    active: Vec<usize>,
    /// Prefix sums of `active`: `offsets[t]` = first packed row of step
    /// `t`; `offsets[max_len]` = total packed rows.
    offsets: Vec<usize>,
    /// Feature width of every timestep vector.
    width: usize,
    /// Packed inputs in forward time order, `total_rows x width`.
    x_fwd: Vec<f32>,
    /// Packed inputs with each sequence individually reversed (slot `j`
    /// contributes element `lens[j] - 1 - t` at step `t`), same layout.
    x_bwd: Vec<f32>,
}

impl PackedBatch {
    /// Builds the layout for `seqs`, reusing the previous batch's
    /// allocations. Empty sequences are allowed and simply never
    /// active.
    ///
    /// # Panics
    ///
    /// Panics if any frame's length differs from `width`.
    pub(crate) fn prepare(&mut self, seqs: &[&[Vec<f32>]], width: usize) {
        self.width = width;

        self.order.clear();
        self.order.extend(0..seqs.len());
        // Stable sort keeps equal-length sequences in caller order, so
        // the layout (and therefore training numerics) is deterministic.
        self.order
            .sort_by_key(|&i| std::cmp::Reverse(seqs[i].len()));
        self.lens.clear();
        self.lens.extend(self.order.iter().map(|&i| seqs[i].len()));

        let max_len = self.lens.first().copied().unwrap_or(0);
        self.active.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for t in 0..max_len {
            // lens is non-increasing, so the active set is the prefix of
            // slots whose length still exceeds t.
            let nb = self.lens.partition_point(|&l| l > t);
            self.active.push(nb);
            self.offsets.push(self.offsets[t] + nb);
        }

        let total = self.total_rows();
        self.x_fwd.clear();
        self.x_fwd.reserve_exact(total * width);
        self.x_bwd.clear();
        self.x_bwd.reserve_exact(total * width);
        for t in 0..max_len {
            for (j, &len) in self.lens[..self.active[t]].iter().enumerate() {
                let seq = seqs[self.order[j]];
                let fwd = &seq[t];
                let bwd = &seq[len - 1 - t];
                assert_eq!(fwd.len(), width, "input dimension mismatch");
                assert_eq!(bwd.len(), width, "input dimension mismatch");
                self.x_fwd.extend_from_slice(fwd);
                self.x_bwd.extend_from_slice(bwd);
            }
        }
    }

    /// Length of the longest sequence (the number of timesteps).
    pub(crate) fn max_len(&self) -> usize {
        self.active.len()
    }

    /// Total packed rows, i.e. the sum of all sequence lengths.
    pub(crate) fn total_rows(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Number of sequences still running at step `t`.
    pub(crate) fn active(&self, t: usize) -> usize {
        self.active[t]
    }

    /// Number of sequences running at step 0, the widest step (0 for an
    /// empty batch).
    pub(crate) fn max_active(&self) -> usize {
        self.active.first().copied().unwrap_or(0)
    }

    /// First packed row of step `t` (valid for `t <= max_len`).
    pub(crate) fn offset(&self, t: usize) -> usize {
        self.offsets[t]
    }

    /// Sorted-slot → caller-index mapping.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Sequence lengths in sorted-slot order.
    pub(crate) fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Packed inputs for one direction.
    pub(crate) fn x(&self, reversed: bool) -> &[f32] {
        if reversed {
            &self.x_bwd
        } else {
            &self.x_fwd
        }
    }

    /// Feature width the layout was packed with.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Packed row of every frame in caller order: sequence by sequence,
    /// each in time order.
    pub(crate) fn caller_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let mut slot = vec![0; self.order.len()];
        for (b, &i) in self.order.iter().enumerate() {
            slot[i] = b;
        }
        slot.into_iter()
            .flat_map(move |b| (0..self.lens[b]).map(move |t| self.offsets[t] + b))
    }

    /// The flat packed output `flat` (`total_rows x hl`) re-nested per
    /// sequence in caller order: `out[i][t]` is `seqs[i]`'s row at step
    /// `t`.
    pub(crate) fn nested(
        &self,
        flat: &[f32],
        seqs: &[&[Vec<f32>]],
        hl: usize,
    ) -> Vec<Vec<Vec<f32>>> {
        let mut rows = self.caller_rows();
        seqs.iter()
            .map(|s| {
                rows.by_ref()
                    .take(s.len())
                    .map(|r| flat[r * hl..(r + 1) * hl].to_vec())
                    .collect()
            })
            .collect()
    }

    /// Stores one direction's hidden rows of step `t` (`bh`, sorted-slot
    /// order) into the flat packed output (`total_rows x hl`). The
    /// forward direction writes the step's block with one copy; the
    /// reversed direction, which runs second, adds slot `b`'s row at its
    /// natural time position `lens[b] - 1 - t`.
    pub(crate) fn store_step(
        &self,
        t: usize,
        reversed: bool,
        bh: &[f32],
        flat: &mut [f32],
        hl: usize,
    ) {
        let nb = self.active(t);
        if !reversed {
            let off = self.offset(t);
            flat[off * hl..(off + nb) * hl].copy_from_slice(&bh[..nb * hl]);
            return;
        }
        for b in 0..nb {
            // Slot `b` is active at `pos` too (`pos < lens[b]`), so it
            // owns packed row `offset(pos) + b`.
            let row = self.offset(self.lens[b] - 1 - t) + b;
            let dst = &mut flat[row * hl..(row + 1) * hl];
            for (o, &v) in dst.iter_mut().zip(&bh[b * hl..(b + 1) * hl]) {
                *o += v;
            }
        }
    }
}

/// Empties `buf` and refills it with `len` zeros, reusing its
/// allocation. A buffer that must grow grows to exactly `len`, so a
/// reused buffer holds no more than the largest size asked of it.
pub(crate) fn reset(buf: &mut Vec<f32>, len: usize) {
    buf.clear();
    buf.reserve_exact(len);
    buf.resize(len, 0.0);
}

/// Per-direction working set: the time-batched `W·X` projection plus
/// the forward-pass rows the backward pass replays. Only a recording
/// (training) forward fills the replay rows; inference leaves them as
/// they were.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirCache {
    /// Time-batched input projections, `total_rows x gate_rows`. The
    /// LSTM engines store `W·x + b` (bias folded in at fill time so
    /// each step starts from a plain row copy); the GRU engine stores
    /// bare `W·x` because its cell adds the bias in a different
    /// association order.
    pub(crate) proj: Vec<f32>,
    /// Hidden state entering each step, `total_rows x hidden`.
    pub(crate) h_prev: Vec<f32>,
    /// Cell state entering each step (LSTM), `total_rows x hidden`.
    pub(crate) c_prev: Vec<f32>,
    /// Activated gate values per step, `total_rows x gate_rows`.
    pub(crate) gates: Vec<f32>,
    /// Auxiliary per-step values (`tanh(c)` for LSTM, `U·h` candidate
    /// rows for GRU), `total_rows x hidden`.
    pub(crate) aux: Vec<f32>,
    /// Transposed recurrent weights `Uᵀ` for the fused backward's
    /// hidden-gradient GEMM, keyed on the `U` parameter's version
    /// ticket: rebuilt after each optimizer step, never stale.
    pub(crate) ut: TransposedCache,
}

/// Reusable workspace for batched forward/backward passes.
///
/// Create once and thread through `forward_batch` / `predict_batch`
/// calls: every pass re-packs its batch and recomputes the projections
/// into the same buffers, which grow to the largest batch seen and are
/// then reused without allocating. `train_step` trains through one
/// such workspace.
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    pub(crate) pack: PackedBatch,
    pub(crate) fwd: DirCache,
    pub(crate) bwd: DirCache,
}

impl BatchWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// Bytes of capacity held by the per-frame buffers: the packed
    /// inputs, projections and replay rows.
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        let mut bufs = vec![&self.pack.x_fwd, &self.pack.x_bwd];
        for d in [&self.fwd, &self.bwd] {
            bufs.extend([&d.proj, &d.h_prev, &d.c_prev, &d.gates, &d.aux]);
        }
        bufs.iter().map(|b| b.capacity() * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, base: f32) -> Vec<Vec<f32>> {
        (0..len)
            .map(|t| vec![base + t as f32, base - t as f32])
            .collect()
    }

    #[test]
    fn packing_sorts_by_length_and_counts_active_prefixes() {
        let a = seq(2, 10.0);
        let b = seq(4, 20.0);
        let c = seq(3, 30.0);
        let refs: Vec<&[Vec<f32>]> = vec![&a, &b, &c];
        let mut p = PackedBatch::default();
        p.prepare(&refs, 2);
        assert_eq!(p.order(), &[1, 2, 0]);
        assert_eq!(p.lens(), &[4, 3, 2]);
        assert_eq!(p.max_len(), 4);
        assert_eq!(p.total_rows(), 9);
        assert_eq!(
            (0..4).map(|t| p.active(t)).collect::<Vec<_>>(),
            vec![3, 3, 2, 1]
        );
        assert_eq!(
            (0..=4).map(|t| p.offset(t)).collect::<Vec<_>>(),
            vec![0, 3, 6, 8, 9]
        );
        // Step 2 holds rows of the two sequences of length > 2 in slot
        // order: b[2] then c[2].
        let w = p.width();
        let rows = &p.x(false)[p.offset(2) * w..p.offset(3) * w];
        assert_eq!(rows, &[22.0, 18.0, 32.0, 28.0]);
    }

    #[test]
    fn reversed_packing_reverses_each_sequence_individually() {
        let a = seq(3, 10.0);
        let b = seq(1, 20.0);
        let refs: Vec<&[Vec<f32>]> = vec![&a, &b];
        let mut p = PackedBatch::default();
        p.prepare(&refs, 2);
        let w = p.width();
        // Step 0 reversed: a's last frame, then b's only frame.
        let rows = &p.x(true)[..p.offset(1) * w];
        assert_eq!(rows, &[12.0, 8.0, 20.0, 20.0]);
        // Step 2 reversed: only a is active, contributing its first frame.
        let rows = &p.x(true)[p.offset(2) * w..p.offset(3) * w];
        assert_eq!(rows, &[10.0, 10.0]);
    }

    #[test]
    fn stable_sort_preserves_caller_order_on_ties() {
        let a = seq(3, 1.0);
        let b = seq(3, 2.0);
        let c = seq(3, 3.0);
        let refs: Vec<&[Vec<f32>]> = vec![&a, &b, &c];
        let mut p = PackedBatch::default();
        p.prepare(&refs, 2);
        assert_eq!(p.order(), &[0, 1, 2]);
    }

    #[test]
    fn empty_and_zero_length_batches_are_well_formed() {
        let mut p = PackedBatch::default();
        let refs: Vec<&[Vec<f32>]> = vec![];
        p.prepare(&refs, 3);
        assert!(p.lens().is_empty());
        assert_eq!(p.max_len(), 0);
        assert_eq!(p.total_rows(), 0);

        let empty: Vec<Vec<f32>> = vec![];
        let one = seq(1, 5.0);
        let refs: Vec<&[Vec<f32>]> = vec![&empty, &one];
        p.prepare(&refs, 2);
        assert_eq!(p.order(), &[1, 0]);
        assert_eq!(p.lens(), &[1, 0]);
        assert_eq!(p.total_rows(), 1);
        assert_eq!(p.active(0), 1);
    }
}
