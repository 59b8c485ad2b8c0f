//! Affine (fully-connected) layer.

use crate::matrix::{Matrix, TransposedCache};
use crate::param::Param;
use rand::Rng;

/// A fully-connected layer `y = W x + b` applied independently per frame.
///
/// The paper attaches a dense layer with 2 neurons to the BRNN for binary
/// effective-phoneme detection (Sec. V-B).
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, `out x in`.
    pub w: Param,
    /// Bias, `out x 1`.
    pub b: Param,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights and zero
    /// bias.
    pub fn new<R: Rng + ?Sized>(input_size: usize, output_size: usize, rng: &mut R) -> Self {
        Dense {
            w: Param::new(Matrix::xavier(output_size, input_size, rng)),
            b: Param::new(Matrix::zeros(output_size, 1)),
        }
    }

    /// Reconstructs a dense layer from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns a message when the bias shape does not match.
    pub fn from_weights(w: Matrix, b: Matrix) -> Result<Self, String> {
        if b.rows() != w.rows() || b.cols() != 1 {
            return Err(format!(
                "bias {}x{} does not match weights {}x{}",
                b.rows(),
                b.cols(),
                w.rows(),
                w.cols()
            ));
        }
        Ok(Dense {
            w: Param::new(w),
            b: Param::new(b),
        })
    }

    /// Output dimension.
    pub fn output_size(&self) -> usize {
        self.w.value.rows()
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.w.value.cols()
    }

    /// Applies the layer to `n` flat row-major frames in one GEMM
    /// ([`Matrix::matmul_nt_into`]) plus one bias add per element.
    /// Each output row depends only on its own frame, so a frame gets
    /// the same logits in any batch.
    pub(crate) fn forward_flat(&self, x: &[f32], n: usize, out: &mut Vec<f32>) {
        self.w.value.matmul_nt_into(x, n, out);
        let bias = self.b.value.data();
        for row in out.chunks_exact_mut(self.output_size().max(1)) {
            for (v, &bv) in row.iter_mut().zip(bias) {
                *v += bv;
            }
        }
    }

    /// Flat-batch backward: `x` holds the `n` cached input rows,
    /// `dys` the `n` output-gradient rows. The weight gradient
    /// accumulates as one `dW += dYᵀ·X` through the register-tiled
    /// [`Matrix::add_tn_product`] (within fma rounding of a
    /// per-frame rank-1 update) plus a bias column sum; input
    /// gradients land in `dx` (resized to `n x input_size`) as one
    /// `dX = Wᵀ·dY` GEMM over a cached transpose keyed by the weight's
    /// version ticket (rebuilt only after an optimizer step). The
    /// head's `Wᵀ` is a tall narrow matrix, so the GEMM takes the
    /// column-streaming narrow path, whose per-element plain fold over
    /// the outputs makes input gradients bitwise identical to the
    /// per-frame `dx = Wᵀ·dy` loop.
    pub(crate) fn backward_flat_fused(
        &mut self,
        x: &[f32],
        dys: &[f32],
        n: usize,
        dx: &mut Vec<f32>,
        wt: &mut TransposedCache,
    ) {
        self.w.grad.add_tn_product(dys, x, n);
        let bg = self.b.grad.data_mut();
        for row in dys.chunks_exact(self.w.value.rows().max(1)) {
            for (slot, &d) in bg.iter_mut().zip(row) {
                *slot += d;
            }
        }
        dx.clear();
        dx.resize(n * self.input_size(), 0.0);
        wt.get(&self.w.value, self.w.version())
            .matmul_nt_to(dys, n, dx, false);
    }

    /// The layer's trainable parameters.
    pub fn params_mut(&mut self) -> [&mut Param; 2] {
        [&mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-frame reference backward with plain loops: `dW += dy ⊗ x`
    /// and `db += dy` per frame in frame order, and `dx = Wᵀ·dy` as a
    /// left-to-right fold over the outputs. Returns `(dW, db, dx)`.
    fn per_frame_backward(
        layer: &Dense,
        x: &[f32],
        dys: &[f32],
        n: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (out, inp) = (layer.output_size(), layer.input_size());
        let w = layer.w.value.data();
        let mut dw = vec![0.0f32; out * inp];
        let mut db = vec![0.0f32; out];
        let mut dx = vec![0.0f32; n * inp];
        for t in 0..n {
            let (xt, dy) = (&x[t * inp..(t + 1) * inp], &dys[t * out..(t + 1) * out]);
            for r in 0..out {
                for c in 0..inp {
                    dw[r * inp + c] += dy[r] * xt[c];
                }
                db[r] += dy[r];
            }
            for c in 0..inp {
                let mut s = 0.0f32;
                for r in 0..out {
                    s += w[r * inp + c] * dy[r];
                }
                dx[t * inp + c] = s;
            }
        }
        (dw, db, dx)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dense::new(4, 2, &mut rng);
        let mut ys = Vec::new();
        d.forward_flat(&[0.0; 12], 3, &mut ys);
        assert_eq!(ys.len(), 3 * 2);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(3, 2, &mut rng);
        let xs = [0.3, -0.7, 0.5, 1.0, 0.0, -1.0];
        let loss = |l: &Dense| -> f32 {
            let mut ys = Vec::new();
            l.forward_flat(&xs, 2, &mut ys);
            ys.iter().sum()
        };
        let mut dx = Vec::new();
        layer.backward_flat_fused(&xs, &[1.0f32; 4], 2, &mut dx, &mut TransposedCache::new());
        let eps = 1e-3f32;
        for k in 0..6 {
            let analytic = layer.w.grad.data()[k];
            let mut l2 = layer.clone();
            l2.w.value.data_mut()[k] += eps;
            let up = loss(&l2);
            l2.w.value.data_mut()[k] -= 2.0 * eps;
            let down = loss(&l2);
            let numeric = (up - down) / (2.0 * eps);
            assert!((analytic - numeric).abs() < 1e-2, "w[{k}]");
        }
        // Input gradient = column sums of W for unit output gradient.
        for (j, &g) in dx.iter().enumerate().take(3) {
            let expected = layer.w.value.get(0, j) + layer.w.value.get(1, j);
            assert!((g - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn flat_paths_match_per_frame_loops() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Dense::new(3, 2, &mut rng);
        let flat = [0.3, -0.7, 0.5, 1.0, 0.0, -1.0, 0.2, 0.9, 0.4];
        let mut out = Vec::new();
        layer.forward_flat(&flat, 3, &mut out);
        // Three input columns take the narrow GEMM path: a plain fold
        // over columns, then the bias.
        for t in 0..3 {
            for r in 0..2 {
                let mut s = 0.0f32;
                for c in 0..3 {
                    s += layer.w.value.get(r, c) * flat[t * 3 + c];
                }
                let want = s + layer.b.value.get(r, 0);
                assert_eq!(out[t * 2 + r].to_bits(), want.to_bits(), "t {t} r {r}");
            }
        }

        let dys_flat = [1.0f32, -0.5, 0.25, 2.0, -1.5, 0.75];
        let (dw, db, dx_ref) = per_frame_backward(&layer, &flat, &dys_flat, 3);
        let mut batched = layer.clone();
        let mut dx = Vec::new();
        let mut wt = TransposedCache::new();
        batched.backward_flat_fused(&flat, &dys_flat, 3, &mut dx, &mut wt);
        for (a, b) in batched.w.grad.data().iter().zip(&dw) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(batched.b.grad.data(), db.as_slice());
        assert_eq!(dx, dx_ref);
    }

    #[test]
    fn fused_flat_backward_matches_per_frame_on_head_shape() {
        // Head-shaped layer (few outputs, wide input) over enough
        // frames to exercise the tiled accumulate: weight gradients
        // match the per-frame loops within fma rounding, bias gradients
        // and input gradients bitwise (the narrow Wᵀ GEMM is the same
        // plain fold over the outputs).
        let mut rng = StdRng::seed_from_u64(9);
        let layer = Dense::new(128, 2, &mut rng);
        let n = 17;
        let x: Vec<f32> = (0..n * 128).map(|i| (i as f32 * 0.13).sin()).collect();
        let dys: Vec<f32> = (0..n * 2).map(|i| (i as f32 * 0.71).cos()).collect();
        let (dw, db, dx_plain) = per_frame_backward(&layer, &x, &dys, n);

        let mut fused = layer.clone();
        let mut wt = TransposedCache::new();
        let mut dx_fused = Vec::new();
        fused.backward_flat_fused(&x, &dys, n, &mut dx_fused, &mut wt);

        for (i, (a, b)) in fused.w.grad.data().iter().zip(&dw).enumerate() {
            assert!(
                (a - b).abs() < 1e-5 * b.abs().max(1.0),
                "w grad {i}: {a} vs {b}"
            );
        }
        assert_eq!(fused.b.grad.data(), db.as_slice());
        assert_eq!(dx_fused.len(), dx_plain.len());
        for (i, (a, b)) in dx_fused.iter().zip(&dx_plain).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "dx {i}");
        }
        // Second call with unchanged weights reuses the cached
        // transpose (same version ticket) and stays correct.
        let mut dx_again = Vec::new();
        fused.backward_flat_fused(&x, &dys, n, &mut dx_again, &mut wt);
        assert_eq!(dx_again, dx_fused);
    }

    #[test]
    fn bias_gradient_accumulates_over_frames() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(2, 2, &mut rng);
        let dys: Vec<f32> = [1.0, 2.0].repeat(4);
        let mut dx = Vec::new();
        layer.backward_flat_fused(&[0.0; 8], &dys, 4, &mut dx, &mut TransposedCache::new());
        assert!((layer.b.grad.get(0, 0) - 4.0).abs() < 1e-6);
        assert!((layer.b.grad.get(1, 0) - 8.0).abs() < 1e-6);
    }
}
