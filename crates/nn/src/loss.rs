//! Softmax and cross-entropy loss.

/// Numerically stable softmax of a logit vector.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Softmax cross-entropy for one frame.
///
/// Returns `(loss, dlogits)` where `dlogits = softmax(logits) - onehot`.
///
/// # Panics
///
/// Panics if `target >= logits.len()`.
pub fn softmax_cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    assert!(target < logits.len(), "target class out of range");
    let probs = softmax(logits);
    let loss = -(probs[target].max(1e-12)).ln();
    let mut dlogits = probs;
    dlogits[target] -= 1.0;
    (loss, dlogits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0]);
        let b = softmax(&[101.0, 102.0]);
        assert!((a[0] - b[0]).abs() < 1e-6);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let p = softmax(&[1000.0, -1000.0]);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let (loss, _) = softmax_cross_entropy(&[10.0, -10.0], 0);
        assert!(loss < 1e-3);
        let (loss_wrong, _) = softmax_cross_entropy(&[10.0, -10.0], 1);
        assert!(loss_wrong > 5.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = vec![0.3f32, -0.6, 1.1];
        let (_, dl) = softmax_cross_entropy(&logits, 1);
        let eps = 1e-3f32;
        for k in 0..3 {
            let mut up = logits.clone();
            up[k] += eps;
            let mut down = logits.clone();
            down[k] -= eps;
            let numeric =
                (softmax_cross_entropy(&up, 1).0 - softmax_cross_entropy(&down, 1).0) / (2.0 * eps);
            assert!((dl[k] - numeric).abs() < 1e-3, "logit {k}");
        }
    }
}
