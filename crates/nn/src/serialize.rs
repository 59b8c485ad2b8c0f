//! Binary serialization of trained models.
//!
//! A trained BRNN phoneme detector takes minutes to fit; deployments
//! train once and ship the weights. The format is a simple
//! little-endian container: magic, version, layer dimensions, then raw
//! `f32` parameter data in a fixed order.
//!
//! # Version 1 layout (pinned)
//!
//! `"TBNN"` · `u32` version (=1) · `u32` matrix count (=8) · eight
//! matrices, each `u32 rows` · `u32 cols` · row-major `f32` data, in the
//! order: forward LSTM `W (4H x D)`, `U (4H x H)`, `b (4H x 1)`; backward
//! LSTM `W`, `U`, `b`; head `W (C x H)`, `b (C x 1)`. The LSTM matrices
//! have always been stored *fused* (the four `[i, f, g, o]` gate blocks
//! stacked along rows), so checkpoints written before the fused-gate
//! compute engine load byte-identically — the engine changed how the
//! matrices are multiplied, not how they are laid out.

use crate::matrix::Matrix;
use crate::model::BrnnClassifier;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"TBNN";
const VERSION: u32 = 1;

/// Serialization errors.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a model file or has an unsupported version.
    Format(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<io::Error> for SerializeError {
    fn from(e: io::Error) -> Self {
        SerializeError::Io(e)
    }
}

fn write_matrix<W: Write>(w: &mut W, m: &Matrix) -> io::Result<()> {
    w.write_all(&(m.rows() as u32).to_le_bytes())?;
    w.write_all(&(m.cols() as u32).to_le_bytes())?;
    for &v in m.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_matrix<R: Read>(r: &mut R) -> Result<Matrix, SerializeError> {
    let rows = read_u32(r)? as usize;
    let cols = read_u32(r)? as usize;
    if rows.saturating_mul(cols) > 64 << 20 {
        return Err(SerializeError::Format(format!(
            "matrix {rows}x{cols} implausibly large"
        )));
    }
    let mut m = Matrix::zeros(rows, cols);
    let mut buf = [0u8; 4];
    for i in 0..rows * cols {
        r.read_exact(&mut buf)?;
        m.data_mut()[i] = f32::from_le_bytes(buf);
    }
    Ok(m)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, SerializeError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

impl BrnnClassifier {
    /// Serializes the model's weights (not the optimizer state) to a
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), SerializeError> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        let params = self.parameter_matrices();
        w.write_all(&(params.len() as u32).to_le_bytes())?;
        for m in params {
            write_matrix(&mut w, m)?;
        }
        Ok(())
    }

    /// Deserializes a model previously written by [`BrnnClassifier::save`].
    ///
    /// # Errors
    ///
    /// Returns a format error for wrong magic/version, mismatched
    /// shapes, a head with no classes or any non-finite parameter (a
    /// model that loads can always predict), and propagates reader
    /// errors.
    pub fn load<R: Read>(mut r: R) -> Result<Self, SerializeError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(SerializeError::Format("bad magic".into()));
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(SerializeError::Format(format!(
                "unsupported version {version}"
            )));
        }
        let count = read_u32(&mut r)? as usize;
        if count != 8 {
            return Err(SerializeError::Format(format!(
                "expected 8 parameter matrices, found {count}"
            )));
        }
        let mats: Vec<Matrix> = (0..count)
            .map(|_| read_matrix(&mut r))
            .collect::<Result<_, _>>()?;
        if let Some(i) = mats
            .iter()
            .position(|m| m.data().iter().any(|v| !v.is_finite()))
        {
            return Err(SerializeError::Format(format!(
                "parameter matrix {i} holds a non-finite value"
            )));
        }
        BrnnClassifier::from_parameter_matrices(mats).map_err(SerializeError::Format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = BrnnClassifier::new(4, 6, 2, &mut rng);
        let xs: Vec<Vec<f32>> = (0..7)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f32 * 0.13).sin()).collect())
            .collect();
        let before = model.predict_proba(&xs);
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();
        let back = BrnnClassifier::load(bytes.as_slice()).unwrap();
        let after = back.predict_proba(&xs);
        for (a, b) in before.iter().zip(&after) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    /// Golden byte-level pin of the V1 container: a checkpoint assembled
    /// by hand, exactly as the pre-fused-engine code wrote it, must load
    /// and classify. Guards against accidental format drift while the
    /// compute engine underneath evolves.
    #[test]
    fn v1_byte_layout_is_pinned() {
        let (d, h, c) = (2usize, 1usize, 2usize);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"TBNN");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        let mut val = 0.0f32;
        let mut push_matrix = |bytes: &mut Vec<u8>, rows: usize, cols: usize| {
            bytes.extend_from_slice(&(rows as u32).to_le_bytes());
            bytes.extend_from_slice(&(cols as u32).to_le_bytes());
            for _ in 0..rows * cols {
                val += 0.01;
                bytes.extend_from_slice(&(val.sin() * 0.5).to_le_bytes());
            }
        };
        for _ in 0..2 {
            push_matrix(&mut bytes, 4 * h, d); // W
            push_matrix(&mut bytes, 4 * h, h); // U
            push_matrix(&mut bytes, 4 * h, 1); // b
        }
        push_matrix(&mut bytes, c, h); // head W
        push_matrix(&mut bytes, c, 1); // head b
        let model = BrnnClassifier::load(bytes.as_slice()).unwrap();
        assert_eq!(model.n_classes(), c);
        let preds = model.predict(&[vec![0.5, -0.5], vec![-0.1, 0.9]]);
        assert_eq!(preds.len(), 2);
        // Saving it back reproduces the exact byte stream.
        let mut out = Vec::new();
        model.save(&mut out).unwrap();
        assert_eq!(out, bytes);
    }

    #[test]
    fn rejects_garbage() {
        assert!(BrnnClassifier::load(&b"not a model"[..]).is_err());
    }

    /// A V1 stream holding `mats`, written the way `save` writes them.
    fn v1_bytes(mats: &[Matrix]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(mats.len() as u32).to_le_bytes());
        for m in mats {
            write_matrix(&mut bytes, m).unwrap();
        }
        bytes
    }

    /// A fresh model's parameters with entry 0 of matrix `index` set to
    /// `value`, as a V1 stream.
    fn poisoned(index: usize, value: f32) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(4);
        let model = BrnnClassifier::new(3, 4, 2, &mut rng);
        let mut mats: Vec<Matrix> = model.parameter_matrices().into_iter().cloned().collect();
        mats[index].data_mut()[0] = value;
        v1_bytes(&mats)
    }

    fn assert_format_error(bytes: &[u8]) {
        match BrnnClassifier::load(bytes) {
            Err(SerializeError::Format(_)) => {}
            Err(e) => panic!("expected a format error, got {e}"),
            Ok(_) => panic!("expected a format error, the model loaded"),
        }
    }

    #[test]
    fn rejects_nan_head_weight() {
        assert_format_error(&poisoned(6, f32::NAN));
    }

    #[test]
    fn rejects_nan_lstm_weight() {
        assert_format_error(&poisoned(0, f32::NAN));
    }

    #[test]
    fn rejects_infinite_head_bias() {
        assert_format_error(&poisoned(7, f32::INFINITY));
    }

    #[test]
    fn rejects_head_without_classes() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = BrnnClassifier::new(3, 4, 2, &mut rng);
        let mut mats: Vec<Matrix> = model.parameter_matrices().into_iter().cloned().collect();
        mats[6] = Matrix::zeros(0, 4);
        mats[7] = Matrix::zeros(0, 1);
        assert_format_error(&v1_bytes(&mats));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        assert!(BrnnClassifier::load(bytes.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = BrnnClassifier::new(3, 4, 2, &mut rng);
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(BrnnClassifier::load(bytes.as_slice()).is_err());
    }
}
