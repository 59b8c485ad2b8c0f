//! A minimal, dependency-free neural-network substrate.
//!
//! The paper's barrier-effect-sensitive phoneme detector is a
//! bidirectional recurrent network with LSTM units (64 per direction), a
//! dense output layer with two neurons, softmax cross-entropy loss and an
//! ADAM optimizer (Sec. V-B). This crate implements exactly those pieces
//! from scratch:
//!
//! * [`matrix::Matrix`] — a dense row-major `f32` matrix with one
//!   blocked fused-FMA GEMM kernel family
//!   ([`matrix::Matrix::matmul_nt_to`] and the batched gradient
//!   product [`matrix::Matrix::add_tn_product`]) shared by every layer,
//! * [`matrix::GemmScratch`] — reusable working buffers so the hot
//!   inference/training paths allocate nothing per timestep,
//! * [`batch::BatchWorkspace`] — the packed minibatch layout and its
//!   projection and backward-pass buffers, re-packed on every pass and
//!   reused across batches of any shape (training runs through one),
//! * [`act`] — branch-free rational `tanh`/`sigmoid` kernels that the
//!   gate loops auto-vectorize through (scalar libm transcendentals
//!   cost as much as the matrix products at this model size),
//! * [`param::Param`] — a trainable tensor with gradient and ADAM state,
//! * [`lstm::Lstm`] — a single-direction LSTM with full backpropagation
//!   through time,
//! * [`lstm::BiLstm`] — the paper's bidirectional wrapper (forward and
//!   backward hidden states are *summed*, matching the paper's
//!   `h_t = h→_t + h←_t`),
//! * [`dense::Dense`] — an affine output layer,
//! * [`loss`] — softmax cross-entropy,
//! * [`gru::BiGru`] — a bidirectional GRU for the paper's LSTM-versus-GRU
//!   design check,
//! * [`model::BrnnClassifier`] — the assembled per-frame binary
//!   classifier with its one training loop, generic over the
//!   [`model::RecurrentCell`] it wraps (BiLSTM by default).
//!
//! All classifier inference runs on one engine: the packed BiLSTM pass,
//! then one flat head GEMM ([`model::BrnnClassifier::predict_batch`]).
//! Scoring one recording is a batch of one; the kernels are bitwise
//! batch-size invariant, so a recording gets the same labels alone or
//! inside any pack. Training has one engine too: `train_step` runs the
//! packed forward and the packed backward, for both cell types. Each
//! cell has one forward step loop, which training and inference share
//! (only training records backward-pass state), so inference
//! reproduces the training forward's hidden states bitwise.
//!
//! Gradients are verified against finite differences in the test suite.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use thrubarrier_nn::model::{BrnnClassifier, TrainConfig};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut model = BrnnClassifier::new(4, 8, 2, &mut rng);
//! // One toy sequence: class 1 iff feature 0 is high.
//! let xs = vec![vec![1.0, 0.0, 0.0, 0.0]; 5];
//! let ys = vec![1usize; 5];
//! let cfg = TrainConfig::default();
//! for _ in 0..30 {
//!     model.train_step(&[(&xs, &ys)], &cfg);
//! }
//! let probs = model.predict_proba(&xs);
//! assert!(probs[2][1] > 0.5);
//! ```

#![warn(missing_docs)]

pub mod act;
pub mod batch;
pub mod dense;
pub mod gru;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod model;
pub mod param;
pub mod serialize;

pub use batch::BatchWorkspace;
pub use matrix::{GemmScratch, Matrix, TransposedCache};
pub use model::BrnnClassifier;
