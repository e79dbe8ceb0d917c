//! `adapt-nn`: a from-scratch dense neural-network library for the ADAPT
//! reproduction — the substitute for the paper's PyTorch + WandB stack.
//!
//! Provides exactly what the paper's two models need, and nothing more:
//!
//! * [`tensor`] — a row-major `f64` matrix with rayon-parallel products;
//! * [`layers`] — Linear, BatchNorm1d, ReLU with explicit backward passes;
//! * [`mlp`] — the sequential block architecture of paper Fig. 5, in both
//!   the original (BN→FC→ReLU) and quantization-friendly (FC→BN→ReLU)
//!   block orders;
//! * [`loss`] — BCE-with-logits and MSE;
//! * [`optimizer`] — SGD with momentum;
//! * [`mod@train`] — minibatch training with validation early stopping,
//!   observable per-epoch through the `TrainHook` trait (the telemetry
//!   `RunTracker` plugs in here);
//! * [`data`] — datasets, the paper's 80/20/20 splits, standardization;
//! * [`models`] — the tuned background and dEta architectures;
//! * [`threshold`] — per-polar-bin output thresholds;
//! * [`search`] — random hyperparameter search (WandB-sweep stand-in);
//! * [`fold`] — the shared BatchNorm folding / Linear-ReLU fusion used by
//!   both inference compilers;
//! * [`quant`] — INT8 affine quantization, QAT, and the reference integer
//!   kernel;
//! * [`compiled`] — BN-folded, flat-buffer float inference plans with a
//!   reusable scratch arena: the allocation-free hot path the localizer
//!   runs per iteration;
//! * [`quant_plan`] — the fixed-point INT8 counterpart: batched,
//!   zero-alloc, pure integer arithmetic, shared bit-exactly with the
//!   FPGA dataflow model;
//! * [`simd`] — runtime-dispatched AVX2/NEON kernels behind both compiled
//!   plans, with the portable scalar kernels as the source of truth.

pub mod compiled;
pub mod data;
pub mod fold;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod models;
pub mod optimizer;
pub mod quant;
pub mod quant_plan;
pub mod search;
pub mod simd;
pub mod soa;
pub mod tensor;
pub mod threshold;
pub mod train;

pub use compiled::{CompiledMlp, InferenceScratch};
pub use data::{three_way_split, Dataset, Standardizer};
pub use layers::{sigmoid, BatchNorm1d, Linear, Relu};
pub use loss::{accuracy, bce_with_logits, mse};
pub use metrics::{auc, calibration_bins, expected_calibration_error, roc_curve, Confusion};
pub use mlp::{BlockOrder, Layer, Mlp};
pub use models::{background_network, d_eta_network, INPUT_NO_POLAR, INPUT_WITH_POLAR};
pub use optimizer::Sgd;
pub use quant::{
    fold_batchnorm, qat_finetune, QuantParams, QuantScheme, QuantizedLayer, QuantizedMlp,
    WeightBits,
};
pub use quant_plan::{CompiledQuantMlp, QuantScratch, Requant};
pub use search::{random_search, random_search_tracked, Candidate, SearchResult, SearchSpace};
pub use simd::{detected_features, detected_isa, supported_isas, KernelIsa};
pub use soa::FeaturePlanes;
pub use tensor::Matrix;
pub use threshold::{ThresholdTable, N_POLAR_BINS};
pub use train::{
    evaluate, train, train_with_hook, HookAction, NoopHook, Objective, TrainConfig, TrainHook,
    TrainReport,
};
