//! # tesseract-train
//!
//! Training substrate for the Figure-7 reproduction: the AdamW optimizer,
//! a deterministic synthetic stand-in for ImageNet-100, a Vision
//! Transformer in both Tesseract-parallel and serial form, and the one
//! training loop that produces every accuracy curve (the serial curve is
//! that loop on a `[1,1,1]` grid).

pub mod clip;
pub mod data;
pub mod optim;
pub mod trainer;
pub mod vit;

pub use clip::clip_grad_norm;
pub use data::SyntheticVisionDataset;
pub use optim::AdamW;
pub use trainer::{train_serial, train_tesseract, EpochMetrics, TrainReport, TrainSettings};
pub use vit::{distributed_cross_entropy, SerialViT, TesseractViT, ViTConfig};
