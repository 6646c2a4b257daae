//! Learning substrate for the EchoImage reproduction.
//!
//! The paper extracts features from acoustic images with a *frozen*
//! pre-trained VGGish network (transfer learning, §V-D) and classifies
//! them with SVM/SVDD (§V-E). This crate implements both stages from
//! scratch:
//!
//! * [`image`] — grayscale images with bilinear resizing (the paper
//!   resizes acoustic images to the CNN input size),
//! * [`cnn`] — a VGG-style convolutional feature extractor whose weights
//!   are **fixed and deterministically seeded**. The paper never trains
//!   its VGGish layers — it only needs a frozen generic image→embedding
//!   map — and fixed random convolutional features are an established
//!   substitute when the pre-trained weights are unavailable (see
//!   DESIGN.md §1),
//! * [`svm`] — a binary soft-margin SVM trained with SMO, plus a
//!   one-vs-one multiclass wrapper (the paper's n-class user classifier),
//! * [`oneclass`] — a ν one-class SVM, the practical equivalent of the
//!   paper's Support Vector Domain Description spoofer gate,
//! * [`kernel`] — linear and RBF kernels,
//! * [`scaler`] — per-feature standardisation.
//!
//! # Example
//!
//! ```
//! use echo_ml::svm::SvmMulticlass;
//! use echo_ml::kernel::Kernel;
//!
//! // Two tiny point clouds.
//! let xs = vec![
//!     vec![0.0, 0.0], vec![0.2, 0.1], vec![0.1, 0.2],
//!     vec![1.0, 1.0], vec![0.9, 1.1], vec![1.1, 0.8],
//! ];
//! let ys = vec![0, 0, 0, 1, 1, 1];
//! let svm = SvmMulticlass::train(&xs, &ys, Kernel::Rbf { gamma: 1.0 }, 10.0);
//! assert_eq!(svm.predict(&[0.05, 0.05]), 0);
//! assert_eq!(svm.predict(&[1.05, 0.95]), 1);
//! ```

pub mod cnn;
pub mod image;
pub mod kernel;
pub mod knn;
pub mod oneclass;
pub mod pca;
pub mod scaler;
pub mod svm;

pub use cnn::{ConvScratch, FeatureExtractor};
pub use image::GrayImage;
pub use kernel::Kernel;
pub use knn::KnnClassifier;
pub use oneclass::OneClassSvm;
pub use pca::Pca;
pub use scaler::StandardScaler;
pub use svm::{SvmBinary, SvmMulticlass};
