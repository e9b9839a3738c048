//! Computer-vision substrate for the PuPPIeS reproduction.
//!
//! §IV-A of the paper builds ROI recommendation on face detection, OCR and
//! generic object detection; §VI-B attacks perturbed images with SIFT
//! features, Canny edges, Haar face detection, eigenface recognition and
//! PCA reconstruction. This crate implements all of those from scratch:
//!
//! - [`edges`] — Canny edge detection and the edge-match metric (Fig. 21)
//! - [`sift`] — a scale-space keypoint detector + 128-d descriptor +
//!   ratio-test matcher in the spirit of SIFT (Fig. 20)
//! - [`face`] — a Haar-relation sliding-window face detector over integral
//!   images (§VI-B.3 and the ROI recommender)
//! - [`text`] — a stroke-density text-block detector standing in for OCR
//! - [`objectness`] — a contrast/edge-density "what is an object?" scorer
//!   (Alexe et al.-inspired) for generic ROI proposals
//! - [`pca`] — symmetric eigendecomposition and PCA utilities
//! - [`eigenfaces`] — the Turk–Pentland recognizer used by the
//!   face-recognition attack (Fig. 22)
//! - [`retrieval`] — a content-based image retrieval index standing in for
//!   Google Image Search (Fig. 2)
//! - [`detect`] — the merged ROI detection + disjoint-split recommendation
//!   pipeline (Fig. 12)
//! - [`signature`] — 64-bit perceptual DCT signatures (pHash) for the
//!   PSP's identification-without-decryption layer (ROADMAP Open item 4)

pub mod detect;
pub mod edges;
pub mod eigenfaces;
pub mod face;
pub mod objectness;
pub mod pca;
pub mod retrieval;
pub mod sift;
pub mod signature;
pub mod text;

pub use detect::{recommend_rois, Detection, DetectorKind, RoiRecommendation};
pub use edges::{canny, edge_match_ratio, CannyParams};
pub use eigenfaces::EigenfaceGallery;
pub use face::{detect_faces, FaceDetectorParams};
pub use retrieval::RetrievalIndex;
pub use sift::{extract_sift, match_descriptors, SiftKeypoint, SiftParams};
