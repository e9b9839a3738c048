//! A baseline-sequential JPEG codec built from scratch for the PuPPIeS
//! reproduction.
//!
//! The paper's perturbation schemes operate on *quantized DCT coefficients*
//! of JPEG images (§II-A, §IV-B), and its storage-overhead experiments
//! (Table II, Figs. 17–18) measure *entropy-coded file sizes*, so the
//! reproduction needs a real codec, not a stand-in:
//!
//! - [`dct`] — exact 8×8 forward/inverse DCT-II
//! - [`quant`] — Annex-K quantization tables with IJG quality scaling
//! - [`zigzag`] — coefficient scan order
//! - [`huffman`] — canonical Huffman coding with both the Annex-K default
//!   tables and *per-image optimized* tables (the mechanism behind
//!   PuPPIeS-C, §IV-B.3)
//! - [`coeff`] — [`CoeffImage`], the quantized-coefficient representation
//!   perturbation operates on
//! - [`grid`] — the process-wide pool every block grid is taken from and
//!   given back to
//! - [`codec`] — JFIF marker framing: encode a [`CoeffImage`] to bytes and
//!   parse it back
//!
//! # Example
//!
//! ```
//! use puppies_image::RgbImage;
//! use puppies_jpeg::{CoeffImage, EncodeOptions};
//!
//! let img = RgbImage::filled(32, 32, puppies_image::Rgb::new(90, 120, 200));
//! let coeffs = CoeffImage::from_rgb(&img, 75);
//! let bytes = coeffs.encode(&EncodeOptions::default())?;
//! let back = CoeffImage::decode(&bytes)?;
//! assert_eq!(back.to_rgb().width(), 32);
//! # Ok::<(), puppies_jpeg::JpegError>(())
//! ```

pub mod codec;
pub mod coeff;
pub mod dct;
pub mod grid;
pub mod huffman;
pub mod quant;
pub mod zigzag;

pub use codec::{EncodeOptions, HuffmanMode};
pub use coeff::{Block, CoeffImage, Component, BLOCK_LEN, BLOCK_SIZE};
pub use quant::QuantTable;

use std::fmt;

/// Maximum legal quantized-coefficient value (inclusive) in baseline JPEG.
///
/// The paper's Lemma III.1 and the perturbation wrap-around all work in the
/// ring `[-1024, 1023]` (mod 2048); these bounds are enforced throughout.
pub const COEFF_MAX: i32 = 1023;
/// Minimum legal quantized-coefficient value (inclusive).
pub const COEFF_MIN: i32 = -1024;
/// Size of the coefficient ring (`COEFF_MAX - COEFF_MIN + 1`).
pub const COEFF_MODULUS: i32 = 2048;
/// Maximum legal AC coefficient (inclusive). Baseline JPEG caps AC
/// magnitude categories at 10, so AC lives in `[-1023, 1023]` while DC may
/// reach `-1024`; see the [`huffman`] module docs for why PuPPIeS-style
/// perturbation must respect the tighter ring.
pub const AC_MAX: i32 = 1023;
/// Minimum legal AC coefficient (inclusive).
pub const AC_MIN: i32 = -1023;
/// Size of the AC coefficient ring (`AC_MAX - AC_MIN + 1`).
pub const AC_MODULUS: i32 = 2047;

/// Errors produced by JPEG encoding and decoding.
#[derive(Debug)]
#[non_exhaustive]
pub enum JpegError {
    /// The bitstream is not a valid baseline JPEG this decoder supports.
    Malformed(String),
    /// A feature of the bitstream (progressive scan, 12-bit precision,
    /// subsampling, arithmetic coding...) is outside the baseline subset
    /// this codec implements.
    Unsupported(String),
    /// A coefficient is outside `[-1024, 1023]` and cannot be entropy coded.
    CoefficientRange {
        /// The offending value.
        value: i32,
    },
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl fmt::Display for JpegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JpegError::Malformed(m) => write!(f, "malformed JPEG stream: {m}"),
            JpegError::Unsupported(m) => write!(f, "unsupported JPEG feature: {m}"),
            JpegError::CoefficientRange { value } => {
                write!(f, "DCT coefficient {value} outside [-1024, 1023]")
            }
            JpegError::Io(e) => write!(f, "jpeg io error: {e}"),
        }
    }
}

impl std::error::Error for JpegError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JpegError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JpegError {
    fn from(e: std::io::Error) -> Self {
        JpegError::Io(e)
    }
}

/// Convenient result alias for JPEG operations.
pub type Result<T> = std::result::Result<T, JpegError>;

/// Encodes an RGB image as a baseline JPEG at the given quality (1..=100).
///
/// Convenience wrapper over [`CoeffImage::from_rgb`] + [`CoeffImage::encode`].
///
/// # Errors
/// Returns an error if entropy coding fails (it cannot for images produced
/// by [`CoeffImage::from_rgb`], but the signature is fallible for parity
/// with perturbed pipelines).
pub fn encode_rgb(img: &puppies_image::RgbImage, quality: u8) -> Result<Vec<u8>> {
    CoeffImage::from_rgb(img, quality).encode(&EncodeOptions::default())
}

/// Decodes a baseline JPEG produced by this crate (or any 4:4:4/grayscale
/// baseline encoder) back to RGB.
///
/// # Errors
/// Returns [`JpegError::Malformed`] or [`JpegError::Unsupported`] for
/// streams outside the supported subset.
pub fn decode_rgb(bytes: &[u8]) -> Result<puppies_image::RgbImage> {
    Ok(CoeffImage::decode(bytes)?.to_rgb())
}
