//! Pixel-domain image substrate for the PuPPIeS reproduction.
//!
//! This crate provides everything the rest of the workspace needs to work
//! with raster images without any external imaging dependency:
//!
//! - [`RgbImage`] / [`GrayImage`] pixel buffers and the [`Plane`] float plane
//! - color conversion between RGB and the JPEG full-range YCbCr space
//!   ([`color`])
//! - geometry primitives ([`Rect`], [`Point`]) with the rectangle
//!   decomposition used by ROI handling
//! - drawing primitives and a built-in 5×7 bitmap font ([`draw`], [`font`])
//! - resampling and channel splitting ([`resample`])
//! - convolution and common kernels ([`convolve`])
//! - integral images ([`integral`])
//! - quality metrics such as PSNR ([`metrics`])
//! - PPM/PGM file IO ([`io`])
//!
//! # Example
//!
//! ```
//! use puppies_image::{GrayImage, Rect};
//!
//! let mut img = GrayImage::new(64, 64);
//! img.fill_rect(Rect::new(8, 8, 16, 16), 200);
//! assert_eq!(img.get(10, 10), 200);
//! assert_eq!(img.get(0, 0), 0);
//! ```

pub mod buffer;
pub mod color;
pub mod convolve;
pub mod draw;
pub mod font;
pub mod geometry;
pub mod integral;
pub mod io;
pub mod metrics;
pub mod resample;
pub mod simd;

pub use buffer::{GrayImage, Plane, RgbImage};
pub use color::{Rgb, YCbCr};
pub use geometry::{Point, Rect};

use std::fmt;

/// Errors produced by image operations in this crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum ImageError {
    /// The requested dimensions are zero or would overflow.
    InvalidDimensions {
        /// Requested width.
        width: u32,
        /// Requested height.
        height: u32,
    },
    /// A rectangle falls (partially) outside the image bounds.
    OutOfBounds {
        /// The offending rectangle.
        rect: Rect,
        /// Image width.
        width: u32,
        /// Image height.
        height: u32,
    },
    /// A file could not be parsed as PPM/PGM.
    Format(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::InvalidDimensions { width, height } => {
                write!(f, "invalid image dimensions {width}x{height}")
            }
            ImageError::OutOfBounds {
                rect,
                width,
                height,
            } => write!(f, "rectangle {rect:?} outside {width}x{height} image"),
            ImageError::Format(msg) => write!(f, "image format error: {msg}"),
            ImageError::Io(e) => write!(f, "image io error: {e}"),
        }
    }
}

impl std::error::Error for ImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ImageError {
    fn from(e: std::io::Error) -> Self {
        ImageError::Io(e)
    }
}

/// Convenient result alias for image operations.
pub type Result<T> = std::result::Result<T, ImageError>;
