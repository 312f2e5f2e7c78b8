//! 8-bit grayscale images.
//!
//! The paper's workload: 512×512 pixels, 8 bits each, stored row-major
//! in DDR and streamed 8 pixels per 64-bit beat.

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Image {
    /// The paper's image edge length.
    pub const PAPER_DIM: usize = 512;

    /// A black image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0);
        Image {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Wrap raw row-major pixels.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        Image {
            width,
            height,
            pixels,
        }
    }

    /// A deterministic pseudo-random image (keyed xorshift) — the
    /// standard workload of tests and benches.
    pub fn noise(width: usize, height: usize, seed: u64) -> Self {
        let mut state = (seed << 1) ^ 0x9E37_79B9_7F4A_7C15;
        let pixels = (0..width * height)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        Image {
            width,
            height,
            pixels,
        }
    }

    /// A horizontal gradient (good for eyeballing filter output).
    pub fn gradient(width: usize, height: usize) -> Self {
        let pixels = (0..height)
            .flat_map(|_| (0..width).map(|c| (c * 255 / (width - 1).max(1)) as u8))
            .collect();
        Image {
            width,
            height,
            pixels,
        }
    }

    /// A checkerboard with `cell`-pixel squares (strong edges for
    /// Sobel).
    pub fn checkerboard(width: usize, height: usize, cell: usize) -> Self {
        assert!(cell > 0);
        let pixels = (0..height)
            .flat_map(|r| {
                (0..width).map(move |c| {
                    if (r / cell + c / cell).is_multiple_of(2) {
                        0u8
                    } else {
                        255u8
                    }
                })
            })
            .collect();
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major pixel bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// Pixel at (row, col).
    pub fn get(&self, row: usize, col: usize) -> u8 {
        self.pixels[row * self.width + col]
    }

    /// Set pixel at (row, col).
    pub fn set(&mut self, row: usize, col: usize, v: u8) {
        self.pixels[row * self.width + col] = v;
    }

    /// Serialize as a binary PGM (P5) — for the examples' output.
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.pixels);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        img.set(2, 3, 77);
        assert_eq!(img.get(2, 3), 77);
        assert_eq!(img.as_bytes().len(), 12);
    }

    #[test]
    fn noise_is_deterministic() {
        let a = Image::noise(16, 16, 42);
        let b = Image::noise(16, 16, 42);
        let c = Image::noise(16, 16, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn checkerboard_pattern() {
        let img = Image::checkerboard(8, 8, 2);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(0, 2), 255);
        assert_eq!(img.get(2, 0), 255);
        assert_eq!(img.get(2, 2), 0);
    }

    #[test]
    fn pgm_header() {
        let img = Image::new(5, 7);
        let pgm = img.to_pgm();
        assert!(pgm.starts_with(b"P5\n5 7\n255\n"));
        assert_eq!(pgm.len(), 11 + 35);
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn wrong_pixel_count_rejected() {
        Image::from_pixels(3, 3, vec![0; 8]);
    }
}
