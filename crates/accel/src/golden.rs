//! Golden (reference) filter implementations.
//!
//! Every filter is a pure per-pixel kernel over a [`Neighbourhood`]:
//! the 3×3 pixels centred on the output pixel, with borders replicated
//! (out-of-image coordinates clamp to the nearest edge pixel). The
//! neighbourhood is built by one gather path — [`neighbour_rows`]
//! resolves the three clamped rows once per image row, [`gather`]
//! reads the three clamped columns from them — shared with the
//! streaming hardware models in [`crate::rm`]. Hardware output is
//! therefore bit-identical to these by construction *of the kernel and
//! the gather*; the tests verify the streaming machinery (line buffers,
//! beat packing, backpressure) preserves it.

use crate::image::Image;

/// The 3×3 pixels around an output pixel, `[row][col]`, centre at
/// `[1][1]`, borders replicated.
pub type Neighbourhood = [[u8; 3]; 3];

/// A per-pixel filter kernel.
pub type Kernel = fn(&Neighbourhood) -> u8;

/// The rows above, at and below row `r` of a row-major `width`-wide
/// image of `height` rows, clamped to the image. `pixels` may be a
/// row-major prefix, as long as it holds row `min(r + 1, height - 1)`.
pub fn neighbour_rows(pixels: &[u8], width: usize, height: usize, r: usize) -> [&[u8]; 3] {
    let row = |rr: usize| &pixels[rr * width..(rr + 1) * width];
    [
        row(r.saturating_sub(1)),
        row(r),
        row((r + 1).min(height - 1)),
    ]
}

/// The neighbourhood of column `c` in the three rows from
/// [`neighbour_rows`], columns clamped to the row.
pub fn gather(rows: &[&[u8]; 3], c: usize) -> Neighbourhood {
    let (l, r) = (c.saturating_sub(1), (c + 1).min(rows[0].len() - 1));
    rows.map(|row| [row[l], row[c], row[r]])
}

/// 3×3 Gaussian blur kernel (1-2-1 separable, /16).
pub fn gaussian_pixel(n: &Neighbourhood) -> u8 {
    let k: [[u16; 3]; 3] = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
    let mut acc: u16 = 0;
    for (krow, nrow) in k.iter().zip(n) {
        for (&w, &p) in krow.iter().zip(nrow) {
            acc += w * p as u16;
        }
    }
    (acc / 16) as u8
}

/// 3×3 median filter.
pub fn median_pixel(n: &Neighbourhood) -> u8 {
    let mut vals: [u8; 9] = n.as_flattened().try_into().expect("3×3 is 9 pixels");
    vals.sort_unstable();
    vals[4]
}

/// 3×3 Sobel gradient magnitude (|Gx| + |Gy|, saturated).
pub fn sobel_pixel(n: &Neighbourhood) -> u8 {
    let p = |dr: usize, dc: usize| n[dr][dc] as i32;
    let gx = -p(0, 0) - 2 * p(1, 0) - p(2, 0) + p(0, 2) + 2 * p(1, 2) + p(2, 2);
    let gy = -p(0, 0) - 2 * p(0, 1) - p(0, 2) + p(2, 0) + 2 * p(2, 1) + p(2, 2);
    (gx.abs() + gy.abs()).min(255) as u8
}

fn apply(img: &Image, kernel: Kernel) -> Image {
    let (w, h) = (img.width(), img.height());
    let mut out = Vec::with_capacity(w * h);
    for r in 0..h {
        let rows = neighbour_rows(img.as_bytes(), w, h, r);
        out.extend((0..w).map(|c| kernel(&gather(&rows, c))));
    }
    Image::from_pixels(w, h, out)
}

/// Gaussian blur of a whole image.
pub fn gaussian(img: &Image) -> Image {
    apply(img, gaussian_pixel)
}

/// Median filter of a whole image.
pub fn median(img: &Image) -> Image {
    apply(img, median_pixel)
}

/// Sobel edge map of a whole image.
pub fn sobel(img: &Image) -> Image {
    apply(img, sobel_pixel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_replicates_borders() {
        let img = Image::noise(4, 3, 5);
        let (px, w, h) = (img.as_bytes(), img.width(), img.height());
        let g = |r: usize, c: usize| img.get(r, c);
        // Corner: the missing row and column repeat the edge pixels.
        let corner = gather(&neighbour_rows(px, w, h, 0), 0);
        assert_eq!(corner[0], [g(0, 0), g(0, 0), g(0, 1)]);
        assert_eq!(corner[2], [g(1, 0), g(1, 0), g(1, 1)]);
        // Opposite corner, clamped the other way.
        let far = gather(&neighbour_rows(px, w, h, 2), 3);
        assert_eq!(far[1], [g(2, 2), g(2, 3), g(2, 3)]);
        assert_eq!(far[2], far[1]);
        // Interior: no clamping.
        let mid = gather(&neighbour_rows(px, w, h, 1), 2);
        assert_eq!(mid[0], [g(0, 1), g(0, 2), g(0, 3)]);
        assert_eq!(mid[1][1], g(1, 2));
    }

    #[test]
    fn gaussian_preserves_flat_regions() {
        let img = Image::from_pixels(8, 8, vec![100; 64]);
        assert_eq!(gaussian(&img).as_bytes(), img.as_bytes());
    }

    #[test]
    fn gaussian_smooths_an_impulse() {
        let mut img = Image::new(5, 5);
        img.set(2, 2, 160);
        let out = gaussian(&img);
        assert_eq!(out.get(2, 2), 40); // 160*4/16
        assert_eq!(out.get(2, 1), 20); // 160*2/16
        assert_eq!(out.get(1, 1), 10); // 160*1/16
        assert_eq!(out.get(0, 0), 0);
    }

    #[test]
    fn median_removes_salt_noise() {
        let mut img = Image::from_pixels(5, 5, vec![50; 25]);
        img.set(2, 2, 255); // lone outlier
        let out = median(&img);
        assert_eq!(out.get(2, 2), 50);
    }

    #[test]
    fn median_preserves_majority() {
        let img = Image::checkerboard(6, 6, 3);
        let out = median(&img);
        // Center of a 3×3 cell keeps its value.
        assert_eq!(out.get(1, 1), 0);
        assert_eq!(out.get(1, 4), 255);
    }

    #[test]
    fn sobel_zero_on_flat_strong_on_edge() {
        let img = Image::from_pixels(6, 6, vec![77; 36]);
        assert!(sobel(&img).as_bytes().iter().all(|&p| p == 0));
        // A vertical step edge saturates.
        let mut step = Image::new(6, 6);
        for r in 0..6 {
            for c in 3..6 {
                step.set(r, c, 255);
            }
        }
        let out = sobel(&step);
        assert_eq!(out.get(3, 3), 255);
        assert_eq!(out.get(3, 0), 0);
    }

    #[test]
    fn sobel_detects_horizontal_edges_too() {
        let mut step = Image::new(6, 6);
        for r in 3..6 {
            for c in 0..6 {
                step.set(r, c, 200);
            }
        }
        let out = sobel(&step);
        assert!(out.get(3, 3) > 0);
        assert_eq!(out.get(0, 3), 0);
    }

    #[test]
    fn filters_differ_on_noise() {
        let img = Image::noise(32, 32, 1);
        let g = gaussian(&img);
        let m = median(&img);
        let s = sobel(&img);
        assert_ne!(g, m);
        assert_ne!(g, s);
        assert_ne!(m, s);
    }
}
