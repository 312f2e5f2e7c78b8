//! Streaming hardware models of the filters.
//!
//! Each filter is a line-buffered 3×3 window operator behind a 64-bit
//! AXI-Stream interface, like the Vivado HLS kernels the paper
//! synthesized: it consumes up to one 8-pixel beat per cycle, holds
//! just over two image rows of context, and emits output beats in
//! order. An output pixel in row `r` becomes available once input row
//! `r+1` has fully arrived, so output trails input by roughly one row
//! — the latency visible in the paper's per-filter compute times.
//!
//! The per-pixel arithmetic is literally the [`crate::golden`] kernel
//! functions, fed by the same neighbourhood gather
//! ([`golden::neighbour_rows`] + [`golden::gather`]), so a hardware run
//! is bit-identical to the reference implementation by construction;
//! the tests verify the streaming machinery (packing, backpressure,
//! restart) preserves that. A beat is built in place: ingest reads the
//! beat's bytes without allocating, the neighbour rows are resolved
//! once per image row the output beat touches (a beat may straddle two
//! rows when the width is not a multiple of 8), and the output pixels
//! are packed from a stack buffer.

use rvcap_axi::stream::AxisBeat;
use rvcap_axi::AxisChannel;
use rvcap_fabric::rm::RmBehavior;
use rvcap_sim::Cycle;

use crate::golden::{self, Kernel};

/// A streaming 3×3 window filter.
pub struct StreamingFilter {
    name: String,
    kernel: Kernel,
    width: usize,
    height: usize,
    /// Received input pixels (a row-major prefix of the image).
    inbuf: Vec<u8>,
    /// Output pixels already emitted.
    out_pos: usize,
    /// Processing pace: cycles per output beat × 100 (100 = II of 1).
    interval_x100: u64,
    credits: u64,
    /// Images completed since configuration.
    frames_done: u64,
}

impl StreamingFilter {
    /// Create a filter for `width`×`height` frames.
    pub fn new(
        name: impl Into<String>,
        kernel: Kernel,
        width: usize,
        height: usize,
        interval_x100: u64,
    ) -> Self {
        assert!(width >= 2 && height >= 2, "window needs a 2×2 minimum");
        assert!(interval_x100 >= 100, "cannot emit faster than 1 beat/cycle");
        StreamingFilter {
            name: name.into(),
            kernel,
            width,
            height,
            inbuf: Vec::with_capacity(width * height),
            out_pos: 0,
            interval_x100,
            credits: 0,
            frames_done: 0,
        }
    }

    /// Images completed since the last reset.
    pub fn frames_done(&self) -> u64 {
        self.frames_done
    }

    fn total(&self) -> usize {
        self.width * self.height
    }

    /// Is output pixel `pos` computable from the received prefix?
    /// Monotone in `pos`: a later pixel never needs less input.
    fn computable(&self, pos: usize) -> bool {
        let r = pos / self.width;
        let needed_row = (r + 1).min(self.height - 1);
        self.inbuf.len() >= (needed_row + 1) * self.width
    }

    /// Compute output pixels `out_pos..out_pos + out.len()`, resolving
    /// the neighbour rows once per image row.
    fn compute(&self, out: &mut [u8]) {
        let (w, h) = (self.width, self.height);
        let (mut r, mut c) = (self.out_pos / w, self.out_pos % w);
        let mut rows = golden::neighbour_rows(&self.inbuf, w, h, r);
        for px in out {
            if c == w {
                (r, c) = (r + 1, 0);
                rows = golden::neighbour_rows(&self.inbuf, w, h, r);
            }
            *px = (self.kernel)(&golden::gather(&rows, c));
            c += 1;
        }
    }
}

impl RmBehavior for StreamingFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, cycle: Cycle, input: &AxisChannel, output: &AxisChannel) {
        // Ingest one beat per cycle.
        let total = self.total();
        if self.inbuf.len() < total {
            if let Some(beat) = input.try_pop(cycle) {
                let take = (total - self.inbuf.len()).min(beat.bytes as usize);
                self.inbuf
                    .extend_from_slice(&beat.data.to_le_bytes()[..take]);
            }
        }
        // Emit at the configured pace.
        self.credits += 100;
        if self.credits < self.interval_x100 {
            return;
        }
        let remaining = total - self.out_pos;
        if remaining == 0 {
            return;
        }
        let beat_len = remaining.min(8);
        // The beat's last pixel needs the most input (`computable` is
        // monotone), so it decides for the whole beat.
        if !self.computable(self.out_pos + beat_len - 1) {
            return; // waiting on input rows
        }
        if !output.can_push(cycle) {
            return; // downstream backpressure
        }
        let mut bytes = [0u8; 8];
        self.compute(&mut bytes[..beat_len]);
        let last = remaining == beat_len;
        output
            .try_push(cycle, AxisBeat::from_bytes(&bytes[..beat_len], last))
            .expect("can_push checked");
        self.out_pos += beat_len;
        self.credits -= self.interval_x100;
        if last {
            // Frame complete: ready for the next image.
            self.inbuf.clear();
            self.out_pos = 0;
            self.credits = 0;
            self.frames_done += 1;
        }
    }

    fn busy(&self) -> bool {
        // Mid-frame with enough input to make progress.
        self.out_pos < self.total() && self.computable(self.out_pos)
    }

    fn reset(&mut self) {
        self.inbuf.clear();
        self.out_pos = 0;
        self.credits = 0;
        self.frames_done = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;
    use crate::image::Image;
    use rvcap_axi::stream::{pack_bytes, unpack_bytes};
    use rvcap_sim::Fifo;

    /// Drive a behaviour directly with a manual clock.
    fn run_filter(filter: &mut StreamingFilter, img: &Image) -> Vec<u8> {
        let input: AxisChannel = Fifo::new("in", 1 << 16);
        let output: AxisChannel = Fifo::new("out", 1 << 16);
        for b in pack_bytes(img.as_bytes(), 8) {
            input.force_push(b);
        }
        let mut out = Vec::new();
        for cycle in 0..(img.width() * img.height() * 8) as u64 {
            filter.tick(cycle, &input, &output);
            while let Some(b) = output.force_pop() {
                out.push(b);
            }
            if !out.is_empty() && out.last().unwrap().last {
                break;
            }
        }
        unpack_bytes(&out)
    }

    #[test]
    fn streaming_gaussian_matches_golden() {
        let img = Image::noise(24, 16, 7);
        let mut f = StreamingFilter::new("Gaussian", golden::gaussian_pixel, 24, 16, 100);
        assert_eq!(run_filter(&mut f, &img), golden::gaussian(&img).as_bytes());
    }

    #[test]
    fn streaming_median_matches_golden() {
        let img = Image::noise(16, 16, 9);
        let mut f = StreamingFilter::new("Median", golden::median_pixel, 16, 16, 100);
        assert_eq!(run_filter(&mut f, &img), golden::median(&img).as_bytes());
    }

    #[test]
    fn streaming_sobel_matches_golden() {
        let img = Image::checkerboard(32, 8, 4);
        let mut f = StreamingFilter::new("Sobel", golden::sobel_pixel, 32, 8, 100);
        assert_eq!(run_filter(&mut f, &img), golden::sobel(&img).as_bytes());
    }

    #[test]
    fn ragged_width_images_work() {
        // Width not a multiple of the 8-pixel beat.
        let img = Image::noise(20, 6, 3);
        let mut f = StreamingFilter::new("Gaussian", golden::gaussian_pixel, 20, 6, 100);
        assert_eq!(run_filter(&mut f, &img), golden::gaussian(&img).as_bytes());
    }

    #[test]
    fn back_to_back_frames_without_reset() {
        let a = Image::noise(16, 8, 1);
        let b = Image::noise(16, 8, 2);
        let mut f = StreamingFilter::new("Median", golden::median_pixel, 16, 8, 100);
        assert_eq!(run_filter(&mut f, &a), golden::median(&a).as_bytes());
        assert_eq!(run_filter(&mut f, &b), golden::median(&b).as_bytes());
        assert_eq!(f.frames_done(), 2);
    }

    #[test]
    fn slower_interval_still_correct() {
        let img = Image::noise(16, 8, 5);
        let mut f = StreamingFilter::new("Gaussian", golden::gaussian_pixel, 16, 8, 250);
        assert_eq!(run_filter(&mut f, &img), golden::gaussian(&img).as_bytes());
    }

    #[test]
    fn output_trails_input_by_about_a_row() {
        let img = Image::noise(16, 8, 11);
        let input: AxisChannel = Fifo::new("in", 1 << 12);
        let output: AxisChannel = Fifo::new("out", 1 << 12);
        let mut f = StreamingFilter::new("Gaussian", golden::gaussian_pixel, 16, 8, 100);
        for b in pack_bytes(img.as_bytes(), 8) {
            input.force_push(b);
        }
        // Row 0's output needs rows 0 and 1 complete — 4 beats of 8
        // pixels at width 16. With one beat ingested per tick, output
        // cannot start before the 4th tick...
        for cycle in 0..3 {
            f.tick(cycle, &input, &output);
        }
        assert!(output.is_empty(), "row 1 incomplete: no output yet");
        // ...and starts right then.
        for cycle in 3..5 {
            f.tick(cycle, &input, &output);
        }
        assert!(!output.is_empty(), "row 0 output should have started");
    }

    #[test]
    fn reset_clears_mid_frame_state() {
        let img = Image::noise(16, 8, 13);
        let input: AxisChannel = Fifo::new("in", 1 << 12);
        let output: AxisChannel = Fifo::new("out", 1 << 12);
        let mut f = StreamingFilter::new("Sobel", golden::sobel_pixel, 16, 8, 100);
        for b in pack_bytes(img.as_bytes(), 8).into_iter().take(6) {
            input.force_push(b);
        }
        for cycle in 0..10 {
            f.tick(cycle, &input, &output);
        }
        f.reset();
        assert!(!f.busy());
        assert_eq!(f.frames_done(), 0);
        // A fresh full frame still comes out right.
        assert_eq!(run_filter(&mut f, &img), golden::sobel(&img).as_bytes());
    }
}
