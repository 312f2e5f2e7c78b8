//! The streaming filter model checked against two references, for all
//! three kernels on random images:
//!
//! * its output bytes equal the golden filter's;
//! * every output beat leaves on exactly the cycle a straightforward
//!   per-pixel reference emits it. The reference, [`Reference`] below,
//!   is the model as first written: a clamping closure per tap,
//!   `computable` tested for every pixel of a beat, a `Vec` per beat.
//!   Matching it cycle for cycle shows that the model's shortcuts — the
//!   beat's last pixel deciding computability, the neighbour rows
//!   resolved once per row — change no timing.
//!
//! Widths 2..=40 include widths that are not multiples of the 8-pixel
//! beat, so beats straddle rows. Input arrives on a random schedule
//! after a random idle lead-in (the pacing credits accumulate while
//! idle), output drains from a small FIFO on another random schedule,
//! and one or two frames run back to back.

use proptest::prelude::*;
use rvcap_accel::golden::{Kernel, Neighbourhood};
use rvcap_accel::rm::StreamingFilter;
use rvcap_accel::{FilterKind, Image};
use rvcap_axi::stream::{pack_bytes, unpack_bytes, AxisBeat};
use rvcap_axi::AxisChannel;
use rvcap_fabric::rm::RmBehavior;
use rvcap_sim::{Cycle, Fifo};

/// The per-pixel reference model.
struct Reference {
    kernel: Kernel,
    width: usize,
    height: usize,
    inbuf: Vec<u8>,
    out_pos: usize,
    interval_x100: u64,
    credits: u64,
}

impl Reference {
    fn new(kernel: Kernel, width: usize, height: usize, interval_x100: u64) -> Self {
        Reference {
            kernel,
            width,
            height,
            inbuf: Vec::new(),
            out_pos: 0,
            interval_x100,
            credits: 0,
        }
    }

    fn total(&self) -> usize {
        self.width * self.height
    }

    fn computable(&self, pos: usize) -> bool {
        let r = pos / self.width;
        let needed_row = (r + 1).min(self.height - 1);
        self.inbuf.len() >= (needed_row + 1) * self.width
    }

    fn compute(&self, pos: usize) -> u8 {
        let (w, h) = (self.width as isize, self.height as isize);
        let win = |r: isize, c: isize| -> u8 {
            self.inbuf[(r.clamp(0, h - 1) * w + c.clamp(0, w - 1)) as usize]
        };
        let (r, c) = ((pos / self.width) as isize, (pos % self.width) as isize);
        let n: Neighbourhood = std::array::from_fn(|dr| {
            std::array::from_fn(|dc| win(r + dr as isize - 1, c + dc as isize - 1))
        });
        (self.kernel)(&n)
    }

    fn tick(&mut self, cycle: Cycle, input: &AxisChannel, output: &AxisChannel) {
        if self.inbuf.len() < self.total() {
            if let Some(beat) = input.try_pop(cycle) {
                let take = (self.total() - self.inbuf.len()).min(beat.bytes as usize);
                self.inbuf.extend_from_slice(&beat.to_bytes()[..take]);
            }
        }
        self.credits += 100;
        if self.credits < self.interval_x100 {
            return;
        }
        let remaining = self.total() - self.out_pos;
        if remaining == 0 {
            return;
        }
        let beat_len = remaining.min(8);
        if !(0..beat_len).all(|i| self.computable(self.out_pos + i)) {
            return;
        }
        if !output.can_push(cycle) {
            return;
        }
        let bytes: Vec<u8> = (0..beat_len)
            .map(|i| self.compute(self.out_pos + i))
            .collect();
        let last = remaining == beat_len;
        output
            .try_push(cycle, AxisBeat::from_bytes(&bytes, last))
            .expect("can_push checked");
        self.out_pos += beat_len;
        self.credits -= self.interval_x100;
        if last {
            self.inbuf.clear();
            self.out_pos = 0;
            self.credits = 0;
        }
    }
}

/// One side of the comparison: a model between its own input and
/// output channels, with the cycles it emitted beats on and the beats
/// drained from its output.
struct Rig {
    input: AxisChannel,
    output: AxisChannel,
    emit_cycles: Vec<Cycle>,
    drained: Vec<(Cycle, AxisBeat)>,
}

impl Rig {
    fn new(out_capacity: usize) -> Self {
        Rig {
            input: Fifo::new("in", 1 << 12),
            output: Fifo::new("out", out_capacity),
            emit_cycles: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Run one tick, then drain one output beat if `drain`.
    fn step(&mut self, cycle: Cycle, drain: bool, tick: impl FnOnce(&AxisChannel, &AxisChannel)) {
        let pushed = self.output.total_pushed();
        tick(&self.input, &self.output);
        if self.output.total_pushed() != pushed {
            self.emit_cycles.push(cycle);
        }
        if drain {
            if let Some(beat) = self.output.try_pop(cycle) {
                self.drained.push((cycle, beat));
            }
        }
    }
}

proptest! {
    #[test]
    fn streaming_filter_matches_golden_and_per_pixel_timing(
        kind in 0usize..3,
        width in 2usize..=40,
        height in 2usize..=20,
        interval_x100 in 100u64..=300,
        seed in any::<u64>(),
        frames in 1usize..=2,
        lead in 0u64..40,
        out_capacity in 1usize..=4,
        arrive in proptest::collection::vec(any::<bool>(), 1..12),
        drain in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let kind = FilterKind::ALL[kind];
        let images: Vec<Image> = (0..frames as u64)
            .map(|f| Image::noise(width, height, seed.wrapping_add(f)))
            .collect();
        let mut beats = images
            .iter()
            .flat_map(|img| pack_bytes(img.as_bytes(), 8))
            .peekable();
        let total_beats = images.len() * (width * height).div_ceil(8);

        let mut model =
            StreamingFilter::new(kind.name(), kind.kernel(), width, height, interval_x100);
        let mut reference = Reference::new(kind.kernel(), width, height, interval_x100);
        let (mut a, mut b) = (Rig::new(out_capacity), Rig::new(out_capacity));
        // Element 0 of each schedule is forced on, so both make progress.
        let on = |sched: &[bool], i: u64| {
            let k = (i % sched.len() as u64) as usize;
            k == 0 || sched[k]
        };
        let limit = lead + 150 * total_beats as u64;
        let mut cycle: Cycle = 0;
        while a.drained.len() < total_beats || b.drained.len() < total_beats {
            prop_assert!(cycle < limit, "no progress after {cycle} cycles");
            if cycle >= lead && on(&arrive, cycle) {
                if let Some(beat) = beats.next() {
                    a.input.force_push(beat);
                    b.input.force_push(beat);
                }
            }
            let d = on(&drain, cycle);
            a.step(cycle, d, |i, o| model.tick(cycle, i, o));
            b.step(cycle, d, |i, o| reference.tick(cycle, i, o));
            cycle += 1;
        }
        prop_assert!(beats.peek().is_none(), "input left over");
        prop_assert_eq!(&a.emit_cycles, &b.emit_cycles, "emission cycles");
        prop_assert_eq!(&a.drained, &b.drained, "beats and drain cycles");
        prop_assert_eq!(model.frames_done(), frames as u64);

        let beats: Vec<AxisBeat> = a.drained.iter().map(|&(_, beat)| beat).collect();
        let out = unpack_bytes(&beats);
        let golden: Vec<u8> = images
            .iter()
            .flat_map(|img| kind.golden(img).as_bytes().to_vec())
            .collect();
        prop_assert!(out == golden, "{} output differs from the golden filter", kind.name());
    }
}
