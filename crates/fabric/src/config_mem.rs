//! Frame-addressed configuration memory.
//!
//! The configuration quantum of the modelled device is the 7-series
//! frame: **101 words of 32 bits**. Frames are addressed linearly by a
//! frame address (FAR); the ICAP writes them through FDRI with FAR
//! auto-increment. The configuration memory is shared state between
//! the ICAP (writer) and the RP/RM machinery (which identifies the
//! currently-loaded module by hashing its frame range).

use std::cell::RefCell;
use std::rc::Rc;

use rvcap_sim::state::{StateBlob, StateError, StateValue};

/// Words per configuration frame (UG470: 101 for 7-series).
pub const FRAME_WORDS: usize = 101;

#[derive(Debug)]
struct Inner {
    /// Frame storage; `None` = never configured.
    frames: Vec<Option<Box<[u32; FRAME_WORDS]>>>,
    /// Total frames written since power-up.
    writes: u64,
}

/// Shared handle to the device's configuration memory.
#[derive(Debug, Clone)]
pub struct ConfigMem {
    inner: Rc<RefCell<Inner>>,
}

impl ConfigMem {
    /// Create a configuration memory of `total_frames` frames.
    pub fn new(total_frames: usize) -> Self {
        ConfigMem {
            inner: Rc::new(RefCell::new(Inner {
                frames: (0..total_frames).map(|_| None).collect(),
                writes: 0,
            })),
        }
    }

    /// Total frame count of the device.
    pub fn total_frames(&self) -> usize {
        self.inner.borrow().frames.len()
    }

    /// Write one frame at `far`. Panics on an out-of-range FAR — the
    /// ICAP FSM validates the range before committing, so reaching
    /// this is a model bug.
    pub fn write_frame(&self, far: u32, words: &[u32; FRAME_WORDS]) {
        let mut inner = self.inner.borrow_mut();
        let slot = inner
            .frames
            .get_mut(far as usize)
            .unwrap_or_else(|| panic!("FAR {far:#x} out of range"));
        *slot = Some(Box::new(*words));
        inner.writes += 1;
    }

    /// Read one frame (None if never configured).
    pub fn read_frame(&self, far: u32) -> Option<[u32; FRAME_WORDS]> {
        self.inner
            .borrow()
            .frames
            .get(far as usize)
            .and_then(|f| f.as_deref().copied())
    }

    /// Is `far..far+frames` inside the device?
    pub fn in_range(&self, far: u32, frames: usize) -> bool {
        (far as usize)
            .checked_add(frames)
            .is_some_and(|end| end <= self.total_frames())
    }

    /// Are all frames of the range configured (written at least once)?
    pub fn range_configured(&self, far: u32, frames: usize) -> bool {
        let inner = self.inner.borrow();
        (far as usize..far as usize + frames).all(|i| inner.frames[i].is_some())
    }

    /// Hash the content of a frame range — used to identify which RM
    /// image currently occupies an RP. FNV-1a over the words; stable
    /// and cheap, and collisions between a handful of registered RM
    /// images are not a realistic concern.
    pub fn range_hash(&self, far: u32, frames: usize) -> Option<u64> {
        let inner = self.inner.borrow();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in far as usize..far as usize + frames {
            let frame = inner.frames.get(i)?.as_deref()?;
            for &w in frame.iter() {
                h ^= w as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        Some(h)
    }

    /// Lifetime count of frame writes.
    pub fn total_writes(&self) -> u64 {
        self.inner.borrow().writes
    }

    /// Checkpoint the frame store. Saved by the ICAP (the sole frame
    /// writer); configured frames are stored sparsely, so an almost
    /// empty device costs almost nothing.
    pub fn save_state(&self) -> StateValue {
        let inner = self.inner.borrow();
        let mut b = StateBlob::new("fabric.config_mem", 1);
        b.put_u64("total_frames", inner.frames.len() as u64);
        b.put_u64("writes", inner.writes);
        b.put_list(
            "frames",
            inner
                .frames
                .iter()
                .enumerate()
                .filter_map(|(far, slot)| {
                    slot.as_deref().map(|words| {
                        let mut f = StateBlob::new("fabric.frame", 1);
                        f.put_u64("far", far as u64);
                        f.put_words("words", words.to_vec());
                        StateValue::Blob(Box::new(f))
                    })
                })
                .collect(),
        );
        StateValue::Blob(Box::new(b))
    }

    /// Inverse of [`ConfigMem::save_state`]: unconfigured frames go
    /// back to "never written". The whole blob is validated before the
    /// store changes, so a bad one leaves it as it was. The store is
    /// rewound in place: slots the checkpoint does not configure are
    /// cleared, and a frame configured both now and in the checkpoint
    /// keeps its box and takes the saved words, so a fork of a
    /// configured partition allocates nothing per frame.
    pub fn restore_state(&self, v: &StateValue) -> Result<(), StateError> {
        let b = v.as_blob("fabric.config_mem")?;
        b.expect("fabric.config_mem", 1)?;
        let mut inner = self.inner.borrow_mut();
        let total = inner.frames.len();
        if b.get_u64("total_frames")? as usize != total {
            return Err(b.structure_error(format!(
                "device has {total} frames, state was captured with {}",
                b.get_u64("total_frames")?
            )));
        }
        let entries = b.get_list("frames")?;
        let mut saved: Vec<(usize, &[u32; FRAME_WORDS])> = Vec::with_capacity(entries.len());
        for entry in entries {
            let f = entry.as_blob("fabric.config_mem")?;
            f.expect("fabric.frame", 1)?;
            let far = f.get_u64("far")? as usize;
            if far >= total {
                return Err(f.structure_error(format!("FAR {far} out of range")));
            }
            let words = f.get_words("words")?.try_into().map_err(|_| {
                f.structure_error(format!("frame {far} is not {FRAME_WORDS} words"))
            })?;
            saved.push((far, words));
        }
        let writes = b.get_u64("writes")?;
        // Saved in FAR order already; a stable sort keeps the last of
        // any repeated FAR last, and that one wins below.
        saved.sort_by_key(|&(far, _)| far);
        let frames = &mut inner.frames;
        let clear = |slots: &mut [Option<Box<[u32; FRAME_WORDS]>>]| {
            for slot in slots.iter_mut().filter(|s| s.is_some()) {
                *slot = None;
            }
        };
        let mut next = 0;
        for (i, &(far, words)) in saved.iter().enumerate() {
            if saved.get(i + 1).is_some_and(|&(f, _)| f == far) {
                continue;
            }
            clear(&mut frames[next..far]);
            match &mut frames[far] {
                Some(frame) => **frame = *words,
                slot => *slot = Some(Box::new(*words)),
            }
            next = far + 1;
        }
        clear(&mut frames[next..]);
        inner.writes = writes;
        Ok(())
    }
}

/// Hash a flat word payload the same way [`ConfigMem::range_hash`]
/// hashes configured frames — an [`crate::rm::RmImage`] precomputes
/// this so the RP can match memory content against registered images.
pub fn payload_hash(words: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h ^= w as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(fill: u32) -> [u32; FRAME_WORDS] {
        let mut f = [0u32; FRAME_WORDS];
        for (i, w) in f.iter_mut().enumerate() {
            *w = fill.wrapping_add(i as u32);
        }
        f
    }

    #[test]
    fn write_read_round_trip() {
        let cm = ConfigMem::new(16);
        assert_eq!(cm.read_frame(3), None);
        cm.write_frame(3, &frame(7));
        assert_eq!(cm.read_frame(3), Some(frame(7)));
        assert_eq!(cm.total_writes(), 1);
    }

    #[test]
    fn range_checks() {
        let cm = ConfigMem::new(10);
        assert!(cm.in_range(0, 10));
        assert!(!cm.in_range(1, 10));
        assert!(!cm.in_range(u32::MAX, 2));
        cm.write_frame(2, &frame(0));
        cm.write_frame(3, &frame(1));
        assert!(cm.range_configured(2, 2));
        assert!(!cm.range_configured(2, 3));
    }

    #[test]
    fn range_hash_matches_payload_hash() {
        let cm = ConfigMem::new(8);
        let f0 = frame(100);
        let f1 = frame(200);
        cm.write_frame(4, &f0);
        cm.write_frame(5, &f1);
        let mut flat = Vec::new();
        flat.extend_from_slice(&f0);
        flat.extend_from_slice(&f1);
        assert_eq!(cm.range_hash(4, 2), Some(payload_hash(&flat)));
    }

    #[test]
    fn hash_of_unconfigured_range_is_none() {
        let cm = ConfigMem::new(8);
        cm.write_frame(0, &frame(0));
        assert_eq!(cm.range_hash(0, 2), None);
    }

    #[test]
    fn rewriting_changes_hash() {
        let cm = ConfigMem::new(4);
        cm.write_frame(0, &frame(1));
        let h1 = cm.range_hash(0, 1);
        cm.write_frame(0, &frame(2));
        let h2 = cm.range_hash(0, 1);
        assert_ne!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_write_panics() {
        let cm = ConfigMem::new(4);
        cm.write_frame(4, &frame(0));
    }

    #[test]
    fn shared_handles() {
        let a = ConfigMem::new(4);
        let b = a.clone();
        a.write_frame(1, &frame(9));
        assert!(b.read_frame(1).is_some());
    }

    #[test]
    fn restore_rewinds_every_frame() {
        let cm = ConfigMem::new(8);
        cm.write_frame(1, &frame(1));
        cm.write_frame(2, &frame(2));
        let saved = cm.save_state();
        // Overwrite a saved frame, configure a new one, then rewind.
        cm.write_frame(2, &frame(20));
        cm.write_frame(5, &frame(5));
        cm.restore_state(&saved).unwrap();
        assert_eq!(cm.read_frame(1), Some(frame(1)));
        assert_eq!(cm.read_frame(2), Some(frame(2)));
        assert_eq!(cm.read_frame(5), None);
        assert_eq!(cm.total_writes(), 2);
        // Into an empty memory too.
        let fresh = ConfigMem::new(8);
        fresh.restore_state(&saved).unwrap();
        assert_eq!(fresh.read_frame(2), Some(frame(2)));
    }

    /// A hand-built checkpoint of an 8-frame memory holding `frames`
    /// (FAR, fill) in the given order.
    fn blob(frames: &[(u64, u32)]) -> StateValue {
        let mut b = StateBlob::new("fabric.config_mem", 1);
        b.put_u64("total_frames", 8);
        b.put_u64("writes", 9);
        let list = frames.iter().map(|&(far, fill)| {
            let mut f = StateBlob::new("fabric.frame", 1);
            f.put_u64("far", far);
            f.put_words("words", frame(fill).to_vec());
            StateValue::Blob(Box::new(f))
        });
        b.put_list("frames", list.collect());
        StateValue::Blob(Box::new(b))
    }

    #[test]
    fn bad_restore_leaves_the_store_as_it_was() {
        let cm = ConfigMem::new(8);
        cm.write_frame(3, &frame(3));
        // A valid frame first, then one past the device.
        assert!(cm.restore_state(&blob(&[(3, 7), (8, 7)])).is_err());
        assert_eq!(cm.read_frame(3), Some(frame(3)));
        assert_eq!(cm.total_writes(), 1);
    }

    #[test]
    fn restore_takes_frames_in_any_order_and_the_last_of_a_repeat() {
        let cm = ConfigMem::new(8);
        cm.write_frame(0, &frame(1));
        cm.write_frame(6, &frame(1));
        cm.restore_state(&blob(&[(5, 50), (2, 20), (5, 51), (7, 70)]))
            .unwrap();
        let expect = |far| match far {
            2 => Some(frame(20)),
            5 => Some(frame(51)),
            7 => Some(frame(70)),
            _ => None,
        };
        for far in 0..8 {
            assert_eq!(cm.read_frame(far), expect(far), "FAR {far}");
        }
        assert_eq!(cm.total_writes(), 9);
    }
}
