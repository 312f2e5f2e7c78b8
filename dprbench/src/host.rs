//! Host conditions recorded beside each run: context, not metrics.
//!
//! A shared 2-core VM drifts: an ALU spin loop repeats within a few
//! percent, while an 8 MB pointer chase (last-level-cache bound, and
//! the L3 is shared with neighbours) can swing 2-3x between runs.
//! Probing both at the start and the end of a run lets a reader tell
//! sandbox drift apart from a change to the program.

use std::hint::black_box;
use std::time::Instant;

/// Pointer-chase working set: 1 Mi `u64` slots = 8 MiB.
const CHASE_SLOTS: usize = 1 << 20;
/// Dependent loads per chase probe.
const CHASE_STEPS: usize = 1 << 20;
/// Dependent ALU iterations per spin probe.
const SPIN_STEPS: u64 = 1 << 24;

/// One pair of probe timings.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Host ms of the ALU spin loop.
    pub alu_ms: f64,
    /// Host ms of the 8 MB pointer chase.
    pub chase_ms: f64,
}

/// The probes, with the chase permutation built once.
pub struct HostProbe {
    next: Vec<u64>,
}

impl HostProbe {
    /// Build a single-cycle random permutation (Sattolo) over 8 MiB.
    pub fn new() -> Self {
        let mut next: Vec<u64> = (0..CHASE_SLOTS as u64).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..CHASE_SLOTS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        HostProbe { next }
    }

    /// Time both probes once.
    pub fn measure(&self) -> Probe {
        let t = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..SPIN_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        let alu_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let mut p = black_box(0usize);
        for _ in 0..CHASE_STEPS {
            p = self.next[p] as usize;
        }
        black_box(p);
        let chase_ms = t.elapsed().as_secs_f64() * 1e3;
        Probe { alu_ms, chase_ms }
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
