//! The copy-on-write paged memory behind DDR and SD flash, checked
//! against a flat `Vec<u8>` reference.
//!
//! Each case runs a random interleaving of writes — single bytes,
//! aligned words through the simulated bus, and bulk backdoor writes at
//! any offset, page-straddling ones included — with checkpoints,
//! restores of any saved checkpoint (older after newer too), and
//! restores into a freshly built instance. After every step:
//!
//! * the live contents equal the reference byte for byte;
//! * every saved checkpoint still holds exactly the bytes it was taken
//!   with (copy-on-write isolation: later writes never leak into it).
//!
//! A restore from a checkpoint of a different-length memory fails with
//! a typed `StateError`.

use proptest::prelude::*;
use rvcap_axi::mm::{link, MasterPort, MmReq};
use rvcap_sim::{Freq, PagedBytes, SimState, Simulator, StateBlob, StateError, PAGE_SIZE};
use rvcap_soc::map::DDR_BASE;
use rvcap_soc::{Ddr, DdrConfig, DdrHandle};
use rvcap_storage::sd::host;
use rvcap_storage::{MemBlockDevice, SdCard, BLOCK_SIZE};

/// Four full pages and a short fifth.
const DDR_SIZE: usize = 4 * PAGE_SIZE + 1000;

/// 37 blocks: four full pages and a short fifth.
const SD_BLOCKS: u64 = 37;

#[derive(Clone)]
enum Op {
    /// Backdoor single-byte write.
    Byte(usize, u8),
    /// Aligned 8-byte write through the simulated bus, read back the
    /// same way.
    Word(usize, u64),
    /// Backdoor bulk write at any offset.
    Bytes(usize, Vec<u8>),
    Checkpoint,
    /// Restore saved checkpoint `i % saved`.
    Restore(usize),
    /// Restore saved checkpoint `i % saved` into a freshly built
    /// instance, which then replaces the live one.
    RestoreFresh(usize),
}

/// Failure messages name a bulk write by its length, not its bytes.
impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Byte(off, v) => write!(f, "Byte({off:#x}, {v:#x})"),
            Op::Word(off, v) => write!(f, "Word({off:#x}, {v:#x})"),
            Op::Bytes(off, data) => write!(f, "Bytes({off:#x}, {} bytes)", data.len()),
            Op::Checkpoint => write!(f, "Checkpoint"),
            Op::Restore(i) => write!(f, "Restore({i})"),
            Op::RestoreFresh(i) => write!(f, "RestoreFresh({i})"),
        }
    }
}

/// An offset anywhere, or within a few bytes of a page boundary.
fn offset() -> impl Strategy<Value = usize> {
    prop_oneof![
        0..DDR_SIZE,
        (1..5usize, 0..24usize).prop_map(|(page, d)| page * PAGE_SIZE - 12 + d),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (offset(), any::<u8>()).prop_map(|(o, v)| Op::Byte(o, v)),
        3 => (0..DDR_SIZE / 8, any::<u64>()).prop_map(|(w, v)| Op::Word(w * 8, v)),
        4 => (offset(), proptest::collection::vec(any::<u8>(), 0..2 * PAGE_SIZE))
            .prop_map(|(o, d)| Op::Bytes(o, d)),
        2 => Just(Op::Checkpoint),
        2 => any::<usize>().prop_map(Op::Restore),
        1 => any::<usize>().prop_map(Op::RestoreFresh),
    ]
}

fn first_diff(a: &[u8], b: &[u8]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or((a.len() != b.len()).then(|| a.len().min(b.len())))
}

struct DdrRig {
    sim: Simulator,
    bus: MasterPort,
    mem: DdrHandle,
}

fn ddr_rig(size: usize) -> DdrRig {
    let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
    let (bus, port) = link("ddr", 8);
    let cfg = DdrConfig {
        size: size as u64,
        ..DdrConfig::default()
    };
    let (ddr, mem) = Ddr::new("ddr", port, DDR_BASE, cfg);
    sim.register(Box::new(ddr));
    DdrRig { sim, bus, mem }
}

impl DdrRig {
    /// One bus transaction; returns the response data.
    fn transact(&mut self, req: MmReq) -> u64 {
        self.bus.try_issue(self.sim.now(), req).unwrap();
        let mut data = None;
        let bus = &self.bus;
        self.sim
            .run_until(500, || {
                data = bus.resp.force_pop().map(|r| r.data);
                data.is_some()
            })
            .expect("DDR answers");
        data.unwrap()
    }
}

fn saved_mem(state: &SimState) -> &PagedBytes {
    state.components[0].blob.get_bytes("mem").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn ddr_matches_flat_reference(ops in proptest::collection::vec(op(), 1..40)) {
        let mut rig = ddr_rig(DDR_SIZE);
        let mut reference = vec![0u8; DDR_SIZE];
        let mut saved: Vec<(SimState, Vec<u8>)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Byte(off, v) => {
                    rig.mem.write_bytes(DDR_BASE + *off as u64, &[*v]);
                    reference[*off] = *v;
                }
                Op::Word(off, v) => {
                    let addr = DDR_BASE + *off as u64;
                    rig.transact(MmReq::write(addr, *v, 8));
                    reference[*off..*off + 8].copy_from_slice(&v.to_le_bytes());
                    prop_assert_eq!(rig.transact(MmReq::read(addr, 8)), *v);
                }
                Op::Bytes(off, data) => {
                    let off = (*off).min(DDR_SIZE - data.len());
                    rig.mem.write_bytes(DDR_BASE + off as u64, data);
                    reference[off..off + data.len()].copy_from_slice(data);
                    let mut back = vec![0u8; data.len()];
                    rig.mem.read_into(DDR_BASE + off as u64, &mut back);
                    prop_assert!(back == *data, "step {step}: read-back of {op:?}");
                }
                Op::Checkpoint => saved.push((rig.sim.checkpoint().unwrap(), reference.clone())),
                Op::Restore(i) | Op::RestoreFresh(i) if !saved.is_empty() => {
                    let (state, bytes) = &saved[i % saved.len()];
                    if matches!(op, Op::RestoreFresh(_)) {
                        rig = ddr_rig(DDR_SIZE);
                    }
                    rig.sim.restore(state).unwrap();
                    reference.clone_from(bytes);
                }
                Op::Restore(_) | Op::RestoreFresh(_) => {}
            }
            let live = rig.mem.read_bytes(DDR_BASE, DDR_SIZE);
            prop_assert!(
                live == reference,
                "step {step} ({op:?}): live DDR differs at {:?}",
                first_diff(&live, &reference)
            );
            for (k, (state, bytes)) in saved.iter().enumerate() {
                let held = saved_mem(state).to_vec();
                prop_assert!(
                    held == *bytes,
                    "step {step} ({op:?}): checkpoint {k} changed at {:?}",
                    first_diff(&held, bytes)
                );
            }
        }
        // Whatever ran last, rewinding to the oldest checkpoint restores
        // exactly its bytes.
        if let Some((state, bytes)) = saved.first() {
            rig.sim.restore(state).unwrap();
            prop_assert!(rig.mem.read_bytes(DDR_BASE, DDR_SIZE) == *bytes, "oldest checkpoint");
        }
    }
}

#[derive(Debug, Clone)]
enum SdOp {
    /// Write block `lba` (filled from the seed) over SPI and read it
    /// back the same way.
    Write(u64, u64),
    Checkpoint,
    Restore(usize),
    RestoreFresh(usize),
}

fn sd_op() -> impl Strategy<Value = SdOp> {
    prop_oneof![
        4 => (0..SD_BLOCKS, any::<u64>()).prop_map(|(lba, seed)| SdOp::Write(lba, seed)),
        2 => Just(SdOp::Checkpoint),
        2 => any::<usize>().prop_map(SdOp::Restore),
        1 => any::<usize>().prop_map(SdOp::RestoreFresh),
    ]
}

fn block_from(seed: u64) -> [u8; BLOCK_SIZE] {
    let mut x = seed | 1;
    std::array::from_fn(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u8
    })
}

fn ready_card(blocks: u64) -> SdCard<MemBlockDevice> {
    let mut card = SdCard::new(MemBlockDevice::new(blocks));
    assert!(host::init(|b| card.exchange(b)), "card initializes");
    card
}

fn card_image(state: &StateBlob) -> &PagedBytes {
    state
        .get_blob("dev")
        .and_then(|dev| dev.get_bytes("blocks"))
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn sd_flash_matches_flat_reference(ops in proptest::collection::vec(sd_op(), 1..24)) {
        let mut card = ready_card(SD_BLOCKS);
        let mut reference = vec![0u8; SD_BLOCKS as usize * BLOCK_SIZE];
        let mut saved: Vec<(StateBlob, Vec<u8>)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                SdOp::Write(lba, seed) => {
                    let data = block_from(*seed);
                    prop_assert!(host::write_block(|b| card.exchange(b), *lba as u32, &data));
                    let off = *lba as usize * BLOCK_SIZE;
                    reference[off..off + BLOCK_SIZE].copy_from_slice(&data);
                    let mut back = [0u8; BLOCK_SIZE];
                    prop_assert!(host::read_block(|b| card.exchange(b), *lba as u32, &mut back));
                    prop_assert!(back == data, "step {step}: read-back of block {lba}");
                }
                SdOp::Checkpoint => saved.push((card.save_state().unwrap(), reference.clone())),
                SdOp::Restore(i) | SdOp::RestoreFresh(i) if !saved.is_empty() => {
                    let (state, bytes) = &saved[i % saved.len()];
                    if matches!(op, SdOp::RestoreFresh(_)) {
                        card = SdCard::new(MemBlockDevice::new(SD_BLOCKS));
                    }
                    card.restore_state(state).unwrap();
                    reference.clone_from(bytes);
                }
                SdOp::Restore(_) | SdOp::RestoreFresh(_) => {}
            }
            let live = card_image(&card.save_state().unwrap()).to_vec();
            prop_assert!(
                live == reference,
                "step {step} ({op:?}): live flash differs at {:?}",
                first_diff(&live, &reference)
            );
            for (k, (state, bytes)) in saved.iter().enumerate() {
                let held = card_image(state).to_vec();
                prop_assert!(
                    held == *bytes,
                    "step {step} ({op:?}): checkpoint {k} changed at {:?}",
                    first_diff(&held, bytes)
                );
            }
        }
        if let Some((state, bytes)) = saved.first() {
            card.restore_state(state).unwrap();
            let live = card_image(&card.save_state().unwrap()).to_vec();
            prop_assert!(live == *bytes, "oldest checkpoint");
        }
    }
}

#[test]
fn wrong_length_memory_is_a_typed_error() {
    let rig = ddr_rig(DDR_SIZE);
    rig.mem.write_bytes(DDR_BASE + 5, &[1, 2, 3]);
    let state = rig.sim.checkpoint().unwrap();
    // One byte longer (same page count) and one page shorter.
    for size in [DDR_SIZE + 1, DDR_SIZE - PAGE_SIZE] {
        let mut other = ddr_rig(size);
        let err = other.sim.restore(&state).unwrap_err();
        assert!(matches!(err, StateError::Structure { .. }), "{size}: {err}");
        assert_eq!(other.mem.read_bytes(DDR_BASE, 8), vec![0; 8]);
    }

    let state = ready_card(SD_BLOCKS).save_state().unwrap();
    for blocks in [SD_BLOCKS - 1, SD_BLOCKS + 8] {
        let err = SdCard::new(MemBlockDevice::new(blocks))
            .restore_state(&state)
            .unwrap_err();
        assert!(
            matches!(err, StateError::Structure { .. }),
            "{blocks}: {err}"
        );
    }
}
