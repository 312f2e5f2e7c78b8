//! An SD card in SPI mode.
//!
//! The paper's SoC reads partial bitstreams from "an external SD card"
//! through "the serial-parallel interface (SPI) peripheral" (§III-A).
//! This model speaks the actual SPI-mode SD protocol, one full-duplex
//! byte exchange at a time: command frames with CRC7, R1/R3/R7
//! responses with Ncr delay, single-block read/write with start tokens
//! and CRC16, write busy signalling. The SPI master peripheral in
//! `rvcap-soc` clocks [`SdCard::exchange`] once per simulated byte
//! time, so SD staging throughput emerges from the SPI clock divider
//! exactly as on the board.
//!
//! Supported commands (the set a minimal FAT32 bitstream store needs):
//! CMD0, CMD8, CMD55/ACMD41, CMD58, CMD16, CMD17 (read block),
//! CMD24 (write block), CMD59. Multi-block transfers (CMD18/25) are
//! not modelled; the FAT32 layer reads cluster-by-cluster anyway.

use crate::block::{BlockDevice, BLOCK_SIZE};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::PagedBytes;

/// R1 bit: card is in idle state (initialization in progress).
pub const R1_IDLE: u8 = 0x01;
/// R1 bit: illegal command.
pub const R1_ILLEGAL: u8 = 0x04;
/// R1 bit: command CRC error.
pub const R1_CRC_ERROR: u8 = 0x08;
/// Start token for single-block read/write data.
pub const TOKEN_START: u8 = 0xFE;
/// Data-response token: data accepted.
pub const DATA_ACCEPTED: u8 = 0x05;
/// Data-response token: data rejected, CRC error.
pub const DATA_CRC_ERROR: u8 = 0x0B;

/// CRC7 over a 40-bit command (cmd byte + 4 arg bytes), as sent in the
/// final frame byte (`crc7 << 1 | 1`).
pub fn crc7(bytes: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in bytes {
        let mut d = b;
        for _ in 0..8 {
            crc <<= 1;
            if (d & 0x80) ^ (crc & 0x80) != 0 {
                crc ^= 0x09;
            }
            d <<= 1;
        }
    }
    crc & 0x7F
}

/// CRC16-CCITT (XModem) over a data block.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc = 0u16;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Build a 6-byte SPI command frame (host-side helper for drivers).
pub fn command_frame(cmd: u8, arg: u32) -> [u8; 6] {
    let mut f = [0u8; 6];
    f[0] = 0x40 | (cmd & 0x3F);
    f[1..5].copy_from_slice(&arg.to_be_bytes());
    f[5] = (crc7(&f[..5]) << 1) | 1;
    f
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for the start of a command frame.
    Ready,
    /// Collecting the remaining bytes of a command frame.
    Command { received: usize },
    /// Waiting for the host's data token + block + CRC after CMD24.
    WriteData { received: usize, lba: u64 },
}

/// The SPI-mode SD card.
pub struct SdCard<D: BlockDevice> {
    dev: D,
    state: State,
    frame: [u8; 6],
    /// Bytes queued on MISO (responses, data, busy).
    out: std::collections::VecDeque<u8>,
    /// Write buffer: token + 512 + 2 CRC.
    wbuf: Vec<u8>,
    /// Card left idle state (ACMD41 completed)?
    initialized: bool,
    /// ACMD41 polls before reporting ready.
    init_polls_left: u8,
    /// Previous command was CMD55 (next is an ACMD).
    app_cmd: bool,
    /// CRC checking enabled (CMD59).
    crc_enabled: bool,
    blocks_read: u64,
    blocks_written: u64,
    commands: u64,
}

impl<D: BlockDevice> SdCard<D> {
    /// Wrap a block device as an SD card. The card starts
    /// uninitialized; hosts must run CMD0 / CMD8 / ACMD41.
    pub fn new(dev: D) -> Self {
        SdCard {
            dev,
            state: State::Ready,
            frame: [0; 6],
            out: std::collections::VecDeque::new(),
            wbuf: Vec::new(),
            initialized: false,
            init_polls_left: 2,
            app_cmd: false,
            crc_enabled: false,
            blocks_read: 0,
            blocks_written: 0,
            commands: 0,
        }
    }

    /// Release the underlying block device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Borrow the underlying block device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Blocks served via CMD17.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Blocks written via CMD24.
    pub fn blocks_written(&self) -> u64 {
        self.blocks_written
    }

    /// Commands processed.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// Card finished initialization (ACMD41 returned ready)?
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Checkpoint the whole card: protocol engine *and* medium. Fails
    /// (`None`) when the underlying [`BlockDevice`] cannot snapshot
    /// itself, so a checkpoint never silently loses the flash contents.
    pub fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("storage.sd_card", 1);
        b.put("dev", self.dev.save_state()?);
        let (state, received, lba) = match self.state {
            State::Ready => ("ready", None, None),
            State::Command { received } => ("command", Some(received as u64), None),
            State::WriteData { received, lba } => ("write_data", Some(received as u64), Some(lba)),
        };
        b.put_str("state", state);
        b.put_opt_u64("received", received);
        b.put_opt_u64("lba", lba);
        b.put_bytes("frame", PagedBytes::from_slice(&self.frame));
        let out: Vec<u8> = self.out.iter().copied().collect();
        b.put_bytes("out", PagedBytes::from_slice(&out));
        b.put_bytes("wbuf", PagedBytes::from_slice(&self.wbuf));
        b.put_bool("initialized", self.initialized);
        b.put_u64("init_polls_left", self.init_polls_left as u64);
        b.put_bool("app_cmd", self.app_cmd);
        b.put_bool("crc_enabled", self.crc_enabled);
        b.put_u64("blocks_read", self.blocks_read);
        b.put_u64("blocks_written", self.blocks_written);
        b.put_u64("commands", self.commands);
        Some(b)
    }

    /// Inverse of [`SdCard::save_state`].
    pub fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("storage.sd_card", 1)?;
        let missing = |field: &str| state.structure_error(format!("state lacks {field}"));
        self.dev.restore_state(state.get("dev")?)?;
        self.state = match state.get_str("state")? {
            "ready" => State::Ready,
            "command" => State::Command {
                received: state
                    .get_opt_u64("received")?
                    .ok_or_else(|| missing("received"))? as usize,
            },
            "write_data" => State::WriteData {
                received: state
                    .get_opt_u64("received")?
                    .ok_or_else(|| missing("received"))? as usize,
                lba: state.get_opt_u64("lba")?.ok_or_else(|| missing("lba"))?,
            },
            other => return Err(state.structure_error(format!("unknown state {other:?}"))),
        };
        let frame = state.get_bytes("frame")?;
        if frame.len() != 6 {
            return Err(
                state.structure_error(format!("frame is {} bytes, expected 6", frame.len()))
            );
        }
        frame.read_into(0, &mut self.frame);
        self.out = state.get_bytes("out")?.to_vec().into();
        self.wbuf = state.get_bytes("wbuf")?.to_vec();
        self.initialized = state.get_bool("initialized")?;
        let polls = state.get_u64("init_polls_left")?;
        self.init_polls_left = u8::try_from(polls)
            .map_err(|_| state.structure_error(format!("init_polls_left {polls} exceeds u8")))?;
        self.app_cmd = state.get_bool("app_cmd")?;
        self.crc_enabled = state.get_bool("crc_enabled")?;
        self.blocks_read = state.get_u64("blocks_read")?;
        self.blocks_written = state.get_u64("blocks_written")?;
        self.commands = state.get_u64("commands")?;
        Ok(())
    }

    /// One full-duplex SPI byte exchange: the host shifts out `mosi`,
    /// the card returns the simultaneous MISO byte.
    pub fn exchange(&mut self, mosi: u8) -> u8 {
        // Drive MISO first: what goes out this byte-time was prepared
        // earlier (SPI is full duplex; the card cannot react to `mosi`
        // within the same byte).
        let miso = self.out.pop_front().unwrap_or(0xFF);
        self.absorb(mosi);
        miso
    }

    fn absorb(&mut self, mosi: u8) {
        match self.state {
            State::Ready => {
                // Command start: 01xxxxxx.
                if mosi & 0xC0 == 0x40 {
                    self.frame[0] = mosi;
                    self.state = State::Command { received: 1 };
                }
                // 0xFF and anything else between frames is ignored.
            }
            State::Command { received } => {
                self.frame[received] = mosi;
                if received + 1 == 6 {
                    self.state = State::Ready;
                    self.run_command();
                } else {
                    self.state = State::Command {
                        received: received + 1,
                    };
                }
            }
            State::WriteData { received, lba } => {
                if received == 0 && mosi != TOKEN_START {
                    // Still waiting for the start token; idle bytes ok.
                    if mosi == 0xFF {
                        return;
                    }
                    // Garbage where a token should be: reject.
                    self.state = State::Ready;
                    self.out.push_back(DATA_CRC_ERROR);
                    return;
                }
                self.wbuf.push(mosi);
                let expected = 1 + BLOCK_SIZE + 2;
                if self.wbuf.len() == expected {
                    let data: &[u8] = &self.wbuf[1..1 + BLOCK_SIZE];
                    let sent_crc =
                        u16::from_be_bytes([self.wbuf[expected - 2], self.wbuf[expected - 1]]);
                    let ok = !self.crc_enabled || sent_crc == crc16(data);
                    if ok {
                        let mut block = [0u8; BLOCK_SIZE];
                        block.copy_from_slice(data);
                        self.dev.write_block(lba, &block);
                        self.blocks_written += 1;
                        self.out.push_back(DATA_ACCEPTED);
                        // Busy (programming) for a few byte times.
                        for _ in 0..4 {
                            self.out.push_back(0x00);
                        }
                    } else {
                        self.out.push_back(DATA_CRC_ERROR);
                    }
                    self.wbuf.clear();
                    self.state = State::Ready;
                } else {
                    self.state = State::WriteData {
                        received: received + 1,
                        lba,
                    };
                }
            }
        }
    }

    fn push_r1(&mut self, r1: u8) {
        // Ncr: one idle byte before the response.
        self.out.push_back(0xFF);
        self.out.push_back(r1);
    }

    fn run_command(&mut self) {
        self.commands += 1;
        let cmd = self.frame[0] & 0x3F;
        let arg = u32::from_be_bytes([self.frame[1], self.frame[2], self.frame[3], self.frame[4]]);

        // CRC7 is mandatory for CMD0/CMD8 and for everything once
        // CMD59 enabled checking.
        let must_check = self.crc_enabled || cmd == 0 || cmd == 8;
        if must_check {
            let expect = (crc7(&self.frame[..5]) << 1) | 1;
            if self.frame[5] != expect {
                self.push_r1(R1_CRC_ERROR | if self.initialized { 0 } else { R1_IDLE });
                self.app_cmd = false;
                return;
            }
        }

        let idle_bit = if self.initialized { 0x00 } else { R1_IDLE };
        let was_app = std::mem::take(&mut self.app_cmd);

        match (cmd, was_app) {
            (0, _) => {
                // GO_IDLE_STATE: software reset.
                self.initialized = false;
                self.init_polls_left = 2;
                self.push_r1(R1_IDLE);
            }
            (8, _) => {
                // SEND_IF_COND: R7 echoes voltage/check pattern.
                self.push_r1(idle_bit);
                self.out.extend([0x00, 0x00, 0x01, (arg & 0xFF) as u8]);
            }
            (55, _) => {
                self.app_cmd = true;
                self.push_r1(idle_bit);
            }
            (41, true) => {
                // ACMD41: SD_SEND_OP_COND.
                if self.init_polls_left > 0 {
                    self.init_polls_left -= 1;
                    self.push_r1(R1_IDLE);
                } else {
                    self.initialized = true;
                    self.push_r1(0x00);
                }
            }
            (58, _) => {
                // READ_OCR: high-capacity card, powered up.
                self.push_r1(idle_bit);
                self.out.extend([0xC0, 0xFF, 0x80, 0x00]);
            }
            (59, _) => {
                self.crc_enabled = arg & 1 != 0;
                self.push_r1(idle_bit);
            }
            (16, _) => {
                // SET_BLOCKLEN: only 512 supported.
                self.push_r1(if arg == BLOCK_SIZE as u32 {
                    idle_bit
                } else {
                    R1_ILLEGAL | idle_bit
                });
            }
            (17, _) => {
                // READ_SINGLE_BLOCK (block addressing, HC card).
                let lba = arg as u64;
                if !self.initialized || lba >= self.dev.num_blocks() {
                    self.push_r1(R1_ILLEGAL | idle_bit);
                    return;
                }
                self.push_r1(0x00);
                // Access time: a couple of idle bytes before the token.
                self.out.extend([0xFF, 0xFF]);
                self.out.push_back(TOKEN_START);
                let mut block = [0u8; BLOCK_SIZE];
                self.dev.read_block(lba, &mut block);
                let crc = crc16(&block);
                self.out.extend(block);
                self.out.extend(crc.to_be_bytes());
                self.blocks_read += 1;
            }
            (24, _) => {
                // WRITE_BLOCK.
                let lba = arg as u64;
                if !self.initialized || lba >= self.dev.num_blocks() {
                    self.push_r1(R1_ILLEGAL | idle_bit);
                    return;
                }
                self.push_r1(0x00);
                self.wbuf.clear();
                self.state = State::WriteData { received: 0, lba };
            }
            _ => {
                self.push_r1(R1_ILLEGAL | idle_bit);
            }
        }
    }
}

/// Host-side initialization + block I/O over a raw exchange function —
/// shared by the SoC's SPI driver and the tests. `clock` performs one
/// byte exchange.
pub mod host {
    use super::*;

    /// Exchange until a non-0xFF byte appears (response polling), with
    /// a bounded number of attempts.
    pub fn wait_response(mut clock: impl FnMut(u8) -> u8, max: usize) -> Option<u8> {
        for _ in 0..max {
            let b = clock(0xFF);
            if b != 0xFF {
                return Some(b);
            }
        }
        None
    }

    /// Run the SPI-mode initialization sequence. Returns `true` on
    /// success.
    pub fn init(mut clock: impl FnMut(u8) -> u8) -> bool {
        // ≥74 dummy clocks with CS high are the card's power-up
        // requirement; the SPI peripheral handles CS — here we just
        // supply the clocks.
        for _ in 0..10 {
            clock(0xFF);
        }
        // CMD0 until idle.
        let mut ok = false;
        for _ in 0..4 {
            for b in command_frame(0, 0) {
                clock(b);
            }
            if wait_response(&mut clock, 8) == Some(R1_IDLE) {
                ok = true;
                break;
            }
        }
        if !ok {
            return false;
        }
        // CMD8 with the 0x1AA check pattern.
        for b in command_frame(8, 0x1AA) {
            clock(b);
        }
        if wait_response(&mut clock, 8) != Some(R1_IDLE) {
            return false;
        }
        let mut echo = [0u8; 4];
        for e in &mut echo {
            *e = clock(0xFF);
        }
        if echo[3] != 0xAA {
            return false;
        }
        // ACMD41 until ready.
        for _ in 0..64 {
            for b in command_frame(55, 0) {
                clock(b);
            }
            wait_response(&mut clock, 8);
            for b in command_frame(41, 0x4000_0000) {
                clock(b);
            }
            if wait_response(&mut clock, 8) == Some(0x00) {
                return true;
            }
        }
        false
    }

    /// Read one 512-byte block via CMD17.
    pub fn read_block(
        mut clock: impl FnMut(u8) -> u8,
        lba: u32,
        out: &mut [u8; BLOCK_SIZE],
    ) -> bool {
        for b in command_frame(17, lba) {
            clock(b);
        }
        if wait_response(&mut clock, 8) != Some(0x00) {
            return false;
        }
        // Wait for the start token.
        let mut token = None;
        for _ in 0..1000 {
            let b = clock(0xFF);
            if b != 0xFF {
                token = Some(b);
                break;
            }
        }
        if token != Some(TOKEN_START) {
            return false;
        }
        for byte in out.iter_mut() {
            *byte = clock(0xFF);
        }
        let crc = u16::from_be_bytes([clock(0xFF), clock(0xFF)]);
        crc == crc16(out)
    }

    /// Write one 512-byte block via CMD24.
    pub fn write_block(mut clock: impl FnMut(u8) -> u8, lba: u32, data: &[u8; BLOCK_SIZE]) -> bool {
        for b in command_frame(24, lba) {
            clock(b);
        }
        if wait_response(&mut clock, 8) != Some(0x00) {
            return false;
        }
        clock(0xFF); // one gap byte
        clock(TOKEN_START);
        for &b in data.iter() {
            clock(b);
        }
        for b in crc16(data).to_be_bytes() {
            clock(b);
        }
        let resp = match wait_response(&mut clock, 16) {
            Some(r) => r & 0x1F,
            None => return false,
        };
        if resp != DATA_ACCEPTED {
            return false;
        }
        // Wait out busy (MISO low).
        for _ in 0..1000 {
            if clock(0xFF) == 0xFF {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;
    use proptest::prelude::*;

    fn card() -> SdCard<MemBlockDevice> {
        SdCard::new(MemBlockDevice::with_mib(4))
    }

    #[test]
    fn crc7_known_vectors() {
        // CMD0 arg 0 has the well-known frame CRC 0x95.
        assert_eq!(command_frame(0, 0)[5], 0x95);
        // CMD8 arg 0x1AA has frame CRC 0x87.
        assert_eq!(command_frame(8, 0x1AA)[5], 0x87);
    }

    #[test]
    fn crc16_detects_change() {
        let a = [0u8; BLOCK_SIZE];
        let mut b = a;
        b[100] = 1;
        assert_ne!(crc16(&a), crc16(&b));
    }

    #[test]
    fn init_sequence_succeeds() {
        let mut c = card();
        assert!(host::init(|b| c.exchange(b)));
        assert!(c.is_initialized());
    }

    #[test]
    fn read_before_init_is_illegal() {
        let mut c = card();
        let mut buf = [0u8; BLOCK_SIZE];
        assert!(!host::read_block(|b| c.exchange(b), 0, &mut buf));
    }

    #[test]
    fn write_then_read_block() {
        let mut c = card();
        assert!(host::init(|b| c.exchange(b)));
        let mut data = [0u8; BLOCK_SIZE];
        for (i, d) in data.iter_mut().enumerate() {
            *d = (i % 255) as u8;
        }
        assert!(host::write_block(|b| c.exchange(b), 7, &data));
        let mut back = [0u8; BLOCK_SIZE];
        assert!(host::read_block(|b| c.exchange(b), 7, &mut back));
        assert_eq!(back, data);
        assert_eq!(c.blocks_written(), 1);
        assert_eq!(c.blocks_read(), 1);
    }

    #[test]
    fn out_of_range_lba_rejected() {
        let mut c = card();
        assert!(host::init(|b| c.exchange(b)));
        let blocks = c.device().num_blocks() as u32;
        let mut buf = [0u8; BLOCK_SIZE];
        assert!(!host::read_block(|b| c.exchange(b), blocks, &mut buf));
    }

    #[test]
    fn bad_command_crc_rejected() {
        let mut c = card();
        // CMD0 with a wrong CRC byte.
        let mut frame = command_frame(0, 0);
        frame[5] ^= 0x02;
        for b in frame {
            c.exchange(b);
        }
        let r = host::wait_response(|b| c.exchange(b), 8).unwrap();
        assert!(r & R1_CRC_ERROR != 0);
    }

    #[test]
    fn cmd0_resets_card() {
        let mut c = card();
        assert!(host::init(|b| c.exchange(b)));
        for b in command_frame(0, 0) {
            c.exchange(b);
        }
        assert_eq!(host::wait_response(|b| c.exchange(b), 8), Some(R1_IDLE));
        assert!(!c.is_initialized());
    }

    #[test]
    fn unknown_command_returns_illegal() {
        let mut c = card();
        assert!(host::init(|b| c.exchange(b)));
        for b in command_frame(42, 0) {
            c.exchange(b);
        }
        let r = host::wait_response(|b| c.exchange(b), 8).unwrap();
        assert!(r & R1_ILLEGAL != 0);
    }

    #[test]
    fn fat32_over_sd_card_end_to_end() {
        // Format a FAT32 volume, wrap it in an SD card, and read a file
        // back through the SPI protocol + a mounted view of the raw
        // device image reconstructed from block reads.
        use crate::fat32::Fat32Volume;
        let mut vol = Fat32Volume::format(MemBlockDevice::with_mib(4)).unwrap();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 201) as u8).collect();
        vol.create("BITS.PBI", &payload).unwrap();
        let mut c = SdCard::new(vol.into_device());
        assert!(host::init(|b| c.exchange(b)));
        // Re-read the whole device through CMD17 into a fresh image.
        let n = c.device().num_blocks();
        let mut image = MemBlockDevice::new(n);
        for lba in 0..n as u32 {
            let mut buf = [0u8; BLOCK_SIZE];
            assert!(host::read_block(|b| c.exchange(b), lba, &mut buf));
            image.write_block(lba as u64, &buf);
        }
        let mut vol2 = Fat32Volume::mount(image).unwrap();
        assert_eq!(vol2.read("BITS.PBI").unwrap(), payload);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_block_round_trip_via_spi(data in proptest::collection::vec(any::<u8>(), BLOCK_SIZE..=BLOCK_SIZE),
                                         lba in 0u32..512) {
            let mut c = card();
            prop_assert!(host::init(|b| c.exchange(b)));
            let mut block = [0u8; BLOCK_SIZE];
            block.copy_from_slice(&data);
            prop_assert!(host::write_block(|b| c.exchange(b), lba, &block));
            let mut back = [0u8; BLOCK_SIZE];
            prop_assert!(host::read_block(|b| c.exchange(b), lba, &mut back));
            prop_assert_eq!(back, block);
        }
    }
}
