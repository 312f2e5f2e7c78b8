//! The four workloads: one warm-booted, checkpointed SoC each, and one
//! paper operation ("op") that every fork of it runs.
//!
//! The seed generates inputs only — which staged RM payload, image or
//! file an op uses, the image pixels, the file bytes and the op order.
//! Every op forks from the same checkpoint, so its simulated cycles do
//! not depend on the seed; [`Kind::pinned_cycles`] pins them.

use std::time::{Duration, Instant};

use rvcap_accel::{paper_filter_library, run_accelerator, FilterKind, Image};
use rvcap_bench::paper_soc::STAGE_ADDR;
use rvcap_bench::runner::assert_clean_mmio;
use rvcap_core::drivers::{init_rmodules, DmaMode, HwIcapDriver, ReconfigModule, RvCapDriver};
use rvcap_core::system::{RvCapSoc, SocBuilder};
use rvcap_fabric::bitstream::BitstreamBuilder;
use rvcap_fabric::resources::Resources;
use rvcap_fabric::rm::{RmImage, RmLibrary};
use rvcap_fabric::rp::RpGeometry;
use rvcap_sim::{StateBlob, StateValue};
use rvcap_soc::cpu::SocState;
use rvcap_soc::map::DDR_BASE;

use crate::trace::Tracer;

/// Staged inputs sit in 1 MiB-aligned slots, so every slot streams
/// through the same DDR row pattern and the simulated cycles of an op
/// do not depend on which slot it uses.
const SLOT: u64 = 0x10_0000;
/// First image-input slot of `accel_stream` (below [`STAGE_ADDR`]).
const IMAGE_ADDR: u64 = DDR_BASE + 0x10_0000;
/// Where `accel_stream` writes its output. Input and output addresses
/// are those of the Table IV harness, so T_c compares like for like
/// (the DDR bank pattern of reads against writes sets T_c).
const OUT_ADDR: u64 = DDR_BASE + 0x60_0000;
/// `sd_stage` file size: the scaled(1,0,0) partial bitstream's size.
const SD_FILE_BYTES: usize = 14_592;
/// Inputs generated per workload; each op picks one by seeded order.
const INPUTS: usize = 3;
/// Simulated-cycle limit for the post-DMA ICAP drain wait.
const DRAIN_LIMIT: u64 = 100_000;

/// One workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// RV-CAP DMA reconfiguration of the paper RP (Listing 1).
    DmaReconfig,
    /// Sobel accelerator over a 512x512 image (acceleration mode).
    AccelStream,
    /// AXI_HWICAP 16-unrolled CPU-driven reconfiguration (Listing 2).
    MmioReconfig,
    /// `init_RModules`: one file from FAT32 on SD over SPI into DDR.
    SdStage,
}

/// What an op is checked against, besides its pinned cycle count.
enum Input {
    /// A staged bitstream; the RM host must report `module.name`.
    Module(ReconfigModule),
    /// A staged image; the output must equal `golden`.
    Image { addr: u64, golden: Vec<u8> },
    /// A file on the SD card; DDR must hold `bytes` after staging.
    File { name: String, bytes: Vec<u8> },
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::DmaReconfig,
        Kind::AccelStream,
        Kind::MmioReconfig,
        Kind::SdStage,
    ];

    /// Workload name as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DmaReconfig => "dma_reconfig",
            Kind::AccelStream => "accel_stream",
            Kind::MmioReconfig => "mmio_reconfig",
            Kind::SdStage => "sd_stage",
        }
    }

    /// Parse a `--workload` argument.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Simulated cycles of one op. A fork that leaks state, or a
    /// program change that moves simulated timing, shows up here as a
    /// failed op.
    pub fn pinned_cycles(self) -> u64 {
        match self {
            Kind::DmaReconfig => 166_770,
            Kind::AccelStream => 60_034,
            Kind::MmioReconfig => 1_463_238,
            Kind::SdStage => 1_144_164,
        }
    }

    /// The paper's number for the op's simulated result: T_r 1651 µs
    /// (Table IV), Sobel T_c 588 µs (Table IV), 8.23 MB/s AXI_HWICAP
    /// (Table I). `sd_stage` has none: the paper reports no SD timing.
    pub fn paper_reference(self) -> Option<f64> {
        match self {
            Kind::DmaReconfig => Some(1651.0),
            Kind::AccelStream => Some(588.0),
            Kind::MmioReconfig => Some(8.23),
            Kind::SdStage => None,
        }
    }
}

/// Host time of each setup step (one setup).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// RM image synthesis (`RmImage::synthesize`, filter libraries).
    pub synthesize: Duration,
    /// Partial-bitstream assembly (`BitstreamBuilder`).
    pub bitstream: Duration,
    /// `SocBuilder::build` (incl. the SD card's FAT32 image).
    pub build: Duration,
    /// Simulated boot work (`accel_stream` loads Sobel).
    pub boot: Duration,
    /// Backdoor staging of bitstreams and images into DDR.
    pub stage: Duration,
    /// The post-boot checkpoint.
    pub checkpoint: Duration,
}

impl SetupTimes {
    /// Whole set-up.
    pub fn total(&self) -> Duration {
        self.synthesize + self.bitstream + self.build + self.boot + self.stage + self.checkpoint
    }
}

/// Deterministic input generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Per-op results read off the simulator after the op.
pub struct OpOutcome {
    /// Simulated cycles the op covered.
    pub cycles: u64,
    /// Simulated result comparable with [`Kind::paper_reference`].
    pub sim_value: f64,
    /// MMIO reads/writes the CPU issued.
    pub mmio: (u64, u64),
    /// Kernel accounting of the op (stats were reset at the fork).
    pub stats: rvcap_sim::KernelStats,
}

/// A built, booted and checkpointed workload.
pub struct Rig {
    kind: Kind,
    soc: RvCapSoc,
    base: SocState,
    inputs: Vec<Input>,
    pinned_cycles: u64,
}

/// Time `f` into `slot` and record it as a span.
fn step<R>(
    tracer: &mut Tracer,
    name: &'static str,
    slot: &mut Duration,
    f: impl FnOnce() -> R,
) -> R {
    let id = tracer.begin(name, None);
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed();
    tracer.end(id);
    r
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

fn stage_modules(
    soc: &RvCapSoc,
    images: &[RmImage],
    times: &mut SetupTimes,
    tracer: &mut Tracer,
) -> Vec<Input> {
    let far = soc.handles.rps[0].far_base;
    let bitstreams: Vec<Vec<u8>> = step(tracer, "fabric.bitstream", &mut times.bitstream, || {
        images
            .iter()
            .map(|img| {
                BitstreamBuilder::kintex7()
                    .partial(far, &img.payload)
                    .to_bytes()
            })
            .collect()
    });
    step(tracer, "soc.stage", &mut times.stage, || {
        images
            .iter()
            .zip(&bitstreams)
            .enumerate()
            .map(|(k, (img, bytes))| {
                let addr = STAGE_ADDR + k as u64 * SLOT;
                soc.handles.ddr.write_bytes(addr, bytes);
                Input::Module(ReconfigModule {
                    name: img.name.clone(),
                    rm_number: k as u32,
                    start_address: addr,
                    pbit_size: bytes.len() as u32,
                })
            })
            .collect()
    })
}

impl Rig {
    /// Build, boot, stage and checkpoint `kind`'s SoC with inputs from
    /// `seed`. Input generation (image pixels, goldens, file bytes) is
    /// not part of `SetupTimes`.
    pub fn setup(kind: Kind, seed: u64, tracer: &mut Tracer) -> (Rig, SetupTimes) {
        let mut rng = Rng::new(seed);
        let mut t = SetupTimes::default();
        let setup_span = tracer.begin("setup", None);
        let (soc, inputs) = match kind {
            Kind::DmaReconfig => {
                let lib = step(
                    tracer,
                    "fabric.synthesize",
                    &mut t.synthesize,
                    paper_filter_library,
                );
                let images: Vec<RmImage> = lib.images().cloned().collect();
                let soc = step(tracer, "core.build", &mut t.build, || {
                    SocBuilder::new()
                        .with_rps(vec![RpGeometry::paper_rp()])
                        .with_library(lib)
                        .build()
                });
                let inputs = stage_modules(&soc, &images, &mut t, tracer);
                (soc, inputs)
            }
            Kind::MmioReconfig => {
                let geometry = RpGeometry::scaled(4, 1, 0);
                let (lib, images) = step(tracer, "fabric.synthesize", &mut t.synthesize, || {
                    let mut lib = RmLibrary::new();
                    let images: Vec<RmImage> = (0..INPUTS)
                        .map(|k| {
                            let img = RmImage::synthesize(
                                &format!("Module{k}"),
                                geometry.frames(),
                                Resources::new(901, 773, 4, 0),
                            );
                            lib.register_image(img.clone());
                            img
                        })
                        .collect();
                    (lib, images)
                });
                let soc = step(tracer, "core.build", &mut t.build, || {
                    SocBuilder::new()
                        .with_rps(vec![geometry])
                        .with_library(lib)
                        .build()
                });
                let inputs = stage_modules(&soc, &images, &mut t, tracer);
                (soc, inputs)
            }
            Kind::AccelStream => {
                let dim = Image::PAPER_DIM;
                let pictures: Vec<Image> = (0..INPUTS)
                    .map(|_| Image::noise(dim, dim, rng.next_u64()))
                    .collect();
                let goldens: Vec<Vec<u8>> = pictures
                    .iter()
                    .map(|p| FilterKind::Sobel.golden(p).as_bytes().to_vec())
                    .collect();
                let lib = step(
                    tracer,
                    "fabric.synthesize",
                    &mut t.synthesize,
                    paper_filter_library,
                );
                let sobel = lib
                    .by_name(FilterKind::Sobel.name())
                    .expect("the filter library holds Sobel")
                    .clone();
                let mut soc = step(tracer, "core.build", &mut t.build, || {
                    SocBuilder::new()
                        .with_rps(vec![RpGeometry::paper_rp()])
                        .with_library(lib)
                        .build()
                });
                let Input::Module(module) = stage_modules(&soc, &[sobel], &mut t, tracer).remove(0)
                else {
                    unreachable!("stage_modules stages modules")
                };
                step(tracer, "core.boot", &mut t.boot, || {
                    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
                    driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
                    let icap = soc.handles.icap.clone();
                    soc.core
                        .wait_until(DRAIN_LIMIT, || !icap.busy())
                        .expect("ICAP drains after the Sobel load");
                });
                assert_eq!(
                    soc.handles.rm_hosts[0].active_module().as_deref(),
                    Some(FilterKind::Sobel.name()),
                    "Sobel is active after boot"
                );
                let inputs = step(tracer, "soc.stage", &mut t.stage, || {
                    pictures
                        .iter()
                        .zip(goldens)
                        .enumerate()
                        .map(|(k, (p, golden))| {
                            let addr = IMAGE_ADDR + k as u64 * SLOT;
                            soc.handles.ddr.write_bytes(addr, p.as_bytes());
                            Input::Image { addr, golden }
                        })
                        .collect()
                });
                (soc, inputs)
            }
            Kind::SdStage => {
                let files: Vec<(String, Vec<u8>)> = (0..INPUTS)
                    .map(|k| {
                        (
                            format!("MODULE{k}.PBI"),
                            random_bytes(&mut rng, SD_FILE_BYTES),
                        )
                    })
                    .collect();
                let soc = step(tracer, "core.build", &mut t.build, || {
                    files
                        .iter()
                        .fold(SocBuilder::new(), |b, (name, bytes)| {
                            b.with_sd_file(name, bytes.clone())
                        })
                        .build()
                });
                let inputs = files
                    .into_iter()
                    .map(|(name, bytes)| Input::File { name, bytes })
                    .collect();
                (soc, inputs)
            }
        };
        let base = step(tracer, "sim.checkpoint", &mut t.checkpoint, || {
            soc.core.checkpoint().expect("post-boot checkpoint")
        });
        tracer.end(setup_span);
        let rig = Rig {
            kind,
            soc,
            base,
            inputs,
            pinned_cycles: kind.pinned_cycles(),
        };
        (rig, t)
    }

    /// Number of distinct inputs an op can pick.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Bytes held by the checkpoint every op forks from.
    pub fn checkpoint_bytes(&self) -> u64 {
        let sim = &self.base.sim;
        sim.components
            .iter()
            .map(|c| blob_bytes(&c.blob))
            .sum::<u64>()
            + sim.sanitizer.as_ref().map_or(0, blob_bytes)
            + blob_bytes(&self.base.cpu)
    }

    /// Turn per-tick host-time profiling on or off.
    pub fn set_profiling(&mut self, on: bool) {
        self.soc.core.sim.set_profiling(on);
    }

    /// Fork: rewind to the checkpoint and zero the kernel counters.
    pub fn fork(&mut self) {
        self.soc
            .core
            .restore(&self.base)
            .expect("fork from the checkpoint");
        self.soc.core.sim.reset_stats();
    }

    /// Run one op on input `input` of a freshly forked SoC. Spans go
    /// to `tracer` when given. Returns the simulated result.
    pub fn execute(&mut self, input: usize, op: u64, mut tracer: Option<&mut Tracer>) -> f64 {
        let span =
            |t: &mut Option<&mut Tracer>, name| t.as_deref_mut().map(|t| t.begin(name, Some(op)));
        let close = |t: &mut Option<&mut Tracer>, id: Option<usize>| {
            if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
                t.end(id);
            }
        };
        let soc = &mut self.soc;
        match &self.inputs[input] {
            Input::Module(module) if self.kind == Kind::DmaReconfig => {
                let id = span(&mut tracer, "core.drivers.rvcap.init_reconfig_process");
                let driver = RvCapDriver::new(0, soc.handles.plic.clone());
                let timing =
                    driver.init_reconfig_process(&mut soc.core, module, DmaMode::NonBlocking);
                close(&mut tracer, id);
                let id = span(&mut tracer, "soc.cpu.wait_until");
                let icap = soc.handles.icap.clone();
                soc.core
                    .wait_until(DRAIN_LIMIT, || !icap.busy())
                    .expect("ICAP drains after the DMA interrupt");
                close(&mut tracer, id);
                timing.tr_us()
            }
            Input::Module(module) => {
                let id = span(&mut tracer, "core.drivers.hwicap.reconfigure_rp");
                let ddr = soc.handles.ddr.clone();
                let ticks =
                    HwIcapDriver::with_unroll(16).reconfigure_rp(&mut soc.core, &ddr, module);
                close(&mut tracer, id);
                // CLINT ticks at 5 MHz: bytes per µs is MB/s.
                module.pbit_size as f64 / (ticks as f64 / 5.0)
            }
            Input::Image { addr, golden } => {
                let id = span(&mut tracer, "accel.run_accelerator");
                let plic = soc.handles.plic.clone();
                let ticks = run_accelerator(
                    &mut soc.core,
                    &plic,
                    0,
                    *addr,
                    OUT_ADDR,
                    golden.len() as u32,
                );
                close(&mut tracer, id);
                ticks as f64 / 5.0
            }
            Input::File { name, .. } => {
                let id = span(&mut tracer, "core.drivers.storage.init_rmodules");
                init_rmodules(
                    &mut soc.core,
                    &soc.handles.ddr,
                    STAGE_ADDR,
                    &[name.as_str()],
                );
                close(&mut tracer, id);
                // No paper reference; `check` compares the DDR bytes.
                0.0
            }
        }
    }

    /// Check a finished op: pinned cycles, the workload's functional
    /// result, and a clean MMIO/protocol audit (which panics on a
    /// violation — callers run ops under `catch_unwind`).
    pub fn check(&self, input: usize, cycles: u64) -> Result<(), String> {
        if cycles != self.pinned_cycles {
            return Err(format!(
                "{}: op took {cycles} simulated cycles, pinned {}",
                self.kind.name(),
                self.pinned_cycles
            ));
        }
        let h = &self.soc.handles;
        match &self.inputs[input] {
            Input::Module(m) => {
                let active = h.rm_hosts[0].active_module();
                if active.as_deref() != Some(m.name.as_str()) {
                    return Err(format!("RM host reports {active:?}, expected {}", m.name));
                }
            }
            Input::Image { golden, .. } => {
                if h.ddr.read_bytes(OUT_ADDR, golden.len()) != *golden {
                    return Err("accelerator output differs from the golden filter".into());
                }
            }
            Input::File { name, bytes } => {
                if h.ddr.read_bytes(STAGE_ADDR, bytes.len()) != *bytes {
                    return Err(format!("DDR does not hold {name} after staging"));
                }
            }
        }
        assert_clean_mmio(&self.soc);
        Ok(())
    }

    /// Cycle, MMIO and kernel counters of the op that just ran.
    pub fn outcome(&self, start_cycle: u64, mmio0: (u64, u64), sim_value: f64) -> OpOutcome {
        let core = &self.soc.core;
        OpOutcome {
            cycles: core.now() - start_cycle,
            sim_value,
            mmio: (core.mmio_reads() - mmio0.0, core.mmio_writes() - mmio0.1),
            stats: core.sim.kernel_stats(),
        }
    }

    /// Simulated cycle and MMIO counters right now.
    pub fn counters(&self) -> (u64, (u64, u64)) {
        let core = &self.soc.core;
        (core.now(), (core.mmio_reads(), core.mmio_writes()))
    }

    /// The bytes of the SD files (`sd_stage` only).
    pub fn sd_files(&self) -> Vec<(&str, &[u8])> {
        self.inputs
            .iter()
            .filter_map(|i| match i {
                Input::File { name, bytes } => Some((name.as_str(), bytes.as_slice())),
                _ => None,
            })
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn set_pinned_cycles(&mut self, cycles: u64) {
        self.pinned_cycles = cycles;
    }
}

/// Payload bytes held by a state blob (bulk memories, word buffers,
/// strings; 8 bytes per scalar).
fn blob_bytes(blob: &StateBlob) -> u64 {
    blob.fields().map(|(_, v)| value_bytes(v)).sum()
}

fn value_bytes(v: &StateValue) -> u64 {
    match v {
        StateValue::Bytes(b) => b.len() as u64,
        StateValue::Words(w) => 4 * w.len() as u64,
        StateValue::Str(s) => s.len() as u64,
        StateValue::List(l) => l.iter().map(value_bytes).sum(),
        StateValue::Blob(b) => blob_bytes(b),
        _ => 8,
    }
}
