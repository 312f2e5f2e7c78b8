//! Calibration pins: the paper's headline numbers, measured on the
//! full system, asserted with tight tolerances. The simulation is
//! deterministic, so any drift here means a model change altered the
//! reproduced results — these tests are the contract of EXPERIMENTS.md.

use rvcap_repro::accel::library::filter_library;
use rvcap_repro::accel::{run_accelerator, FilterKind, Image};
use rvcap_repro::core::drivers::{DmaMode, HwIcapDriver, ReconfigModule, RvCapDriver};
use rvcap_repro::core::system::SocBuilder;
use rvcap_repro::fabric::bitstream::{Bitstream, BitstreamBuilder};
use rvcap_repro::fabric::resources::Resources;
use rvcap_repro::fabric::rm::{RmImage, RmLibrary};
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::soc::map::DDR_BASE;

fn paper_rig() -> (rvcap_repro::core::system::RvCapSoc, ReconfigModule) {
    let geometry = RpGeometry::paper_rp();
    let img = RmImage::synthesize("CAL", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .build();
    let bs = BitstreamBuilder::kintex7().partial(soc.handles.rps[0].far_base, &img.payload);
    let bytes = bs.to_bytes();
    let stage = DDR_BASE + 0x40_0000;
    soc.handles.ddr.write_bytes(stage, &bytes);
    let module = ReconfigModule {
        name: "CAL".into(),
        rm_number: 0,
        start_address: stage,
        pbit_size: bytes.len() as u32,
    };
    (soc, module)
}

/// §IV-A: the paper RP's partial bitstream is exactly 650 892 bytes.
#[test]
fn paper_bitstream_size() {
    assert_eq!(RpGeometry::paper_rp().bitstream_bytes(), 650_892);
    assert_eq!(Bitstream::size_for_frames(1611), 650_892);
}

/// §IV-B / Table IV: T_d = 18 µs, T_r = 1651 µs (we measure 1649,
/// −0.12 %), throughput within [394, 400] MB/s.
#[test]
fn rvcap_headline_timings() {
    let (mut soc, module) = paper_rig();
    let d = RvCapDriver::new(0, soc.handles.plic.clone());
    let t = d.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    assert!(
        (t.td_us() - 18.0).abs() <= 1.0,
        "Td {} µs (paper 18)",
        t.td_us()
    );
    assert!(
        (t.tr_us() - 1651.0).abs() <= 10.0,
        "Tr {} µs (paper 1651)",
        t.tr_us()
    );
    let mbs = t.throughput_mbs(module.pbit_size as u64);
    assert!(
        mbs > 393.0 && mbs < 400.0,
        "throughput {mbs} MB/s (paper 398.1 max, 400 ceiling)"
    );
}

/// §IV-C / Fig. 3: the maximum reconfiguration throughput over larger
/// bitstreams reaches the paper's 398.1 MB/s (and never the 400 MB/s
/// ceiling).
#[test]
fn rvcap_max_throughput_reaches_398() {
    let geometry = RpGeometry::scaled(48, 12, 4);
    let img = RmImage::synthesize("BIG", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .build();
    let bs = BitstreamBuilder::kintex7().partial(soc.handles.rps[0].far_base, &img.payload);
    let bytes = bs.to_bytes();
    soc.handles.ddr.write_bytes(DDR_BASE + 0x40_0000, &bytes);
    let module = ReconfigModule {
        name: "BIG".into(),
        rm_number: 0,
        start_address: DDR_BASE + 0x40_0000,
        pbit_size: bytes.len() as u32,
    };
    let d = RvCapDriver::new(0, soc.handles.plic.clone());
    let t = d.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    let mbs = t.throughput_mbs(module.pbit_size as u64);
    assert!((397.0..400.0).contains(&mbs), "max throughput {mbs} MB/s");
}

/// Table IV: T_c of a straight 512×512 run — reconfigure, then stream
/// the image through the fresh module at once — pinned exactly, in
/// simulated cycles (100 MHz) and in CLINT ticks (5 MHz, the paper's
/// µs × 5), with every output equal to its golden filter. Paper:
/// Gaussian 606, Median 598, Sobel 588 µs. T_c does not depend on the
/// partition's size, so a one-column RP keeps the reconfiguration
/// cheap in debug builds.
#[test]
fn table4_straight_compute_times() {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let dim = Image::PAPER_DIM;
    let input = Image::noise(dim, dim, 2024);
    let (in_addr, out_addr, stage) = (
        DDR_BASE + 0x10_0000,
        DDR_BASE + 0x60_0000,
        DDR_BASE + 0xA0_0000,
    );
    for (kind, want_cycles, want_ticks) in [
        (FilterKind::Gaussian, 60_601, 3_029),
        (FilterKind::Median, 59_618, 2_980),
        (FilterKind::Sobel, 58_635, 2_931),
    ] {
        let lib = filter_library(&geometry, dim, dim);
        let rm = lib.by_name(kind.name()).unwrap().clone();
        let mut soc = SocBuilder::new()
            .with_rps(vec![geometry.clone()])
            .with_library(lib)
            .build();
        let bytes = BitstreamBuilder::kintex7()
            .partial(soc.handles.rps[0].far_base, &rm.payload)
            .to_bytes();
        soc.handles.ddr.write_bytes(stage, &bytes);
        soc.handles.ddr.write_bytes(in_addr, input.as_bytes());
        let module = ReconfigModule {
            name: kind.name().into(),
            rm_number: 0,
            start_address: stage,
            pbit_size: bytes.len() as u32,
        };
        let plic = soc.handles.plic.clone();
        RvCapDriver::new(0, plic.clone()).init_reconfig_process(
            &mut soc.core,
            &module,
            DmaMode::NonBlocking,
        );
        let icap = soc.handles.icap.clone();
        soc.core.wait_until(100_000, || !icap.busy()).unwrap();

        let start = soc.core.now();
        let ticks = run_accelerator(
            &mut soc.core,
            &plic,
            0,
            in_addr,
            out_addr,
            (dim * dim) as u32,
        );
        let cycles = soc.core.now() - start;
        assert_eq!(
            (cycles, ticks),
            (want_cycles, want_ticks),
            "{}: T_c (cycles, CLINT ticks)",
            kind.name()
        );
        assert_eq!(
            soc.handles.ddr.read_bytes(out_addr, dim * dim),
            kind.golden(&input).as_bytes(),
            "{}: output differs from the golden filter",
            kind.name()
        );
    }
}

/// §IV-B: the HWICAP driver reaches 4.16 MB/s without unrolling —
/// giving the paper's 156.45 ms for the 650 892-byte bitstream — and
/// ~8.23 MB/s with the 16-unrolled loop.
#[test]
fn hwicap_throughput_both_unroll_points() {
    // Small RP: the per-word cost is identical, only duration scales.
    let geometry = RpGeometry::scaled(2, 0, 0);
    let img = RmImage::synthesize("HW", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let build = || {
        let mut l = RmLibrary::new();
        l.register_image(img.clone());
        let soc = SocBuilder::new()
            .with_rps(vec![geometry.clone()])
            .with_library(l)
            .build();
        let bs = BitstreamBuilder::kintex7().partial(soc.handles.rps[0].far_base, &img.payload);
        let bytes = bs.to_bytes();
        soc.handles.ddr.write_bytes(DDR_BASE + 0x40_0000, &bytes);
        let module = ReconfigModule {
            name: "HW".into(),
            rm_number: 0,
            start_address: DDR_BASE + 0x40_0000,
            pbit_size: bytes.len() as u32,
        };
        (soc, module)
    };
    drop(lib);

    let (mut soc, module) = build();
    let ddr = soc.handles.ddr.clone();
    let ticks = HwIcapDriver::with_unroll(1).reconfigure_rp(&mut soc.core, &ddr, &module);
    let mbs1 = module.pbit_size as f64 / (ticks as f64 / 5.0);
    assert!((mbs1 - 4.16).abs() < 0.1, "u=1: {mbs1} MB/s (paper 4.16)");

    let (mut soc, module) = build();
    let ddr = soc.handles.ddr.clone();
    let ticks = HwIcapDriver::with_unroll(16).reconfigure_rp(&mut soc.core, &ddr, &module);
    let mbs16 = module.pbit_size as f64 / (ticks as f64 / 5.0);
    assert!(
        (mbs16 - 8.23).abs() < 0.2,
        "u=16: {mbs16} MB/s (paper 8.23)"
    );

    // The paper's 156.45 ms extrapolates from the u=1 rate.
    let ms_for_paper_bitstream = 650_892.0 / mbs1 / 1000.0;
    assert!(
        (ms_for_paper_bitstream - 156.45).abs() < 2.0,
        "full-bitstream u=1 time {ms_for_paper_bitstream:.2} ms (paper 156.45)"
    );
}

/// Table I/II resource totals are derived, not hard-coded, and equal
/// the paper's numbers.
#[test]
fn resource_totals() {
    use rvcap_repro::core::resources::{full_soc_report, hwicap_report, rvcap_report};
    assert_eq!(rvcap_report().total(), Resources::new(2317, 3953, 6, 0));
    assert_eq!(hwicap_report().total(), Resources::new(1377, 2200, 2, 0));
    assert_eq!(
        full_soc_report().total(),
        Resources::new(74_393, 64_059, 92, 47)
    );
}

/// Table II models: measured throughput within 3 % of every published
/// figure (run at a reduced size; the models' rates are size-stable).
#[test]
fn table2_models_match_published() {
    for row in rvcap_repro::baselines::table2_rows(101 * 120) {
        let rel = (row.measured_mbs - row.published_mbs).abs() / row.published_mbs;
        assert!(
            rel < 0.03,
            "{}: {:.1} vs {:.1}",
            row.name,
            row.measured_mbs,
            row.published_mbs
        );
    }
}
