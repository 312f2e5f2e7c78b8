//! One benchmark run: set-up, a closed loop of forked ops, checks, and
//! the metrics `BENCHMARK.json` names.
//!
//! The loop is closed and single-threaded: the next op forks only
//! after the previous one was checked. An untraced run reports the
//! end-to-end metrics. A traced run measures an untraced half and a
//! traced half (spans plus `Simulator::set_profiling`) and reports the
//! per-layer metrics, including the tracing overhead between the two.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rvcap_storage::{Fat32Volume, MemBlockDevice};

use crate::host::{peak_rss_mb, HostProbe, Probe};
use crate::trace::Tracer;
use crate::workload::{Kind, OpOutcome, Rig, Rng, SetupTimes};

/// Per-layer rows of the host-time account, each a set of simulator
/// components (by instance name). `other` takes every component no
/// named layer claims, so the rows plus `sim.outside_tick_ms` sum to
/// the traced op wall time.
const LAYERS: [&str; 12] = [
    "axi.xbar",
    "axi.switch",
    "axi.iso",
    "axi.adapter",
    "core.dma",
    "core.axis2icap",
    "core.hwicap",
    "fabric.icap",
    "fabric.rm_host",
    "soc.ddr",
    "soc.spi",
    "other",
];

/// The layer a simulator component belongs to (index into [`LAYERS`]).
fn layer_of(component: &str) -> usize {
    let layer = match component {
        "xbar" => "axi.xbar",
        "switch" => "axi.switch",
        c if c.starts_with("iso") => "axi.iso",
        c if c.ends_with(".adapter") => "axi.adapter",
        "dma" => "core.dma",
        "axis2icap" => "core.axis2icap",
        "hwicap" => "core.hwicap",
        "icap" => "fabric.icap",
        c if c.starts_with("host") => "fabric.rm_host",
        "ddr" => "soc.ddr",
        "spi" => "soc.spi",
        _ => "other",
    };
    LAYERS
        .iter()
        .position(|l| *l == layer)
        .expect("layer listed")
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Repetitions of the host-only FAT32 mount+read probe.
const FAT_REPS: usize = 200;

/// What to run.
pub struct Config {
    /// Workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Seconds of op loop.
    pub seconds: f64,
    /// Traced (per-layer) run instead of an end-to-end run.
    pub trace: bool,
}

/// One metric value.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of a run.
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check or panicked.
    pub failed: u64,
    /// First failure reasons (at most a few).
    pub failures: Vec<String>,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Free-form context lines (host probes, sample counts).
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub tracer: Tracer,
}

impl Report {
    /// Every op passed its checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// One verified op.
struct Sample {
    fork: Duration,
    op: Duration,
    out: OpOutcome,
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Fork, run and check one op. A panic anywhere in it is a failed op:
/// the next fork restores every component, so the run goes on.
fn run_op(
    rig: &mut Rig,
    input: usize,
    op: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Sample, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let fork_span = tracer.as_deref_mut().map(|t| t.begin("sim.fork", Some(op)));
        let t0 = Instant::now();
        rig.fork();
        let t1 = Instant::now();
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), fork_span) {
            t.end(id);
        }
        let (cycle0, mmio0) = rig.counters();
        let op_span = tracer.as_deref_mut().map(|t| t.begin("op", Some(op)));
        let t2 = Instant::now();
        let sim_value = rig.execute(input, op, tracer.as_deref_mut());
        let t3 = Instant::now();
        let out = rig.outcome(cycle0, mmio0, sim_value);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), op_span) {
            t.end(id);
            for (layer, ns) in LAYERS.iter().zip(layer_sums(&out, |c| c.host_ns)) {
                t.annotate(id, format!("{layer}.self_ms"), ns as f64 / 1e6);
            }
        }
        rig.check(input, out.cycles)?;
        Ok(Sample {
            fork: t1 - t0,
            op: t3 - t2,
            out,
        })
    }));
    if let Some(t) = tracer {
        t.unwind();
    }
    result.unwrap_or_else(|p| Err(format!("op panicked: {}", panic_text(p.as_ref()))))
}

/// A per-component counter summed per layer.
fn layer_sums(
    out: &OpOutcome,
    f: impl Fn(&rvcap_sim::ComponentStats) -> u64,
) -> [u64; LAYERS.len()] {
    let mut sums = [0u64; LAYERS.len()];
    for c in &out.stats.components {
        sums[layer_of(&c.name)] += f(c);
    }
    sums
}

/// Nearest-rank percentile of unsorted values.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median_ms(durations: impl Iterator<Item = Duration>) -> f64 {
    let v: Vec<f64> = durations.map(|d| d.as_secs_f64() * 1e3).collect();
    percentile(&v, 50.0)
}

/// Ops run for `seconds`, outcomes kept.
struct Pass {
    samples: Vec<Sample>,
    failed: u64,
    failures: Vec<String>,
}

fn op_loop(
    rig: &mut Rig,
    order: &mut Rng,
    next_op: &mut u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass {
        samples: Vec::new(),
        failed: 0,
        failures: Vec::new(),
    };
    let start = Instant::now();
    while pass.samples.len() as u64 + pass.failed == 0 || start.elapsed().as_secs_f64() < seconds {
        let input = order.below(rig.input_count());
        match run_op(rig, input, *next_op, tracer.as_deref_mut()) {
            Ok(s) => pass.samples.push(s),
            Err(e) => {
                pass.failed += 1;
                if pass.failures.len() < 3 {
                    pass.failures.push(format!("op {next_op}: {e}"));
                }
            }
        }
        *next_op += 1;
    }
    pass
}

/// Host ms of one mount of the SD image plus a read of one file, on an
/// in-memory block device (no simulation): the FAT32 layer alone.
fn fat32_read_ms(files: &[(&str, &[u8])]) -> f64 {
    let mut vol = Fat32Volume::format(MemBlockDevice::with_mib(64)).expect("format a RAM disk");
    for (name, bytes) in files {
        vol.write(name, bytes).expect("write to a RAM disk");
    }
    let mut dev = vol.into_device();
    let mut times = Vec::with_capacity(FAT_REPS);
    for i in 0..FAT_REPS {
        let (name, bytes) = files[i % files.len()];
        let t = Instant::now();
        let mut vol = Fat32Volume::mount(dev).expect("mount the RAM disk");
        let data = vol.read(name).expect("read back");
        times.push(t.elapsed());
        assert_eq!(data, bytes, "FAT32 read-back of {name}");
        dev = vol.into_device();
    }
    median_ms(times.into_iter())
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Run the benchmark once.
pub fn run(cfg: &Config) -> Report {
    let probe = HostProbe::new();
    let probe_start = probe.measure();
    let mut tracer = Tracer::default();

    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous SoC first: peak memory is one rig, not all.
        drop(rig.take());
        let (r, t) = Rig::setup(cfg.kind, cfg.seed, &mut tracer);
        setups.push(t);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");

    let mut order = Rng::new(cfg.seed ^ 0x5851_F42D_4C95_7F2D);
    let mut next_op = 0;
    let plain_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = op_loop(&mut rig, &mut order, &mut next_op, plain_secs, None);
    let traced = cfg.trace.then(|| {
        rig.set_profiling(true);
        let pass = op_loop(
            &mut rig,
            &mut order,
            &mut next_op,
            cfg.seconds / 2.0,
            Some(&mut tracer),
        );
        rig.set_profiling(false);
        pass
    });
    let fat_ms = (cfg.trace && cfg.kind == Kind::SdStage).then(|| fat32_read_ms(&rig.sd_files()));
    let probe_end = probe.measure();

    let passes: Vec<&Pass> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let verified: u64 = passes.iter().map(|p| p.samples.len() as u64).sum();
    let failures = passes
        .iter()
        .flat_map(|p| p.failures.iter().cloned())
        .collect();

    let mut notes = vec![
        host_note("start", probe_start),
        host_note("end", probe_end),
        format!(
            "ops: {} untraced{}, {failed} failed",
            plain.samples.len(),
            traced
                .as_ref()
                .map_or(String::new(), |t| format!(", {} traced", t.samples.len()))
        ),
    ];
    let metrics = if plain.samples.is_empty() {
        Vec::new()
    } else if let Some(traced) = &traced {
        per_layer(&rig, &setups, &plain, traced, fat_ms)
    } else {
        end_to_end(cfg.kind, &setups, &plain, failed, &mut notes)
    };
    Report {
        attempted: verified + failed,
        failed,
        failures,
        metrics,
        notes,
        tracer,
    }
}

fn host_note(when: &str, p: Probe) -> String {
    format!(
        "host conditions at {when}: alu_spin {:.3} ms, chase_8mb {:.3} ms",
        p.alu_ms, p.chase_ms
    )
}

/// Host ms of each verified op (fork excluded).
fn op_ms(pass: &Pass) -> Vec<f64> {
    pass.samples
        .iter()
        .map(|x| x.op.as_secs_f64() * 1e3)
        .collect()
}

/// Verified ops per second of total fork+op time (the sustained rate).
fn sustained_ops_per_s(pass: &Pass) -> f64 {
    let s = &pass.samples;
    s.len() as f64 / s.iter().map(|x| (x.fork + x.op).as_secs_f64()).sum::<f64>()
}

/// The bounded timings are minima over the run: every op repeats the
/// same simulated work, so host noise only adds time, and on a shared
/// VM the per-run median swings with the host's load while the minimum
/// stays put (see README.md).
fn end_to_end(
    kind: Kind,
    setups: &[SetupTimes],
    plain: &Pass,
    failed: u64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let s = &plain.samples;
    let op_ms = op_ms(plain);
    let op_min_ms = percentile(&op_ms, 0.0);
    let fastest_fork_op = s.iter().map(|x| x.fork + x.op).min().expect("verified ops");
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total().as_secs_f64()).collect();
    let sim_value = s[0].out.sim_value;
    let paper_err = match kind.paper_reference() {
        Some(r) => {
            notes.push(format!("simulated {sim_value} vs paper {r}"));
            (sim_value - r).abs() / r * 100.0
        }
        None => {
            // No reference: the model is unvalidated on this op, which
            // is reported as a constant 100 % rather than a made-up error.
            notes.push("paper_err_pct: unvalidated (the paper reports no SD staging time)".into());
            100.0
        }
    };
    notes.push(format!(
        "op ms p50 {:.3}, p90 {:.3}; sustained {:.3} ops/s",
        percentile(&op_ms, 50.0),
        percentile(&op_ms, 90.0),
        sustained_ops_per_s(plain)
    ));
    vec![
        metric("ops_per_s", 1.0 / fastest_fork_op.as_secs_f64(), "1/s"),
        metric("op_ms_min", op_min_ms, "ms"),
        metric(
            "sim_cycles_per_s",
            kind.pinned_cycles() as f64 / (op_min_ms / 1e3),
            "1/s",
        ),
        metric("setup_s", percentile(&setup_s, 50.0), "s"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        metric(
            "verified_ops_pct",
            s.len() as f64 / (s.len() as u64 + failed) as f64 * 100.0,
            "%",
        ),
        metric("paper_err_pct", paper_err, "%"),
    ]
}

fn per_layer(
    rig: &Rig,
    setups: &[SetupTimes],
    plain: &Pass,
    traced: &Pass,
    fat_ms: Option<f64>,
) -> Vec<Metric> {
    let all: Vec<&Sample> = plain.samples.iter().chain(&traced.samples).collect();
    let n_all = all.len() as f64;
    let mean = |f: &dyn Fn(&Sample) -> f64| all.iter().map(|s| f(s)).sum::<f64>() / n_all;
    let mut m = Vec::new();

    // Exact per-op counts (identical on every fork; means over all ops).
    let ticks: Vec<[u64; LAYERS.len()]> = all
        .iter()
        .map(|s| layer_sums(&s.out, |c| c.ticks_executed))
        .collect();
    // Traced host time inside ticks.
    let t = &traced.samples;
    let n_traced = t.len().max(1) as f64;
    let host: Vec<[u64; LAYERS.len()]> = t
        .iter()
        .map(|s| layer_sums(&s.out, |c| c.host_ns))
        .collect();
    let traced_ticks: Vec<[u64; LAYERS.len()]> = t
        .iter()
        .map(|s| layer_sums(&s.out, |c| c.ticks_executed))
        .collect();
    let mut tick_ms_total = 0.0;
    for (i, layer) in LAYERS.iter().enumerate() {
        let ticks_per_op = ticks.iter().map(|x| x[i] as f64).sum::<f64>() / n_all;
        let ns: u64 = host.iter().map(|x| x[i]).sum();
        let nt: u64 = traced_ticks.iter().map(|x| x[i]).sum();
        let self_ms = ns as f64 / 1e6 / n_traced;
        tick_ms_total += self_ms;
        m.push(metric(format!("{layer}.ticks"), ticks_per_op, "count"));
        m.push(metric(
            format!("{layer}.tick_ns"),
            if nt == 0 { 0.0 } else { ns as f64 / nt as f64 },
            "ns",
        ));
        m.push(metric(format!("{layer}.self_ms"), self_ms, "ms"));
    }
    let traced_op_ms = t.iter().map(|s| s.op.as_secs_f64() * 1e3).sum::<f64>() / n_traced;
    m.push(metric(
        "sim.outside_tick_ms",
        traced_op_ms - tick_ms_total,
        "ms",
    ));
    m.push(metric("sim.traced_op_ms", traced_op_ms, "ms"));

    m.push(metric(
        "sim.cycles",
        mean(&|s| s.out.cycles as f64),
        "count",
    ));
    m.push(metric(
        "sim.jumps",
        mean(&|s| s.out.stats.jumps as f64),
        "count",
    ));
    m.push(metric(
        "sim.jumped_cycles_pct",
        mean(&|s| s.out.stats.jumped_cycles as f64 / s.out.cycles as f64 * 100.0),
        "%",
    ));
    m.push(metric(
        "sim.ticks_skipped_pct",
        mean(&|s| {
            let skipped = s.out.stats.total_skipped() as f64;
            skipped / (skipped + s.out.stats.total_ticks() as f64) * 100.0
        }),
        "%",
    ));
    m.push(metric(
        "soc.mmio_reads",
        mean(&|s| s.out.mmio.0 as f64),
        "count",
    ));
    m.push(metric(
        "soc.mmio_writes",
        mean(&|s| s.out.mmio.1 as f64),
        "count",
    ));

    m.push(metric(
        "sim.restore_ms_p50",
        median_ms(all.iter().map(|s| s.fork)),
        "ms",
    ));
    m.push(metric(
        "sim.checkpoint_mb",
        rig.checkpoint_bytes() as f64 / 1e6,
        "MB",
    ));
    let setup_ms = |f: fn(&SetupTimes) -> Duration| median_ms(setups.iter().map(f));
    m.push(metric(
        "fabric.synthesize_ms",
        setup_ms(|t| t.synthesize),
        "ms",
    ));
    m.push(metric(
        "fabric.bitstream_ms",
        setup_ms(|t| t.bitstream),
        "ms",
    ));
    m.push(metric("core.build_ms", setup_ms(|t| t.build), "ms"));
    m.push(metric("core.boot_ms", setup_ms(|t| t.boot), "ms"));
    m.push(metric("soc.stage_ms", setup_ms(|t| t.stage), "ms"));
    m.push(metric(
        "sim.checkpoint_ms",
        setup_ms(|t| t.checkpoint),
        "ms",
    ));
    m.push(metric("storage.fat32.read_ms", fat_ms.unwrap_or(0.0), "ms"));

    let plain_ms = op_ms(plain);
    m.push(metric("host.op_ms_p50", percentile(&plain_ms, 50.0), "ms"));
    m.push(metric("host.op_ms_p90", percentile(&plain_ms, 90.0), "ms"));
    m.push(metric("host.ops_per_s", sustained_ops_per_s(plain), "1/s"));
    m.push(metric(
        "sim.trace_overhead_pct",
        if t.is_empty() {
            0.0
        } else {
            (percentile(&op_ms(traced), 0.0) / percentile(&plain_ms, 0.0) - 1.0) * 100.0
        },
        "%",
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_component_of_the_soc_maps_to_one_layer() {
        for (name, layer) in [
            ("xbar", "axi.xbar"),
            ("iso0.in", "axi.iso"),
            ("iso0.out", "axi.iso"),
            ("hwicap.adapter", "axi.adapter"),
            ("dma.adapter", "axi.adapter"),
            ("host0", "fabric.rm_host"),
            ("icap", "fabric.icap"),
            ("hwicap", "core.hwicap"),
            ("clint", "other"),
        ] {
            assert_eq!(LAYERS[layer_of(name)], layer, "{name}");
        }
    }

    #[test]
    fn two_seeds_give_identical_simulated_counts() {
        for kind in Kind::ALL {
            let outcomes: Vec<OpOutcome> = [1, 2]
                .into_iter()
                .map(|seed| {
                    let (mut rig, _) = Rig::setup(kind, seed, &mut Tracer::default());
                    // Different seeds and different staged inputs.
                    let input = if seed == 1 { 0 } else { rig.input_count() - 1 };
                    run_op(&mut rig, input, 0, None)
                        .expect("op passes its checks")
                        .out
                })
                .collect();
            let counts = |o: &OpOutcome| {
                let ticks: Vec<(String, u64, u64)> = o
                    .stats
                    .components
                    .iter()
                    .map(|c| (c.name.clone(), c.ticks_executed, c.cycles_skipped))
                    .collect();
                (
                    o.cycles,
                    o.mmio,
                    o.stats.jumps,
                    o.stats.jumped_cycles,
                    ticks,
                )
            };
            assert_eq!(
                counts(&outcomes[0]),
                counts(&outcomes[1]),
                "{}",
                kind.name()
            );
            assert_eq!(outcomes[0].cycles, kind.pinned_cycles());
        }
    }

    #[test]
    fn a_wrong_pinned_cycle_count_is_a_failed_op_not_a_crash() {
        let (mut rig, _) = Rig::setup(Kind::AccelStream, 3, &mut Tracer::default());
        rig.set_pinned_cycles(Kind::AccelStream.pinned_cycles() + 1);
        let err = run_op(&mut rig, 0, 0, None)
            .err()
            .expect("op fails its check");
        assert!(err.contains("pinned"), "{err}");

        // A panic inside an op (here: an input that does not exist) is a
        // failed op too, and the next fork runs clean.
        rig.set_pinned_cycles(Kind::AccelStream.pinned_cycles());
        let mut tracer = Tracer::default();
        let err = run_op(&mut rig, 99, 1, Some(&mut tracer))
            .err()
            .expect("op panics");
        assert!(err.contains("panicked"), "{err}");
        assert!(run_op(&mut rig, 0, 2, Some(&mut tracer)).is_ok());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }
}
