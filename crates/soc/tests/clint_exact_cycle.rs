//! CLINT timing audit under the active-set scheduler: a timer
//! interrupt whose divider edge lands while a stream is busy must fire
//! on its exact cycle under both kernel schedules.
//!
//! The CLINT publishes its next `timer_irq` edge through
//! `next_activity`; the active-set scheduler sleeps it in the deadline
//! heap until that cycle while the stream components stay due every
//! cycle around it. These tests pin that contract: the interrupt must
//! rise on the mathematically exact divider-edge cycle, the cycle the
//! naive schedule (which ticks the CLINT every cycle) observes.

use std::cell::Cell;
use std::rc::Rc;

use rvcap_axi::mm::{link, MmReq};
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::{Cycle, Fifo, Freq, Scheduler, Signal, Simulator, WakePolicy, Waker};
use rvcap_soc::map::{CLINT_BASE, CLINT_MTIMECMP};
use rvcap_soc::Clint;

/// Pushes one item per cycle until the source runs dry — the DMA side
/// of a stream chain, boiled down to the scheduling contract.
struct Producer {
    out: Fifo<u32>,
    remaining: u32,
}

impl Component for Producer {
    fn name(&self) -> &str {
        "producer"
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if self.remaining > 0 && self.out.try_push(ctx.cycle, self.remaining).is_ok() {
            self.remaining -= 1;
        }
    }

    fn busy(&self) -> bool {
        self.remaining > 0
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.remaining > 0 {
            Some(now)
        } else {
            Some(Cycle::MAX)
        }
    }

    fn wake_sources(&self, _waker: &Waker) -> WakePolicy {
        // No external inputs: due-ness depends only on `remaining`.
        WakePolicy::Wired
    }
}

/// Pops one item per cycle while any are queued.
struct Consumer {
    input: Fifo<u32>,
    received: Rc<Cell<u64>>,
}

impl Component for Consumer {
    fn name(&self) -> &str {
        "consumer"
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if self.input.try_pop(ctx.cycle).is_some() {
            self.received.set(self.received.get() + 1);
        }
    }

    fn busy(&self) -> bool {
        !self.input.is_empty()
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.input.is_empty() {
            Some(Cycle::MAX)
        } else {
            Some(now)
        }
    }

    fn wake_sources(&self, waker: &Waker) -> WakePolicy {
        self.input.subscribe_wake(waker.clone());
        WakePolicy::Wired
    }
}

/// Records the exact cycle `timer_irq` first reads high.
struct IrqProbe {
    irq: Signal<bool>,
    rose_at: Rc<Cell<Option<Cycle>>>,
}

impl Component for IrqProbe {
    fn name(&self) -> &str {
        "irq_probe"
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if self.irq.get() && self.rose_at.get().is_none() {
            self.rose_at.set(Some(ctx.cycle));
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.irq.get() && self.rose_at.get().is_none() {
            Some(now)
        } else {
            Some(Cycle::MAX)
        }
    }

    fn wake_sources(&self, waker: &Waker) -> WakePolicy {
        self.irq.subscribe_wake(waker.clone());
        WakePolicy::Wired
    }
}

struct RunResult {
    rose_at: Cycle,
    received: u64,
    mtime: u64,
    /// `(name, ticks_executed)` in registration order.
    ticks: Vec<(String, u64)>,
}

/// Build the rig, run to quiescence, and report what happened.
///
/// `preload` seeds the stream FIFO before cycle 0 so the consumer is
/// due from the start with deep occupancy: both stream components then
/// stay due on every cycle across the interrupt edge.
fn run(scheduler: Scheduler, items: u32, preload: u32, mtimecmp: u64) -> RunResult {
    let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
    sim.set_scheduler(scheduler);

    let stream: Fifo<u32> = Fifo::new("stream", 2048);
    for i in 0..preload {
        stream.force_push(u32::MAX - i);
    }
    let received = Rc::new(Cell::new(0u64));
    sim.register(Box::new(Producer {
        out: stream.clone(),
        remaining: items,
    }));
    sim.register(Box::new(Consumer {
        input: stream.clone(),
        received: received.clone(),
    }));

    let (m, s) = link("clint", 2);
    let (clint, handle) = Clint::paper(s, CLINT_BASE);
    let irq = clint.timer_irq.clone();
    sim.register(Box::new(clint));
    let rose_at = Rc::new(Cell::new(None));
    sim.register(Box::new(IrqProbe {
        irq: irq.clone(),
        rose_at: rose_at.clone(),
    }));

    m.try_issue(0, MmReq::write(CLINT_BASE + CLINT_MTIMECMP, mtimecmp, 8))
        .unwrap();
    sim.run_until(10_000, || irq.get()).unwrap();
    sim.run_until_quiescent(10_000).unwrap();

    let stats = sim.kernel_stats();
    RunResult {
        rose_at: rose_at.get().expect("probe saw the interrupt"),
        received: received.get(),
        mtime: handle.mtime(),
        ticks: stats
            .components
            .iter()
            .map(|c| (c.name.clone(), c.ticks_executed))
            .collect(),
    }
}

/// Run both schedules and check everything they must agree on: the
/// exact edge cycle, the drained stream, and a tick accounting in
/// which the active-set schedule never executes a tick the naive one
/// did not.
fn assert_exact_edge(items: u32, preload: u32, mtimecmp: u64) {
    let naive = run(Scheduler::Naive, items, preload, mtimecmp);
    let active = run(Scheduler::ActiveSet, items, preload, mtimecmp);
    for (label, r) in [("naive", &naive), ("active_set", &active)] {
        // 5 MHz timer on the 100 MHz fabric: mtime reaches `mtimecmp`
        // on the divider edge of cycle mtimecmp * 20 - 1.
        assert_eq!(
            r.rose_at,
            mtimecmp * 20 - 1,
            "{label}: cmp={mtimecmp} rose off the exact edge"
        );
        // The handle mirrors `mtime` as of the CLINT's last tick: at
        // least the edge value, more under naive (which keeps ticking
        // and refreshing the mirror after the edge).
        assert!(r.mtime >= mtimecmp, "{label}: mtime mirror behind the edge");
        assert_eq!(
            r.received,
            (items + preload) as u64,
            "{label}: stream drained"
        );
    }
    for ((name, n), (_, a)) in naive.ticks.iter().zip(&active.ticks) {
        assert!(a <= n, "{name}: active_set executed extra ticks");
    }
}

/// A timer edge mid-stream: the producer is pushing on every cycle
/// around cycle 99 when the interrupt must rise.
#[test]
fn timer_edge_is_exact_mid_stream() {
    assert_exact_edge(300, 0, 5);
}

/// A timer edge behind a deep backlog: producer and consumer both stay
/// due across the edge region.
#[test]
fn timer_edge_is_exact_behind_deep_backlog() {
    assert_exact_edge(300, 256, 5);
}

/// The edge cycle is exact for arbitrary `mtimecmp` values.
#[test]
fn timer_edge_exact_for_varied_compares() {
    for cmp in [1u64, 2, 3, 7, 12] {
        assert_exact_edge(400, 128, cmp);
    }
}
