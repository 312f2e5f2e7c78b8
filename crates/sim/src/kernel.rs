//! The simulation kernel: owns components, advances the clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::component::{Component, TickCtx};
use crate::sanitizer::{Sanitizer, StuckChannel};
use crate::state::{ComponentState, KernelCounters, SimState, StateError};
use crate::stats::{ComponentStats, KernelStats, MmioAudit};
use crate::time::{Cycle, Freq};
use crate::trace::{TraceEvent, TraceLevel, Tracer};
use crate::wake::{BitSet, WakeHub, WakePolicy};

/// Identifies a registered component within a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(usize);

/// Diagnostic report for a simulation that hit its cycle limit.
///
/// Returned as the `Err` of [`Simulator::run_until`] and
/// [`Simulator::run_until_quiescent`] instead of panicking: a stalled
/// simulation is a *model* or *driver* bug the caller may want to
/// report (fault-injection tests exercise exactly this), and the
/// report carries everything needed to debug it — where the clock
/// stopped, who still claimed work, and the tail of the trace.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Cycle at which the run gave up.
    pub cycle: Cycle,
    /// Cycle at which the run started.
    pub start: Cycle,
    /// The limit that was exhausted.
    pub limit: Cycle,
    /// Names of components still reporting [`Component::busy`].
    pub busy: Vec<String>,
    /// Most recent trace events (empty when tracing is off).
    pub trace_tail: Vec<TraceEvent>,
    /// MMIO protocol violations recorded by register-mapped devices at
    /// the time of the stall — a wrong-register access is a common way
    /// to hang a driver poll loop.
    pub mmio_violations: u64,
    /// Bus/stream protocol violations recorded by the attached
    /// sanitizer (zero when no sanitizer is attached).
    pub protocol_violations: u64,
    /// Watchdog evidence from the sanitizer: non-empty channels that
    /// saw no traffic for at least half the exhausted limit — the
    /// usual shape of a deadlocked handshake or a livelocked retry
    /// loop. Empty when no sanitizer is attached.
    pub stuck_channels: Vec<StuckChannel>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation stalled at cycle {} ({} cycles elapsed, limit {})",
            self.cycle,
            self.cycle - self.start,
            self.limit
        )?;
        if self.busy.is_empty() {
            write!(f, "; no component reports busy")?;
        } else {
            write!(f, "; busy: {}", self.busy.join(", "))?;
        }
        if self.mmio_violations > 0 {
            write!(f, "; {} MMIO violations recorded", self.mmio_violations)?;
        }
        if self.protocol_violations > 0 {
            write!(
                f,
                "; {} protocol violations recorded",
                self.protocol_violations
            )?;
        }
        for s in &self.stuck_channels {
            write!(
                f,
                "; channel {} stuck since cycle {} ({} queued)",
                s.name, s.since, s.occupancy
            )?;
        }
        if !self.trace_tail.is_empty() {
            writeln!(f, "; trace tail:")?;
            for e in &self.trace_tail {
                writeln!(f, "  [{:>10}] {:<16} {}", e.cycle, e.source, e.message)?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for StallReport {}

/// How many trailing trace events a [`StallReport`] carries.
const STALL_TRACE_TAIL: usize = 16;

/// The execution schedule the kernel uses to decide which components
/// to tick each cycle. Both produce bit-identical simulations — same
/// cycle counts, same observable component state, same sanitizer
/// observations — they only trade host time differently.
/// [`Scheduler::ActiveSet`] skips exactly the ticks the hints rule
/// out, while [`Scheduler::Naive`] executes every tick including the
/// no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Tick every component every cycle; never query hints, never jump
    /// the clock. The reference schedule the optimized one is compared
    /// against.
    Naive,
    /// The default: a wake-queue scheduler that only touches *due*
    /// components — self-scheduled via a min-heap of hint deadlines, or
    /// externally woken through [`crate::Fifo`]/[`crate::Signal`]
    /// subscriptions (see [`Component::wake_sources`]). Per-cycle work
    /// is proportional to the number of active components, not to the
    /// number registered.
    ActiveSet,
}

/// The cycle-stepped simulator.
///
/// Components are ticked once per cycle **in registration order**.
/// That order is part of a system's wiring contract: registering a
/// producer before its consumer gives same-cycle forwarding through a
/// FIFO (combinational pass-through of a skid buffer), registering it
/// after gives one cycle of latency (a pipeline register). The SoC
/// builders in `rvcap-core` register components in dataflow order and
/// document where they rely on it.
///
/// # Scheduling
///
/// Ticking every component on every cycle is simple and deterministic
/// but wastes host time whenever the system sits in a long wait (a DDR
/// round trip, a DMA start latency, a timer poll loop). The kernel
/// offers two schedules (see [`Scheduler`]); the default,
/// [`Scheduler::ActiveSet`], keeps a per-cycle *due set*:
///
/// - Components whose [`Component::next_activity`] hint named a future
///   cycle sleep in a min-heap keyed by that cycle (ties broken by
///   registration index, preserving the ordering contract) and are
///   re-examined exactly when it arrives.
/// - Components that declared [`crate::WakePolicy::Wired`] sleep on
///   `Some(Cycle::MAX)` until one of their subscribed inputs fires
///   their waker. Wakes landing mid-cycle from an earlier-registered
///   component join the *same* cycle (same-cycle forwarding); wakes
///   from a later one are deferred to the next cycle (pipeline
///   latency) — exactly the visibility the naive schedule gives.
/// - [`crate::WakePolicy::Poll`] components are re-queried every
///   stepped cycle, like the pre-active-set kernel.
/// - When nothing is due, the clock jumps straight to the earliest
///   deadline.
///
/// Hints are queried exactly once per component per stepped cycle,
/// immediately before its tick slot. All of this preserves the exact
/// cycle-by-cycle behavior of the naive schedule — cycle counts are
/// bit-identical across schedulers ([`Simulator::set_scheduler`]),
/// which the `determinism` and `cycle_parity` integration tests pin.
///
/// [`Simulator::step`] never jumps: external drivers (the CPU model
/// mutates FIFOs between steps) rely on observing every cycle
/// boundary, so single-step mode only gates individual ticks.
pub struct Simulator {
    freq: Freq,
    cycle: Cycle,
    components: Vec<Box<dyn Component>>,
    tracer: Tracer,
    scheduler: Scheduler,
    /// Per-component executed-tick counts (parallel to `components`).
    /// Skipped-cycle counts are not tracked eagerly: a component has
    /// been skipped for every cycle since registration it was not
    /// ticked, so `kernel_stats` derives them.
    ticks: Vec<u64>,
    /// Cycle at which each component was registered.
    registered_at: Vec<Cycle>,
    /// Wake policy each component declared at registration.
    policies: Vec<WakePolicy>,
    /// Indices of `WakePolicy::Poll` components, ascending.
    polled: Vec<u32>,
    /// Pending external wakes (shared with `Waker`s via `Rc`).
    hub: WakeHub,
    /// Self-scheduled deadlines: `(cycle, index)` min-heap with lazy
    /// deletion — an entry is live iff its key equals
    /// `scheduled[index]`.
    heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Earliest live heap deadline per component (`Cycle::MAX` when
    /// none).
    scheduled: Vec<Cycle>,
    /// Reusable per-cycle due set.
    due: BitSet,
    /// Wired components whose post-tick hint said "again next cycle".
    /// A streaming component re-arms every cycle while it drains;
    /// carrying it in a bitset instead of the heap keeps the dense
    /// phases free of per-cycle heap traffic.
    carry: BitSet,
    /// Subset of `carry` whose post-tick hint was `now` (or `None`):
    /// the component still had unfinished work *at query time*, not a
    /// future deadline to re-examine. That work lives in the
    /// component's own state or in channels it solely consumes, and
    /// the wake contract requires hints to be monotone in occupancy
    /// (see [`crate::Fifo::subscribe_wake`]) — so earlier components'
    /// ticks can only add work, never retract the promise. An exact
    /// `now + 1` hint is *not* a promise: it may be a gate ("nothing
    /// before then, re-query at the deadline"), so it stays in `carry`
    /// alone and gets the full pre-tick query.
    promise: BitSet,
    /// Last cycle's `promise` set (double-buffered at cycle start):
    /// the sweep skips the pre-tick hint query for these slots (a
    /// debug assert re-checks each skipped promise).
    carried: BitSet,
    jumps: u64,
    jumped_cycles: Cycle,
    /// Opt-in per-component host-time attribution (see
    /// [`Simulator::set_profiling`]). When off, tick paths pay one
    /// predictable branch and no clock reads.
    profiling: bool,
    /// Accumulated host nanoseconds inside each component's `tick`
    /// calls (parallel to `components`; only written while
    /// `profiling` is set).
    host_ns: Vec<u64>,
    sanitizer: Option<Sanitizer>,
}

impl Simulator {
    /// Create a simulator with a clock frequency and no tracing.
    pub fn new(freq: Freq) -> Self {
        Simulator {
            freq,
            cycle: 0,
            components: Vec::new(),
            tracer: Tracer::off(),
            scheduler: Scheduler::ActiveSet,
            ticks: Vec::new(),
            registered_at: Vec::new(),
            policies: Vec::new(),
            polled: Vec::new(),
            hub: WakeHub::new(),
            heap: BinaryHeap::new(),
            scheduled: Vec::new(),
            due: BitSet::default(),
            carry: BitSet::default(),
            promise: BitSet::default(),
            carried: BitSet::default(),
            jumps: 0,
            jumped_cycles: 0,
            profiling: false,
            host_ns: Vec::new(),
            sanitizer: None,
        }
    }

    /// Create a simulator that records a bounded trace.
    pub fn with_tracing(freq: Freq, level: TraceLevel, capacity: usize) -> Self {
        Simulator {
            tracer: Tracer::new(level, capacity),
            ..Simulator::new(freq)
        }
    }

    /// The clock frequency.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// The current cycle (number of completed ticks).
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// Shared trace sink.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Register a component; it participates in the schedule from the
    /// next cycle on. Its [`Component::wake_sources`] is called here,
    /// exactly once, with its [`crate::Waker`].
    pub fn register(&mut self, component: Box<dyn Component>) -> ComponentId {
        let idx = self.components.len();
        let policy = component.wake_sources(&self.hub.waker(idx));
        self.components.push(component);
        self.ticks.push(0);
        self.host_ns.push(0);
        self.registered_at.push(self.cycle);
        self.policies.push(policy);
        self.scheduled.push(Cycle::MAX);
        self.due.grow_to(idx);
        self.carry.grow_to(idx);
        if policy == WakePolicy::Poll {
            self.polled.push(idx as u32);
        }
        // Every component starts pending so its first hint query
        // happens on the next stepped cycle regardless of policy.
        self.hub.wake(idx);
        ComponentId(idx)
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Select the execution schedule (default [`Scheduler::ActiveSet`]).
    ///
    /// Cycle counts are identical across schedulers; switching only
    /// trades host time for a simpler execution schedule (useful to
    /// cross-check the hints and wake wiring, and what the determinism
    /// tests and the host-perf harness do). Safe mid-run: scheduler
    /// state is rebuilt from fresh hint queries on the next cycle.
    pub fn set_scheduler(&mut self, scheduler: Scheduler) {
        if self.scheduler == scheduler {
            return;
        }
        self.scheduler = scheduler;
        self.cold_start();
    }

    /// Drop every piece of derived scheduler state — deadlines, carried
    /// streamers, post-tick promises — and mark every component pending
    /// for a fresh hint query on the next stepped cycle. Stale wakes in
    /// the hub are subsumed by the wake-all. A promise recorded before
    /// the state changed under the scheduler (a restore, or a stretch
    /// under [`Scheduler::Naive`]) no longer describes the component
    /// and must not survive: the sweep would skip the pre-tick query
    /// on its say-so.
    fn cold_start(&mut self) {
        self.heap.clear();
        self.carry.clear_all();
        self.due.clear_all();
        self.promise.clear_all();
        self.carried.clear_all();
        for s in &mut self.scheduled {
            *s = Cycle::MAX;
        }
        for i in 0..self.components.len() {
            self.hub.wake(i);
        }
    }

    /// The active execution schedule.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// Enable or disable per-component host-time profiling (disabled
    /// by default). While enabled, every `tick` call is
    /// bracketed with monotonic-clock reads and the elapsed host time
    /// is attributed to the component; [`Simulator::kernel_stats`]
    /// surfaces the totals and
    /// [`crate::KernelStats::render_tick_costs`] renders them. The
    /// clock reads cost real time (tens of nanoseconds per tick), so
    /// profiled runs attribute *shares* faithfully but are not wall-
    /// clock comparable to unprofiled runs; when disabled, the tick
    /// paths pay one predictable branch and nothing else. Simulated
    /// behavior is identical either way.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profiling = enabled;
    }

    /// Whether per-component host-time profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Attach a bus sanitizer (see [`crate::sanitizer`]). The kernel
    /// brackets every tick loop with the sanitizer's cycle hooks so it
    /// can distinguish ticked-component traffic (subject to the
    /// one-op-per-cycle rate rule) from host-driver traffic, and folds
    /// its verdict into [`Simulator::mmio_audit`], [`StallReport`] and
    /// [`KernelStats`].
    pub fn attach_sanitizer(&mut self, sanitizer: Sanitizer) {
        sanitizer.set_now(self.cycle);
        self.sanitizer = Some(sanitizer);
    }

    /// The attached sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_ref()
    }

    /// Capture a whole-simulator checkpoint: every component's state
    /// blob plus the kernel's cycle, tick accounting, policy counters,
    /// and the sanitizer's observation state.
    ///
    /// **Strict completeness**: a component whose
    /// [`Component::save_state`] returns `None` is a hard error — a
    /// checkpoint silently missing one component's state would restore
    /// into a subtly wrong system. Scheduler internals (heap, due set,
    /// pending wakes) are deliberately *not* captured:
    /// they are re-derivable from component hints, and
    /// [`Simulator::restore`] rebuilds them with fresh queries, exactly
    /// like [`Simulator::set_scheduler`] does mid-run.
    pub fn checkpoint(&self) -> Result<SimState, StateError> {
        let mut components = Vec::with_capacity(self.components.len());
        for (i, c) in self.components.iter().enumerate() {
            let blob = c.save_state().ok_or_else(|| StateError::Unsupported {
                component: c.name().to_string(),
            })?;
            components.push(ComponentState {
                name: c.name().to_string(),
                registered_at: self.registered_at[i],
                ticks: self.ticks[i],
                blob,
            });
        }
        Ok(SimState {
            cycle: self.cycle,
            components,
            sanitizer: self.sanitizer.as_ref().map(|s| s.save_state()),
            counters: KernelCounters {
                jumps: self.jumps,
                jumped_cycles: self.jumped_cycles,
            },
        })
    }

    /// Restore a checkpoint previously captured — by this simulator or
    /// by a structurally identical one built by the same construction
    /// code (the warm-boot fork path).
    ///
    /// The component roster must match the checkpoint exactly (same
    /// count, same names, same order) and every component must restore
    /// successfully; any failure returns the error with the simulator
    /// in an unspecified half-restored state — callers treat that as
    /// fatal. Afterwards the scheduler is cold: all deadlines are
    /// dropped and every component is marked pending for a fresh hint
    /// query, which is behavior-identical to a warm scheduler because
    /// hints are pure functions of the component state just restored.
    /// (Jump *policy counters* may subsequently evolve differently
    /// than in an uninterrupted run — that is why [`KernelCounters`]
    /// are excluded from replay parity.)
    pub fn restore(&mut self, state: &SimState) -> Result<(), StateError> {
        let structure = |detail: String| StateError::Structure {
            tag: "simulator".into(),
            detail,
        };
        if state.components.len() != self.components.len() {
            return Err(structure(format!(
                "checkpoint has {} components, simulator has {}",
                state.components.len(),
                self.components.len()
            )));
        }
        for (cs, c) in state.components.iter().zip(&self.components) {
            if cs.name != c.name() {
                return Err(structure(format!(
                    "component roster mismatch: checkpoint has {}, simulator has {}",
                    cs.name,
                    c.name()
                )));
            }
        }
        match (&self.sanitizer, &state.sanitizer) {
            (Some(_), None) => {
                return Err(structure(
                    "simulator has a sanitizer attached, checkpoint has none".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(structure(
                    "checkpoint carries sanitizer state, simulator has none attached".into(),
                ))
            }
            _ => {}
        }
        for (cs, c) in state.components.iter().zip(self.components.iter_mut()) {
            c.restore_state(&cs.blob)?;
        }
        if let (Some(s), Some(blob)) = (&self.sanitizer, &state.sanitizer) {
            s.restore_state(blob)?;
            s.set_now(state.cycle);
        }
        self.cycle = state.cycle;
        for (i, cs) in state.components.iter().enumerate() {
            self.ticks[i] = cs.ticks;
            self.registered_at[i] = cs.registered_at;
        }
        // Host-time attribution is a host-side measurement, not
        // simulated state: it is not checkpointed, and restarts at the
        // restore point.
        for ns in &mut self.host_ns {
            *ns = 0;
        }
        self.jumps = state.counters.jumps;
        self.jumped_cycles = state.counters.jumped_cycles;
        // Cold-start the scheduler, exactly like a mid-run scheduler
        // switch.
        self.cold_start();
        Ok(())
    }

    /// Zero the kernel's measurement counters — executed ticks and jump
    /// accounting — and rebase skipped-cycle accounting at the current
    /// cycle, so a subsequent [`Simulator::kernel_stats`]
    /// describes only the phase from this call onward (steady-state
    /// numbers unpolluted by boot ticks). Component-owned counters
    /// (MMIO audits, FIFO lifetime totals) are component state, not
    /// kernel measurement, and are untouched.
    pub fn reset_stats(&mut self) {
        for t in &mut self.ticks {
            *t = 0;
        }
        for ns in &mut self.host_ns {
            *ns = 0;
        }
        for r in &mut self.registered_at {
            *r = self.cycle;
        }
        self.jumps = 0;
        self.jumped_cycles = 0;
    }

    /// Advance the simulation by one cycle.
    ///
    /// Never jumps the clock (external drivers mutate FIFO state
    /// between calls), but does skip ticking components that are not
    /// due.
    pub fn step(&mut self) {
        match self.scheduler {
            Scheduler::Naive => self.step_naive(),
            Scheduler::ActiveSet => self.step_active(0),
        }
    }

    /// One cycle of the reference schedule: tick everything.
    fn step_naive(&mut self) {
        let now = self.cycle;
        let mut ctx = TickCtx {
            cycle: now,
            tracer: &self.tracer,
        };
        if let Some(s) = &self.sanitizer {
            s.begin_cycle(now);
        }
        if self.profiling {
            for ((c, ticks), ns) in self
                .components
                .iter_mut()
                .zip(&mut self.ticks)
                .zip(&mut self.host_ns)
            {
                let t0 = std::time::Instant::now();
                c.tick(&mut ctx);
                *ns += t0.elapsed().as_nanos() as u64;
                *ticks += 1;
            }
        } else {
            for (c, ticks) in self.components.iter_mut().zip(&mut self.ticks) {
                c.tick(&mut ctx);
                *ticks += 1;
            }
        }
        self.cycle += 1;
        if let Some(s) = &self.sanitizer {
            s.end_cycle();
        }
    }

    /// Advance by up to `window` cycles (at least one), jumping over
    /// all-idle stretches under [`Scheduler::ActiveSet`].
    /// Returns the number of cycles advanced.
    ///
    /// A jump is sound because every component declared its next
    /// activity to be at or after `now + delta`: no tick in the
    /// skipped range would have changed any state, so the system
    /// arrives at the target cycle in exactly the state the naive
    /// schedule would produce. The delta is clamped to the caller's
    /// window so limit-hit cycles land on exactly the same boundary as
    /// the naive schedule.
    fn advance(&mut self, window: Cycle) -> Cycle {
        debug_assert!(window > 0);
        match self.scheduler {
            Scheduler::Naive => {
                self.step_naive();
                1
            }
            Scheduler::ActiveSet => self.advance_active(window),
        }
    }

    /// Active-set advance: jump when nothing is pending and every
    /// deadline is in the future; otherwise run one stepped cycle.
    fn advance_active(&mut self, window: Cycle) -> Cycle {
        let now = self.cycle;
        if self.hub.is_empty() && self.carry.is_empty() && !self.components.is_empty() {
            let mut next_due = self.heap_next_live();
            let mut polled_from = 0;
            if next_due > now {
                for (pos, &i) in self.polled.iter().enumerate() {
                    match self.components[i as usize].next_activity(now) {
                        Some(at) if at > now => {
                            next_due = next_due.min(at);
                            polled_from = pos + 1;
                        }
                        _ => {
                            next_due = now;
                            polled_from = pos;
                            break;
                        }
                    }
                }
            }
            if next_due > now {
                let delta = (next_due - now).min(window);
                self.cycle += delta;
                self.jumps += 1;
                self.jumped_cycles += delta;
                if let Some(s) = &self.sanitizer {
                    s.set_now(self.cycle);
                }
                if delta < window {
                    // The jump landed on the earliest deadline with
                    // window to spare: run the due cycle in the same
                    // call. Callers' run-loop predicates only read
                    // component-produced state (the documented
                    // `run_until` contract), which a pure jump cannot
                    // change — so no observation point is lost by not
                    // returning in between.
                    self.step_active(0);
                    return delta + 1;
                }
                return delta;
            }
            // Not jumping, but the polled prefix `..polled_from` was
            // just verified idle and nothing can tick before its
            // slots, so it keeps its verdict for this cycle.
            self.step_active(polled_from);
            return 1;
        }
        self.step_active(0);
        1
    }

    /// Earliest live heap deadline, discarding stale entries on the
    /// way. `Cycle::MAX` when nothing is scheduled.
    fn heap_next_live(&mut self) -> Cycle {
        while let Some(&Reverse((at, idx))) = self.heap.peek() {
            if self.scheduled[idx as usize] == at {
                return at;
            }
            self.heap.pop();
        }
        Cycle::MAX
    }

    /// Push a live deadline for `idx`, keeping `scheduled` the minimum
    /// live key. `Cycle::MAX` means "sleep until a wake" and is never
    /// enqueued.
    fn schedule(&mut self, idx: usize, at: Cycle) {
        if at != Cycle::MAX && at < self.scheduled[idx] {
            self.scheduled[idx] = at;
            self.heap.push(Reverse((at, idx as u32)));
        }
    }

    /// One stepped cycle of the active-set schedule.
    ///
    /// `polled_from` skips re-querying a prefix of `self.polled` the
    /// caller has already verified idle this cycle.
    fn step_active(&mut self, polled_from: usize) {
        let now = self.cycle;
        if let Some(s) = &self.sanitizer {
            s.begin_cycle(now);
        }
        // Build the due set: carried-over streamers, polled
        // components, pending wakes, and deadlines that have arrived.
        // The sweep below fully drains `due`, so the swap hands the
        // carry bits over and leaves `carry` empty for this cycle's
        // refills.
        debug_assert!(self.due.is_empty());
        std::mem::swap(&mut self.due, &mut self.carry);
        // Hand last cycle's promises to the sweep and start collecting
        // this cycle's: only promised slots may skip the pre-tick hint
        // query below.
        std::mem::swap(&mut self.carried, &mut self.promise);
        self.promise.clear_all();
        for &i in &self.polled[polled_from..] {
            self.due.set(i as usize);
        }
        self.hub.drain_all_into(&mut self.due);
        while let Some(&Reverse((at, idx))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            let idx = idx as usize;
            if self.scheduled[idx] == at {
                self.scheduled[idx] = Cycle::MAX;
                self.due.set(idx);
            }
        }

        // Ordered sweep over the due set: ascending index is
        // registration order, so forwarding behaves exactly like the
        // naive schedule.
        let mut i = 0;
        while let Some(idx) = self.due.next_at_or_after(i) {
            self.due.clear(idx);
            i = idx + 1;
            let c = &mut self.components[idx];
            // Query the hint exactly once, immediately before this
            // component's tick slot: an earlier component may have
            // pushed work to it during this very cycle. A carried slot
            // skips the query — its own post-tick hint last cycle
            // promised "due again", and hint monotonicity (the wake
            // contract) means earlier ticks this cycle can only add
            // work, never retract the promise.
            if self.carried.get(idx) {
                debug_assert!(
                    !matches!(c.next_activity(now), Some(at) if at > now),
                    "{}: post-tick hint promised due at {now} but the pre-tick \
                     query disagrees (non-monotone hint)",
                    c.name()
                );
            } else if let Some(at) = c.next_activity(now) {
                if at > now {
                    // Not due after all. Wired components sleep until
                    // the declared cycle (or a wake); polled ones are
                    // re-queried next cycle anyway.
                    if self.policies[idx] == WakePolicy::Wired {
                        self.schedule(idx, at);
                    }
                    continue;
                }
            }
            let mut ctx = TickCtx {
                cycle: now,
                tracer: &self.tracer,
            };
            if self.profiling {
                let t0 = std::time::Instant::now();
                c.tick(&mut ctx);
                self.host_ns[idx] += t0.elapsed().as_nanos() as u64;
            } else {
                c.tick(&mut ctx);
            }
            self.ticks[idx] += 1;
            if self.policies[idx] == WakePolicy::Wired {
                // Reschedule from the post-tick hint. `None` and `now`
                // both mean "again next cycle" — the carry bitset, not
                // the heap, so a streaming drain costs no heap traffic
                // — while MAX means "sleep until a wake arrives". A
                // hint still at `now` (or `None`) additionally records
                // a firm promise, letting next cycle's sweep skip the
                // pre-tick re-query; an exact `now + 1` deadline may
                // be a gate and is carried without the promise.
                match c.next_activity(now) {
                    Some(at) if at > now + 1 => self.schedule(idx, at),
                    Some(at) if at == now + 1 => self.carry.set(idx),
                    _ => {
                        self.carry.set(idx);
                        self.promise.set(idx);
                    }
                }
            }
            // A push during this tick wakes its subscribers: later
            // components join this very cycle (same-cycle forwarding),
            // earlier ones wait for the next (pipeline latency) — the
            // same visibility the naive schedule gives.
            self.hub.drain_above_into(idx, &mut self.due);
        }
        self.cycle = now + 1;
        if let Some(s) = &self.sanitizer {
            s.end_cycle();
        }
    }

    /// Advance by `n` cycles.
    pub fn step_n(&mut self, n: Cycle) {
        let mut remaining = n;
        while remaining > 0 {
            remaining -= self.advance(remaining);
        }
    }

    /// Step until `predicate` returns true, checking *after* each
    /// cycle. Returns the number of cycles stepped, or a
    /// [`StallReport`] after `limit` cycles — an un-met predicate is a
    /// deadlock or a wiring bug, and a bounded run with a diagnostic
    /// beats an infinite loop.
    ///
    /// With fast-forward enabled the predicate is not evaluated at
    /// cycles inside an all-idle jump window. That is behavior-
    /// preserving for predicates that read component-produced state
    /// (FIFOs, signals, handles): no component changes state during
    /// the window, so the predicate's value is constant across it.
    pub fn run_until(
        &mut self,
        limit: Cycle,
        mut predicate: impl FnMut() -> bool,
    ) -> Result<Cycle, StallReport> {
        let start = self.cycle;
        while !predicate() {
            let elapsed = self.cycle - start;
            if elapsed >= limit {
                return Err(self.stall_report(start, limit));
            }
            self.advance(limit - elapsed);
        }
        Ok(self.cycle - start)
    }

    /// Step until every registered component reports `!busy()`, with
    /// the same `limit` safety net. Returns cycles stepped, or a
    /// [`StallReport`] naming the components that never drained.
    pub fn run_until_quiescent(&mut self, limit: Cycle) -> Result<Cycle, StallReport> {
        let start = self.cycle;
        loop {
            if !self.components.iter().any(|c| c.busy()) {
                return Ok(self.cycle - start);
            }
            let elapsed = self.cycle - start;
            if elapsed >= limit {
                return Err(self.stall_report(start, limit));
            }
            self.advance(limit - elapsed);
        }
    }

    /// Build the diagnostic for a limit-exhausted run.
    fn stall_report(&self, start: Cycle, limit: Cycle) -> StallReport {
        let events = self.tracer.events();
        let tail_from = events.len().saturating_sub(STALL_TRACE_TAIL);
        let (protocol_violations, stuck_channels) = match &self.sanitizer {
            // "Stuck" = no event for at least half the exhausted
            // limit: long enough to rule out ordinary backpressure,
            // short enough that the culprit of the stall qualifies.
            Some(s) => (
                s.violation_count(),
                s.stuck_channels(self.cycle, (limit / 2).max(1)),
            ),
            None => (0, Vec::new()),
        };
        StallReport {
            cycle: self.cycle,
            start,
            limit,
            busy: self
                .components
                .iter()
                .filter(|c| c.busy())
                .map(|c| c.name().to_string())
                .collect(),
            trace_tail: events[tail_from..].to_vec(),
            mmio_violations: self.mmio_audit().violations(),
            protocol_violations,
            stuck_channels,
        }
    }

    /// Merged MMIO audit across every registered component, with the
    /// attached sanitizer's protocol-violation count folded into
    /// [`MmioAudit::protocol`] — one `violations() == 0` assertion
    /// covers register policy and bus protocol alike.
    pub fn mmio_audit(&self) -> MmioAudit {
        let mut total = MmioAudit::default();
        for c in &self.components {
            if let Some(a) = c.mmio_audit() {
                total.merge(&a);
            }
        }
        if let Some(s) = &self.sanitizer {
            total.protocol += s.violation_count();
        }
        total
    }

    /// Names of components currently reporting busy (diagnostics).
    pub fn busy_components(&self) -> Vec<&str> {
        self.components
            .iter()
            .filter(|c| c.busy())
            .map(|c| c.name())
            .collect()
    }

    /// Snapshot of the kernel's activity accounting: total cycles,
    /// jump counts, and per-component executed/skipped tick counts.
    ///
    /// Skipped-cycle counts are derived here rather than accumulated
    /// in the hot loop: a component was skipped on every cycle since
    /// its registration that did not execute one of its ticks, whether
    /// the kernel gated the tick individually, jumped the clock over
    /// it, or never looked at the sleeping component at all.
    pub fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            cycles: self.cycle,
            fast_forward: self.scheduler != Scheduler::Naive,
            jumps: self.jumps,
            jumped_cycles: self.jumped_cycles,
            protocol_violations: self.sanitizer.as_ref().map_or(0, |s| s.violation_count()),
            profiled: self.profiling,
            components: self
                .components
                .iter()
                .zip(&self.ticks)
                .zip(&self.registered_at)
                .zip(&self.host_ns)
                .map(|(((c, &ticks), &registered), &host_ns)| ComponentStats {
                    name: c.name().to_string(),
                    ticks_executed: ticks,
                    cycles_skipped: (self.cycle - registered) - ticks,
                    host_ns,
                    audit: c.mmio_audit().map(Box::new),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::TickCtx;
    use crate::fifo::Fifo;
    use crate::state::StateBlob;

    /// Emits `count` items, one per cycle. It has no inputs, so either
    /// wake policy is honest for it.
    struct Producer {
        out: Fifo<u64>,
        remaining: u64,
        policy: WakePolicy,
    }
    impl Component for Producer {
        fn name(&self) -> &str {
            "producer"
        }
        fn wake_sources(&self, _waker: &crate::wake::Waker) -> WakePolicy {
            self.policy
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
        fn save_state(&self) -> Option<StateBlob> {
            // The out channel is saved by its consumer.
            let mut b = StateBlob::new("test.producer", 1);
            b.put_u64("remaining", self.remaining);
            Some(b)
        }
        fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
            state.expect("test.producer", 1)?;
            self.remaining = state.get_u64("remaining")?;
            Ok(())
        }
    }

    /// Consumes items, one per cycle.
    struct Consumer {
        input: Fifo<u64>,
        seen: std::rc::Rc<std::cell::Cell<u64>>,
    }
    impl Component for Consumer {
        fn name(&self) -> &str {
            "consumer"
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if self.input.try_pop(ctx.cycle).is_some() {
                self.seen.set(self.seen.get() + 1);
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
        fn save_state(&self) -> Option<StateBlob> {
            let mut b = StateBlob::new("test.consumer", 1);
            b.put("input", self.input.save_state());
            b.put_u64("seen", self.seen.get());
            Some(b)
        }
        fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
            state.expect("test.consumer", 1)?;
            self.input.restore_state(state.get("input")?)?;
            self.seen.set(state.get_u64("seen")?);
            Ok(())
        }
    }

    /// Wakes itself every `period` cycles and counts the wakes.
    struct Timer {
        period: Cycle,
        fired: u64,
    }
    impl Component for Timer {
        fn name(&self) -> &str {
            "timer"
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.cycle.is_multiple_of(self.period) {
                self.fired += 1;
            }
        }
        fn next_activity(&self, now: Cycle) -> Option<Cycle> {
            Some(now.next_multiple_of(self.period))
        }
        fn save_state(&self) -> Option<StateBlob> {
            let mut b = StateBlob::new("test.timer", 1);
            b.put_u64("fired", self.fired);
            Some(b)
        }
        fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
            state.expect("test.timer", 1)?;
            self.fired = state.get_u64("fired")?;
            Ok(())
        }
    }

    fn pipeline(n: u64) -> (Simulator, std::rc::Rc<std::cell::Cell<u64>>) {
        pipeline_with(n, WakePolicy::Poll)
    }

    fn pipeline_with(n: u64, policy: WakePolicy) -> (Simulator, std::rc::Rc<std::cell::Cell<u64>>) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let chan = Fifo::new("p2c", 2);
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.register(Box::new(Producer {
            out: chan.clone(),
            remaining: n,
            policy,
        }));
        sim.register(Box::new(Consumer {
            input: chan,
            seen: seen.clone(),
        }));
        (sim, seen)
    }

    #[test]
    fn one_item_per_cycle_steady_state() {
        let (mut sim, seen) = pipeline(100);
        let cycles = sim.run_until_quiescent(10_000).unwrap();
        assert_eq!(seen.get(), 100);
        // Producer-before-consumer gives same-cycle forwarding, so the
        // whole transfer takes ~n cycles (+1 drain).
        assert!(cycles <= 102, "took {cycles} cycles");
    }

    #[test]
    fn run_until_counts_cycles() {
        let (mut sim, seen) = pipeline(10);
        let took = sim.run_until(1000, || seen.get() >= 5).unwrap();
        assert!((5..=7).contains(&took), "took {took}");
        assert_eq!(sim.now(), took);
    }

    #[test]
    fn run_until_reports_stall_at_limit() {
        let (mut sim, _) = pipeline(0);
        let err = sim.run_until(10, || false).unwrap_err();
        assert_eq!(err.cycle, 10);
        assert_eq!(err.start, 0);
        assert_eq!(err.limit, 10);
        assert_eq!(sim.now(), 10, "clock stops exactly at the limit");
        let msg = err.to_string();
        assert!(msg.contains("stalled at cycle 10"), "got: {msg}");
    }

    #[test]
    fn stall_report_names_busy_components_and_trace_tail() {
        let mut sim = Simulator::with_tracing(Freq::FABRIC_100MHZ, TraceLevel::Debug, 64);
        // A producer into a FIFO nobody drains: fills up and stays busy.
        let chan = Fifo::new("p2c", 2);
        sim.register(Box::new(Producer {
            out: chan.clone(),
            remaining: 50,
            policy: WakePolicy::Poll,
        }));
        sim.tracer().debug(0, "test", || "stall incoming".into());
        let err = sim.run_until_quiescent(20).unwrap_err();
        assert_eq!(err.busy, vec!["producer".to_string()]);
        assert!(err.trace_tail.iter().any(|e| e.message == "stall incoming"));
        assert!(err.to_string().contains("busy: producer"));
    }

    #[test]
    fn quiescent_with_no_components_is_immediate() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        assert_eq!(sim.run_until_quiescent(10).unwrap(), 0);
    }

    #[test]
    fn busy_components_lists_names() {
        let (mut sim, _) = pipeline(3);
        assert_eq!(sim.busy_components(), vec!["producer"]);
        sim.run_until_quiescent(100).unwrap();
        assert!(sim.busy_components().is_empty());
    }

    #[test]
    fn step_n_advances_clock() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        sim.step_n(17);
        assert_eq!(sim.now(), 17);
    }

    #[test]
    fn timer_fires_identically_with_and_without_fast_forward() {
        let run = |scheduler: Scheduler| {
            let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
            sim.set_scheduler(scheduler);
            sim.register(Box::new(Timer {
                period: 64,
                fired: 0,
            }));
            sim.step_n(1000);
            let stats = sim.kernel_stats();
            (sim.now(), stats.components[0].ticks_executed)
        };
        let (now_ff, ticks_ff) = run(Scheduler::ActiveSet);
        let (now_naive, ticks_naive) = run(Scheduler::Naive);
        assert_eq!(now_ff, now_naive);
        assert_eq!(now_ff, 1000);
        // The timer does observable work only on multiples of 64; the
        // fast-forwarded run executes exactly those ticks, the naive
        // run all 1000.
        assert_eq!(ticks_ff, 16, "cycle 0, 64, ..., 960");
        assert_eq!(ticks_naive, 1000);
    }

    #[test]
    fn fast_forward_skips_idle_gap_but_cycle_counts_match() {
        let run = |scheduler: Scheduler| {
            let (mut sim, seen) = pipeline(10);
            sim.set_scheduler(scheduler);
            // Drain the pipeline, then sit idle until a far deadline.
            let took = sim.run_until(100_000, || seen.get() >= 10).unwrap();
            sim.step_n(50_000);
            (took, sim.now(), sim.kernel_stats())
        };
        let (took_ff, now_ff, stats_ff) = run(Scheduler::ActiveSet);
        let (took_naive, now_naive, stats_naive) = run(Scheduler::Naive);
        assert_eq!(took_ff, took_naive);
        assert_eq!(now_ff, now_naive);
        // The idle 50k-cycle tail is jumped in one go.
        assert!(stats_ff.jumped_cycles >= 50_000, "stats: {stats_ff:?}");
        assert_eq!(stats_naive.jumped_cycles, 0);
        for c in &stats_naive.components {
            assert_eq!(c.cycles_skipped, 0);
        }
    }

    #[test]
    fn step_never_jumps_even_when_all_idle() {
        let (mut sim, _) = pipeline(0);
        sim.step();
        assert_eq!(sim.now(), 1, "single-step advances exactly one cycle");
        // ...but it does gate the idle components' ticks.
        let stats = sim.kernel_stats();
        assert_eq!(stats.components[0].ticks_executed, 0);
        assert_eq!(stats.components[0].cycles_skipped, 1);
    }

    #[test]
    fn hintless_component_disables_jumps() {
        struct NoHint;
        impl Component for NoHint {
            fn name(&self) -> &str {
                "nohint"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        }
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        sim.register(Box::new(NoHint));
        sim.step_n(100);
        let stats = sim.kernel_stats();
        assert_eq!(stats.jumps, 0);
        assert_eq!(stats.components[0].ticks_executed, 100);
    }

    #[test]
    fn jump_is_clamped_to_the_run_limit() {
        let (mut sim, _) = pipeline(0);
        // Everything idle forever: the jump must stop at the limit
        // boundary, exactly where the naive schedule stops.
        let err = sim.run_until(12_345, || false).unwrap_err();
        assert_eq!(err.cycle, 12_345);
        assert_eq!(sim.now(), 12_345);
    }

    #[test]
    fn sanitizer_catches_force_push_misuse_from_ticked_code() {
        use crate::sanitizer::{ChannelKind, Sanitizer, ViolationKind};

        /// A buggy producer that force-pushes two items per tick,
        /// bypassing the FIFO's own rate limit.
        struct DoublePusher {
            out: Fifo<u64>,
            remaining: u64,
        }
        impl Component for DoublePusher {
            fn name(&self) -> &str {
                "doubler"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                if self.remaining > 0 {
                    self.out.force_push(1);
                    self.out.force_push(2);
                    self.remaining -= 1;
                }
            }
        }

        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let chan: Fifo<u64> = Fifo::new("hot", 16);
        let san = Sanitizer::new();
        san.watch(&chan, ChannelKind::Opaque);
        sim.register(Box::new(DoublePusher {
            out: chan.clone(),
            remaining: 3,
        }));
        sim.attach_sanitizer(san.clone());
        sim.step_n(5);
        assert_eq!(san.count_of(ViolationKind::MultiPush), 3);
        assert_eq!(sim.kernel_stats().protocol_violations, 3);
        assert_eq!(sim.mmio_audit().protocol, 3);
        assert_ne!(sim.mmio_audit().violations(), 0);
        // Host-context pushes between steps stay exempt.
        chan.force_push(7);
        chan.force_push(8);
        assert_eq!(san.violation_count(), 3);
    }

    #[test]
    fn stall_report_carries_stuck_channel_evidence() {
        use crate::sanitizer::{ChannelKind, Sanitizer};

        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let chan = Fifo::new("p2c", 2);
        let san = Sanitizer::new();
        san.watch(&chan, ChannelKind::Opaque);
        // A producer into a FIFO nobody drains: fills, then the queued
        // elements sit untouched for the rest of the run.
        sim.register(Box::new(Producer {
            out: chan,
            remaining: 50,
            policy: WakePolicy::Poll,
        }));
        sim.attach_sanitizer(san);
        let err = sim.run_until_quiescent(1000).unwrap_err();
        assert_eq!(err.protocol_violations, 0, "backpressure is legal");
        assert_eq!(err.stuck_channels.len(), 1);
        assert_eq!(err.stuck_channels[0].name, "p2c");
        assert_eq!(err.stuck_channels[0].occupancy, 2);
        let msg = err.to_string();
        assert!(msg.contains("channel p2c stuck since cycle"), "got: {msg}");
    }

    #[test]
    fn kernel_stats_track_utilization() {
        let (mut sim, _) = pipeline(10);
        sim.run_until_quiescent(1000).unwrap();
        sim.step_n(989 - sim.now().min(989));
        let stats = sim.kernel_stats();
        for c in &stats.components {
            assert_eq!(c.ticks_executed + c.cycles_skipped, stats.cycles);
        }
        let rendered = stats.render();
        assert!(rendered.contains("producer"));
        assert!(rendered.contains("consumer"));
    }

    #[test]
    fn profiling_attributes_host_time_without_changing_behavior() {
        for scheduler in [Scheduler::Naive, Scheduler::ActiveSet] {
            let run = |profile: bool| {
                let (mut sim, seen) = pipeline(50);
                sim.set_scheduler(scheduler);
                sim.set_profiling(profile);
                sim.run_until_quiescent(10_000).unwrap();
                (sim.now(), seen.get(), sim.kernel_stats(), sim)
            };
            let (now_p, seen_p, stats_p, mut profiled) = run(true);
            let (now_u, seen_u, stats_u, _) = run(false);
            assert_eq!(now_p, now_u, "{scheduler:?}: cycle counts identical");
            assert_eq!(seen_p, seen_u);
            assert!(stats_p.profiled);
            assert!(!stats_u.profiled);
            assert_eq!(stats_u.total_host_ns(), 0, "disabled mode records nothing");
            assert!(
                stats_p.total_host_ns() > 0,
                "{scheduler:?}: ticked components accumulate host time"
            );
            for (p, u) in stats_p.components.iter().zip(&stats_u.components) {
                assert_eq!(p.ticks_executed, u.ticks_executed, "{}", p.name);
                if p.ticks_executed > 0 {
                    assert!(p.host_ns > 0, "{}: ticked but unattributed", p.name);
                }
            }
            let table = stats_p.render_tick_costs();
            assert!(table.contains("producer"), "{scheduler:?}:\n{table}");
            assert!(table.contains("consumer"), "{scheduler:?}:\n{table}");
            profiled.reset_stats();
            assert_eq!(
                profiled.kernel_stats().total_host_ns(),
                0,
                "{scheduler:?}: reset zeroes attribution"
            );
        }
    }

    #[test]
    fn checkpoint_restore_continue_matches_straight_run() {
        // Straight run: 30 cycles in, checkpoint, then run to the end.
        let (mut straight, seen_s) = pipeline(100);
        straight.step_n(30);
        let mid = straight.checkpoint().unwrap();
        assert_eq!(mid.cycle, 30);
        straight.run_until_quiescent(10_000).unwrap();
        let end_straight = straight.checkpoint().unwrap();

        // Replay: fresh structurally identical rig, restore mid-stream,
        // run the identical remainder.
        let (mut replay, seen_r) = pipeline(100);
        replay.restore(&mid).unwrap();
        assert_eq!(replay.now(), 30);
        replay.run_until_quiescent(10_000).unwrap();
        let end_replay = replay.checkpoint().unwrap();

        assert_eq!(end_straight.parity_diff(&end_replay), None);
        assert_eq!(seen_s.get(), 100);
        assert_eq!(seen_r.get(), 100);
        assert_eq!(straight.now(), replay.now());
    }

    #[test]
    fn restore_works_across_scheduler_modes() {
        // Checkpoint under the naive schedule, restore into an
        // active-set rig: end state must be parity-identical.
        let (mut a, _) = pipeline(50);
        a.set_scheduler(Scheduler::Naive);
        a.step_n(20);
        let mid = a.checkpoint().unwrap();
        a.run_until_quiescent(10_000).unwrap();

        let (mut b, _) = pipeline(50);
        b.set_scheduler(Scheduler::ActiveSet);
        b.restore(&mid).unwrap();
        b.run_until_quiescent(10_000).unwrap();

        assert_eq!(
            a.checkpoint()
                .unwrap()
                .parity_diff(&b.checkpoint().unwrap()),
            None
        );
    }

    /// Per-component executed ticks.
    fn ticks_of(sim: &Simulator) -> Vec<u64> {
        sim.kernel_stats()
            .components
            .iter()
            .map(|c| c.ticks_executed)
            .collect()
    }

    #[test]
    fn restore_drops_promises_made_before_it() {
        let (mut sim, _) = pipeline_with(100, WakePolicy::Wired);
        sim.step_n(30);
        let mid = sim.checkpoint().unwrap();
        sim.run_until_quiescent(10_000).unwrap();
        let idle = sim.checkpoint().unwrap();

        // Mid-stream the producer's post-tick hint promises "due again
        // next cycle". Restoring an idle checkpoint must void that
        // promise: the restored producer has nothing left to emit.
        sim.restore(&mid).unwrap();
        sim.step_n(5);
        sim.restore(&idle).unwrap();
        sim.reset_stats();
        sim.step_n(3);

        let (mut fresh, _) = pipeline_with(100, WakePolicy::Wired);
        fresh.restore(&idle).unwrap();
        fresh.reset_stats();
        fresh.step_n(3);
        assert_eq!(ticks_of(&sim), ticks_of(&fresh));
        assert_eq!(ticks_of(&fresh), vec![0, 0], "an idle rig ticks nothing");
    }

    #[test]
    fn scheduler_switch_drops_promises_made_before_it() {
        let (mut sim, _) = pipeline_with(40, WakePolicy::Wired);
        sim.step_n(10);
        // The producer is promised due; drain the rest of the stream
        // under the naive schedule, which never consults promises.
        sim.set_scheduler(Scheduler::Naive);
        sim.run_until_quiescent(10_000).unwrap();
        sim.set_scheduler(Scheduler::ActiveSet);
        sim.reset_stats();
        sim.step_n(3);
        assert_eq!(ticks_of(&sim), vec![0, 0], "an idle rig ticks nothing");
    }

    #[test]
    fn checkpoint_is_strict_about_completeness() {
        struct Opaque;
        impl Component for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        }
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        sim.register(Box::new(Opaque));
        assert_eq!(
            sim.checkpoint().unwrap_err(),
            StateError::Unsupported {
                component: "opaque".into()
            }
        );
    }

    #[test]
    fn restore_rejects_roster_mismatch() {
        let (sim, _) = pipeline(10);
        let state = sim.checkpoint().unwrap();

        let mut other = Simulator::new(Freq::FABRIC_100MHZ);
        other.register(Box::new(Timer {
            period: 8,
            fired: 0,
        }));
        assert!(other.restore(&state).is_err(), "component count differs");

        let mut two = Simulator::new(Freq::FABRIC_100MHZ);
        two.register(Box::new(Timer {
            period: 8,
            fired: 0,
        }));
        two.register(Box::new(Timer {
            period: 9,
            fired: 0,
        }));
        assert!(two.restore(&state).is_err(), "component names differ");
    }

    #[test]
    fn reset_stats_rebases_the_measurement_phase() {
        let (mut sim, _) = pipeline(5);
        sim.run_until_quiescent(1000).unwrap();
        sim.step_n(200);
        sim.reset_stats();
        sim.step_n(300);
        let stats = sim.kernel_stats();
        // Only the post-reset phase is accounted: the pipeline is idle
        // there, so every tick was skipped and none executed.
        for c in &stats.components {
            assert_eq!(c.ticks_executed, 0, "{}", c.name);
            assert_eq!(c.cycles_skipped, 300, "{}", c.name);
        }
    }
}
