//! The slot-synchronous simulation engine (thin orchestrator).
//!
//! Time advances in slots (the paper assumes loose synchronization and
//! describes behaviour per slot, §1/§3). Each stepped slot runs the
//! seven-phase pipeline (one internal module per phase under
//! `crates/sim/src/phases/`):
//!
//! 1. fault processes (crash/recovery, clock drift);
//! 2. traffic generation per the [`TrafficPattern`];
//! 3. transmit election (schedule, sync-miss, p-persistence);
//! 4. reception resolution through the configured
//!    [`ChannelModel`] — by default the paper's rule:
//!    a reception at `y` succeeds iff **exactly one** of its neighbours
//!    transmits;
//! 5. handoff delivery; 6. bounded ARQ; 7. energy and battery depletion.
//!
//! Election, channel and energy visit only the slot's rosters — who may
//! transmit, who may listen, who is awake — in ascending order. For a
//! frame-periodic MAC a [`SlotPlan`] supplies them without clock drift,
//! and per-skew-group reads of the MAC's slot masks supply them under
//! drift; for any other MAC a per-slot scan asks the MAC about every node
//! at its drift-perceived slot ([`Simulator::run_dense`] forces the scan).
//! All sources give bit-identical runs; the choice is only about speed.
//!
//! Anything observable is announced as a [`SlotEvent`] to the attached
//! [`SlotObserver`]s; the built-in metrics and trace observers assemble
//! the [`SimReport`]. Senders can be *schedule-aware* (transmit a packet
//! only in slots where its next hop is scheduled to listen — possible
//! because the schedule is global knowledge even though the topology is
//! not) or eager. The topology may be swapped between steps
//! ([`Simulator::set_topology`]) to exercise topology transparency under
//! churn and mobility.

use crate::builder::SimulatorBuilder;
pub use crate::channel::CaptureModel;
use crate::channel::ChannelModel;
use crate::energy::{EnergyLedger, EnergyModel, RadioState};
use crate::error::SimError;
use crate::events::SkipState;
use crate::faults::{FaultPlan, FaultState};
use crate::mac::MacProtocol;
use crate::metrics::SimReport;
use crate::observer::{MetricsObserver, SlotEvent, SlotObserver, TraceObserver};
use crate::phases;
use crate::plan::SlotPlan;
use crate::roster::{PlanRoster, Roster, ScanRoster, SkewRoster};
use crate::topology::Topology;
use crate::traffic::{Packet, TrafficPattern};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use ttdc_util::BitSet;

/// Engine knobs independent of workload and protocol.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// RNG seed (everything is deterministic given the seed).
    pub seed: u64,
    /// Radio energy model.
    pub energy: EnergyModel,
    /// If `true`, a sender only spends a transmit opportunity on a packet
    /// whose next hop is scheduled to listen in that slot.
    pub schedule_aware_senders: bool,
    /// Probability that a node misses a scheduled action (imperfect
    /// synchronization). `0.0` = perfect sync.
    pub miss_probability: f64,
    /// Per-node battery capacity in mJ; a node whose cumulative consumption
    /// reaches it dies (radio permanently off). `None` = mains-powered.
    pub battery_capacity_mj: Option<f64>,
    /// Ring-buffer capacity for event tracing (0 = tracing off).
    pub trace_capacity: usize,
    /// Fault injection: lossy/bursty links, transient crashes, clock drift,
    /// and the ARQ retry bound (see [`crate::faults`]). The default plan
    /// injects nothing and leaves runs bit-for-bit unchanged.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            energy: EnergyModel::default(),
            schedule_aware_senders: true,
            miss_probability: 0.0,
            battery_capacity_mj: None,
            trace_capacity: 0,
            faults: FaultPlan::default(),
        }
    }
}

/// The simulator state: topology, per-node queues, observers, and the RNG.
///
/// Construct through [`SimulatorBuilder`] (or the [`Simulator::new`] /
/// [`Simulator::try_new`] shorthands, which route through it).
#[derive(Debug)]
pub struct Simulator {
    pub(crate) topo: Topology,
    pub(crate) pattern: TrafficPattern,
    pub(crate) config: SimConfig,
    pub(crate) rng: SmallRng,
    pub(crate) queues: Vec<VecDeque<Packet>>,
    /// Convergecast next hop toward the sink (`usize::MAX` = no route).
    pub(crate) routing: Vec<usize>,
    pub(crate) slot: u64,
    /// Battery-exhausted nodes (radio permanently off).
    pub(crate) dead: Vec<bool>,
    /// Cumulative per-node energy. Engine-owned (not observer state): the
    /// energy phase must read it mid-loop to decide battery death.
    pub(crate) energy: EnergyLedger,
    /// Fault-injection runtime state (crash flags, link channels, drift).
    pub(crate) faults: FaultState,
    /// How concurrent transmissions resolve at a listener.
    pub(crate) channel: Box<dyn ChannelModel>,
    /// Built-in observers (concrete types — no dynamic dispatch on the
    /// hot path) plus any user-attached extras.
    pub(crate) metrics: MetricsObserver,
    pub(crate) trace_obs: TraceObserver,
    pub(crate) extra_observers: Vec<Box<dyn SlotObserver>>,
    // Per-slot scratch (reused across steps to avoid allocation).
    pub(crate) transmitting: Vec<bool>,
    pub(crate) listening: Vec<bool>,
    pub(crate) tx_queue_idx: Vec<usize>,
    pub(crate) successes: Vec<(usize, usize)>,
    /// Nodes that actually transmitted this slot, ascending. The election
    /// clears only these flags instead of all `n`, and the ARQ pass
    /// iterates them instead of scanning every node.
    pub(crate) active_tx: Vec<usize>,
    /// Nodes that actually listened this slot, ascending (same role as
    /// `active_tx` for the `listening` flags).
    pub(crate) active_rx: Vec<usize>,
    /// `active_tx` as a word mask; the channel phase resolves receptions
    /// by intersecting neighbourhoods against it.
    pub(crate) tx_mask: BitSet,
    /// Per-slot roster scan buffers for non-periodic MACs and forced
    /// scans; reused across slots and runs.
    scan: ScanRoster,
    /// Skew-group roster for frame-periodic MACs under clock drift;
    /// reused across slots and runs like `scan`.
    skew: SkewRoster,
    /// Cached slot plan, rebuilt in place by [`Simulator::run`] whenever
    /// the plan source is eligible (rebuilding reuses buffers, so
    /// steady-state runs stay allocation-free).
    plan_cache: Option<SlotPlan>,
    /// Cached time-skipping calendar state, buffer-reused like the plan.
    skip_cache: Option<SkipState>,
}

impl Simulator {
    /// Creates a simulator over `topo` with the given workload and config.
    ///
    /// Panics on invalid configuration; [`Simulator::try_new`] is the
    /// fallible equivalent.
    pub fn new(topo: Topology, pattern: TrafficPattern, config: SimConfig) -> Simulator {
        match Simulator::try_new(topo, pattern, config) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a simulator over `topo`, rejecting invalid configuration
    /// (out-of-range sink, bad miss probability, bad fault plan) as a
    /// typed [`SimError`] instead of panicking. Routed through
    /// [`SimulatorBuilder`].
    pub fn try_new(
        topo: Topology,
        pattern: TrafficPattern,
        config: SimConfig,
    ) -> Result<Simulator, SimError> {
        SimulatorBuilder::new(topo, pattern).config(config).build()
    }

    /// Assembles a validated simulator; only [`SimulatorBuilder::build`]
    /// calls this.
    pub(crate) fn assemble(
        topo: Topology,
        pattern: TrafficPattern,
        config: SimConfig,
        channel: Box<dyn ChannelModel>,
        extra_observers: Vec<Box<dyn SlotObserver>>,
    ) -> Simulator {
        let n = topo.num_nodes();
        let mut sim = Simulator {
            topo,
            pattern,
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            // Pre-reserved so a stable offered load never triggers a
            // mid-run doubling (capacity growth would make the step loop
            // allocate; the alloc_audit test asserts it doesn't). Loads that backlog
            // deeper than this still grow on demand.
            queues: (0..n).map(|_| VecDeque::with_capacity(64)).collect(),
            routing: vec![usize::MAX; n],
            slot: 0,
            dead: vec![false; n],
            energy: EnergyLedger::new(n),
            faults: FaultState::new(config.faults, n, config.seed),
            channel,
            metrics: MetricsObserver::new(),
            trace_obs: TraceObserver::new(config.trace_capacity),
            extra_observers,
            transmitting: vec![false; n],
            listening: vec![false; n],
            tx_queue_idx: vec![usize::MAX; n],
            successes: Vec::with_capacity(n),
            active_tx: Vec::with_capacity(n),
            active_rx: Vec::with_capacity(n),
            tx_mask: BitSet::new(n),
            scan: ScanRoster::default(),
            skew: SkewRoster::default(),
            plan_cache: None,
            skip_cache: None,
        };
        sim.rebuild_routing();
        sim
    }

    /// The current topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Replaces the topology (mobility/churn) and recomputes routes.
    pub fn set_topology(&mut self, topo: Topology) {
        assert_eq!(
            topo.num_nodes(),
            self.topo.num_nodes(),
            "node count is fixed"
        );
        self.topo = topo;
        self.rebuild_routing();
    }

    /// Current slot counter.
    pub fn current_slot(&self) -> u64 {
        self.slot
    }

    /// Enables physical capture: `positions[v]` is node `v`'s coordinate
    /// (e.g. from [`crate::GeometricNetwork::positions`]). Replaces the
    /// channel model with a [`crate::CaptureChannel`].
    ///
    /// Panics on invalid input; [`Simulator::try_enable_capture`] is the
    /// fallible equivalent.
    pub fn enable_capture(&mut self, positions: Vec<(f64, f64)>, model: CaptureModel) {
        if let Err(e) = self.try_enable_capture(positions, model) {
            panic!("{e}");
        }
    }

    /// Enables physical capture, rejecting invalid input as a typed
    /// [`SimError`] instead of panicking.
    pub fn try_enable_capture(
        &mut self,
        positions: Vec<(f64, f64)>,
        model: CaptureModel,
    ) -> Result<(), SimError> {
        if positions.len() != self.topo.num_nodes() {
            return Err(SimError::PositionCountMismatch {
                positions: positions.len(),
                nodes: self.topo.num_nodes(),
            });
        }
        if model.ratio < 1.0 {
            return Err(SimError::CaptureRatioTooSmall { ratio: model.ratio });
        }
        self.channel = Box::new(crate::channel::CaptureChannel::new(positions, model));
        Ok(())
    }

    /// Replaces the channel model mid-run (e.g. to degrade conditions).
    pub fn set_channel(&mut self, channel: impl ChannelModel + 'static) {
        self.channel = Box::new(channel);
    }

    /// The user-attached observers, in attachment order (the built-in
    /// metrics and trace observers are not included).
    pub fn observers(&self) -> &[Box<dyn SlotObserver>] {
        &self.extra_observers
    }

    fn rebuild_routing(&mut self) {
        if let Some(sink) = self.pattern.sink() {
            let dist = self.topo.bfs_distances(sink);
            let n = self.topo.num_nodes();
            for v in 0..n {
                self.routing[v] = if v == sink || dist[v] == usize::MAX {
                    usize::MAX
                } else {
                    // Any neighbour one hop closer to the sink.
                    self.topo
                        .neighbors(v)
                        .iter()
                        .find(|&w| dist[w] + 1 == dist[v])
                        .unwrap_or(usize::MAX)
                };
            }
        }
    }

    /// The next hop for a packet currently held by `holder`.
    pub(crate) fn next_hop(&self, holder: usize, packet: &Packet) -> usize {
        match self.pattern {
            TrafficPattern::Convergecast { .. } => self.routing[holder],
            _ => packet.final_dst,
        }
    }

    /// Announces `event` to every observer: the built-in metrics and trace
    /// recorders first, then user extras in attachment order.
    #[inline]
    pub(crate) fn emit(&mut self, event: SlotEvent) {
        self.metrics.on_event(self.slot, &event);
        self.trace_obs.on_event(self.slot, &event);
        for obs in &mut self.extra_observers {
            obs.on_event(self.slot, &event);
        }
    }

    /// Advances one slot under `mac` on the per-slot roster scan — the
    /// source [`Simulator::run_dense`] forces, valid for any MAC and any
    /// fault plan — and closes the slot for every observer.
    pub fn step(&mut self, mac: &dyn MacProtocol) {
        self.run_dense(mac, 1);
    }

    /// Advances one slot: the fault phase, then `roster` is loaded (after
    /// the drift the fault phase accrued), then traffic, the roster-driven
    /// exchange and energy, and the slot closes for every observer.
    fn step_on<R: Roster>(&mut self, mac: &dyn MacProtocol, roster: &mut R) {
        phases::faults::run(self);
        roster.load(mac, &self.faults, self.slot);
        phases::traffic::run(self);
        self.exchange(mac, roster);
        phases::energy::run(self, roster.awake());
        self.close_slot();
    }

    /// The roster-driven middle of every stepped slot, shared with the
    /// time-skipping engine: election, channel, delivery, ARQ.
    fn exchange<R: Roster>(&mut self, mac: &dyn MacProtocol, roster: &R) {
        phases::election::run(self, mac, roster);
        phases::channel::run(self, roster.listeners());
        phases::delivery::run(self);
        phases::arq::run(self);
    }

    /// Announces the slot boundary to every observer and advances time.
    fn close_slot(&mut self) {
        let slot = self.slot;
        self.metrics.on_slot_end(slot);
        self.trace_obs.on_slot_end(slot);
        for obs in &mut self.extra_observers {
            obs.on_slot_end(slot);
        }
        self.slot += 1;
    }

    /// `true` when the MAC's rosters can be read from its per-frame-slot
    /// masks: it must genuinely be frame-periodic, so the rosters of any
    /// (perceived) slot are those of frame slot `slot % L`. Otherwise only
    /// the per-slot scan can supply them.
    fn masks_eligible(mac: &dyn MacProtocol) -> bool {
        mac.frame_periodic() && mac.frame_length() > 0
    }

    /// `true` when the time-skipping engine reproduces the slot-by-slot
    /// pipeline bit for bit. It needs a [`SlotPlan`] (a frame-periodic MAC
    /// and zero clock drift, so every node perceives the true slot), and
    /// *boring* slots (no scheduled transmitter with a backlog, no
    /// traffic generation) must provably consume no randomness and emit no
    /// event, so the clock can jump over them:
    ///
    /// * zero clock drift — the calendar's frame summaries are per true
    ///   frame slot;
    /// * sync-miss off — a miss roll draws per roster transmitter/listener
    ///   even when idle;
    /// * no crash plan — crash/recovery draws every slot and changes
    ///   radio states off-calendar (per-link loss and bursty GE spans are
    ///   fine: their lazily-advanced chains only draw on actual
    ///   receptions);
    /// * no Poisson-style traffic — only saturated broadcast (transmits
    ///   on schedule) and CBR (a closed-form generation calendar) are
    ///   predictable;
    /// * no user observers — they may watch `on_slot_end` for slots the
    ///   skip engine never announces;
    /// * a sane energy model — bulk sleep charges fast-forward repeated
    ///   `f64` addition, which requires finite non-negative slot costs.
    fn skip_eligible(&self, mac: &dyn MacProtocol) -> bool {
        let e = &self.config.energy;
        let energies_sane = [RadioState::Transmit, RadioState::Listen, RadioState::Sleep]
            .iter()
            .all(|&s| {
                let mj = e.slot_energy_mj(s);
                mj.is_finite() && mj >= 0.0
            });
        Simulator::masks_eligible(mac)
            && self.faults.plan().clock_drift == 0.0
            && self.config.miss_probability == 0.0
            && self.faults.plan().crash.is_none()
            && self.extra_observers.is_empty()
            && energies_sane
            && matches!(
                self.pattern,
                TrafficPattern::SaturatedBroadcast | TrafficPattern::CbrUnicast { period: 1.. }
            )
    }

    /// Runs `slots` consecutive slots under `mac`.
    ///
    /// Dispatches to the fastest eligible path: the event-driven
    /// time-skipping engine when the run is deterministic enough for a
    /// slot calendar ([`Simulator::run_skipping`]) and long enough to
    /// amortise its eager frame fill, otherwise the slot-by-slot pipeline
    /// ([`Simulator::run_sparse`]) on a [`SlotPlan`]'s rosters when `mac`
    /// is frame-periodic and clock drift is inactive, on per-skew-group
    /// rosters read from the MAC's slot masks when `mac` is frame-periodic
    /// under drift, and on the per-slot roster scan otherwise
    /// ([`Simulator::run_dense`] forces the scan).
    /// All paths produce bit-identical reports and traces — the golden
    /// fixtures and the equivalence proptests pin this — so the dispatch
    /// is purely a performance decision.
    pub fn run(&mut self, mac: &dyn MacProtocol, slots: u64) {
        if slots == 0 {
            return;
        }
        // Time skipping pays an eager fill of all L frame slots up front; only
        // worth it when the run visits at least a frame's worth of slots.
        if slots >= mac.frame_length() as u64 && self.skip_eligible(mac) {
            self.run_skipping(mac, slots);
        } else {
            self.run_sparse(mac, slots);
        }
    }

    /// Runs `slots` consecutive slots on a [`SlotPlan`]'s rosters, never
    /// time-skipping. Under clock drift a frame-periodic MAC runs on
    /// per-skew-group rosters instead, and a MAC that is not
    /// frame-periodic on the per-slot scan. This is the reference the
    /// skipping engine is measured and verified against;
    /// [`Simulator::run`] normally picks the fastest eligible path.
    pub fn run_sparse(&mut self, mac: &dyn MacProtocol, slots: u64) {
        if slots == 0 {
            return;
        }
        if !Simulator::masks_eligible(mac) {
            self.run_dense(mac, slots);
            return;
        }
        if self.faults.plan().clock_drift != 0.0 {
            // Moved out while stepping, like the scan in `run_dense`.
            let mut skew = std::mem::take(&mut self.skew);
            for _ in 0..slots {
                self.step_on(mac, &mut skew);
            }
            self.skew = skew;
            return;
        }
        // Build the plan into the cached buffers: the refill allocates
        // only when the frame/node shape actually grew, so repeated runs
        // under the same MAC keep the whole loop heap-silent.
        let mut plan = self.take_plan(mac);
        let mut roster = PlanRoster::new(&mut plan);
        for _ in 0..slots {
            self.step_on(mac, &mut roster);
        }
        self.plan_cache = Some(plan);
    }

    /// Runs `slots` consecutive slots on the per-slot roster scan
    /// unconditionally: each slot asks the MAC about every node at its
    /// perceived slot. The only source for non-periodic MACs, and the
    /// reference the plan and skew-group sources are measured and verified
    /// against (the `sim_scale` family of `bench_all`, the equivalence
    /// proptests).
    pub fn run_dense(&mut self, mac: &dyn MacProtocol, slots: u64) {
        // Moved out while stepping (phases borrow the simulator mutably).
        let mut scan = std::mem::take(&mut self.scan);
        for _ in 0..slots {
            self.step_on(mac, &mut scan);
        }
        self.scan = scan;
    }

    /// The cached plan rebound to `mac`, moved out of the simulator while
    /// it is stepped (the caller puts it back).
    fn take_plan(&mut self, mac: &dyn MacProtocol) -> SlotPlan {
        let n = self.topo.num_nodes();
        match self.plan_cache.take() {
            Some(mut plan) => {
                plan.rebuild(mac, n);
                plan
            }
            None => SlotPlan::build(mac, n),
        }
    }

    /// Runs `slots` consecutive slots through the event-driven
    /// time-skipping engine: the clock jumps between *interesting* slots
    /// (traffic generation, scheduled transmit occurrences of backlogged
    /// nodes — see the `events` module) and the skipped spans are settled in
    /// bulk (listener occurrences charged from the frame summaries,
    /// per-node sleep debt fast-forwarded bit-exactly). Produces reports
    /// and traces bit-identical to [`Simulator::run_sparse`] /
    /// [`Simulator::run_dense`]; falls back to them when the
    /// configuration's randomness (drift, sync-miss, crash plans, Poisson
    /// traffic, user observers) cannot be calendared.
    ///
    /// With a battery capacity configured, skipping proceeds in *epochs*:
    /// each skip window is bounded so that no node can possibly deplete
    /// inside it (half the minimum live headroom at the most expensive
    /// radio state), and when a depletion is near the engine drops to the
    /// slot-by-slot pipeline for a window so deaths land on
    /// exactly the slot they would in every other mode.
    pub fn run_skipping(&mut self, mac: &dyn MacProtocol, slots: u64) {
        if slots == 0 {
            return;
        }
        if !self.skip_eligible(mac) {
            self.run_sparse(mac, slots);
            return;
        }
        // Below this many slots of guaranteed headroom, step instead of
        // opening another (flush_all-bracketed) epoch.
        const MIN_EPOCH: u64 = 16;
        // How many slots to step when a depletion is imminent.
        const STEP_WINDOW: u64 = 64;
        let n = self.topo.num_nodes();
        let mut plan = self.take_plan(mac);
        // Eager fill: the calendar's frame summaries need every roster.
        plan.ensure_filled(mac, plan.frame_length() - 1);
        let mut skip = self.skip_cache.take().unwrap_or_default();
        skip.prepare(&plan, self.slot, &self.queues, &self.dead);
        let end = self.slot + slots;
        while self.slot < end {
            // Battery epoch: a window no node can deplete within. The
            // ledger is settled here (prepare/resettle/flush_all all
            // leave it settled), so the headroom is exact.
            let bound = match self.config.battery_capacity_mj {
                Some(cap) => {
                    let h = self.battery_epoch_slots(cap);
                    if h < MIN_EPOCH {
                        // Depletion imminent: run the slot-by-slot
                        // pipeline so the death lands on its exact slot,
                        // then re-sync the calendar.
                        let w = STEP_WINDOW.min(end - self.slot);
                        let mut roster = PlanRoster::new(&mut plan);
                        for _ in 0..w {
                            self.step_on(mac, &mut roster);
                        }
                        skip.resettle(self.slot, &self.queues, &self.dead);
                        continue;
                    }
                    end.min(self.slot.saturating_add(h))
                }
                None => end,
            };
            while self.slot < bound {
                let next = skip
                    .next_interesting(self.slot, &self.pattern, n, &self.queues, &self.dead)
                    .min(bound);
                if next > self.slot {
                    phases::energy::advance_span(
                        self,
                        &plan,
                        &skip.active.rx_busy,
                        &mut skip.last_flush,
                        next,
                    );
                    self.slot = next;
                }
                if self.slot >= bound {
                    break;
                }
                skip.pop_due(self.slot);
                self.step_skip(mac, &mut PlanRoster::new(&mut plan), &mut skip);
                skip.rearm_after_step(
                    &plan,
                    self.slot - 1,
                    &self.pattern,
                    &self.queues,
                    &self.dead,
                );
            }
            if self.config.battery_capacity_mj.is_some() {
                // Settle at the epoch boundary so the next headroom (and
                // any imminent-death window) computes on real numbers.
                phases::energy::flush_all(self, &mut skip.last_flush);
            }
        }
        phases::energy::flush_all(self, &mut skip.last_flush);
        self.skip_cache = Some(skip);
        self.plan_cache = Some(plan);
    }

    /// How many slots are *guaranteed* death-free from a settled ledger:
    /// half the minimum live headroom at the most expensive radio state.
    /// `0` means a depletion is imminent (or the capacity is unreachable
    /// nonsense like NaN) and the caller must step slot by slot;
    /// `u64::MAX` means nobody can ever die (all dead, or a free energy
    /// model).
    fn battery_epoch_slots(&self, cap: f64) -> u64 {
        let e = &self.config.energy;
        let max_slot_mj = e
            .slot_energy_mj(RadioState::Transmit)
            .max(e.slot_energy_mj(RadioState::Listen))
            .max(e.slot_energy_mj(RadioState::Sleep));
        let mut min_head = f64::INFINITY;
        for (v, &c) in self.energy.consumed_mj.iter().enumerate() {
            if !self.dead[v] {
                min_head = min_head.min(cap - c);
            }
        }
        if min_head == f64::INFINITY {
            return u64::MAX; // everyone is already dead
        }
        if min_head <= 0.0 || min_head.is_nan() {
            return 0; // imminent (or NaN capacity): step it out
        }
        if max_slot_mj == 0.0 {
            return u64::MAX; // free radios: nobody can ever deplete
        }
        let h = (0.5 * min_head / max_slot_mj).floor();
        if h >= u64::MAX as f64 {
            u64::MAX
        } else {
            h as u64
        }
    }

    /// Advances one *interesting* slot inside the skipping engine. The
    /// fault phase is elided outright: skip eligibility guarantees no
    /// crash plan and zero drift, under which it draws nothing and
    /// changes nothing. Traffic runs the calendar-aware pass, energy the
    /// debt-settling one; the exchange between them is the ordinary
    /// step's.
    fn step_skip(&mut self, mac: &dyn MacProtocol, roster: &mut PlanRoster, skip: &mut SkipState) {
        roster.load(mac, &self.faults, self.slot);
        phases::traffic::run_skip(self);
        self.exchange(mac, roster);
        phases::energy::run_skip(self, roster.awake(), &mut skip.last_flush);
        self.close_slot();
    }

    /// Snapshot of the metrics so far: the metrics observer's counters
    /// plus the engine-owned slot count, backlog, energy ledger, and the
    /// trace observer's retained events.
    pub fn report(&self) -> SimReport {
        let mut r = self.metrics.snapshot().clone();
        r.slots = self.slot;
        r.backlog = self.queues.iter().map(|q| q.len() as u64).sum();
        r.energy = self.energy.clone();
        r.trace = self.trace_obs.trace().clone();
        r
    }

    /// The energy model in effect.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.config.energy
    }

    /// `true` if `node` has exhausted its battery.
    pub fn is_dead(&self, node: usize) -> bool {
        self.dead[node]
    }

    /// Number of battery-dead nodes so far.
    pub fn dead_count(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }

    /// `true` if `node` is transiently crashed (fault injection; disjoint
    /// from battery death).
    pub fn is_crashed(&self, node: usize) -> bool {
        self.faults.is_crashed(node)
    }

    /// Number of currently-crashed nodes.
    pub fn crashed_count(&self) -> usize {
        self.faults.crashed_count()
    }
}
