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
//! 4. reception resolution — the paper's rule, a reception at `y`
//!    succeeds iff **exactly one** of its neighbours transmits, unless
//!    physical capture was set with
//!    [`SimulatorBuilder::capture`](crate::SimulatorBuilder::capture);
//! 5. handoff delivery; 6. bounded ARQ; 7. energy and battery depletion.
//!
//! Election, channel and energy visit only the slot's rosters — who may
//! transmit, who may listen, who is awake — in ascending order. A run
//! takes one of four paths ([`SimPath`], picked by [`Simulator::run_on`]):
//! for a frame-periodic MAC the skip calendar or a [`SlotPlan`] supplies
//! the rosters without clock drift, and per-skew-group reads of the MAC's
//! slot masks supply them under drift; for any other MAC a per-slot scan
//! asks the MAC about every node at its drift-perceived slot. All paths
//! give bit-identical runs; the choice is only about speed.
//!
//! Anything observable is announced as an event that one fold records
//! into the [`SimReport`], counters and trace alike. Senders can be
//! *schedule-aware* (transmit a packet only in slots where its next hop is
//! scheduled to listen — possible because the schedule is global
//! knowledge even though the topology is not) or eager. The topology may be swapped between steps
//! ([`Simulator::set_topology`]) to exercise topology transparency under
//! churn and mobility.

use crate::channel::Channel;
use crate::energy::{EnergyLedger, EnergyModel, RadioState};
use crate::events::SkipState;
use crate::faults::{FaultPlan, FaultState};
use crate::mac::MacProtocol;
use crate::metrics::SimReport;
use crate::observer::SlotEvent;
use crate::phases;
use crate::plan::{ActiveSlots, SlotPlan};
use crate::roster::{PlanRoster, Roster, ScanRoster, SkewRoster};
use crate::topology::Topology;
use crate::trace::Trace;
use crate::traffic::{Packet, TrafficPattern};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use ttdc_util::BitSet;

/// Engine knobs independent of workload and protocol, set through the
/// [`SimulatorBuilder`](crate::SimulatorBuilder) setters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SimConfig {
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

/// The four ways a run can step its slots; [`Simulator::run_on`] takes
/// the requested one or the first eligible one below it, and returns the
/// path that ran. All four give bit-identical reports and traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimPath {
    /// The event-driven skip calendar: the clock jumps between
    /// *interesting* slots (traffic generation, scheduled transmit
    /// occurrences of backlogged nodes — see the `events` module), which
    /// are stepped on a [`SlotPlan`]'s rosters, and the spans between them
    /// cost nothing: each node's debt holds its idle listening at its
    /// scheduled listen slots and sleep at the rest, and is settled
    /// bit-exactly in one call when the node is next touched.
    Skip,
    /// Every slot stepped on a [`SlotPlan`]'s rosters (frame-periodic MAC,
    /// zero clock drift).
    Plan,
    /// Every slot stepped on per-skew-group rosters read from the MAC's
    /// slot masks (frame-periodic MAC under clock drift).
    Skew,
    /// Every slot stepped on a scan asking the MAC about every node at its
    /// perceived slot (any MAC, any fault plan): the reference the other
    /// paths are measured and verified against.
    Scan,
}

/// The simulator state: topology, per-node queues, the recorded report,
/// and the RNG.
///
/// Construct through [`SimulatorBuilder`](crate::SimulatorBuilder), the
/// only way to make one.
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
    /// Cumulative per-node energy. Engine-owned (not recorder state): the
    /// energy phase must read it mid-loop to decide battery death.
    pub(crate) energy: EnergyLedger,
    /// Per node, the first slot its energy has not been charged for. Every
    /// uncharged slot of a live node is debt: an idle listen at one of the
    /// run's listen slots (on the skip path, the node's scheduled ones;
    /// on the others, none), a sleep at any other. It is settled when the
    /// node next wakes or when the battery window ends; every mark equals
    /// `slot` whenever no run is in progress, so the ledger reads settled.
    pub(crate) settled: Vec<u64>,
    /// Fault-injection runtime state (crash flags, link channels, drift).
    pub(crate) faults: FaultState,
    /// How concurrent transmissions resolve at a listener.
    pub(crate) channel: Channel,
    /// Every recorded event's counters and trace; the engine-owned
    /// `slots`, `backlog` and `energy` stay zero here until
    /// [`Simulator::report`] grafts them on.
    pub(crate) record: SimReport,
    // Per-slot scratch (reused across steps to avoid allocation).
    pub(crate) tx_queue_idx: Vec<usize>,
    pub(crate) successes: Vec<(usize, usize)>,
    /// Nodes that actually transmitted this slot, ascending; the ARQ pass
    /// iterates them instead of scanning every node.
    pub(crate) active_tx: Vec<usize>,
    /// `active_tx` as a word mask; the channel phase resolves receptions
    /// by intersecting neighbourhoods against it, and the energy phase
    /// charges its members Transmit.
    pub(crate) tx_mask: BitSet,
    /// Nodes that actually listened this slot; the energy phase charges
    /// them Listen.
    pub(crate) rx_mask: BitSet,
    /// Per-slot roster scan buffers for non-periodic MACs and forced
    /// scans; reused across slots and runs.
    scan: ScanRoster,
    /// Skew-group roster for frame-periodic MACs under clock drift;
    /// reused across slots and runs like `scan`.
    skew: SkewRoster,
    /// Cached slot plan, rebuilt in place by every skip or plan run
    /// (rebuilding reuses buffers, so steady-state runs stay
    /// allocation-free).
    plan_cache: Option<SlotPlan>,
    /// Cached skip-calendar state, buffer-reused like the plan.
    skip_cache: Option<SkipState>,
}

impl Simulator {
    /// Assembles a validated simulator; only
    /// [`SimulatorBuilder::build`](crate::SimulatorBuilder::build)
    /// calls this.
    pub(crate) fn assemble(
        topo: Topology,
        pattern: TrafficPattern,
        config: SimConfig,
        channel: Channel,
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
            settled: vec![0; n],
            faults: FaultState::new(config.faults, n, config.seed),
            channel,
            record: SimReport {
                trace: Trace::new(config.trace_capacity),
                ..SimReport::new(0)
            },
            tx_queue_idx: vec![usize::MAX; n],
            successes: Vec::with_capacity(n),
            active_tx: Vec::with_capacity(n),
            tx_mask: BitSet::new(n),
            rx_mask: BitSet::new(n),
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

    /// Records `event` into the report.
    #[inline]
    pub(crate) fn emit(&mut self, event: SlotEvent) {
        self.record.record(self.slot, &event);
    }

    /// Advances one slot: the fault phase, then `roster` is loaded (after
    /// the drift the fault phase accrued), then traffic, election,
    /// channel, delivery, ARQ and energy, and the slot counter advances.
    /// The energy pass settles debt with idle listening at `listens`
    /// (the run's listen slots, if any). With `bury` it also settles
    /// every live node and checks it for battery death.
    fn step_on<R: Roster>(
        &mut self,
        mac: &dyn MacProtocol,
        roster: &mut R,
        listens: Option<&ActiveSlots>,
        bury: bool,
    ) {
        phases::faults::run(self);
        roster.load(mac, &self.faults, self.slot);
        phases::traffic::run(self);
        phases::election::run(self, mac, roster);
        phases::channel::run(self, roster.listeners());
        phases::delivery::run(self);
        phases::arq::run(self);
        phases::energy::run(self, listens, roster.awake(), bury);
        self.slot += 1;
    }

    /// Steps every slot up to (not including) `to` on `roster`, then
    /// settles every live node: the battery window of the plan, skew and
    /// scan paths.
    fn step_until<R: Roster>(
        &mut self,
        mac: &dyn MacProtocol,
        roster: &mut R,
        to: u64,
        bury: bool,
    ) {
        while self.slot < to {
            self.step_on(mac, roster, None, bury);
        }
        phases::energy::flush_all(self, None);
    }

    /// The path a run asking for `want` takes: `want` itself when the
    /// configuration admits it, otherwise the next path down the chain
    /// skip → plan/skew → scan. This is the whole dispatch rule.
    ///
    /// * **Skip** — the calendar reproduces the slot-by-slot pipeline bit
    ///   for bit only when *boring* slots (no scheduled transmitter with a
    ///   backlog, no traffic generation) provably consume no randomness and
    ///   emit no event, so the clock can jump over them. It needs
    ///   everything the plan needs plus zero clock drift (the calendar's
    ///   frame summaries are per true frame slot), zero sync-miss (a miss
    ///   roll draws per roster node even when idle), no crash plan
    ///   (crash/recovery draws every slot and changes radio states
    ///   off-calendar; per-link loss and bursty GE spans are fine, their
    ///   lazily-advanced chains only draw on actual receptions), and
    ///   saturated broadcast or CBR traffic (the only predictable
    ///   patterns: one transmits on schedule, the other has a closed-form
    ///   generation calendar).
    /// * **Plan / Skew** — one tier: a frame-periodic MAC, so the rosters
    ///   of any (perceived) slot are those of frame slot `slot % L`. Zero
    ///   drift reads them from a [`SlotPlan`]; under drift every node
    ///   perceives its own slot, so they are read per skew group.
    /// * **Scan** — any MAC, any fault plan.
    fn eligible(&self, want: SimPath, mac: &dyn MacProtocol) -> SimPath {
        let faults = self.faults.plan();
        if want == SimPath::Scan || !mac.frame_periodic() || mac.frame_length() == 0 {
            SimPath::Scan
        } else if faults.clock_drift != 0.0 {
            SimPath::Skew
        } else if want == SimPath::Skip
            && self.config.miss_probability == 0.0
            && faults.crash.is_none()
            && matches!(
                self.pattern,
                TrafficPattern::SaturatedBroadcast | TrafficPattern::CbrUnicast { .. }
            )
        {
            SimPath::Skip
        } else {
            SimPath::Plan
        }
    }

    /// Runs `slots` consecutive slots under `mac` on the fastest eligible
    /// path and returns it: the skip calendar when the run is long enough
    /// to amortise its eager fill of all `L` frame slots, otherwise the
    /// slot plan (see [`Simulator::run_on`]).
    pub fn run(&mut self, mac: &dyn MacProtocol, slots: u64) -> SimPath {
        let want = if slots >= mac.frame_length() as u64 {
            SimPath::Skip
        } else {
            SimPath::Plan
        };
        self.run_on(want, mac, slots)
    }

    /// Runs `slots` consecutive slots under `mac` on `want`, or on the
    /// first path down the chain skip → plan/skew → scan that the MAC and
    /// configuration admit, and returns the path that ran (also for zero
    /// slots, when nothing runs). Forcing a path is always safe.
    ///
    /// All paths produce bit-identical reports and traces — the golden
    /// fixtures and the equivalence proptests pin this — so the choice is
    /// purely about speed. Every path advances in the same battery windows
    /// (no node can deplete inside one, and when a depletion is near every
    /// slot of a short window is stepped), so deaths land on the same slot
    /// on every path.
    pub fn run_on(&mut self, want: SimPath, mac: &dyn MacProtocol, slots: u64) -> SimPath {
        let path = self.eligible(want, mac);
        if slots == 0 {
            return path;
        }
        match path {
            SimPath::Skip => self.skip_through(mac, slots),
            SimPath::Plan => {
                // Build the plan into the cached buffers: the refill
                // allocates only when the frame/node shape actually grew, so
                // repeated runs under the same MAC keep the loop heap-silent.
                let mut plan = self.take_plan(mac);
                let mut roster = PlanRoster::new(&mut plan);
                self.drive(slots, |sim, to, bury| {
                    sim.step_until(mac, &mut roster, to, bury)
                });
                self.plan_cache = Some(plan);
            }
            // The rosters are moved out while stepping (the phases borrow
            // the simulator mutably) and put back for the next run.
            SimPath::Skew => {
                let mut skew = std::mem::take(&mut self.skew);
                self.drive(slots, |sim, to, bury| {
                    sim.step_until(mac, &mut skew, to, bury)
                });
                self.skew = skew;
            }
            SimPath::Scan => {
                let mut scan = std::mem::take(&mut self.scan);
                self.drive(slots, |sim, to, bury| {
                    sim.step_until(mac, &mut scan, to, bury)
                });
                self.scan = scan;
            }
        }
        path
    }

    /// Runs `slots` consecutive slots on the per-slot roster scan:
    /// `run_on(SimPath::Scan, …)`.
    pub fn run_dense(&mut self, mac: &dyn MacProtocol, slots: u64) {
        self.run_on(SimPath::Scan, mac, slots);
    }

    /// The [`SimPath::Skip`] loop: the clock jumps from one interesting
    /// slot to the next, and the skipped slots stay on each node's debt,
    /// whose listen slots are the calendar's scheduled ones. Each
    /// interesting slot is stepped on the plan's rosters, where its energy
    /// pass settles the awake roster, and re-arms the calendar; each
    /// window ends by settling every live node. A bury window runs the
    /// same loop with every slot interesting.
    fn skip_through(&mut self, mac: &dyn MacProtocol, slots: u64) {
        let n = self.topo.num_nodes();
        let mut plan = self.take_plan(mac);
        // Eager fill: the calendar's frame summaries need every roster.
        plan.ensure_filled(mac, plan.frame_length() - 1);
        let mut skip = self.skip_cache.take().unwrap_or_default();
        skip.prepare(&plan, self.slot, &self.queues, &self.dead);
        self.drive(slots, |sim, to, bury| {
            loop {
                // The skipped slots stay on each node's debt.
                let next = if bury {
                    sim.slot
                } else {
                    skip.next_interesting(sim.slot, &sim.pattern, n, &sim.queues, &sim.dead)
                };
                sim.slot = next.min(to);
                if sim.slot == to {
                    break;
                }
                skip.pop_due(sim.slot);
                sim.step_on(
                    mac,
                    &mut PlanRoster::new(&mut plan),
                    Some(&skip.active),
                    bury,
                );
                skip.rearm_after_step(&plan, sim.slot - 1, &sim.pattern, &sim.queues, &sim.dead);
            }
            phases::energy::flush_all(sim, Some(&skip.active));
        });
        self.skip_cache = Some(skip);
        self.plan_cache = Some(plan);
    }

    /// Advances `slots` slots in battery windows, the one loop of every
    /// path. `advance(sim, to, bury)` must bring `sim.slot` to `to` and
    /// leave every live node settled there.
    ///
    /// Without a battery the whole run is one window. With one, each
    /// window is bounded by [`Simulator::battery_epoch_slots`], so no node
    /// can deplete inside it and its stepped slots charge the awake roster
    /// only. When that bound falls below `MIN_EPOCH` a depletion is
    /// imminent: a short window runs with `bury` set, where every stepped
    /// slot settles every live node and checks deaths in ascending order,
    /// so each `NodeDied` lands on its exact slot. Each window ends
    /// settled, which leaves the ledger exact for the next headroom and
    /// for [`Simulator::report`] at the end.
    fn drive(&mut self, slots: u64, mut advance: impl FnMut(&mut Simulator, u64, bool)) {
        // Below this many slots of guaranteed headroom, bury-step instead
        // of opening another (flush-bracketed) window.
        const MIN_EPOCH: u64 = 16;
        // How many slots to bury-step when a depletion is imminent.
        const STEP_WINDOW: u64 = 64;
        let end = self.slot + slots;
        while self.slot < end {
            let (to, bury) = match self.config.battery_capacity_mj {
                Some(cap) => match self.battery_epoch_slots(cap) {
                    h if h < MIN_EPOCH => (end.min(self.slot.saturating_add(STEP_WINDOW)), true),
                    h => (end.min(self.slot.saturating_add(h)), false),
                },
                None => (end, false),
            };
            advance(self, to, bury);
        }
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

    /// How many slots are *guaranteed* death-free from a settled ledger:
    /// half the minimum live headroom at the most expensive radio state.
    /// `0` means a depletion is imminent and the caller must step slot by
    /// slot; `u64::MAX` means nobody can ever die (all dead, or a free
    /// energy model).
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
            // `build` admits only a finite capacity and every ledger entry
            // is finite, so a live node's headroom is finite: none is left.
            return u64::MAX; // everyone is already dead
        }
        if min_head <= 0.0 {
            return 0; // imminent: step it out
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

    /// Snapshot of the metrics so far: the recorded counters and trace
    /// plus the engine-owned slot count, backlog and energy ledger.
    pub fn report(&self) -> SimReport {
        let mut r = self.record.clone();
        r.slots = self.slot;
        r.backlog = self.queues.iter().map(|q| q.len() as u64).sum();
        r.energy = self.energy.clone();
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
