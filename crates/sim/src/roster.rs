//! Who is awake this slot: the one input of every roster-driven phase.
//!
//! The paper's `(α_T, α_R)` model says that in each slot at most α_T nodes
//! transmit, at most α_R listen, and everyone else sleeps. The election,
//! channel and energy phases therefore iterate ascending rosters — the
//! slot's transmitter candidates, its listener candidates and their awake
//! union — never the whole node set. [`Roster`] is that input, and it has
//! three sources, one per stepping [`SimPath`](crate::SimPath), picked per
//! run by [`Simulator::run_on`](crate::Simulator::run_on):
//!
//! * [`PlanRoster`] reads one frame slot of a [`SlotPlan`], for
//!   frame-periodic MACs without clock drift (every node perceives the
//!   true slot, so the rosters repeat every frame); the skip calendar
//!   steps its interesting slots on it too;
//! * [`SkewRoster`] serves frame-periodic MACs under clock drift. Nodes
//!   whose clocks are off by the same whole number of slots perceive the
//!   same slot, so each such *skew group* reads one frame slot of the
//!   MAC's masks ([`MacProtocol::frame_slot_masks`]), cut to its members
//!   word by word;
//! * [`ScanRoster`] asks the MAC about every node at that node's
//!   drift-perceived slot, one O(n) scan per slot, for non-periodic MACs
//!   (and for any run forced onto [`SimPath::Scan`](crate::SimPath::Scan),
//!   as the reference the other two are checked against).
//!
//! Every source lists nodes in ascending order and draws no randomness, so
//! the phases consume the RNG exactly as an all-node scan would (the
//! compatibility rule in `phases`).

use crate::faults::FaultState;
use crate::mac::MacProtocol;
use crate::plan::{push_bits, SlotPlan};
use ttdc_util::BitSet;

/// One slot's schedule, as the phases read it.
pub(crate) trait Roster {
    /// Points the roster at `slot`. Called after the fault phase, so the
    /// clock drift it accrued this slot is visible.
    fn load(&mut self, mac: &dyn MacProtocol, faults: &FaultState, slot: u64);

    /// Nodes the schedule lets transmit, ascending.
    fn transmitters(&self) -> &[u32];

    /// Nodes the schedule lets listen, ascending.
    fn listeners(&self) -> &[u32];

    /// `transmitters ∪ listeners`, ascending.
    fn awake(&self) -> &[u32];

    /// The slot node `v` believes it is in.
    fn perceived(&self, v: usize) -> u64;

    /// Does a sender whose clock reads `pslot` expect `node` to listen?
    /// The schedule-aware packet choice asks this with the *sender's*
    /// perceived slot: a drifted sender mispredicts its receiver.
    fn listens(&self, mac: &dyn MacProtocol, node: usize, pslot: u64) -> bool;
}

/// The frame slot of a [`SlotPlan`] that the current slot maps to. Only
/// valid without clock drift: every node's perceived slot is the true one.
pub(crate) struct PlanRoster<'a> {
    plan: &'a mut SlotPlan,
    index: usize,
    slot: u64,
}

impl<'a> PlanRoster<'a> {
    pub(crate) fn new(plan: &'a mut SlotPlan) -> PlanRoster<'a> {
        PlanRoster {
            plan,
            index: 0,
            slot: 0,
        }
    }
}

impl Roster for PlanRoster<'_> {
    /// Lazy fill: a frame slot's rosters materialise on its first visit,
    /// so short runs under huge frames never pay for slots they don't
    /// reach. After the first wrap this is a bounds check.
    fn load(&mut self, mac: &dyn MacProtocol, _faults: &FaultState, slot: u64) {
        self.index = self.plan.slot_index(slot);
        self.slot = slot;
        self.plan.ensure_filled(mac, self.index);
    }

    #[inline]
    fn transmitters(&self) -> &[u32] {
        self.plan.transmitters(self.index)
    }

    #[inline]
    fn listeners(&self) -> &[u32] {
        self.plan.listeners(self.index)
    }

    #[inline]
    fn awake(&self) -> &[u32] {
        self.plan.awake(self.index)
    }

    #[inline]
    fn perceived(&self, _v: usize) -> u64 {
        self.slot
    }

    /// One bit test against the plan's listener words instead of a
    /// virtual `may_receive` call (the sender's slot is the true slot).
    #[inline]
    fn listens(&self, _mac: &dyn MacProtocol, node: usize, _pslot: u64) -> bool {
        self.plan.listens(self.index, node)
    }
}

/// Rosters rebuilt every slot by asking the MAC about each node at its
/// perceived slot. The buffers are reserved for all `n` nodes on first
/// use, so the scan never allocates after that.
#[derive(Debug, Default)]
pub(crate) struct ScanRoster {
    tx: Vec<u32>,
    rx: Vec<u32>,
    awake: Vec<u32>,
    /// `perceived[v]` = the slot node `v` believes it is in.
    perceived: Vec<u64>,
}

impl Roster for ScanRoster {
    /// The MAC may be asked about dead and crashed nodes too; the phases
    /// filter those out behind the same gates an all-node scan used.
    fn load(&mut self, mac: &dyn MacProtocol, faults: &FaultState, slot: u64) {
        let n = faults.num_nodes();
        // No-ops once the buffers have been sized for `n` nodes.
        self.perceived.resize(n, 0);
        for list in [&mut self.tx, &mut self.rx, &mut self.awake] {
            list.clear();
            list.reserve(n);
        }
        for (v, p) in self.perceived.iter_mut().enumerate() {
            *p = faults.perceived_slot(v, slot);
            let t = mac.may_transmit(v, *p);
            let r = mac.may_receive(v, *p);
            if t {
                self.tx.push(v as u32);
            }
            if r {
                self.rx.push(v as u32);
            }
            if t || r {
                self.awake.push(v as u32);
            }
        }
    }

    #[inline]
    fn transmitters(&self) -> &[u32] {
        &self.tx
    }

    #[inline]
    fn listeners(&self) -> &[u32] {
        &self.rx
    }

    #[inline]
    fn awake(&self) -> &[u32] {
        &self.awake
    }

    #[inline]
    fn perceived(&self, v: usize) -> u64 {
        self.perceived[v]
    }

    #[inline]
    fn listens(&self, mac: &dyn MacProtocol, node: usize, pslot: u64) -> bool {
        mac.may_receive(node, pslot)
    }
}

/// Rosters for a frame-periodic MAC under clock drift, built per skew
/// group instead of per node.
///
/// Nodes whose clocks are off by the same whole number of slots perceive
/// the same slot, so the nodes are grouped by skew — one group, with one
/// member word mask, per value from the lowest skew to the highest — and
/// regrouped only when [`FaultState::skew_epoch`] moves.
/// Each slot asks the MAC for the masks of every distinct frame slot the
/// groups perceive, ANDs them with each group's members into transmitter
/// and listener words, and extracts the ascending rosters with
/// `trailing_zeros`: O(groups · n/64 + awake) per slot, with no per-node
/// MAC call.
///
/// That beats the per-node scan only while the groups are few, and skews
/// spread linearly with time (a node's skew is its rate times the slots
/// run), so a long or strongly drifted run ends up with about one group
/// per node. When the skews span more than [`SkewRoster::max_groups`]
/// values, the roster delegates to the per-node [`ScanRoster`] until a
/// regroup finds them narrow again. Every buffer is sized on first use,
/// so nothing allocates after that.
#[derive(Debug)]
pub(crate) struct SkewRoster {
    tx: Vec<u32>,
    rx: Vec<u32>,
    awake: Vec<u32>,
    /// The true slot of the last load.
    slot: u64,
    /// Each node's skew as of the last regroup.
    skew: Vec<i64>,
    /// Group `g` holds the nodes of skew `lowest + g`.
    lowest: i64,
    groups: usize,
    /// Group `g`'s members as node words: `members[g * words..][..words]`.
    members: Vec<u64>,
    /// Words per node mask (`⌈n/64⌉`).
    words: usize,
    /// The skew epoch the groups were built at; `None` forces a regroup.
    epoch: Option<u64>,
    /// This slot's `(frame slot, group)` pairs, sorted so that the groups
    /// sharing a frame slot are adjacent.
    by_frame: Vec<(usize, usize)>,
    /// The MAC's masks of one frame slot.
    tx_mask: BitSet,
    rx_mask: BitSet,
    /// This slot's transmitter and listener candidates as node words.
    tx_words: Vec<u64>,
    rx_words: Vec<u64>,
    /// `true` while the skews span too many values for groups to pay;
    /// the rosters then come from `scan`.
    probing: bool,
    scan: ScanRoster,
}

impl Default for SkewRoster {
    fn default() -> SkewRoster {
        SkewRoster {
            tx: Vec::new(),
            rx: Vec::new(),
            awake: Vec::new(),
            slot: 0,
            skew: Vec::new(),
            lowest: 0,
            groups: 0,
            members: Vec::new(),
            words: 0,
            epoch: None,
            by_frame: Vec::new(),
            tx_mask: BitSet::new(0),
            rx_mask: BitSet::new(0),
            tx_words: Vec::new(),
            rx_words: Vec::new(),
            probing: false,
            scan: ScanRoster::default(),
        }
    }
}

impl SkewRoster {
    /// The most skew groups worth building for `n` nodes: a group costs
    /// one mask read and two word passes per slot, a node of the scan two
    /// MAC calls, so groups stop paying well before they reach `n`.
    fn max_groups(n: usize, words: usize) -> usize {
        (n / (words + 3)).max(1)
    }

    /// Sizes every buffer for `n` nodes.
    fn resize(&mut self, n: usize) {
        self.tx_mask = BitSet::new(n);
        self.rx_mask = BitSet::new(n);
        self.words = self.tx_mask.word_count();
        self.tx_words = vec![0; self.words];
        self.rx_words = vec![0; self.words];
        let groups = SkewRoster::max_groups(n, self.words);
        self.members = Vec::with_capacity(groups * self.words);
        self.by_frame = Vec::with_capacity(groups);
        for list in [&mut self.tx, &mut self.rx, &mut self.awake] {
            *list = Vec::with_capacity(n);
        }
        self.skew = Vec::with_capacity(n);
        self.epoch = None;
    }

    /// Rebuilds the skew groups from the current skews in O(n + groups),
    /// or switches to probing when they span more than `max_groups`
    /// values (an O(1) check).
    fn regroup(&mut self, faults: &FaultState) {
        let skews = faults.skews();
        self.epoch = Some(faults.skew_epoch());
        let (lowest, highest) = faults.skew_range();
        let span = highest.abs_diff(lowest).saturating_add(1);
        self.probing = span > SkewRoster::max_groups(skews.len(), self.words) as u64;
        if self.probing {
            return;
        }
        self.lowest = lowest;
        self.groups = span as usize;
        self.members.clear();
        self.members.resize(self.groups * self.words, 0);
        for (v, &s) in skews.iter().enumerate() {
            let g = s.abs_diff(lowest) as usize;
            self.members[g * self.words + v / 64] |= 1 << (v % 64);
        }
        self.skew.clear();
        self.skew.extend_from_slice(skews);
    }

    /// Fills the rosters from the MAC's masks, one read per distinct
    /// frame slot the groups perceive.
    fn read_masks(&mut self, mac: &dyn MacProtocol, n: usize) {
        let frame = mac.frame_length() as u64;
        self.by_frame.clear();
        for g in 0..self.groups {
            let pslot = self.slot.saturating_add_signed(self.lowest + g as i64);
            self.by_frame.push(((pslot % frame) as usize, g));
        }
        self.by_frame.sort_unstable();
        self.tx_words.fill(0);
        self.rx_words.fill(0);
        let words = self.words;
        let mut masked = None;
        for &(i, g) in &self.by_frame {
            if masked != Some(i) {
                mac.frame_slot_masks(n, i, &mut self.tx_mask, &mut self.rx_mask);
                masked = Some(i);
            }
            let members = &self.members[g * words..][..words];
            let (t, r) = (self.tx_mask.words(), self.rx_mask.words());
            for w in 0..words {
                self.tx_words[w] |= t[w] & members[w];
                self.rx_words[w] |= r[w] & members[w];
            }
        }
        for list in [&mut self.tx, &mut self.rx, &mut self.awake] {
            list.clear();
        }
        for (w, (&t, &r)) in self.tx_words.iter().zip(&self.rx_words).enumerate() {
            push_bits(&mut self.tx, w, t);
            push_bits(&mut self.rx, w, r);
            push_bits(&mut self.awake, w, t | r);
        }
    }
}

impl Roster for SkewRoster {
    /// Like the scan, the rosters include dead and crashed nodes; the
    /// phases filter those out behind the same gates.
    fn load(&mut self, mac: &dyn MacProtocol, faults: &FaultState, slot: u64) {
        let n = faults.num_nodes();
        if self.tx_mask.universe() != n {
            self.resize(n);
        }
        if self.epoch != Some(faults.skew_epoch()) {
            self.regroup(faults);
        }
        self.slot = slot;
        if self.probing {
            self.scan.load(mac, faults, slot);
        } else {
            self.read_masks(mac, n);
        }
    }

    #[inline]
    fn transmitters(&self) -> &[u32] {
        if self.probing {
            self.scan.transmitters()
        } else {
            &self.tx
        }
    }

    #[inline]
    fn listeners(&self) -> &[u32] {
        if self.probing {
            self.scan.listeners()
        } else {
            &self.rx
        }
    }

    #[inline]
    fn awake(&self) -> &[u32] {
        if self.probing {
            self.scan.awake()
        } else {
            &self.awake
        }
    }

    /// The true slot shifted by the node's skew, saturating at slot 0
    /// (`FaultState::perceived_slot` as of this load).
    #[inline]
    fn perceived(&self, v: usize) -> u64 {
        if self.probing {
            self.scan.perceived(v)
        } else {
            self.slot.saturating_add_signed(self.skew[v])
        }
    }

    #[inline]
    fn listens(&self, mac: &dyn MacProtocol, node: usize, pslot: u64) -> bool {
        mac.may_receive(node, pslot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::mac::ScheduleMac;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use ttdc_core::Schedule;

    fn random_mac(n: usize, frame: usize, seed: u64) -> ScheduleMac {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = Vec::new();
        let mut r = Vec::new();
        for _ in 0..frame {
            let tx = BitSet::from_iter(n, (0..n).filter(|_| rng.gen_bool(0.2)));
            let rx = BitSet::from_iter(n, (0..n).filter(|&v| !tx.contains(v) && rng.gen_bool(0.3)));
            t.push(tx);
            r.push(rx);
        }
        ScheduleMac::new("random", Schedule::new(n, t, r))
    }

    /// Skew groups give the per-node scan's rosters and perceived slots,
    /// across word boundaries, while the skews change, and at slots small
    /// enough that lagging clocks saturate at slot 0 (loading at slot 0
    /// after many drift steps puts several groups there at once). The
    /// skews start narrow and spread, so both the group reads and the
    /// delegated scan run.
    #[test]
    fn skew_roster_equals_scan_roster() {
        for n in [1usize, 63, 64, 65, 130] {
            let (mut modes, mut lagging) = ([false; 2], false);
            for (frame, drift) in [(1usize, 0.9), (7, 0.3), (13, 0.99), (5, 0.05)] {
                let mac = random_mac(n, frame, (n * frame) as u64);
                let mut faults = FaultState::new(FaultPlan::none().with_drift(drift), n, 5);
                let (mut skew, mut scan) = (SkewRoster::default(), ScanRoster::default());
                for step in 0..60u64 {
                    faults.step_drift();
                    for slot in [0, 1, 2, step, step + 1000] {
                        skew.load(&mac, &faults, slot);
                        scan.load(&mac, &faults, slot);
                        modes[skew.probing as usize] = true;
                        let at = format!("n={n} frame={frame} step={step} slot={slot}");
                        assert_eq!(skew.transmitters(), scan.transmitters(), "{at}");
                        assert_eq!(skew.listeners(), scan.listeners(), "{at}");
                        assert_eq!(skew.awake(), scan.awake(), "{at}");
                        for v in 0..n {
                            assert_eq!(skew.perceived(v), scan.perceived(v), "{at} v={v}");
                        }
                    }
                }
                lagging |= faults.skews().iter().any(|&s| s < -2);
            }
            assert!(n == 1 || lagging, "n={n}: lagging clocks exist");
            assert!(modes[0], "n={n}: skew groups were read");
            assert!(n == 1 || modes[1], "n={n}: the scan was delegated to");
        }
    }
}
