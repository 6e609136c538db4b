//! Who is awake this slot: the one input of every roster-driven phase.
//!
//! The paper's `(α_T, α_R)` model says that in each slot at most α_T nodes
//! transmit, at most α_R listen, and everyone else sleeps. The election,
//! channel and energy phases therefore iterate ascending rosters — the
//! slot's transmitter candidates, its listener candidates and their awake
//! union — never the whole node set. [`Roster`] is that input, and it has
//! two sources, picked per run by [`Simulator::run`](crate::Simulator::run):
//!
//! * [`PlanRoster`] reads one frame slot of a [`SlotPlan`], for
//!   frame-periodic MACs without clock drift (every node perceives the
//!   true slot, so the rosters repeat every frame);
//! * [`ScanRoster`] asks the MAC about every node at that node's
//!   drift-perceived slot, one O(n) scan per slot, for non-periodic MACs
//!   and drifted runs.
//!
//! Both sources list nodes in ascending order and draw no randomness, so
//! the phases consume the RNG exactly as an all-node scan would (the
//! compatibility rule in `phases`).

use crate::faults::FaultState;
use crate::mac::MacProtocol;
use crate::plan::SlotPlan;

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
